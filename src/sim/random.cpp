// MT19937-64 seeding and twist for sim::Rng, in std::mt19937_64's order so
// every stream matches it word for word.
#include "sim/random.hpp"

#include <algorithm>

#include "exec/simd.hpp"

namespace holms::sim {

// No second buffer: a tempered copy of the block would double every stream.
static_assert(sizeof(Rng) == 313 * sizeof(std::uint64_t));

Rng::Rng(std::uint64_t seed) {
  state_[0] = seed;
  for (std::size_t i = 1; i < kStateWords; ++i) {
    const std::uint64_t x = state_[i - 1];
    state_[i] = 6364136223846793005ULL * (x ^ (x >> 62)) + i;
  }
}

void Rng::twist() {
  constexpr std::size_t kMiddle = 156;
  constexpr std::uint64_t kUpper = ~std::uint64_t{0} << 31;
  constexpr std::uint64_t kMatrix = 0xb5026f5aa96619e9ULL;
  // The masked multiply by the twist matrix, branch-free: y's low bit
  // selects kMatrix, a branch std::mt19937_64 mispredicts half the time.
  const auto mix = [](std::uint64_t upper, std::uint64_t lower,
                      std::uint64_t far) {
    const std::uint64_t y = (upper & kUpper) | (lower & ~kUpper);
    return far ^ (y >> 1) ^ (kMatrix & (0 - (y & 1)));
  };
  std::size_t k = 0;
  for (; k < kStateWords - kMiddle; ++k) {
    state_[k] = mix(state_[k], state_[k + 1], state_[k + kMiddle]);
  }
  for (; k < kStateWords - 1; ++k) {
    state_[k] =
        mix(state_[k], state_[k + 1], state_[k + kMiddle - kStateWords]);
  }
  state_[kStateWords - 1] =
      mix(state_[kStateWords - 1], state_[0], state_[kMiddle - 1]);
  next_ = 0;
}

Rng::Uniforms::Uniforms(Rng& rng)
    : rng_(rng), convert_(exec::simd::kernels().unit_doubles),
      base_(rng.next_) {}

void Rng::Uniforms::refill() {
  base_ += pos_;
  if (base_ == kStateWords) {
    rng_.twist();
    base_ = 0;
  }
  pos_ = 0;
  len_ = std::min(len_ == 0 ? kFirstBatch : kBatch, kStateWords - base_);
  convert_(rng_.state_ + base_, buf_, len_);
}

}  // namespace holms::sim
