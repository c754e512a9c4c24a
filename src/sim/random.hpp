#pragma once
// Random-number utilities shared by every stochastic model in HolMS.
//
// A single `Rng` instance is threaded through each simulation so that runs
// are exactly reproducible from a seed; distinct model components should use
// distinct streams obtained via `Rng::fork()` to keep their draws decoupled
// from one another (adding a component never perturbs another component's
// sequence).
//
// `Rng` owns its engine and every draw (DESIGN.md §5m): MT19937-64
// (Nishimura, ACM TOMACS 2000) and libstdc++ 12's draw algorithms,
// reproduced bit for bit.  The golden digests in tests/test_sim.cpp, not the
// standard library, define the streams.  Everything else draws through
// sim::Rng (or exec::stream_seed for parallel stream derivation); holms_lint
// rule D001 enforces this.

#include <cassert>
#include <cmath>
#include <cstddef>
#include <cstdint>

namespace holms::sim {

/// A 64-bit word as a double in [0, 1): the word times 2^-64, rounded once
/// to nearest, and 1 - 2^-53 where that rounds up to 1 — the value
/// std::generate_canonical<double, 53> takes from a 64-bit engine.  Both
/// halves convert exactly, so their sum is the one rounding; a plain
/// uint64 -> double cast compiles to a branch on the sign bit, which random
/// words mispredict half the time.
inline double unit_double(std::uint64_t word) {
  const double u =
      (static_cast<double>(static_cast<std::uint32_t>(word >> 32)) * 0x1p32 +
       static_cast<double>(static_cast<std::uint32_t>(word))) *
      0x1p-64;
  return u < 1.0 ? u : 0x1.fffffffffffffp-1;
}

/// Marsaglia's polar acceptance (the one copy of it): points
/// (x, y) = (2u - 1, 2u' - 1), from two uniforms on [0, 1) each, until
/// 0 < r2 = x^2 + y^2 <= 1.  y * sqrt(-2 log(r2) / r2) is then a standard
/// normal deviate.  `unit` yields the uniforms: Rng::normal's own, or a
/// chunked reader's (Rng::Uniforms).
struct PolarPoint {
  double y;
  double r2;
};

template <typename Unit>
PolarPoint polar_point(Unit&& unit) {
  double x = 0.0, y = 0.0, r2 = 0.0;
  do {
    x = 2.0 * unit() - 1.0;
    y = 2.0 * unit() - 1.0;
    r2 = x * x + y * y;
  } while (r2 > 1.0 || r2 == 0.0);
  return {y, r2};
}

/// Deterministic pseudo-random stream with the named draws used across HolMS.
///
/// All draw helpers assert their parameter preconditions; violating them is
/// a programming error, not a runtime condition.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Derives an independent child stream.  The child's seed is drawn from
  /// this stream, so forking is itself reproducible.
  Rng fork() { return Rng(bits()); }

  /// Uniform real in [lo, hi).
  double uniform(double lo = 0.0, double hi = 1.0) {
    assert(lo <= hi);
    return unit_double(bits()) * (hi - lo) + lo;
  }

  /// Uniform integer in [lo, hi] inclusive: Lemire's nearly divisionless
  /// method (ACM TOMACS 2019), one 64x64 -> 128-bit multiply per try.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    assert(lo <= hi);
    __extension__ typedef unsigned __int128 Wide;
    const std::uint64_t span =
        static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo);
    std::uint64_t offset = 0;
    if (span == ~std::uint64_t{0}) {
      offset = bits();  // the full int64 range: every word is a value
    } else {
      const std::uint64_t range = span + 1;
      Wide product = Wide{bits()} * range;
      if (static_cast<std::uint64_t>(product) < range) {
        const std::uint64_t threshold = (0 - range) % range;
        while (static_cast<std::uint64_t>(product) < threshold) {
          product = Wide{bits()} * range;
        }
      }
      offset = static_cast<std::uint64_t>(product >> 64);
    }
    return static_cast<std::int64_t>(offset + static_cast<std::uint64_t>(lo));
  }

  /// Bernoulli trial with success probability p in [0, 1].
  bool bernoulli(double p) {
    assert(p >= 0.0 && p <= 1.0);
    return uniform() < p;
  }

  /// Exponential with given rate (mean 1/rate).
  double exponential(double rate) {
    assert(rate > 0.0);
    return -std::log(1.0 - unit_double(bits())) / rate;
  }

  /// Normal(mean, stddev): Marsaglia's polar method.  Of the pair one
  /// accepted point yields, y·mult is returned and x·mult discarded.
  double normal(double mean, double stddev) {
    assert(stddev >= 0.0);
    const PolarPoint p = polar_point([this] { return unit_double(bits()); });
    const double mult = std::sqrt(-2.0 * std::log(p.r2) / p.r2);
    return p.y * mult * stddev + mean;
  }

  /// Lognormal where the underlying normal has parameters (mu, sigma).  The
  /// unit normal is drawn as normal(0, 1), i.e. z·1 + 0, before sigma and mu.
  double lognormal(double mu, double sigma) {
    assert(sigma >= 0.0);
    return std::exp(sigma * normal(0.0, 1.0) + mu);
  }

  /// Pareto with shape alpha and scale xm (support [xm, inf)).
  /// For 1 < alpha <= 2 the variance is infinite: the heavy-tailed regime
  /// used to produce self-similar ON/OFF traffic (DESIGN.md S3).
  double pareto(double alpha, double xm) {
    assert(alpha > 0.0 && xm > 0.0);
    double u = uniform();
    // Guard against u == 0 which would yield infinity.
    if (u <= 0.0) u = 1e-18;
    return xm / std::pow(u, 1.0 / alpha);
  }

  class Uniforms;

  /// Raw 64-bit draw, for seeding and index shuffling: the next state word,
  /// tempered as it is taken.
  std::uint64_t bits() {
    if (next_ == kStateWords) twist();
    std::uint64_t z = state_[next_++];
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71d67fffeda60000ULL;
    z ^= (z << 37) & 0xfff7eee000000000ULL;
    z ^= z >> 43;
    return z;
  }

 private:
  static constexpr std::size_t kStateWords = 312;

  /// Regenerates all state words in place, in std::mt19937_64's order.
  void twist();

  // One block of untempered words, as std::mt19937_64 keeps it (2,504 B per
  // stream); the constructor writes every word.
  std::uint64_t state_[kStateWords];
  std::size_t next_ = kStateWords;
};

/// A chunked consumer's reader of one Rng's uniforms: each call returns
/// what rng.uniform() would, in stream order.  It tempers and converts the
/// stream's next words a batch at a time (exec::simd unit_doubles), straight
/// from the Rng's state block, twisting at the block's end.  The first batch
/// is one 8-lane pack, enough for a one-slot channel draw; later ones are
/// kBatch words, which a chunk of draws amortizes.  Draw nothing
/// else from the Rng while a reader is live; once the reader is gone, the
/// Rng stands exactly where as many uniform() calls would have left it.
/// Words converted ahead but not handed out are simply converted again by
/// whatever draws next.  The reader lives on the caller's stack, so no
/// stream carries a second buffer.
class Rng::Uniforms {
 public:
  explicit Uniforms(Rng& rng);
  Uniforms(const Uniforms&) = delete;
  Uniforms& operator=(const Uniforms&) = delete;
  ~Uniforms() { rng_.next_ = base_ + pos_; }

  double operator()() {
    if (pos_ == len_) refill();
    return buf_[pos_++];
  }

 private:
  static constexpr std::size_t kFirstBatch = 8;
  static constexpr std::size_t kBatch = 32;

  void refill();

  Rng& rng_;
  void (*convert_)(const std::uint64_t*, double*, std::size_t);
  std::size_t base_;  // state index of buf_[0]
  std::size_t pos_ = 0;
  std::size_t len_ = 0;
  double buf_[kBatch];
};

}  // namespace holms::sim
