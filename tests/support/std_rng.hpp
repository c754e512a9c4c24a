#pragma once
// Bitwise oracle for sim::Rng: the same draws taken through
// std::mt19937_64 and the std::*_distribution templates, one fresh
// distribution object per call (so normal() discards its second polar
// variate, as sim::Rng does).  sim::Rng owns its engine and draw code; on
// libstdc++ 12 every stream it produces must equal this one bit for bit.
// Tests only: library code draws through sim::Rng (holms_lint D001).
#include <cmath>
#include <cstdint>
#include <random>

namespace holms::test_support {

class StdRng {
 public:
  explicit StdRng(std::uint64_t seed) : engine_(seed) {}

  StdRng fork() { return StdRng(engine_()); }
  std::uint64_t bits() { return engine_(); }

  double uniform(double lo = 0.0, double hi = 1.0) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }
  bool bernoulli(double p) { return uniform() < p; }
  double exponential(double rate) {
    return std::exponential_distribution<double>(rate)(engine_);
  }
  // std::normal_distribution requires stddev > 0, and libstdc++ asserts it
  // under _GLIBCXX_ASSERTIONS.  Unchecked, it computes y·mult·0 + mean at
  // stddev 0; a unit draw (y·mult·1 + 0, never -0) times 0 gives those bits.
  double normal(double mean, double stddev) {
    if (stddev == 0.0) {
      return std::normal_distribution<double>()(engine_) * 0.0 + mean;
    }
    return std::normal_distribution<double>(mean, stddev)(engine_);
  }
  double lognormal(double mu, double sigma) {
    return std::lognormal_distribution<double>(mu, sigma)(engine_);
  }
  double pareto(double alpha, double xm) {
    double u = uniform();
    if (u <= 0.0) u = 1e-18;
    return xm / std::pow(u, 1.0 / alpha);
  }

 private:
  std::mt19937_64 engine_;
};

}  // namespace holms::test_support
