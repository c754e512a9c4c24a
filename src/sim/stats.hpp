#pragma once
// Streaming statistics used by every simulator in HolMS.
//
// Multimedia QoS metrics (end-to-end latency, jitter, loss rate, buffer
// occupancy) are *average-case* quantities (paper §2), so every model keeps
// streaming estimators rather than logging traces:
//   - OnlineStats        event-weighted mean/variance (Welford)
//   - TimeWeightedStats  time-weighted averages for occupancy-style signals
//   - Histogram          fixed-bin empirical distribution + quantiles
//   - QuantileSketch     log-linear p50/p99/p999 sketch with a layout fixed
//                        at construction (deterministic, order-insensitive,
//                        mergeable across localities)
//   - batch-means CI     confidence intervals for correlated DES output
//   - autocorrelation    used to distinguish short- vs long-range dependence

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace holms::sim {

/// Welford-style online mean/variance over per-event observations.
class OnlineStats {
 public:
  void add(double x);

  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  /// Unbiased sample variance; 0 until two observations exist.
  double variance() const;
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double sum() const { return sum_; }

  /// Merges another estimator (parallel/batched collection).
  void merge(const OnlineStats& other);

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Time-weighted average of a piecewise-constant signal, e.g. queue length.
/// Call `update(t, v)` every time the signal changes; the value `v` is held
/// from `t` until the next update.
class TimeWeightedStats {
 public:
  void update(double time, double value);
  /// Closes the observation window at `time` without changing the value.
  void finish(double time) { update(time, value_); }

  double mean() const;
  double time_observed() const { return last_time_ - start_time_; }
  double current() const { return value_; }
  double max() const { return max_; }

 private:
  bool started_ = false;
  double start_time_ = 0.0;
  double last_time_ = 0.0;
  double value_ = 0.0;
  double weighted_sum_ = 0.0;
  double max_ = 0.0;
};

/// Fixed-width-bin histogram over [lo, hi); out-of-range samples are counted
/// in saturating edge bins so that mass is never silently dropped.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x);
  std::size_t total() const { return total_; }
  std::size_t bin_count(std::size_t i) const { return counts_.at(i); }
  std::size_t bins() const { return counts_.size(); }
  double bin_lo(std::size_t i) const;
  /// Empirical p-quantile (p in [0,1]), linear within the containing bin.
  double quantile(double p) const;
  /// Fraction of samples >= x.
  double tail_fraction(double x) const;

 private:
  double lo_;
  double hi_;
  double width_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
};

/// Streaming quantile estimator with a log-linear (HDR-histogram style)
/// bucket layout: `sub_buckets` linearly spaced buckets per octave between
/// `min_value` and `max_value`, plus saturating under-/overflow buckets.
///
/// The layout is a pure function of the constructor arguments — never of the
/// data — so two sketches fed the same multiset of samples hold identical
/// counts regardless of arrival order or how the stream was sharded.  That
/// makes p50/p99/p999 reproducible bitwise across thread counts: each
/// locality keeps its own sketch and the service layer merges them in index
/// order.  Relative quantile error is bounded by one sub-bucket width,
/// ~1/sub_buckets of the value.
class QuantileSketch {
 public:
  /// Throws InvalidArgument unless 0 < min_value, max_value > 2*min_value,
  /// sub_buckets > 0, and x / min_value is finite for every finite x below
  /// max_value (so bucket_for never sees an infinite ratio).
  QuantileSketch(double min_value, double max_value,
                 std::size_t sub_buckets = 16);

  void add(double x) {
    if (total_ == 0) {
      seen_min_ = seen_max_ = x;
    } else {
      seen_min_ = std::min(seen_min_, x);
      seen_max_ = std::max(seen_max_, x);
    }
    ++counts_[bucket_for(x)];
    ++total_;
  }
  std::size_t count() const { return total_; }
  /// Empirical p-quantile (p in [0,1]), linear within the containing bucket
  /// and clamped to the exact observed [min, max].  0 when empty.
  double quantile(double p) const;
  double p50() const { return quantile(0.50); }
  double p99() const { return quantile(0.99); }
  double p999() const { return quantile(0.999); }
  double min() const { return total_ ? seen_min_ : 0.0; }
  double max() const { return total_ ? seen_max_ : 0.0; }

  /// Merges a sketch with the identical layout (throws InvalidArgument
  /// otherwise).  merge-then-quantile == feed-everything-then-quantile.
  void merge(const QuantileSketch& other);

  /// Order-insensitive splitmix64 chain over the layout and bucket counts;
  /// equal streams -> equal fingerprints, used by the determinism gates.
  std::uint64_t fingerprint() const;

  std::size_t buckets() const { return counts_.size(); }

 private:
  std::size_t bucket_for(double x) const {
    if (!(x >= min_value_)) return 0;  // underflow (and NaN)
    if (x >= max_value_) return counts_.size() - 1;
    // The octave and in-octave fraction come from the bits of m: it is a
    // finite double >= 1 (the constructor's layout rule), hence normal, so
    // its biased exponent - 1023 is exactly ilogb(m) and its mantissa under
    // exponent 1023 is exactly scalbn(m, -ilogb(m)), in [1, 2).  Bucket
    // choice is integer work on the exponent field, never libm rounding.
    const auto bits = std::bit_cast<std::uint64_t>(x / min_value_);
    constexpr std::uint64_t kMantissa = (std::uint64_t{1} << 52) - 1;
    const std::size_t oct = static_cast<std::size_t>(bits >> 52) - 1023;
    const double frac =
        std::bit_cast<double>((bits & kMantissa) | (std::uint64_t{1023} << 52));
    std::size_t sub = static_cast<std::size_t>(
        (frac - 1.0) * static_cast<double>(sub_buckets_));
    sub = std::min(sub, sub_buckets_ - 1);
    return std::min(1 + oct * sub_buckets_ + sub, counts_.size() - 2);
  }
  double bucket_lo(std::size_t i) const;
  double bucket_hi(std::size_t i) const;

  double min_value_;
  double max_value_;
  std::size_t sub_buckets_;
  std::size_t octaves_;
  std::vector<std::uint64_t> counts_;
  std::size_t total_ = 0;
  double seen_min_ = 0.0;
  double seen_max_ = 0.0;
};

/// Half-width of a normal-approximation confidence interval computed with the
/// batch-means method, the standard way to interval-estimate steady-state
/// means from one correlated DES run.  `z` defaults to the 95% quantile.
double batch_means_half_width(std::span<const double> samples,
                              std::size_t batches = 20, double z = 1.96);

/// Sample autocorrelation at the given lag.  Heavy multimedia traffic has a
/// power-law decaying autocorrelation (paper §3.2); Markovian traffic decays
/// geometrically.
double autocorrelation(std::span<const double> xs, std::size_t lag);

/// Result of independent replications of a stochastic experiment.
struct Replication {
  OnlineStats stats;            // across-replication distribution
  double half_width_95 = 0.0;   // normal-approx CI half width
  double relative_error = 0.0;  // half width / |mean|
};

/// Runs `fn(seed)` for seeds base..base+n-1 and interval-estimates the mean
/// — the methodologically honest way to quote any simulation number in a
/// bench or paper table.
template <typename Fn>
Replication replicate(std::size_t n, Fn&& fn, std::uint64_t seed_base = 1) {
  Replication r;
  for (std::size_t i = 0; i < n; ++i) {
    r.stats.add(fn(seed_base + i));
  }
  if (r.stats.count() >= 2) {
    r.half_width_95 = 1.96 * r.stats.stddev() /
                      std::sqrt(static_cast<double>(r.stats.count()));
    if (r.stats.mean() != 0.0) {
      r.relative_error = r.half_width_95 / std::abs(r.stats.mean());
    }
  }
  return r;
}

}  // namespace holms::sim
