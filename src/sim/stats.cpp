// HOLMS_LINT_ALLOW_FILE(D006): summary-statistics post-processing (sketch
// quantile interpolation, weighted means) over small fixed-order arrays;
// cold, single-TU, order fixed by the data layout.
#include "sim/stats.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "exec/error.hpp"
#include "exec/rng_stream.hpp"

namespace holms::sim {

void OnlineStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double OnlineStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double OnlineStats::stddev() const { return std::sqrt(variance()); }

void OnlineStats::merge(const OnlineStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double n = na + nb;
  m2_ += other.m2_ + delta * delta * na * nb / n;
  mean_ = (na * mean_ + nb * other.mean_) / n;
  n_ += other.n_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

void TimeWeightedStats::update(double time, double value) {
  if (!started_) {
    started_ = true;
    start_time_ = last_time_ = time;
    value_ = value;
    max_ = value;
    return;
  }
  assert(time >= last_time_ && "time must be monotone");
  weighted_sum_ += value_ * (time - last_time_);
  last_time_ = time;
  value_ = value;
  max_ = std::max(max_, value);
}

double TimeWeightedStats::mean() const {
  const double span = last_time_ - start_time_;
  if (span <= 0.0) return value_;
  return weighted_sum_ / span;
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), width_((hi - lo) / static_cast<double>(bins)),
      counts_(bins, 0) {
  if (!(hi > lo) || bins == 0) {
    throw holms::InvalidArgument("Histogram requires hi > lo and bins > 0");
  }
}

void Histogram::add(double x) {
  std::size_t idx;
  if (!(x >= lo_)) {  // below the range, or NaN (as QuantileSketch does)
    idx = 0;
  } else if (x >= hi_) {
    idx = counts_.size() - 1;
  } else {
    idx = static_cast<std::size_t>((x - lo_) / width_);
    idx = std::min(idx, counts_.size() - 1);
  }
  ++counts_[idx];
  ++total_;
}

double Histogram::bin_lo(std::size_t i) const {
  return lo_ + width_ * static_cast<double>(i);
}

double Histogram::quantile(double p) const {
  assert(p >= 0.0 && p <= 1.0);
  if (total_ == 0) return lo_;
  const double target = p * static_cast<double>(total_);
  double cum = 0.0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const double next = cum + static_cast<double>(counts_[i]);
    if (next >= target) {
      const double within =
          counts_[i] ? (target - cum) / static_cast<double>(counts_[i]) : 0.0;
      return bin_lo(i) + within * width_;
    }
    cum = next;
  }
  return hi_;
}

double Histogram::tail_fraction(double x) const {
  if (total_ == 0) return 0.0;
  std::size_t above = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (bin_lo(i) + width_ > x) {
      // Bin overlaps or exceeds x; count it fully once past the threshold
      // bin (a conservative, half-bin-resolution tail estimate).
      if (bin_lo(i) >= x) above += counts_[i];
    }
  }
  return static_cast<double>(above) / static_cast<double>(total_);
}

QuantileSketch::QuantileSketch(double min_value, double max_value,
                               std::size_t sub_buckets)
    : min_value_(min_value), max_value_(max_value), sub_buckets_(sub_buckets) {
  if (!(min_value > 0.0) || !(max_value > 2.0 * min_value) ||
      sub_buckets == 0) {
    throw holms::InvalidArgument(
        "QuantileSketch requires 0 < min_value, max_value > 2*min_value and "
        "sub_buckets > 0");
  }
  // bucket_for divides every in-range sample by min_value; the largest
  // finite one is the double just below max_value.
  if (std::isinf(std::nextafter(max_value, 0.0) / min_value)) {
    throw holms::InvalidArgument(
        "QuantileSketch: x / min_value overflows for x below max_value");
  }
  // Octave count by exact doubling: no std::log2, so the layout is identical
  // on every platform for the same arguments.
  octaves_ = 0;
  for (double hi = min_value_; hi < max_value_; hi *= 2.0) ++octaves_;
  const std::size_t n = 2 + octaves_ * sub_buckets_;
  if (n > (1u << 20)) {
    throw holms::InvalidArgument("QuantileSketch layout too large");
  }
  counts_.assign(n, 0);
}

double QuantileSketch::bucket_lo(std::size_t i) const {
  if (i == 0) return total_ ? seen_min_ : min_value_;
  if (i >= counts_.size() - 1) return max_value_;
  const std::size_t oct = (i - 1) / sub_buckets_;
  const std::size_t sub = (i - 1) % sub_buckets_;
  return std::scalbn(min_value_, static_cast<int>(oct)) *
         (1.0 + static_cast<double>(sub) / static_cast<double>(sub_buckets_));
}

double QuantileSketch::bucket_hi(std::size_t i) const {
  if (i == 0) return min_value_;
  if (i >= counts_.size() - 1) return total_ ? seen_max_ : max_value_;
  const std::size_t oct = (i - 1) / sub_buckets_;
  const std::size_t sub = (i - 1) % sub_buckets_;
  if (sub + 1 == sub_buckets_) {
    return std::scalbn(min_value_, static_cast<int>(oct) + 1);
  }
  return std::scalbn(min_value_, static_cast<int>(oct)) *
         (1.0 +
          static_cast<double>(sub + 1) / static_cast<double>(sub_buckets_));
}

double QuantileSketch::quantile(double p) const {
  if (total_ == 0) return 0.0;
  const double target = p * static_cast<double>(total_);
  double cum = 0.0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const double next = cum + static_cast<double>(counts_[i]);
    if (next >= target && counts_[i] > 0) {
      const double within =
          (target - cum) / static_cast<double>(counts_[i]);
      const double lo = bucket_lo(i);
      const double v = lo + within * (bucket_hi(i) - lo);
      return std::min(std::max(v, seen_min_), seen_max_);
    }
    cum = next;
  }
  return seen_max_;
}

void QuantileSketch::merge(const QuantileSketch& other) {
  if (min_value_ != other.min_value_ || max_value_ != other.max_value_ ||
      sub_buckets_ != other.sub_buckets_) {
    throw holms::InvalidArgument("QuantileSketch merge: layout mismatch");
  }
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    counts_[i] += other.counts_[i];
  }
  if (other.total_ > 0) {
    if (total_ == 0) {
      seen_min_ = other.seen_min_;
      seen_max_ = other.seen_max_;
    } else {
      seen_min_ = std::min(seen_min_, other.seen_min_);
      seen_max_ = std::max(seen_max_, other.seen_max_);
    }
  }
  total_ += other.total_;
}

std::uint64_t QuantileSketch::fingerprint() const {
  auto mix = [](std::uint64_t h, std::uint64_t v) {
    return exec::splitmix64(h ^ exec::splitmix64(v));
  };
  std::uint64_t h = 0x9e3779b97f4a7c15ull;
  h = mix(h, static_cast<std::uint64_t>(sub_buckets_));
  h = mix(h, static_cast<std::uint64_t>(octaves_));
  h = mix(h, static_cast<std::uint64_t>(total_));
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) continue;  // sparse: position-salted nonzero buckets
    h = mix(h, static_cast<std::uint64_t>(i) * 0x100000001b3ull + counts_[i]);
  }
  return h;
}

double batch_means_half_width(std::span<const double> samples,
                              std::size_t batches, double z) {
  if (batches < 2 || samples.size() < batches) return 0.0;
  const std::size_t per = samples.size() / batches;
  OnlineStats batch_stats;
  for (std::size_t b = 0; b < batches; ++b) {
    double sum = 0.0;
    for (std::size_t i = 0; i < per; ++i) sum += samples[b * per + i];
    batch_stats.add(sum / static_cast<double>(per));
  }
  return z * batch_stats.stddev() /
         std::sqrt(static_cast<double>(batch_stats.count()));
}

double autocorrelation(std::span<const double> xs, std::size_t lag) {
  if (xs.size() <= lag + 1) return 0.0;
  double mean = 0.0;
  for (double x : xs) mean += x;
  mean /= static_cast<double>(xs.size());
  double num = 0.0;
  double den = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    den += (xs[i] - mean) * (xs[i] - mean);
    if (i + lag < xs.size()) num += (xs[i] - mean) * (xs[i + lag] - mean);
  }
  if (den == 0.0) return 0.0;
  return num / den;
}

}  // namespace holms::sim
