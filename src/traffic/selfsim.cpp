// HOLMS_LINT_ALLOW_FILE(D006): offline self-similarity analysis (Hurst
// estimators, R/S and variance-time statistics) over fixed-order trace
// vectors in one TU; cold path, iteration order is part of the estimator's
// definition.
#include "traffic/selfsim.hpp"

#include "sim/stats.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "exec/error.hpp"

namespace holms::traffic {

double fgn_autocovariance(double h, std::size_t lag) {
  if (lag == 0) return 1.0;
  const double k = static_cast<double>(lag);
  const double h2 = 2.0 * h;
  return 0.5 * (std::pow(k + 1.0, h2) - 2.0 * std::pow(k, h2) +
                std::pow(k - 1.0, h2));
}

std::vector<double> fgn_hosking(std::size_t n, double h, sim::Rng& rng) {
  if (!(h > 0.0 && h < 1.0)) {
    throw holms::InvalidArgument("fgn_hosking: H must be in (0,1)");
  }
  std::vector<double> out;
  out.reserve(n);
  if (n == 0) return out;

  // Hosking's recursion maintains the partial linear-prediction coefficients
  // phi and the innovation variance v.  The O(n^2) loop reads the n
  // autocovariances many times each, so they are computed once.
  std::vector<double> gamma(n);
  for (std::size_t k = 0; k < n; ++k) gamma[k] = fgn_autocovariance(h, k);
  std::vector<double> phi;     // current AR coefficients
  std::vector<double> phi_new;
  double v = 1.0;
  out.push_back(rng.normal(0.0, 1.0));
  for (std::size_t i = 1; i < n; ++i) {
    const std::size_t m = phi.size();  // == i - 1
    // Reflection coefficient.
    double num = gamma[i];
    for (std::size_t j = 0; j < m; ++j) num -= phi[j] * gamma[i - 1 - j];
    const double kappa = num / v;
    phi_new.assign(m + 1, 0.0);
    phi_new[m] = kappa;
    for (std::size_t j = 0; j < m; ++j)
      phi_new[j] = phi[j] - kappa * phi[m - 1 - j];
    phi.swap(phi_new);
    v *= (1.0 - kappa * kappa);
    if (v < 1e-300) v = 1e-300;
    // Conditional mean given history.
    double mean = 0.0;
    for (std::size_t j = 0; j < phi.size(); ++j)
      mean += phi[j] * out[i - 1 - j];
    out.push_back(mean + std::sqrt(v) * rng.normal(0.0, 1.0));
  }
  return out;
}

double ls_slope(std::span<const double> x, std::span<const double> y) {
  assert(x.size() == y.size() && x.size() >= 2);
  const double n = static_cast<double>(x.size());
  double sx = 0.0, sy = 0.0, sxx = 0.0, sxy = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    sx += x[i];
    sy += y[i];
    sxx += x[i] * x[i];
    sxy += x[i] * y[i];
  }
  const double den = n * sxx - sx * sx;
  if (den == 0.0) return 0.0;
  return (n * sxy - sx * sy) / den;
}

namespace {

// Classic R/S statistic of one block.
double rescaled_range(std::span<const double> xs) {
  const std::size_t n = xs.size();
  double mean = 0.0;
  for (double x : xs) mean += x;
  mean /= static_cast<double>(n);
  double cum = 0.0, lo = 0.0, hi = 0.0, ss = 0.0;
  for (double x : xs) {
    cum += x - mean;
    lo = std::min(lo, cum);
    hi = std::max(hi, cum);
    ss += (x - mean) * (x - mean);
  }
  const double s = std::sqrt(ss / static_cast<double>(n));
  if (s == 0.0) return 0.0;
  return (hi - lo) / s;
}

}  // namespace

double hurst_rs(std::span<const double> xs) {
  if (xs.size() < 32) throw holms::InvalidArgument("hurst_rs: trace too short");
  std::vector<double> log_m, log_rs;
  for (std::size_t m = 8; m <= xs.size() / 4; m *= 2) {
    const std::size_t blocks = xs.size() / m;
    double acc = 0.0;
    std::size_t used = 0;
    for (std::size_t b = 0; b < blocks; ++b) {
      const double rs = rescaled_range(xs.subspan(b * m, m));
      if (rs > 0.0) {
        acc += rs;
        ++used;
      }
    }
    if (used == 0) continue;
    log_m.push_back(std::log(static_cast<double>(m)));
    log_rs.push_back(std::log(acc / static_cast<double>(used)));
  }
  if (log_m.size() < 2) throw holms::RuntimeError("hurst_rs: degenerate trace");
  return ls_slope(log_m, log_rs);
}

double hurst_aggregated_variance(std::span<const double> xs) {
  if (xs.size() < 64) {
    throw holms::InvalidArgument("hurst_aggregated_variance: trace too short");
  }
  std::vector<double> log_m, log_var;
  for (std::size_t m = 1; m <= xs.size() / 16; m *= 2) {
    const std::size_t blocks = xs.size() / m;
    sim::OnlineStats agg;
    for (std::size_t b = 0; b < blocks; ++b) {
      double sum = 0.0;
      for (std::size_t i = 0; i < m; ++i) sum += xs[b * m + i];
      agg.add(sum / static_cast<double>(m));
    }
    const double var = agg.variance();
    if (var <= 0.0) continue;
    log_m.push_back(std::log(static_cast<double>(m)));
    log_var.push_back(std::log(var));
  }
  if (log_m.size() < 2) {
    throw holms::RuntimeError("hurst_aggregated_variance: degenerate trace");
  }
  // slope = 2H - 2.
  const double slope = ls_slope(log_m, log_var);
  return std::clamp(1.0 + slope / 2.0, 0.0, 1.0);
}

double hurst_periodogram(std::span<const double> xs,
                         double low_frequency_fraction) {
  const std::size_t n = xs.size();
  if (n < 128) {
    throw holms::InvalidArgument("hurst_periodogram: trace too short");
  }
  if (!(low_frequency_fraction > 0.0 && low_frequency_fraction <= 0.5)) {
    throw holms::InvalidArgument("hurst_periodogram: bad frequency fraction");
  }
  double mean = 0.0;
  for (double x : xs) mean += x;
  mean /= static_cast<double>(n);

  // Naive DFT over the lowest-frequency bins only: k = 1 .. K where
  // K = fraction * n/2.  O(n*K), fine for the 2^13..2^14 traces used here.
  const std::size_t kmax = std::max<std::size_t>(
      8, static_cast<std::size_t>(low_frequency_fraction *
                                  static_cast<double>(n) / 2.0));
  std::vector<double> log_f, log_i;
  const double two_pi = 2.0 * 3.14159265358979323846;
  for (std::size_t k = 1; k <= kmax; ++k) {
    const double w = two_pi * static_cast<double>(k) / static_cast<double>(n);
    double re = 0.0, im = 0.0;
    for (std::size_t t = 0; t < n; ++t) {
      const double v = xs[t] - mean;
      re += v * std::cos(w * static_cast<double>(t));
      im -= v * std::sin(w * static_cast<double>(t));
    }
    const double periodogram =
        (re * re + im * im) / (two_pi * static_cast<double>(n));
    if (periodogram <= 0.0) continue;
    log_f.push_back(std::log(w));
    log_i.push_back(std::log(periodogram));
  }
  if (log_f.size() < 4) {
    throw holms::RuntimeError("hurst_periodogram: degenerate spectrum");
  }
  // slope = 1 - 2H.
  const double slope = ls_slope(log_f, log_i);
  return std::clamp((1.0 - slope) / 2.0, 0.0, 1.0);
}

}  // namespace holms::traffic
