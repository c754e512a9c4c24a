#include "markov/chain.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "markov/sparse.hpp"

#include "exec/error.hpp"

namespace holms::markov {
namespace {

void normalize(std::vector<double>& v) {
  double sum = 0.0;
  // HOLMS_LINT_ALLOW(D006): direct-solver/CTMC normalize over the state vector in index order; iterative paths reduce through exec::simd
  for (double x : v) sum += x;
  if (sum <= 0.0) throw holms::RuntimeError("distribution has zero mass");
  for (double& x : v) x /= sum;
}

// Every chain accessor funnels through here: an index past the state space
// is a caller bug, reported as a typed exception in every build type.
void check_states(std::size_t from, std::size_t to, std::size_t n,
                  const char* what) {
  if (from >= n || to >= n) {
    throw holms::OutOfRange(std::string(what) + ": state index out of range");
  }
}

void check_initial(std::span<const double> initial, std::size_t n,
                   const char* what) {
  if (initial.size() != n) {
    throw holms::InvalidArgument(std::string(what) +
                                 ": initial distribution size != chain size");
  }
}

bool col_less(const RowEntry& e, std::size_t col) { return e.col < col; }

// Overwrites or inserts (row, col), keeping the row column-sorted.  Chains
// are mostly built in ascending column order, so the insert is usually an
// append.
void put(SparseRow& row, std::size_t col, double value) {
  const auto it = std::lower_bound(row.begin(), row.end(), col, col_less);
  if (it != row.end() && it->col == col) {
    it->value = value;
  } else {
    row.insert(it, RowEntry{col, value});
  }
}

double lookup(const SparseRow& row, std::size_t col) {
  const auto it = std::lower_bound(row.begin(), row.end(), col, col_less);
  return it != row.end() && it->col == col ? it->value : 0.0;
}

// The direct steady state of a chain's sparse rows (a Dtmc's diagonal is
// ignored: pi (P - I) = 0 reads only the off-diagonal entries).
SolveResult solve_exact(std::span<const SparseRow> rows) {
  return SolveResult{GthFactors(rows, {}).stationary(), 0, true};
}

}  // namespace

void Dtmc::set(std::size_t from, std::size_t to, double prob) {
  check_states(from, to, size(), "Dtmc::set");
  if (!(prob >= 0.0 && prob <= 1.0 + 1e-12)) {
    throw holms::InvalidArgument("Dtmc::set: probability must be in [0, 1]");
  }
  put(rows_[from], to, prob);
}

double Dtmc::get(std::size_t from, std::size_t to) const {
  check_states(from, to, size(), "Dtmc::get");
  return lookup(rows_[from], to);
}

std::span<const RowEntry> Dtmc::row(std::size_t from) const {
  check_states(from, from, size(), "Dtmc::row");
  return rows_[from];
}

bool Dtmc::is_stochastic(double tol) const {
  for (const SparseRow& row : rows_) {
    double sum = 0.0;
    for (const RowEntry& e : row) {
      if (e.value < -tol) return false;
      // HOLMS_LINT_ALLOW(D006): cold row-sum validation, scalar in ascending column order
      sum += e.value;
    }
    if (std::abs(sum - 1.0) > tol) return false;
  }
  return true;
}

SolveResult Dtmc::steady_state(const SolveOptions& opts) const {
  opts.validate();
  const std::size_t n = size();
  if (n == 0) return {};

  if (opts.method == SteadyStateMethod::kDirect) return solve_exact(rows_);
  const CsrMatrix p(n, rows_);
  return opts.method == SteadyStateMethod::kPowerIteration
             ? sparse_power_iteration(p, opts)
             : sparse_gauss_seidel(p, opts);
}

std::vector<double> Dtmc::transient(std::span<const double> initial,
                                    std::size_t steps) const {
  const std::size_t n = size();
  check_initial(initial, n, "Dtmc::transient");
  std::vector<double> pi(initial.begin(), initial.end());
  std::vector<double> next(n, 0.0);
  // Scatter in ascending source-row order, so every next[c] sums its terms
  // in row order and transient results stay bitwise stable; the zeros that
  // are not stored would only add pr * 0.0, which changes no sum.
  for (std::size_t s = 0; s < steps; ++s) {
    std::fill(next.begin(), next.end(), 0.0);
    for (std::size_t r = 0; r < n; ++r) {
      const double pr = pi[r];
      if (pr == 0.0) continue;
      for (const RowEntry& e : rows_[r]) next[e.col] += pr * e.value;
    }
    pi.swap(next);
  }
  return pi;
}

void Ctmc::set_rate(std::size_t from, std::size_t to, double rate) {
  check_states(from, to, size(), "Ctmc::set_rate");
  if (from == to) {
    throw holms::InvalidArgument(
        "Ctmc::set_rate: the diagonal is derived; set only off-diagonal rates");
  }
  if (!(rate >= 0.0)) {
    throw holms::InvalidArgument("Ctmc::set_rate: rate must be >= 0");
  }
  put(rows_[from], to, rate);
}

double Ctmc::rate(std::size_t from, std::size_t to) const {
  check_states(from, to, size(), "Ctmc::rate");
  return lookup(rows_[from], to);
}

double Ctmc::exit_rate(std::size_t s) const {
  check_states(s, s, size(), "Ctmc::exit_rate");
  double sum = 0.0;
  // HOLMS_LINT_ALLOW(D006): the exit rate feeds the uniformization constant lambda; a scalar ascending-column sum keeps uniformized solves bitwise stable
  for (const RowEntry& e : rows_[s]) sum += e.value;
  return sum;
}

Dtmc Ctmc::uniformized(double* lambda_out) const {
  const std::size_t n = size();
  double lambda = 0.0;
  for (std::size_t s = 0; s < n; ++s) lambda = std::max(lambda, exit_rate(s));
  // Slightly inflate so diagonal entries stay strictly positive, which makes
  // the uniformized chain aperiodic.
  lambda = lambda * 1.02 + 1e-12;
  if (lambda_out) *lambda_out = lambda;
  Dtmc d(n);
  for (std::size_t r = 0; r < n; ++r) {
    double off = 0.0;
    for (const RowEntry& e : rows_[r]) {
      const double p = e.value / lambda;
      d.set(r, e.col, p);
      // HOLMS_LINT_ALLOW(D006): off sets the uniformized diagonal 1 - off; a scalar ascending-column sum keeps uniformized solves bitwise stable
      off += p;
    }
    d.set(r, r, 1.0 - off);
  }
  return d;
}

SolveResult Ctmc::steady_state(const SolveOptions& opts) const {
  opts.validate();
  if (size() == 0) return {};
  if (opts.method == SteadyStateMethod::kDirect) return solve_exact(rows_);
  // Iterative methods work on the uniformized DTMC, which shares the CTMC's
  // stationary distribution.
  return uniformized().steady_state(opts);
}

std::vector<double> Ctmc::transient(std::span<const double> initial, double t,
                                    double truncation_eps) const {
  const std::size_t n = size();
  check_initial(initial, n, "Ctmc::transient");
  if (t <= 0.0) return std::vector<double>(initial.begin(), initial.end());
  double lambda = 0.0;
  const Dtmc p = uniformized(&lambda);
  // Uniformization: pi(t) = sum_k Poisson(lambda t; k) * pi0 P^k.
  std::vector<double> term(initial.begin(), initial.end());
  std::vector<double> result(n, 0.0);
  const double lt = lambda * t;
  double log_poisson = -lt;  // log of Poisson pmf at k = 0
  double cumulative = 0.0;
  // Cap iterations generously: mean + 10 sigma.
  const std::size_t kmax =
      static_cast<std::size_t>(lt + 10.0 * std::sqrt(lt) + 50.0);
  for (std::size_t k = 0; k <= kmax; ++k) {
    const double w = std::exp(log_poisson);
    for (std::size_t i = 0; i < n; ++i) result[i] += w * term[i];
    cumulative += w;
    if (1.0 - cumulative < truncation_eps) break;
    term = p.transient(term, 1);
    log_poisson += std::log(lt) - std::log(static_cast<double>(k + 1));
  }
  normalize(result);
  return result;
}

double expected_reward(std::span<const double> pi,
                       const std::function<double(std::size_t)>& reward) {
  double acc = 0.0;
  // HOLMS_LINT_ALLOW(D006): cold analytic reward sum in state-index order
  for (std::size_t i = 0; i < pi.size(); ++i) acc += pi[i] * reward(i);
  return acc;
}

GthFactors::GthFactors(std::span<const SparseRow> rows,
                       std::vector<double> exit)
    : pivot_(std::move(exit)) {
  const std::size_t n = rows.size();
  if (pivot_.empty()) pivot_.assign(n, 0.0);
  bool valid = pivot_.size() == n;
  for (std::size_t i = 0; valid && i < n; ++i) {
    valid = pivot_[i] >= 0.0;
    for (const RowEntry& e : rows[i]) {
      valid = valid && e.col < n && e.value >= 0.0;
      if (e.value > 0.0 && e.col < i) lower_ = std::max(lower_, i - e.col);
      if (e.value > 0.0 && e.col > i) upper_ = std::max(upper_, e.col - i);
    }
  }
  if (!valid) {
    throw holms::InvalidArgument(
        "GthFactors: need entries >= 0 in columns < n and n exit masses >= 0");
  }
  band_.assign(n * (lower_ + upper_ + 1), 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (const RowEntry& e : rows[i]) {
      if (e.value > 0.0) at(i, e.col) = e.value;
    }
  }
  // Censor states out from the last one down; pivot_[k] holds k's exit mass
  // until k goes.  Row k's band below the diagonal is columns
  // [first_col(k), k), and so is the slice of each row i < k it updates.
  for (std::size_t k = n; k-- > 0;) {
    const std::size_t jlo = first_col(k);
    const double* row_k = &at(k, jlo);
    const double exit_k = pivot_[k];
    double s = exit_k;
    // HOLMS_LINT_ALLOW(D006): GTH pivot, a scalar sum over at most lower_ band entries in ascending column order; direct solves only
    for (std::size_t j = 0; j < k - jlo; ++j) s += row_k[j];
    pivot_[k] = s;
    if (s == 0.0) {
      // k is the lowest state of a closed class: what flows into it leaves
      // the states below for good.
      zero_pivots_.push_back(k);
      for (std::size_t i = first_row(k); i < k; ++i) pivot_[i] += at(i, k);
      continue;
    }
    for (std::size_t i = first_row(k); i < k; ++i) {
      const double f = at(i, k) / s;
      if (f == 0.0) continue;
      pivot_[i] += f * exit_k;
      double* row_i = &at(i, jlo);
      for (std::size_t j = 0; j < k - jlo; ++j) row_i[j] += f * row_k[j];
    }
  }
}

void GthFactors::substitute_left(std::vector<double>& x,
                                 std::size_t root) const {
  for (std::size_t k = 0; k < size(); ++k) {
    double inflow = x[k];
    // HOLMS_LINT_ALLOW(D006): GTH back-substitution, a scalar sum over at most upper_ band entries in ascending state order; direct solves only
    for (std::size_t i = first_row(k); i < k; ++i) inflow += x[i] * at(i, k);
    if (pivot_[k] == 0.0 && k != root && inflow != 0.0) {
      throw holms::RuntimeError(
          "GthFactors: flow reaches a closed class that has no exit");
    }
    x[k] = pivot_[k] > 0.0 ? inflow / pivot_[k] : k == root ? 1.0 : 0.0;
  }
}

std::vector<double> GthFactors::stationary() const {
  if (zero_pivots_.size() != 1) {
    throw holms::RuntimeError(
        "singular chain matrix: " + std::to_string(zero_pivots_.size()) +
        " closed classes, so no unique stationary distribution");
  }
  std::vector<double> pi(size(), 0.0);
  substitute_left(pi, zero_pivots_[0]);
  normalize(pi);
  return pi;
}

std::vector<double> GthFactors::solve_left(std::vector<double> b) const {
  if (b.size() != size()) {
    throw holms::InvalidArgument("GthFactors::solve_left: size mismatch");
  }
  // Forward: each censored state hands its share of b to the states below.
  for (std::size_t k = size(); k-- > 0;) {
    if (pivot_[k] == 0.0 || b[k] == 0.0) continue;
    const double f = b[k] / pivot_[k];
    for (std::size_t j = first_col(k); j < k; ++j) b[j] += f * at(k, j);
  }
  substitute_left(b, size());
  return b;
}

std::vector<double> GthFactors::solve_right(std::vector<double> c) const {
  if (c.size() != size()) {
    throw holms::InvalidArgument("GthFactors::solve_right: size mismatch");
  }
  if (!zero_pivots_.empty()) {
    throw holms::RuntimeError(
        "GthFactors::solve_right: singular system (a closed class has no "
        "exit, e.g. absorption unreachable from some state)");
  }
  for (std::size_t k = size(); k-- > 0;) {
    if (c[k] == 0.0) continue;
    const double f = c[k] / pivot_[k];
    for (std::size_t i = first_row(k); i < k; ++i) c[i] += at(i, k) * f;
  }
  for (std::size_t k = 0; k < size(); ++k) {
    double acc = c[k];
    // HOLMS_LINT_ALLOW(D006): GTH back-substitution, a scalar sum over at most lower_ band entries in ascending state order; absorbing analysis only
    for (std::size_t j = first_col(k); j < k; ++j) acc += at(k, j) * c[j];
    c[k] = acc / pivot_[k];
  }
  return c;
}

AbsorbingResult absorbing_analysis(const Dtmc& chain,
                                   const std::vector<bool>& absorbing) {
  const std::size_t n = chain.size();
  if (absorbing.size() != n) {
    throw holms::InvalidArgument("absorbing_analysis: flag size mismatch");
  }
  AbsorbingResult res;
  std::vector<std::size_t> transient;
  std::vector<std::size_t> index(n);  // position among transient or absorbing
  for (std::size_t i = 0; i < n; ++i) {
    auto& group = absorbing[i] ? res.absorbing_states : transient;
    index[i] = group.size();
    group.push_back(i);
  }
  if (res.absorbing_states.empty()) {
    throw holms::InvalidArgument("absorbing_analysis: no absorbing state");
  }
  const std::size_t t = transient.size();
  const std::size_t a = res.absorbing_states.size();
  res.expected_steps.assign(n, 0.0);
  res.absorption_probability.assign(n, std::vector<double>(a, 0.0));
  for (std::size_t k = 0; k < a; ++k) {
    res.absorption_probability[res.absorbing_states[k]][k] = 1.0;
  }
  if (t == 0) return res;

  // The transient block Q in chain order; R's columns (mass into each
  // absorbing state) are the right-hand sides, and their sum is the exit.
  std::vector<SparseRow> q(t);
  std::vector<double> exit(t, 0.0);
  std::vector<std::vector<double>> r(a, std::vector<double>(t, 0.0));
  for (std::size_t s = 0; s < t; ++s) {
    for (const RowEntry& e : chain.row(transient[s])) {
      if (absorbing[e.col]) {
        r[index[e.col]][s] = e.value;
        exit[s] += e.value;
      } else {
        q[s].push_back(RowEntry{index[e.col], e.value});
      }
    }
  }
  // One factorization of (I - Q) serves the expected-steps system and every
  // absorption column; it throws when some state cannot reach absorption.
  const GthFactors f(q, std::move(exit));
  const std::vector<double> steps = f.solve_right(std::vector<double>(t, 1.0));
  for (std::size_t s = 0; s < t; ++s) {
    res.expected_steps[transient[s]] = steps[s];
  }
  for (std::size_t k = 0; k < a; ++k) {
    const std::vector<double> col = f.solve_right(std::move(r[k]));
    for (std::size_t s = 0; s < t; ++s) {
      res.absorption_probability[transient[s]][k] = col[s];
    }
  }
  return res;
}

}  // namespace holms::markov
