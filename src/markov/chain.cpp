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

// Solves pi * A = 0 with sum(pi) = 1 by replacing the last column with the
// normalization constraint and doing Gaussian elimination with partial
// pivoting on the transposed system A^T x = e_n.
std::vector<double> solve_direct(const Matrix& a) {
  const std::size_t n = a.rows();
  // Build M = A^T with last row replaced by ones; rhs = e_{n-1}.
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) m.at(i, j) = a.at(j, i);
  for (std::size_t j = 0; j < n; ++j) m.at(n - 1, j) = 1.0;
  std::vector<double> rhs(n, 0.0);
  rhs[n - 1] = 1.0;

  // Gaussian elimination with partial pivoting.
  std::vector<std::size_t> perm(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = i;
  for (std::size_t col = 0; col < n; ++col) {
    std::size_t pivot = col;
    double best = std::abs(m.at(perm[col], col));
    for (std::size_t r = col + 1; r < n; ++r) {
      const double v = std::abs(m.at(perm[r], col));
      if (v > best) {
        best = v;
        pivot = r;
      }
    }
    if (best < 1e-300) throw holms::RuntimeError("singular chain matrix");
    std::swap(perm[col], perm[pivot]);
    const double diag = m.at(perm[col], col);
    for (std::size_t r = col + 1; r < n; ++r) {
      const double factor = m.at(perm[r], col) / diag;
      if (factor == 0.0) continue;
      for (std::size_t c = col; c < n; ++c)
        m.at(perm[r], c) -= factor * m.at(perm[col], c);
      rhs[perm[r]] -= factor * rhs[perm[col]];
    }
  }
  std::vector<double> x(n, 0.0);
  for (std::size_t i = n; i-- > 0;) {
    double acc = rhs[perm[i]];
    for (std::size_t c = i + 1; c < n; ++c) acc -= m.at(perm[i], c) * x[c];
    x[i] = acc / m.at(perm[i], i);
  }
  // Clamp tiny negatives from roundoff.
  for (double& v : x) v = std::max(v, 0.0);
  normalize(x);
  return x;
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

// Dense copy for the direct LU solve.
Matrix densify(const std::vector<SparseRow>& rows) {
  Matrix a(rows.size(), rows.size());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    for (const RowEntry& e : rows[r]) a.at(r, e.col) = e.value;
  }
  return a;
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

  if (opts.method == SteadyStateMethod::kDirectLU) {
    // pi (P - I) = 0.
    Matrix a = densify(rows_);
    for (std::size_t r = 0; r < n; ++r) a.at(r, r) -= 1.0;
    SolveResult res;
    res.distribution = solve_direct(a);
    res.converged = true;
    return res;
  }
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
  if (opts.method == SteadyStateMethod::kDirectLU) {
    Matrix a = densify(rows_);
    for (std::size_t r = 0; r < size(); ++r) a.at(r, r) = -exit_rate(r);
    SolveResult res;
    res.distribution = solve_direct(a);
    res.converged = true;
    return res;
  }
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

namespace {

// PA = LU factorization with partial pivoting, factored once and applied to
// many right-hand sides.  absorbing_analysis solves the same (I - Q) system
// for 1 + |absorbing| RHS vectors; eliminating per call was O(k * t^3).  The
// multipliers are stored in the eliminated below-diagonal slots, and solve()
// replays exactly the operation sequence the old fused elimination applied to
// b — results are bitwise identical to the pre-factorization code.
class LuFactors {
 public:
  explicit LuFactors(Matrix a) : lu_(std::move(a)), perm_(lu_.rows()) {
    const std::size_t n = lu_.rows();
    for (std::size_t i = 0; i < n; ++i) perm_[i] = i;
    for (std::size_t col = 0; col < n; ++col) {
      std::size_t pivot = col;
      double best = std::abs(lu_.at(perm_[col], col));
      for (std::size_t r = col + 1; r < n; ++r) {
        const double v = std::abs(lu_.at(perm_[r], col));
        if (v > best) {
          best = v;
          pivot = r;
        }
      }
      if (best < 1e-300) {
        throw holms::RuntimeError("absorbing_analysis: singular system "
                                 "(absorption unreachable from some state)");
      }
      std::swap(perm_[col], perm_[pivot]);
      const double diag = lu_.at(perm_[col], col);
      for (std::size_t r = col + 1; r < n; ++r) {
        const double factor = lu_.at(perm_[r], col) / diag;
        lu_.at(perm_[r], col) = factor;  // L multiplier in the zeroed slot
        if (factor == 0.0) continue;
        for (std::size_t c = col + 1; c < n; ++c) {
          lu_.at(perm_[r], c) -= factor * lu_.at(perm_[col], c);
        }
      }
    }
  }

  std::vector<double> solve(std::vector<double> b) const {
    const std::size_t n = lu_.rows();
    // Forward: replay the eliminations on b.
    for (std::size_t col = 0; col < n; ++col) {
      for (std::size_t r = col + 1; r < n; ++r) {
        const double factor = lu_.at(perm_[r], col);
        if (factor == 0.0) continue;
        b[perm_[r]] -= factor * b[perm_[col]];
      }
    }
    // Back-substitution against U.
    std::vector<double> x(n, 0.0);
    for (std::size_t i = n; i-- > 0;) {
      double acc = b[perm_[i]];
      for (std::size_t c = i + 1; c < n; ++c) acc -= lu_.at(perm_[i], c) * x[c];
      x[i] = acc / lu_.at(perm_[i], i);
    }
    return x;
  }

 private:
  Matrix lu_;
  std::vector<std::size_t> perm_;
};

}  // namespace

AbsorbingResult absorbing_analysis(const Dtmc& chain,
                                   const std::vector<bool>& absorbing) {
  const std::size_t n = chain.size();
  if (absorbing.size() != n) {
    throw holms::InvalidArgument("absorbing_analysis: flag size mismatch");
  }
  AbsorbingResult res;
  std::vector<std::size_t> transient;
  for (std::size_t i = 0; i < n; ++i) {
    (absorbing[i] ? res.absorbing_states : transient).push_back(i);
  }
  if (res.absorbing_states.empty()) {
    throw holms::InvalidArgument("absorbing_analysis: no absorbing state");
  }
  const std::size_t t = transient.size();
  const std::size_t a = res.absorbing_states.size();
  res.expected_steps.assign(n, 0.0);
  res.absorption_probability = Matrix(n, a);
  for (std::size_t k = 0; k < a; ++k) {
    res.absorption_probability.at(res.absorbing_states[k], k) = 1.0;
  }
  if (t == 0) return res;

  // (I - Q) over the transient states.
  Matrix iq(t, t);
  for (std::size_t r = 0; r < t; ++r) {
    for (std::size_t c = 0; c < t; ++c) {
      iq.at(r, c) = (r == c ? 1.0 : 0.0) -
                    chain.get(transient[r], transient[c]);
    }
  }
  // One factorization serves the expected-steps system and every absorption
  // column (1 + a right-hand sides).
  const LuFactors lu(std::move(iq));
  // Expected steps: (I - Q) tvec = 1.
  const std::vector<double> steps = lu.solve(std::vector<double>(t, 1.0));
  for (std::size_t r = 0; r < t; ++r) {
    res.expected_steps[transient[r]] = steps[r];
  }
  // Absorption probabilities: (I - Q) B_col = R_col for each absorbing k.
  for (std::size_t k = 0; k < a; ++k) {
    std::vector<double> rhs(t, 0.0);
    for (std::size_t r = 0; r < t; ++r) {
      rhs[r] = chain.get(transient[r], res.absorbing_states[k]);
    }
    const std::vector<double> col = lu.solve(std::move(rhs));
    for (std::size_t r = 0; r < t; ++r) {
      res.absorption_probability.at(transient[r], k) = col[r];
    }
  }
  return res;
}

}  // namespace holms::markov
