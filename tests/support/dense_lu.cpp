#include "support/dense_lu.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <utility>
#include <vector>

#include "exec/error.hpp"

namespace holms::test_support {
namespace {

/// Dense row-major matrix the LU reference works on.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  double& at(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  double at(std::size_t r, std::size_t c) const { return data_[r * cols_ + c]; }
  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

void normalize(std::vector<double>& v) {
  double sum = 0.0;
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

std::vector<double> lu_steady_state(const markov::Dtmc& d) {
  // pi (P - I) = 0.
  const std::size_t n = d.size();
  Matrix a(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    for (const markov::RowEntry& e : d.row(r)) a.at(r, e.col) = e.value;
  }
  for (std::size_t r = 0; r < n; ++r) a.at(r, r) -= 1.0;
  return solve_direct(a);
}

std::vector<double> lu_steady_state(const markov::Ctmc& c) {
  const std::size_t n = c.size();
  Matrix a(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t col = 0; col < n; ++col) {
      a.at(r, col) = col == r ? -c.exit_rate(r) : c.rate(r, col);
    }
  }
  return solve_direct(a);
}

markov::AbsorbingResult lu_absorbing_analysis(
    const markov::Dtmc& chain, const std::vector<bool>& absorbing) {
  const std::size_t n = chain.size();
  if (absorbing.size() != n) {
    throw holms::InvalidArgument("absorbing_analysis: flag size mismatch");
  }
  markov::AbsorbingResult res;
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
  res.absorption_probability.assign(n, std::vector<double>(a, 0.0));
  for (std::size_t k = 0; k < a; ++k) {
    res.absorption_probability[res.absorbing_states[k]][k] = 1.0;
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
      res.absorption_probability[transient[r]][k] = col[r];
    }
  }
  return res;
}

}  // namespace holms::test_support
