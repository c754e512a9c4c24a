#include "support/power_oracle.hpp"

#include <utility>
#include <vector>

#include "exec/simd.hpp"
#include "markov/sparse.hpp"

namespace holms::test_support {

markov::SolveResult unsharded_power_iteration(const markov::Dtmc& d,
                                              const markov::SolveOptions& opts) {
  const std::size_t n = d.size();
  markov::SolveResult res;
  if (n == 0) return res;
  std::vector<markov::SparseRow> rows;
  for (std::size_t r = 0; r < n; ++r) {
    const auto row = d.row(r);
    rows.emplace_back(row.begin(), row.end());
  }
  const markov::CsrMatrix pt = markov::CsrMatrix(n, rows).transposed();
  const auto& k = exec::simd::kernels();
  std::vector<double> pi(n, 1.0 / static_cast<double>(n));
  std::vector<double> next(n, 0.0);
  for (std::size_t it = 0; it < opts.max_iterations; ++it) {
    k.spmv_cols(pt.offsets_data(), pt.cols_data(), pt.vals_data(), pi.data(),
                next.data(), 0, n);
    const double delta = k.sum_abs_diff(pi.data(), next.data(), n);
    pi.swap(next);
    res.iterations = it + 1;
    if (delta < opts.tolerance) {
      res.converged = true;
      break;
    }
  }
  k.div_all(pi.data(), n, k.sum(pi.data(), n));
  res.distribution = std::move(pi);
  return res;
}

}  // namespace holms::test_support
