#include "markov/sparse.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "exec/error.hpp"
#include "exec/metrics.hpp"
#include "exec/simd.hpp"
#include "exec/thread_pool.hpp"

namespace holms::markov {
namespace {

// Both helpers run on the exec::simd kernels, so every solver reduction in
// this TU follows the canonical 8-lane order (exec/simd.hpp) no matter which
// ISA executes it.
void normalize(std::vector<double>& v) {
  const auto& k = exec::simd::kernels();
  const double sum = k.sum(v.data(), v.size());
  if (sum <= 0.0) throw holms::RuntimeError("distribution has zero mass");
  k.div_all(v.data(), v.size(), sum);
}

double l1_delta(std::span<const double> a, std::span<const double> b) {
  return exec::simd::kernels().sum_abs_diff(a.data(), b.data(), a.size());
}

// Power iteration's fixed shard grid (DESIGN.md §5g): always 256 columns
// per shard, *independent of the thread count*.  A chain below either floor
// sweeps as one shard spanning every column: its sweep is too short to hand
// out.  Sharded and one-shard sweeps run the same per-column kernel, so the
// floors only decide whether a team starts, never a bit of the result.
// Shard s always runs on the same team member and writes only its own
// output columns.
constexpr std::size_t kShardCols = 256;
constexpr std::size_t kShardMinStates = 1024;
constexpr std::size_t kShardMinNnz = 4096;

struct ShardGrid {
  std::size_t n = 0;
  std::size_t width = 0;

  std::size_t count() const { return (n + width - 1) / width; }
  std::size_t lo(std::size_t s) const { return s * width; }
  std::size_t hi(std::size_t s) const { return std::min(n, lo(s) + width); }
};

ShardGrid solve_grid(const CsrMatrix& p) {
  const std::size_t n = p.rows();
  if (n < kShardMinStates || p.nnz() < kShardMinNnz) return {n, n};
  exec::count("markov.sharded_solves");
  return {n, kShardCols};
}

// The team a solve sweeps on: solve-local, at most one member per shard so
// none idles (a size-1 team runs the shard loop inline).
std::size_t team_size(const ShardGrid& grid, const SolveOptions& opts) {
  return std::min(exec::resolve_threads(opts.threads), grid.count());
}

}  // namespace

CsrMatrix::CsrMatrix(std::size_t cols, std::span<const SparseRow> rows)
    : rows_(rows.size()), cols_(cols) {
  std::size_t nnz = 0;
  for (const SparseRow& row : rows) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (row[i].col >= cols || (i > 0 && row[i].col <= row[i - 1].col)) {
        throw holms::InvalidArgument(
            "CsrMatrix: row columns must be increasing and below cols");
      }
      if (row[i].value != 0.0) ++nnz;
    }
  }
  offsets_.reserve(rows_ + 1);
  offsets_.push_back(0);
  cols_idx_.reserve(nnz);
  vals_.reserve(nnz);
  for (const SparseRow& row : rows) {
    for (const RowEntry& e : row) {
      if (e.value == 0.0) continue;
      cols_idx_.push_back(static_cast<std::uint32_t>(e.col));
      vals_.push_back(e.value);
    }
    offsets_.push_back(vals_.size());
  }
}

double CsrMatrix::density() const {
  const double cells = static_cast<double>(rows_) * static_cast<double>(cols_);
  return cells > 0.0 ? static_cast<double>(nnz()) / cells : 0.0;
}

CsrMatrix CsrMatrix::transposed() const {
  CsrMatrix t;
  t.rows_ = cols_;
  t.cols_ = rows_;
  // Counting sort by column: offsets first, then stable placement.  Scanning
  // source rows in order makes each transposed row's entries arrive in
  // increasing (source-row = transposed-column) order — the strictly
  // ascending source order the simd kernels' gather run-detection relies on.
  t.offsets_.assign(cols_ + 1, 0);
  for (const std::uint32_t c : cols_idx_) ++t.offsets_[c + 1];
  for (std::size_t i = 0; i < cols_; ++i) t.offsets_[i + 1] += t.offsets_[i];
  t.cols_idx_.resize(nnz());
  t.vals_.resize(nnz());
  std::vector<std::size_t> fill(t.offsets_.begin(), t.offsets_.end() - 1);
  for (std::size_t r = 0; r < rows_; ++r) {
    const auto cols = row_cols(r);
    const auto vals = row_vals(r);
    for (std::size_t i = 0; i < cols.size(); ++i) {
      const std::size_t slot = fill[cols[i]]++;
      t.cols_idx_[slot] = static_cast<std::uint32_t>(r);
      t.vals_[slot] = vals[i];
    }
  }
  return t;
}

SolveResult sparse_power_iteration(const CsrMatrix& p,
                                   const SolveOptions& opts) {
  const std::size_t n = p.rows();
  SolveResult res;
  if (n == 0) return res;
  std::vector<double> pi(n, 1.0 / static_cast<double>(n));
  std::vector<double> next(n, 0.0);

  // Gather form on the transpose: next[c] = sum_r pi[r] * P[r, c], one
  // exec::simd 8-lane reduction per column in ascending source-row order.
  // Serial and sharded execution run the identical per-column kernel — a
  // shard is just a [lo, hi) column range and no shard reads another's
  // output — so the iterate sequence is a function of the problem alone:
  // bitwise invariant to the thread count, the shard grid, and the ISA.
  const auto& k = exec::simd::kernels();
  const CsrMatrix pt = p.transposed();
  const ShardGrid grid = solve_grid(p);
  exec::ShardTeam team(team_size(grid, opts));
  for (std::size_t it = 0; it < opts.max_iterations; ++it) {
    team.run(grid.count(), [&](std::size_t s) {
      k.spmv_cols(pt.offsets_data(), pt.cols_data(), pt.vals_data(), pi.data(),
                  next.data(), grid.lo(s), grid.hi(s));
    });
    const double delta = l1_delta(pi, next);  // serial, fixed order
    pi.swap(next);
    res.iterations = it + 1;
    if (delta < opts.tolerance) {
      res.converged = true;
      break;
    }
  }
  normalize(pi);
  res.distribution = std::move(pi);
  return res;
}

SolveResult sparse_gauss_seidel(const CsrMatrix& p, const SolveOptions& opts) {
  const std::size_t n = p.rows();
  SolveResult res;
  if (n == 0) return res;
  // Column c solves pi[c] (1 - p_cc) = sum_{r != c} pi[r] p_rc, so the
  // sweep's transpose keeps only the off-diagonal sources and 1 - p_cc (1 for
  // an absorbing state) is the column's divisor.  Rows are scanned in order,
  // so each column's sources ascend as the simd kernels require.
  std::vector<SparseRow> sources(n);
  exec::aligned_vector<double> denom(n, 1.0);
  for (std::size_t r = 0; r < n; ++r) {
    const auto cols = p.row_cols(r);
    const auto vals = p.row_vals(r);
    for (std::size_t i = 0; i < cols.size(); ++i) {
      if (cols[i] != r) {
        sources[cols[i]].push_back({r, vals[i]});
      } else if (vals[i] < 1.0) {
        denom[r] = 1.0 - vals[i];
      }
    }
  }
  const CsrMatrix pt(n, sources);

  // Symmetric Gauss–Seidel: a forward sweep then a backward one, both in
  // place, then one normalization.  A forward-only sweep stalls in a period-2
  // cycle on the tandem queue at even level counts, and a backward-only one
  // on the same chain with its states reversed; the symmetric sweep
  // converges in either order.  Serial at every size, so the iterates depend
  // on the chain alone.
  const auto& k = exec::simd::kernels();
  std::vector<double> pi(n, 1.0 / static_cast<double>(n));
  std::vector<double> prev(n, 0.0);
  for (std::size_t it = 0; it < opts.max_iterations; ++it) {
    prev = pi;
    for (const bool backward : {false, true}) {
      k.gs_sweep(pt.offsets_data(), pt.cols_data(), pt.vals_data(),
                 denom.data(), pi.data(), n, backward);
    }
    normalize(pi);
    const double delta = l1_delta(prev, pi);
    res.iterations = it + 1;
    if (delta < opts.tolerance) {
      res.converged = true;
      break;
    }
  }
  res.distribution = std::move(pi);
  return res;
}

}  // namespace holms::markov
