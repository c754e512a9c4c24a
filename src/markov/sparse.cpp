#include "markov/sparse.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
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

// Fixed shard grid for the parallel kernels (DESIGN.md §5g): always 256
// columns per shard, *independent of the thread count*, so the work
// decomposition — and therefore every floating-point accumulation order —
// is a function of the problem size alone.  Workers claim whole shards from
// the pool's atomic index counter and write only their own output columns.
constexpr std::size_t kShardCols = 256;

std::size_t shard_count(std::size_t n) {
  return (n + kShardCols - 1) / kShardCols;
}

// The pool a sharded solve runs on: solve-local when `opts.threads` asks for
// more than one thread, else null (parallel_for_each runs the shard loop
// inline).
std::unique_ptr<exec::ThreadPool> solve_pool(const SolveOptions& opts) {
  const std::size_t t = exec::resolve_threads(opts.threads);
  return t > 1 ? std::make_unique<exec::ThreadPool>(t) : nullptr;
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
  const bool sharded = sharded_solve_engaged(n, p.nnz(), opts);
  const auto pool = sharded ? solve_pool(opts) : nullptr;
  const std::size_t shards = shard_count(n);
  if (sharded) exec::count("markov.sharded_solves");
  for (std::size_t it = 0; it < opts.max_iterations; ++it) {
    if (sharded) {
      exec::parallel_for_each(pool.get(), shards, [&](std::size_t s) {
        const std::size_t lo = s * kShardCols;
        const std::size_t hi = std::min(n, lo + kShardCols);
        k.spmv_cols(pt.offsets_data(), pt.cols_data(), pt.vals_data(),
                    pi.data(), next.data(), lo, hi);
      });
    } else {
      k.spmv_cols(pt.offsets_data(), pt.cols_data(), pt.vals_data(), pi.data(),
                  next.data(), 0, n);
    }
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
  // Column sweeps need column access: work on the transpose, with the
  // diagonal split out (the sweep skips r == c and divides by 1 - p_cc).
  const CsrMatrix pt = p.transposed();
  exec::aligned_vector<double> diag(n, 0.0);
  for (std::size_t r = 0; r < n; ++r) {
    const auto cols = p.row_cols(r);
    const auto vals = p.row_vals(r);
    for (std::size_t i = 0; i < cols.size(); ++i) {
      if (cols[i] == r) diag[r] = vals[i];
    }
  }
  std::vector<double> pi(n, 1.0 / static_cast<double>(n));
  std::vector<double> next(n, 0.0);

  // Block-hybrid sweep (DESIGN.md §5g): Gauss–Seidel within each fixed
  // 256-column shard, Jacobi across shards.  `next` starts as a copy of pi,
  // each shard updates only its own columns in ascending order, and a column
  // reads `next` for in-shard sources (already-updated values below it,
  // prior-sweep values above — exactly serial GS restricted to the shard)
  // and the prior-sweep `pi` for out-of-shard sources.  No shard ever reads
  // another shard's output, so the sweep is race-free and its result depends
  // only on the fixed grid — bitwise invariant to thread count.  Below the
  // engagement floors the sweep is ONE full-range gs_cols call, where the
  // out-of-shard segments are empty and the kernel reduces to serial GS —
  // a *different* (still convergent) iterate sequence than the hybrid,
  // which is why engagement is gated on size floors rather than on threads.
  const auto& k = exec::simd::kernels();
  const bool sharded = sharded_solve_engaged(n, p.nnz(), opts);
  const auto pool = sharded ? solve_pool(opts) : nullptr;
  const std::size_t shards = shard_count(n);
  if (sharded) exec::count("markov.sharded_solves");
  for (std::size_t it = 0; it < opts.max_iterations; ++it) {
    next = pi;
    if (sharded) {
      exec::parallel_for_each(pool.get(), shards, [&](std::size_t s) {
        const std::size_t lo = s * kShardCols;
        const std::size_t hi = std::min(n, lo + kShardCols);
        k.gs_cols(pt.offsets_data(), pt.cols_data(), pt.vals_data(),
                  diag.data(), pi.data(), next.data(), lo, hi);
      });
    } else {
      k.gs_cols(pt.offsets_data(), pt.cols_data(), pt.vals_data(), diag.data(),
                pi.data(), next.data(), 0, n);
    }
    normalize(next);  // serial, fixed order
    const double delta = l1_delta(pi, next);
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

}  // namespace holms::markov
