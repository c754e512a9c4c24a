#pragma once
// Sparse stationary-solve kernels (paper §2.2).
//
// Queueing-network generator matrices are overwhelmingly sparse — a
// birth-death chain has O(n) nonzeros in an n x n matrix, and even the
// Jackson-network product-form chains touch only a handful of neighbors per
// state.  These CSR kernels are O(nnz) per sweep, SIMD-vectorized through
// exec::simd (fixed 8-lane reduction order, bitwise identical across
// HOLMS_SIMD=off/avx2/neon — see exec/simd.hpp), and they are the only
// iterative engine: Dtmc::steady_state builds a CsrMatrix straight from the
// chain's sparse rows.  The entry points are public for tests and
// benchmarks.

#include <cstdint>
#include <span>
#include <vector>

#include "exec/aligned.hpp"
#include "markov/chain.hpp"

namespace holms::markov {

/// Compressed-sparse-row matrix over double.  Entries within a row are stored
/// in increasing column order, the order the simd kernels' per-column
/// reductions rely on.
class CsrMatrix {
 public:
  CsrMatrix() = default;

  /// Builds a rows.size() x cols matrix from column-sorted sparse rows,
  /// dropping exact zeros and keeping every other entry in row order.
  /// Throws holms::InvalidArgument when a row's columns are not strictly
  /// increasing or not below `cols`.
  CsrMatrix(std::size_t cols, std::span<const SparseRow> rows);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t nnz() const { return vals_.size(); }
  /// nnz / (rows * cols); 0 for an empty matrix.
  double density() const;

  std::span<const std::uint32_t> row_cols(std::size_t r) const {
    return {cols_idx_.data() + offsets_[r], cols_idx_.data() + offsets_[r + 1]};
  }
  std::span<const double> row_vals(std::size_t r) const {
    return {vals_.data() + offsets_[r], vals_.data() + offsets_[r + 1]};
  }

  /// Transpose (i.e. the CSC view of this matrix, materialized as CSR).
  /// Entries within each transposed row again end up in increasing column
  /// order — counting placement preserves the scan order.
  CsrMatrix transposed() const;

  /// Raw views for the exec::simd kernels (spmv_cols / gs_cols).
  const std::size_t* offsets_data() const { return offsets_.data(); }
  const std::uint32_t* cols_data() const { return cols_idx_.data(); }
  const double* vals_data() const { return vals_.data(); }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  // Hot arrays are 64-byte aligned so the SIMD pack loads never straddle a
  // cache line (exec/aligned.hpp).
  exec::aligned_vector<std::size_t> offsets_;     // rows_ + 1
  exec::aligned_vector<std::uint32_t> cols_idx_;  // column of each entry
  exec::aligned_vector<double> vals_;
};

/// True when `opts` engages the fixed-grid sharded kernels for a matrix of
/// this size (DESIGN.md §5g).  Deliberately independent of `opts.threads`:
/// the kernel choice is a function of the problem, so every thread count
/// runs the identical algorithm and solves stay bitwise invariant to
/// parallelism.  Exposed for tests and benchmarks.
inline bool sharded_solve_engaged(std::size_t n, std::size_t nnz,
                                  const SolveOptions& opts) {
  return n >= opts.parallel_min_states && nnz >= opts.parallel_min_nnz;
}

/// Power iteration pi <- pi P on a row-stochastic CSR matrix, gather form:
/// next[c] = sum_r pi[r] * P[r, c] over the transpose, each column an
/// exec::simd 8-lane reduction in ascending source-row order.  Serial and
/// sharded execution run the identical per-column kernel (a shard is just a
/// [lo, hi) column range), so engaging the parallel path — or changing the
/// thread count, or the ISA — never changes a bit.
SolveResult sparse_power_iteration(const CsrMatrix& p,
                                   const SolveOptions& opts);

/// Gauss–Seidel on pi = pi P, sweeping columns in place (needs the transpose;
/// built internally once).  Below the parallel floors the sweep is one
/// full-range exec::simd gs_cols call — serial Gauss–Seidel with 8-lane
/// segment reductions.  At or above them it switches to the block-hybrid
/// sweep (Gauss–Seidel within each fixed 256-column shard, Jacobi across
/// shards — DESIGN.md §5g): a *different but deterministic* iterate sequence
/// that converges to the same stationary distribution and is bitwise
/// invariant to thread count because the shard grid never moves.
SolveResult sparse_gauss_seidel(const CsrMatrix& p, const SolveOptions& opts);

}  // namespace holms::markov
