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
// chain's sparse rows.  Each solve plans its sweeps once (plan_sweep): a
// queueing chain's columns hold a handful of entries, so they go 8 to a
// vector, one column per lane, in an order that keeps every Gauss–Seidel
// read of the sequential sweep.  The entry points are public for tests and
// benchmarks.

#include <cstdint>
#include <span>
#include <vector>

#include "exec/aligned.hpp"
#include "exec/simd.hpp"
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

  /// Raw views for spmv_cols and the sweep plans.
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

/// How a sweep reads its sources.  Power iteration (kJacobi) reads them all
/// from its input vector and writes a separate output.  A Gauss–Seidel
/// sweep reads the new value of each column swept before the one it updates
/// and the old value of every other.  It runs over one buffer of 2n values,
/// the sweep's input in one half and its output in the other, so a column
/// can be updated before a column that reads it as old.  The forward sweep
/// reads [0, n) and writes [n, 2n); the backward sweep reads [n, 2n) and
/// writes [0, n), so a symmetric iteration starts and ends in [0, n).
enum class Sweep { kJacobi, kForward, kBackward };

/// A sliced sweep plan (DESIGN.md §5g) and the storage its view points
/// into; exec::simd's `sweep` kernel runs it.
struct SlicedSweep {
  std::vector<exec::simd::SweepStep> steps;
  exec::aligned_vector<std::uint32_t> idx;
  exec::aligned_vector<double> vals;
  std::vector<std::uint32_t> base;
  std::vector<exec::simd::SweepColumn> long_cols;
  exec::aligned_vector<std::uint32_t> long_idx;
  exec::aligned_vector<double> long_vals;
  std::vector<std::size_t> cuts;  // first step of each cut, then steps.size()
  bool divide = false;

  exec::simd::SweepPlan view() const {
    return {steps.data(),     idx.data(),      vals.data(),      base.data(),
            long_cols.data(), long_idx.data(), long_vals.data(), divide};
  }
};

/// The plan of one sweep over the columns of `pt`, a transpose whose
/// columns list their sources in ascending order (CsrMatrix::transposed()).
/// For kForward and kBackward, `denom` holds n divisors; the sweep skips
/// each column's diagonal entry and divides by denom[c].  Each column gets
/// the bits spmv_cols gives it (kJacobi) or the in-place sequential
/// Gauss–Seidel sweep in that direction gives it.  Columns with fewer than
/// 8 entries go 8 to a slice and consecutive longer ones form a run, in an
/// order where every value a column reads from the current sweep was
/// written before: plain sweep order when no column reads a value from its
/// own slice, else dependency levels.
/// Plain steps never straddle a multiple of `cut` columns, so each cut is a
/// range of steps (`cuts`).  Throws holms::InvalidArgument when a
/// Gauss–Seidel buffer of 2n values cannot be indexed in 32 bits.
SlicedSweep plan_sweep(const CsrMatrix& pt, Sweep sweep, const double* denom,
                       std::size_t cut);

/// Power iteration pi <- pi P on a row-stochastic CSR matrix, gather form:
/// next[c] = sum_r pi[r] * P[r, c] over the transpose, each column reduced
/// as spmv_cols reduces it, through one kJacobi plan.  From 1024 states and
/// 32768 nonzeros a sweep is split into fixed 256-column shards on a pool
/// of up to opts.threads members (DESIGN.md §5g).  Serial and sharded
/// execution run the identical plan (a shard is a range of its steps), so
/// sharding — or the thread count, or the ISA — never changes a bit.
/// SolveResult::iterations counts sweeps.
SolveResult sparse_power_iteration(const CsrMatrix& p,
                                   const SolveOptions& opts);

/// Symmetric Gauss–Seidel on pi = pi P: each iteration sweeps the columns of
/// the transpose forward and then backward, each column getting the bits
/// of the in-place sequential sweep, through a kForward and a kBackward
/// plan built once, and normalizes once.  Serial at every size:
/// opts.threads is ignored, and the iterates depend on the chain alone.
/// SolveResult::iterations counts symmetric iterations (two sweeps each).
SolveResult sparse_gauss_seidel(const CsrMatrix& p, const SolveOptions& opts);

}  // namespace holms::markov
