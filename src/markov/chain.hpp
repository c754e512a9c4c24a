#pragma once
// Markov-chain analysis engine (paper §2.2).
//
// "The objective of any analysis technique is the computation of the
//  stationary probability distribution for a distributed system consisting of
//  several processes that operate and interact concurrently."  [7]
//
// HolMS provides discrete-time (DTMC) and continuous-time (CTMC) chains with
// three interchangeable steady-state solvers, so the solver itself can be
// ablated (DESIGN.md §6):
//   - power iteration       robust, O(iters * nnz)
//   - Gauss–Seidel          symmetric (forward + backward) sweeps, serial;
//                           fewer iterations than power iteration
//   - direct                exact banded GTH elimination, O(n * w^2) for a
//                           chain whose transitions span w states of its order
//
// Chains store their transitions as sparse rows (column-sorted entries), so
// building and stepping a chain costs O(nnz), not O(n^2): queueing chains
// touch a handful of neighbours per state.  The iterative solvers run the
// CSR kernels of markov/sparse.hpp; the direct solve, absorbing_analysis and
// the Jackson traffic equations share one GthFactors elimination over the
// band the chain's own state order gives.
//
// Once the stationary distribution is known, "different performance measures
// such as throughput, response time, power consumption, etc. can be easily
// derived" — see `expected_reward`.

#include <algorithm>
#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "exec/error.hpp"

namespace holms::markov {

/// One stored transition of a chain row.
struct RowEntry {
  std::size_t col = 0;
  double value = 0.0;
};

/// A sparse chain row: entries in strictly increasing column order.
using SparseRow = std::vector<RowEntry>;

enum class SteadyStateMethod { kPowerIteration, kGaussSeidel, kDirect };

struct SolveOptions {
  SteadyStateMethod method = SteadyStateMethod::kPowerIteration;
  std::size_t max_iterations = 200000;
  double tolerance = 1e-12;  // L1 change per iteration

  /// Workers for power iteration's sharded sweeps (DESIGN.md §5g), by the
  /// explorer convention (0 = hardware concurrency, 1 = run the shard loop
  /// inline).  Power iteration shards a chain of at least 1024 states and
  /// 32768 nonzeros on a fixed 256-column grid whatever `threads` is, and
  /// runs it on its own exec::ThreadPool of min(threads, shards) members,
  /// joined before returning: solves are bitwise identical across
  /// 1/2/4/7/... threads.  Below the floors, where a sliced sweep costs less
  /// than a pool hand-off, every `threads` sweeps inline.  Gauss–Seidel is
  /// serial at every size and ignores `threads`.
  std::size_t threads = 1;

  /// Rejects nonsensical solver settings; called by the steady_state /
  /// transient entry points (contract rule C001, DESIGN.md §5f).
  void validate() const {
    if (max_iterations == 0) {
      throw holms::InvalidArgument("SolveOptions: max_iterations must be >= 1");
    }
    if (!(tolerance > 0.0)) {
      throw holms::InvalidArgument("SolveOptions: tolerance must be > 0");
    }
  }
};

struct SolveResult {
  std::vector<double> distribution;  // stationary probabilities, sums to 1
  /// Power iteration: sweeps.  Gauss–Seidel: symmetric iterations, each a
  /// forward and a backward sweep.  Direct: 0.
  std::size_t iterations = 0;
  bool converged = false;
};

/// Discrete-time Markov chain over states 0..n-1 with row-stochastic
/// transition matrix P.
class Dtmc {
 public:
  explicit Dtmc(std::size_t n) : rows_(n) {}

  std::size_t size() const { return rows_.size(); }
  /// Sets P[from][to] = prob.  Throws holms::OutOfRange for a state index
  /// >= size() and holms::InvalidArgument for prob outside [0, 1].
  void set(std::size_t from, std::size_t to, double prob);
  /// P[from][to] (0 when never set); throws holms::OutOfRange like set().
  double get(std::size_t from, std::size_t to) const;
  /// The stored entries of row `from`, column-sorted; throws
  /// holms::OutOfRange like set().
  std::span<const RowEntry> row(std::size_t from) const;

  /// Validates that every row sums to 1 within `tol`.
  bool is_stochastic(double tol = 1e-9) const;

  /// Stationary distribution pi = pi * P.
  SolveResult steady_state(const SolveOptions& opts = {}) const;

  /// n-step transient distribution starting from `initial`, which must hold
  /// size() entries (holms::InvalidArgument otherwise).
  std::vector<double> transient(std::span<const double> initial,
                                std::size_t steps) const;

 private:
  std::vector<SparseRow> rows_;
};

/// Continuous-time Markov chain with generator matrix Q (off-diagonal rates;
/// diagonal maintained automatically as -(row sum)).
class Ctmc {
 public:
  explicit Ctmc(std::size_t n) : rows_(n) {}

  std::size_t size() const { return rows_.size(); }
  /// Sets the transition rate from -> to.  Throws holms::OutOfRange for a
  /// state index >= size() and holms::InvalidArgument for from == to (the
  /// diagonal is derived) or a rate that is not >= 0.
  void set_rate(std::size_t from, std::size_t to, double rate);
  /// Off-diagonal rate (0 when never set, and on the diagonal); throws
  /// holms::OutOfRange like set_rate().
  double rate(std::size_t from, std::size_t to) const;
  /// Total exit rate of a state.
  double exit_rate(std::size_t s) const;

  /// Stationary distribution solving pi * Q = 0, sum(pi) = 1.
  SolveResult steady_state(const SolveOptions& opts = {}) const;

  /// Transient distribution at time t via uniformization; `initial` must
  /// hold size() entries (holms::InvalidArgument otherwise).
  std::vector<double> transient(std::span<const double> initial, double t,
                                double truncation_eps = 1e-10) const;

  /// Embeds the CTMC into the uniformized DTMC P = I + Q/Lambda.
  Dtmc uniformized(double* lambda_out = nullptr) const;

 private:
  std::vector<SparseRow> rows_;  // off-diagonal rates only
};

/// Banded GTH elimination (Grassmann, Taksar & Heyman, Oper. Res. 1985): the
/// one exact solver behind the direct steady state, absorbing_analysis and
/// the Jackson traffic equations.  It factors M = D - A, where A holds a
/// chain's nonnegative off-diagonal entries and each pivot in D is a state's
/// remaining off-diagonal mass plus its exit mass, so no step subtracts and
/// a zero pivot is exact.  States are censored out from the last one down
/// inside the band the chain's own state order gives (no reordering; a full
/// band is dense GTH): O(n * lower * upper) time, O(n * (lower + upper))
/// memory.  A zero pivot marks the lowest state of a closed class; its column
/// folds into the exit mass of the states below it.
class GthFactors {
 public:
  /// Factors the column-sorted `rows` over states 0..rows.size()-1; diagonal
  /// and zero entries are ignored.  `exit` is empty (no exit) or holds one
  /// mass per state.  Throws holms::InvalidArgument for a negative entry or
  /// exit mass, a column past the last state, or an `exit` of another size.
  GthFactors(std::span<const SparseRow> rows, std::vector<double> exit);

  std::size_t size() const { return pivot_.size(); }

  /// pi M = 0 with sum(pi) = 1, zero on the transient states.  Throws
  /// holms::RuntimeError unless there is exactly one closed class.
  std::vector<double> stationary() const;
  /// Left solve x M = b for b >= 0.  A zero-pivot state that no flow reaches
  /// gets x = 0; flow into one throws holms::RuntimeError.
  std::vector<double> solve_left(std::vector<double> b) const;
  /// Right solve M y = c.  Throws holms::RuntimeError when M is singular
  /// (some closed class has no exit).
  std::vector<double> solve_right(std::vector<double> c) const;

 private:
  // Entry (i, j) of the band, i - lower_ <= j <= i + upper_: row i is
  // lower_ + upper_ + 1 slots wide, and its diagonal slot is never read.
  double& at(std::size_t i, std::size_t j) {
    return band_[i * (lower_ + upper_) + lower_ + j];
  }
  double at(std::size_t i, std::size_t j) const {
    return band_[i * (lower_ + upper_) + lower_ + j];
  }
  // The first column of row k's band, and the first row of column k's.
  std::size_t first_col(std::size_t k) const { return k - std::min(k, lower_); }
  std::size_t first_row(std::size_t k) const { return k - std::min(k, upper_); }
  // The back phase of x M = b; x holds the forward-reduced b on entry.  The
  // zero pivot `root` takes x = 1 (the stationary solve); any other takes 0
  // if nothing flows into it.
  void substitute_left(std::vector<double>& x, std::size_t root) const;

  std::size_t lower_ = 0;  // widest reach below the diagonal
  std::size_t upper_ = 0;  // widest reach above it
  std::vector<double> band_;
  std::vector<double> pivot_;
  std::vector<std::size_t> zero_pivots_;  // one per closed class, highest first
};

/// Expected reward sum_i pi_i * reward(i): the paper's bridge from the
/// stationary distribution to throughput / response time / power.
double expected_reward(std::span<const double> pi,
                       const std::function<double(std::size_t)>& reward);

/// Absorbing-chain analysis (fundamental-matrix method): expected steps to
/// absorption and per-absorbing-state hit probabilities.  This is the
/// analytical counterpart of lifetime/failure questions ("how long until a
/// battery dies / a deadline is missed") asked throughout §4-§5.
struct AbsorbingResult {
  /// Expected number of steps to absorption from each state (0 for
  /// absorbing states themselves).
  std::vector<double> expected_steps;
  /// absorption_probability[s][k]: probability that, starting from s, the
  /// chain is absorbed in absorbing_states[k].
  std::vector<std::vector<double>> absorption_probability;
  std::vector<std::size_t> absorbing_states;
};

/// `absorbing[i]` marks state i as absorbing (its rows in P are ignored and
/// treated as self-loops).  One GthFactors over the transient block, with
/// each state's mass into absorbing states as its exit, serves every solve;
/// transient rows are taken as stochastic.  Throws if no state is absorbing
/// or if some transient state cannot reach absorption.
AbsorbingResult absorbing_analysis(const Dtmc& chain,
                                   const std::vector<bool>& absorbing);

}  // namespace holms::markov
