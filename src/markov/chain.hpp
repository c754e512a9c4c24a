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
//   - Gauss–Seidel          faster convergence on diagonally dominant systems
//   - direct LU             exact (up to fp), O(n^3), small chains
//
// Chains store their transitions as sparse rows (column-sorted entries), so
// building and stepping a chain costs O(nnz), not O(n^2): queueing chains
// touch a handful of neighbours per state.  The iterative solvers run the
// CSR kernels of markov/sparse.hpp; only the direct LU solve and
// absorbing_analysis densify, on demand.
//
// Once the stationary distribution is known, "different performance measures
// such as throughput, response time, power consumption, etc. can be easily
// derived" — see `expected_reward`.

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "exec/error.hpp"

namespace holms::markov {

/// Dense row-major matrix for the direct LU solve, absorbing analysis and
/// Jackson routing (state spaces there are 10^2..10^3).
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

/// One stored transition of a chain row.
struct RowEntry {
  std::size_t col = 0;
  double value = 0.0;
};

/// A sparse chain row: entries in strictly increasing column order.
using SparseRow = std::vector<RowEntry>;

enum class SteadyStateMethod { kPowerIteration, kGaussSeidel, kDirectLU };

struct SolveOptions {
  SteadyStateMethod method = SteadyStateMethod::kPowerIteration;
  std::size_t max_iterations = 200000;
  double tolerance = 1e-12;  // L1 change per sweep

  /// Parallel sharding of the CSR kernels (DESIGN.md §5g).  The sharded
  /// fixed-grid kernels engage whenever n >= parallel_min_states AND
  /// nnz >= parallel_min_nnz — *independent of the thread count* — so the
  /// iterate sequence is a function of the problem alone and solves are
  /// bitwise identical across 1/2/4/7/... threads.  `threads` follows the
  /// explorer convention (0 = hardware concurrency, 1 = run the shard loop
  /// inline); a sharded solve with more than one thread starts its own pool
  /// and joins it before returning.
  std::size_t threads = 1;
  std::size_t parallel_min_states = 1024;
  std::size_t parallel_min_nnz = 4096;

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
  std::size_t iterations = 0;        // 0 for direct methods
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
  /// absorption_probability.at(s, k): probability that, starting from s,
  /// the chain is absorbed in absorbing_states[k].
  Matrix absorption_probability;
  std::vector<std::size_t> absorbing_states;
};

/// `absorbing[i]` marks state i as absorbing (its rows in P are ignored and
/// treated as self-loops).  Throws if no state is absorbing or if some
/// transient state cannot reach absorption.
AbsorbingResult absorbing_analysis(const Dtmc& chain,
                                   const std::vector<bool>& absorbing);

}  // namespace holms::markov
