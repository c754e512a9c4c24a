#pragma once
// Deterministic parallel execution for the design-space explorer.
//
// The pool is deliberately work-stealing-free: a parallel loop hands out
// indices from a single atomic counter, every task writes only to its own
// result slot, and any randomness a task needs comes from a counter-based
// stream derived from (caller seed, index) — see exec/rng_stream.hpp.  The
// *schedule* is nondeterministic (whichever worker grabs index i first) but
// the *result* is a pure function of the inputs, so parallel runs are
// bitwise-identical to serial ones independent of thread count.
//
// `threads == 0` means "use the hardware", `threads == 1` is the legacy
// serial path (the loop body runs inline on the caller, no pool, no atomics
// beyond the ones the body itself uses).
//
// ShardTeam is the pool's counterpart for power iteration's fixed shard
// grid: many short, equal sweeps, each shard pinned to one member.

#include <cstddef>
#include <functional>
#include <thread>
#include <type_traits>
#include <vector>

namespace holms::exec {

/// Resolves a `threads` knob: 0 -> hardware concurrency (at least 1).
inline std::size_t resolve_threads(std::size_t requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

/// Thread count requested by the HOLMS_THREADS environment variable, or
/// `fallback` when the variable is unset or not a plain positive decimal
/// that fits in size_t (empty, signed, space-padded and overflowing values
/// all fall back).
/// The CI matrix runs the whole test suite under HOLMS_THREADS=1 and =4;
/// tests fold this value into their thread-count sweeps so both runs
/// exercise genuinely different pool sizes (results must not change —
/// every parallel kernel here is thread-count invariant by construction).
std::size_t env_threads(std::size_t fallback = 1);

/// Fixed-size pool of persistent workers executing index-parallel loops.
/// One loop at a time: parallel_for blocks until every index has run (the
/// caller participates as a worker, so a pool of size N uses N-1 threads).
/// Exceptions thrown by the body are captured and the first one rethrown on
/// the caller after the loop completes.
class ThreadPool {
 public:
  /// `threads` is resolved via resolve_threads(); a pool of size <= 1 spawns
  /// no workers and runs loops inline.
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return size_; }

  /// Runs body(i) for every i in [0, n), distributing indices across the
  /// pool.  Safe to call repeatedly; not safe to call concurrently from two
  /// threads on the same pool.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body);

 private:
  struct Impl;
  Impl* impl_ = nullptr;  // null for the serial (size <= 1) pool
  std::size_t size_ = 1;
};

/// Static team for fixed-grid sharded sweeps (DESIGN.md §5g).  An iterative
/// solve runs thousands of short sweeps back to back, and ThreadPool's
/// mutex hand-off, dynamic claiming and std::function call cost more than a
/// 256-column shard.  A team of size T runs shard s on member s % T every
/// time, and the caller is member 0.  A release/acquire epoch counter starts
/// a run and a countdown ends it.  Between runs each waiter spins for a
/// bounded number of polls, then parks, so an idle or oversubscribed team
/// sleeps instead of burning CPU.  The exception of the lowest throwing
/// shard is rethrown on the caller (a team of size > 1 still runs every
/// other shard first), and the team stays usable.
class ShardTeam {
 public:
  /// `threads` is resolved via resolve_threads(); a team of size <= 1 spawns
  /// no threads and runs inline.  Throws holms::RuntimeError when the OS
  /// refuses a thread.
  explicit ShardTeam(std::size_t threads);
  ~ShardTeam();
  ShardTeam(const ShardTeam&) = delete;
  ShardTeam& operator=(const ShardTeam&) = delete;

  std::size_t size() const { return size_; }

  /// Runs body(s) for every s in [0, shards), shard s on member s % size().
  /// Not safe to call concurrently on one team.
  template <typename Body>
  void run(std::size_t shards, Body&& body) {
    using Fn = std::remove_reference_t<Body>;
    dispatch(shards, &body, [](void* fn, std::size_t s) {
      (*static_cast<Fn*>(fn))(s);
    });
  }

 private:
  using Call = void (*)(void*, std::size_t);
  void dispatch(std::size_t shards, void* fn, Call call);

  struct Impl;
  Impl* impl_ = nullptr;  // null for the inline (size <= 1) team
  std::size_t size_ = 1;
};

/// Convenience: runs body(i) for i in [0, n) on `pool`, or serially when
/// `pool` is null.  The explorer passes null for the legacy serial path.
inline void parallel_for_each(ThreadPool* pool, std::size_t n,
                              const std::function<void(std::size_t)>& body) {
  if (pool == nullptr || pool->size() <= 1 || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  pool->parallel_for(n, body);
}

/// Maps fn over [0, n) into a vector, in parallel; result order is by index
/// regardless of execution order.  T must be default-constructible.
template <typename T, typename Fn>
std::vector<T> parallel_transform(ThreadPool* pool, std::size_t n, Fn&& fn) {
  std::vector<T> out(n);
  parallel_for_each(pool, n, [&](std::size_t i) { out[i] = fn(i); });
  return out;
}

}  // namespace holms::exec
