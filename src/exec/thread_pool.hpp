#pragma once
// Deterministic parallel execution: one executor for every parallel loop,
// the explorer's candidates, serve's localities and power iteration's
// shards alike (DESIGN.md §5c).
//
// The pool is deliberately work-stealing-free: a parallel loop hands out
// indices from a single atomic counter, every task writes only to its own
// result slot, and any randomness a task needs comes from a counter-based
// stream derived from (caller seed, index) — see exec/rng_stream.hpp.  The
// *schedule* is nondeterministic (whichever member claims index i first) but
// the *result* is a pure function of the inputs, so parallel runs are
// bitwise-identical to serial ones independent of thread count.
//
// `threads == 0` means "use the hardware", `threads == 1` is the serial
// path (the loop body runs inline on the caller, no threads, no atomics
// beyond the ones the body itself uses).

#include <cstddef>
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

/// Fixed-size pool of persistent members executing index-parallel loops.
/// One loop at a time: parallel_for returns once every index has run (the
/// caller is a member too, so a pool of size N starts N-1 threads).  A
/// release/acquire epoch counter starts a loop and a countdown ends it, and
/// the body is called through a function pointer, so one loop costs a few
/// atomic operations and no allocation.  Between loops each waiter spins
/// for a bounded number of polls, then parks, so an idle or oversubscribed
/// pool sleeps instead of burning CPU.
///
/// Exceptions: every index runs even when some throw; then the exception of
/// the lowest throwing index is rethrown on the caller, and the pool stays
/// usable.
class ThreadPool {
 public:
  /// `threads` is resolved via resolve_threads(); a pool of size <= 1 starts
  /// no threads and runs loops inline.  Throws holms::RuntimeError, after
  /// joining the members already started, when the OS refuses a thread.
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return size_; }

  /// Runs body(i) for every i in [0, n), members claiming indices from one
  /// shared counter.  Safe to call repeatedly; not safe to call
  /// concurrently from two threads on the same pool.
  template <typename Body>
  void parallel_for(std::size_t n, Body&& body) {
    using Fn = std::remove_reference_t<Body>;
    dispatch(n, &body, [](const void* fn, std::size_t i) {
      (*static_cast<Fn*>(const_cast<void*>(fn)))(i);
    });
  }

 private:
  using Call = void (*)(const void*, std::size_t);
  void dispatch(std::size_t n, const void* fn, Call call);

  struct Impl;
  Impl* impl_ = nullptr;  // null for the inline (size <= 1) pool
  std::size_t size_ = 1;
};

/// Maps fn over [0, n) into a vector on `pool`; result order is by index
/// regardless of execution order.  T must be default-constructible.
template <typename T, typename Fn>
std::vector<T> parallel_transform(ThreadPool& pool, std::size_t n, Fn&& fn) {
  std::vector<T> out(n);
  pool.parallel_for(n, [&](std::size_t i) { out[i] = fn(i); });
  return out;
}

}  // namespace holms::exec
