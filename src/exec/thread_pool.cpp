#include "exec/thread_pool.hpp"

#include <atomic>
#include <charconv>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <string>
#include <string_view>
#include <system_error>
#include <utility>

#include "exec/error.hpp"

namespace holms::exec {

std::size_t env_threads(std::size_t fallback) {
  const char* raw = std::getenv("HOLMS_THREADS");
  if (raw == nullptr) return fallback;
  // from_chars takes digits only: no sign, no leading space, and a value
  // past size_t is an error rather than a wrapped or clamped count.
  const std::string_view s(raw);
  std::size_t v = 0;
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || end != s.data() + s.size() || v == 0) {
    return fallback;
  }
  return v;
}

// Generation-stamped job dispatch: parallel_for publishes a job under the
// mutex and bumps `generation`; each worker remembers the last generation it
// served, so a worker can never run the same job twice, and a worker that
// wakes late simply finds the index counter exhausted and goes back to
// sleep.  Completion = all indices claimed AND no worker still inside the
// body (`active == 0`).
struct ThreadPool::Impl {
  std::mutex mu;
  std::condition_variable wake;   // workers wait here for a new generation
  std::condition_variable done;   // the caller waits here for completion
  std::uint64_t generation = 0;
  bool stopping = false;

  const std::function<void(std::size_t)>* body = nullptr;
  std::size_t n = 0;
  std::atomic<std::size_t> next{0};
  std::size_t active = 0;         // workers currently executing this job
  std::exception_ptr first_error;

  std::vector<std::thread> workers;

  void drain() {
    // Claim indices until the job is exhausted.  Exceptions stop this
    // worker's participation but other indices still run (the explorer's
    // per-candidate work does not throw in normal operation; evaluator
    // preconditions throw before any loop is entered).
    while (true) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        (*body)(i);
      } catch (...) {
        std::lock_guard<std::mutex> lk(mu);
        if (!first_error) first_error = std::current_exception();
      }
    }
  }

  void worker_loop() {
    std::uint64_t seen = 0;
    std::unique_lock<std::mutex> lk(mu);
    while (true) {
      wake.wait(lk, [&] { return stopping || generation != seen; });
      if (stopping) return;
      seen = generation;
      // The caller clears `body` (under the mutex) once the job completes;
      // a worker that only wakes after that point must not touch the job.
      if (body == nullptr) continue;
      ++active;
      lk.unlock();
      drain();
      lk.lock();
      if (--active == 0) done.notify_all();
    }
  }
};

ThreadPool::ThreadPool(std::size_t threads) {
  size_ = resolve_threads(threads);
  if (size_ <= 1) return;
  impl_ = new Impl;
  impl_->workers.reserve(size_ - 1);
  for (std::size_t i = 0; i + 1 < size_; ++i) {
    impl_->workers.emplace_back([this] { impl_->worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  if (impl_ == nullptr) return;
  {
    std::lock_guard<std::mutex> lk(impl_->mu);
    impl_->stopping = true;
  }
  impl_->wake.notify_all();
  for (auto& w : impl_->workers) w.join();
  delete impl_;
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& body) {
  if (impl_ == nullptr || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  {
    std::lock_guard<std::mutex> lk(impl_->mu);
    impl_->body = &body;
    impl_->n = n;
    impl_->next.store(0, std::memory_order_relaxed);
    impl_->first_error = nullptr;
    ++impl_->generation;
  }
  impl_->wake.notify_all();
  impl_->drain();  // the caller is a worker too
  std::unique_lock<std::mutex> lk(impl_->mu);
  impl_->done.wait(lk, [&] { return impl_->active == 0; });
  impl_->body = nullptr;
  if (impl_->first_error) {
    std::exception_ptr err = impl_->first_error;
    impl_->first_error = nullptr;
    lk.unlock();
    std::rethrow_exception(err);
  }
}

namespace {

// Polls a waiter makes before it parks, and how often one of them yields.
// A pause is ~10-150 cycles, so the bound covers the few microseconds
// between two sweeps of one solve (the caller's serial convergence check,
// an uneven last shard) on any x86 or arm core, and an idle team parks
// within about a millisecond.  The periodic yield hands the core to a
// runnable member on an oversubscribed host (more members than cores, or
// several processes) instead of spinning out the timeslice it waits for.
constexpr std::size_t kSpinPolls = std::size_t{1} << 13;
constexpr std::size_t kYieldEvery = 64;

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

// One spin-then-park wait point.  The waiter polls `ready` for kSpinPolls,
// then announces itself in `parked` and sleeps on the condvar; a notifier
// makes `ready` true with a seq_cst store and calls wake(), which touches
// the mutex only when someone is parked.  Both sides use seq_cst, so either
// the waiter's re-check under the mutex sees the store or wake() sees the
// waiter in `parked`: no wakeup is lost.
struct ParkingSpot {
  std::mutex mu;
  std::condition_variable cv;
  std::atomic<std::size_t> parked{0};

  template <typename Ready>
  void wait(Ready ready) {
    for (std::size_t i = 1; i <= kSpinPolls; ++i) {
      if (ready()) return;
      if (i % kYieldEvery == 0) {
        std::this_thread::yield();
      } else {
        cpu_relax();
      }
    }
    std::unique_lock<std::mutex> lk(mu);
    parked.fetch_add(1);
    cv.wait(lk, ready);
    parked.fetch_sub(1);
  }

  void wake() {
    if (parked.load() == 0) return;
    { std::lock_guard<std::mutex> lk(mu); }
    cv.notify_all();
  }
};

}  // namespace

// The caller publishes a job in plain fields, then bumps `epoch`; a member
// that sees the new epoch reads the job, runs its shards and counts
// `pending` down, and the member that reaches zero wakes the caller.  The
// caller only writes the next job after `pending` hits zero, so no member
// can still be reading the old one, and the countdown also publishes any
// error a member recorded.
struct ShardTeam::Impl {
  alignas(64) std::atomic<std::uint64_t> epoch{0};
  alignas(64) std::atomic<std::size_t> pending{0};
  ParkingSpot members_spot, caller_spot;

  std::size_t size = 0;
  std::size_t shards = 0;
  void* fn = nullptr;
  Call call = nullptr;
  bool stopping = false;
  std::mutex error_mu;  // taken only when a shard throws
  std::exception_ptr error;
  std::size_t error_shard = 0;
  std::vector<std::thread> threads;

  void run_member(std::size_t m) {
    for (std::size_t s = m; s < shards; s += size) {
      try {
        call(fn, s);
      } catch (...) {
        std::lock_guard<std::mutex> lk(error_mu);
        if (!error || s < error_shard) {
          error = std::current_exception();
          error_shard = s;
        }
      }
    }
  }

  void member_loop(std::size_t m) {
    std::uint64_t seen = 0;
    while (true) {
      members_spot.wait([&] { return epoch.load() != seen; });
      seen = epoch.load(std::memory_order_acquire);
      if (stopping) return;
      run_member(m);
      if (pending.fetch_sub(1) == 1) caller_spot.wake();
    }
  }

  void stop() {
    stopping = true;
    epoch.fetch_add(1);
    members_spot.wake();
    for (std::thread& t : threads) t.join();
  }
};

ShardTeam::ShardTeam(std::size_t threads) {
  size_ = resolve_threads(threads);
  if (size_ <= 1) return;
  impl_ = new Impl;
  impl_->size = size_;
  try {
    for (std::size_t m = 1; m < size_; ++m) {
      impl_->threads.emplace_back([this, m] { impl_->member_loop(m); });
    }
  } catch (const std::exception& e) {
    impl_->stop();
    delete impl_;
    throw holms::RuntimeError(std::string("ShardTeam: ") + e.what());
  }
}

ShardTeam::~ShardTeam() {
  if (impl_ == nullptr) return;
  impl_->stop();
  delete impl_;
}

void ShardTeam::dispatch(std::size_t shards, void* fn, Call call) {
  if (impl_ == nullptr) {
    for (std::size_t s = 0; s < shards; ++s) call(fn, s);
    return;
  }
  Impl& t = *impl_;
  t.shards = shards;
  t.fn = fn;
  t.call = call;
  t.pending.store(size_ - 1, std::memory_order_relaxed);
  t.epoch.fetch_add(1);  // publishes the job above
  t.members_spot.wake();
  t.run_member(0);
  t.caller_spot.wait([&] { return t.pending.load() == 0; });
  if (t.error) std::rethrow_exception(std::exchange(t.error, nullptr));
}

}  // namespace holms::exec
