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

namespace {

// Polls a waiter makes before it parks, and how often one of them yields.
// A pause is ~10-150 cycles, so the bound covers the few microseconds
// between two loops of one caller (a solve's serial convergence check, an
// uneven last index) on any x86 or arm core, and an idle pool parks within
// about a millisecond.  The periodic yield hands the core to a runnable
// member on an oversubscribed host (more members than cores, or several
// processes) instead of spinning out the timeslice it waits for.
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

// The caller publishes a loop in plain fields, then bumps `epoch`; a member
// that sees the new epoch reads the loop, claims indices from `next` until
// they run out and counts `pending` down, and the member that reaches zero
// wakes the caller.  The caller only writes the next loop after `pending`
// hits zero, so no member can still be reading or claiming from the old
// one, and the countdown also publishes every result and any error a member
// recorded.
struct ThreadPool::Impl {
  alignas(64) std::atomic<std::uint64_t> epoch{0};
  alignas(64) std::atomic<std::size_t> next{0};
  alignas(64) std::atomic<std::size_t> pending{0};
  ParkingSpot members_spot, caller_spot;

  std::size_t n = 0;
  const void* fn = nullptr;
  Call call = nullptr;
  bool stopping = false;
  std::mutex error_mu;  // taken only when an index throws
  std::exception_ptr error;
  std::size_t error_index = 0;
  std::vector<std::thread> threads;

  void drain() {
    for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed); i < n;
         i = next.fetch_add(1, std::memory_order_relaxed)) {
      try {
        call(fn, i);
      } catch (...) {
        std::lock_guard<std::mutex> lk(error_mu);
        if (!error || i < error_index) {
          error = std::current_exception();
          error_index = i;
        }
      }
    }
  }

  void member_loop() {
    std::uint64_t seen = 0;
    while (true) {
      members_spot.wait([&] { return epoch.load() != seen; });
      seen = epoch.load(std::memory_order_acquire);
      if (stopping) return;
      drain();
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

ThreadPool::ThreadPool(std::size_t threads) {
  size_ = resolve_threads(threads);
  if (size_ <= 1) return;
  impl_ = new Impl;
  try {
    for (std::size_t m = 1; m < size_; ++m) {
      impl_->threads.emplace_back([impl = impl_] { impl->member_loop(); });
    }
  } catch (const std::exception& e) {
    impl_->stop();
    delete impl_;
    throw holms::RuntimeError(std::string("ThreadPool: ") + e.what());
  }
}

ThreadPool::~ThreadPool() {
  if (impl_ == nullptr) return;
  impl_->stop();
  delete impl_;
}

void ThreadPool::dispatch(std::size_t n, const void* fn, Call call) {
  if (impl_ == nullptr || n <= 1) {
    std::exception_ptr error;  // the first throw inline is the lowest index
    for (std::size_t i = 0; i < n; ++i) {
      try {
        call(fn, i);
      } catch (...) {
        if (!error) error = std::current_exception();
      }
    }
    if (error) std::rethrow_exception(error);
    return;
  }
  Impl& p = *impl_;
  p.n = n;
  p.fn = fn;
  p.call = call;
  p.next.store(0, std::memory_order_relaxed);
  p.pending.store(size_ - 1, std::memory_order_relaxed);
  p.epoch.fetch_add(1);  // publishes the loop above
  p.members_spot.wake();
  p.drain();  // the caller is a member too
  p.caller_spot.wait([&] { return p.pending.load() == 0; });
  if (p.error) std::rethrow_exception(std::exchange(p.error, nullptr));
}

}  // namespace holms::exec
