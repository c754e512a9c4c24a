#pragma once
// Discrete-event simulation kernel.
//
// This is the SystemC-equivalent substrate every process-network, NoC,
// wireless and MANET model in HolMS runs on (DESIGN.md S1).  Models schedule
// closures at absolute or relative times; the kernel executes them in
// (time, insertion-order) order so simultaneous events are deterministic.
//
// The kernel is deliberately single-threaded: reproducibility from a seed is
// worth more than parallel speed for the average-case statistics the paper's
// methodology is built around (§2.2).
//
// Storage: callbacks live in a slab-allocated pool of fixed slots with a
// small-buffer store (kInlineCallbackBytes), not in per-event std::function
// objects — the priority queue then holds trivially-copyable {time, seq,
// slot} entries and a typical schedule/dispatch cycle performs zero heap
// allocations (slabs are recycled through a free list; captures larger than
// the inline buffer fall back to one heap allocation for that event only).
// See DESIGN.md §5d for the lifetime rules.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <new>
#include <queue>
#include <type_traits>
#include <unordered_set>
#include <utility>
#include <vector>

#include "exec/aligned.hpp"

namespace holms::sim {

using Time = double;

/// Handle used to cancel a scheduled event.
struct EventId {
  std::uint64_t seq = 0;
};

class EventPoolCache;

/// Event-driven simulation kernel with cancellation and a stop condition.
class Simulator {
 public:
  /// Captures up to this many bytes are stored inline in the event slot.
  static constexpr std::size_t kInlineCallbackBytes = 48;

  /// With a cache, the simulator adopts the cache's recycled slab arena at
  /// construction (pool-reset fast path: recycled slabs need no zeroing —
  /// every slot field is written before it is read) and returns its arena on
  /// destruction.  The cache must outlive the simulator and is not owned.
  explicit Simulator(EventPoolCache* cache = nullptr);
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;
  ~Simulator();

  /// Schedules `fn` at absolute time `when`.  Any callable with signature
  /// void() is accepted; it is moved into the event pool directly (no
  /// std::function wrapping).  Throws InvalidArgument, scheduling nothing,
  /// unless when >= now(): a NaN time would stall run() forever.
  template <typename Fn>
  EventId schedule_at(Time when, Fn&& fn) {
    if (!(when >= now_)) [[unlikely]] reject_time();
    const std::uint64_t seq = next_seq_++;
    const std::uint32_t slot_idx = emplace_callback(std::forward<Fn>(fn));
    queue_.push(Entry{when, seq, slot_idx});
    ++live_events_;
    queue_high_water_ = std::max(queue_high_water_, queue_.size());
    return EventId{seq};
  }

  /// Schedules `fn` `delay` time units from now (delay >= 0; throws like
  /// schedule_at otherwise).
  template <typename Fn>
  EventId schedule_in(Time delay, Fn&& fn) {
    return schedule_at(now_ + delay, std::forward<Fn>(fn));
  }

  /// Cancels a pending event; cancelling an already-fired or unknown event is
  /// a harmless no-op (the common race when a timeout and its completion
  /// event land in the same delta-cycle).
  void cancel(EventId id);

  /// Runs until the queue drains or `until` is reached; returns the number of
  /// events executed.  The clock is advanced to `until` if the queue drains
  /// earlier than `until` (so time-weighted stats can be closed consistently).
  /// Same-timestamp events are popped as one batch and dispatched in
  /// insertion order — identical semantics, fewer heap sift operations.
  std::size_t run(Time until = std::numeric_limits<Time>::infinity());

  /// Executes at most one event; returns false when the queue is empty.
  bool step();

  /// Requests that `run()` return before dispatching the next event.
  void stop() { stop_requested_ = true; }

  Time now() const { return now_; }
  std::size_t pending() const { return live_events_; }
  std::uint64_t executed() const { return executed_; }

  /// Largest queue size ever reached (live + not-yet-compacted cancelled
  /// entries) — the kernel's memory high-water mark, reported to the
  /// exec::metrics registry at the end of each run().
  std::size_t queue_high_water() const { return queue_high_water_; }

 private:
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;
  static constexpr std::size_t kSlabSize = 256;  // slots per slab

  /// One pooled callback.  The callable object is constructed into `storage`
  /// (or, when it doesn't fit, `storage` holds a pointer to a heap copy).
  /// Slabs are 64-byte aligned (exec::make_aligned_array) so the 64-byte
  /// Slot layout maps one slot per cache line across the whole arena.
  /// Lifetime rules: the slot is owned by exactly one queue entry from
  /// schedule to dispatch; invoke() runs the callable in place, destroy()
  /// destructs/frees it, and the slot returns to the free list only *after*
  /// both — so a callback may safely schedule new events (slabs never move)
  /// but must not touch its own captures after returning.
  struct Slot {
    alignas(std::max_align_t) unsigned char storage[kInlineCallbackBytes];
    void (*invoke)(Slot&) = nullptr;
    void (*destroy)(Slot&) = nullptr;
    std::uint32_t next_free = kNoSlot;
  };

  /// Trivially-copyable queue entry; min-heap on (when, seq).
  struct Entry {
    Time when;
    std::uint64_t seq;
    std::uint32_t slot;
    bool operator>(const Entry& o) const {
      if (when != o.when) return when > o.when;
      return seq > o.seq;
    }
  };

  Slot& slot(std::uint32_t i) { return slabs_[i / kSlabSize][i % kSlabSize]; }

  /// schedule_at's error path, out of line so the inlined template stays
  /// small.
  [[noreturn]] void reject_time() const;

  std::uint32_t acquire_slot() {
    if (free_head_ != kNoSlot) {
      const std::uint32_t idx = free_head_;
      free_head_ = slot(idx).next_free;
      return idx;
    }
    const std::uint32_t idx = static_cast<std::uint32_t>(slot_count_);
    // Allocate only past the last slab — bump allocation walks through any
    // slabs preloaded from an EventPoolCache before touching the heap.
    if (slot_count_ / kSlabSize == slabs_.size()) {
      slabs_.push_back(exec::make_aligned_array<Slot>(kSlabSize));
      ++slabs_allocated_;
    }
    ++slot_count_;
    return idx;
  }

  void release_slot(std::uint32_t i) {
    Slot& s = slot(i);
    s.invoke = nullptr;
    s.destroy = nullptr;
    s.next_free = free_head_;
    free_head_ = i;
  }

  /// Destroys the stored callable and recycles the slot (cancelled entries,
  /// post-invoke cleanup, destructor drain).
  void discard_slot(std::uint32_t i) {
    Slot& s = slot(i);
    if (s.destroy) s.destroy(s);
    release_slot(i);
  }

  template <typename Fn>
  std::uint32_t emplace_callback(Fn&& fn) {
    using T = std::decay_t<Fn>;
    const std::uint32_t idx = acquire_slot();
    Slot& s = slot(idx);
    if constexpr (sizeof(T) <= kInlineCallbackBytes &&
                  alignof(T) <= alignof(std::max_align_t)) {
      ::new (static_cast<void*>(s.storage)) T(std::forward<Fn>(fn));
      s.invoke = [](Slot& sl) {
        (*std::launder(reinterpret_cast<T*>(sl.storage)))();
      };
      s.destroy = [](Slot& sl) {
        std::launder(reinterpret_cast<T*>(sl.storage))->~T();
      };
    } else {
      // Oversized capture: one heap allocation for this event only.
      ::new (static_cast<void*>(s.storage)) T*(new T(std::forward<Fn>(fn)));
      s.invoke = [](Slot& sl) {
        (**std::launder(reinterpret_cast<T**>(sl.storage)))();
      };
      s.destroy = [](Slot& sl) {
        delete *std::launder(reinterpret_cast<T**>(sl.storage));
      };
    }
    return idx;
  }

  bool is_cancelled(std::uint64_t seq);

  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> queue_;
  // Hash set, not a vector: heavy timeout/cancel workloads (MANET route
  // timeouts, wireless retransmit timers) accumulate thousands of pending
  // cancellations, and a linear scan per popped event made the kernel
  // O(cancelled^2).  Entries are erased when their event pops (the usual
  // case), keeping the set near the count of cancelled-but-not-yet-due
  // events.
  std::unordered_set<std::uint64_t> cancelled_;
  std::vector<exec::AlignedArray<Slot>> slabs_;
  std::size_t slot_count_ = 0;
  std::uint32_t free_head_ = kNoSlot;
  EventPoolCache* cache_ = nullptr;       // not owned; may be null
  std::uint64_t slabs_allocated_ = 0;     // fresh (non-recycled) slabs
  Time now_ = 0.0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
  std::size_t live_events_ = 0;
  std::size_t queue_high_water_ = 0;
  bool stop_requested_ = false;

  friend class EventPoolCache;
};

/// Recycles Simulator slab arenas across runs (DESIGN.md §5g).  Explore-style
/// fleets construct one short-lived Simulator per candidate; without a cache
/// each re-grows its slab pool from zero, so the per-candidate cost is a
/// fresh round of heap allocations.  A cache keeps the largest arena any
/// finished simulator returned and hands it to the next one wholesale.
///
/// The cache is intentionally unsynchronized — it is *per-worker* state.  Use
/// `EventPoolCache::this_thread()` to get the calling thread's instance:
/// exec::ThreadPool workers are persistent threads, so each worker of an
/// explore fleet accumulates and reuses its own arena for the whole run.
/// (The ISSUE sketched this type in holms::exec; it lives in holms::sim
/// because the dependency arrow points sim -> exec and the slab type is the
/// simulator's.)  A cache must outlive every Simulator constructed on it;
/// the thread-local instance trivially satisfies this for stack simulators.
class EventPoolCache {
 public:
  EventPoolCache() = default;
  EventPoolCache(const EventPoolCache&) = delete;
  EventPoolCache& operator=(const EventPoolCache&) = delete;

  /// The calling thread's cache (thread_local storage).
  static EventPoolCache& this_thread();

  /// Slabs currently parked and ready for the next Simulator.
  std::size_t slabs_cached() const { return slabs_.size(); }
  /// Largest arena (in slabs) ever parked here — reuse high-water mark.
  std::size_t high_water() const { return high_water_; }

 private:
  friend class Simulator;

  // Called by ~Simulator: park the larger of (current, returned) arena and
  // drop the other, so the cache converges on the fleet's high-water size
  // without hoarding every retired arena.
  void park(std::vector<exec::AlignedArray<Simulator::Slot>>&& slabs);

  std::vector<exec::AlignedArray<Simulator::Slot>> slabs_;
  std::size_t high_water_ = 0;
};

/// Convenience: a periodic activity bound to a simulator.  The callback may
/// return false to stop the ticker.
class Ticker {
 public:
  Ticker(Simulator& sim, Time period, std::function<bool()> on_tick)
      : sim_(sim), period_(period), on_tick_(std::move(on_tick)) {}

  /// Arms the first tick `offset` from now.
  void start(Time offset = 0.0);
  void stop();

 private:
  void fire();

  Simulator& sim_;
  Time period_;
  std::function<bool()> on_tick_;
  EventId pending_{};
  bool running_ = false;
};

}  // namespace holms::sim
