#pragma once
// Discrete-event simulation kernel.
//
// This is the SystemC-equivalent substrate of HolMS's event-driven models
// (DESIGN.md S1): the stream process networks, the Fig-1 stream system, the
// MPEG-2 decoder network and the lip-sync model (stream/), and each serve
// locality's MPEG-2 sessions (serve/).
// Models schedule closures at absolute or relative times; the kernel
// executes them in (time, insertion-order) order so simultaneous events are
// deterministic.
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

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <new>
#include <queue>
#include <type_traits>
#include <utility>
#include <vector>

#include "exec/aligned.hpp"

namespace holms::sim {

using Time = double;

/// Event-driven simulation kernel: schedule, run to a horizon, read the clock.
class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;
  ~Simulator();

  /// Schedules `fn` at absolute time `when`.  Any callable with signature
  /// void() is accepted; it is moved into the event pool directly (no
  /// std::function wrapping).  Throws InvalidArgument, scheduling nothing,
  /// unless when >= now(): a NaN time would stall run() forever.
  template <typename Fn>
  void schedule_at(Time when, Fn&& fn) {
    if (!(when >= now_)) [[unlikely]] reject_time();
    const std::uint64_t seq = next_seq_++;
    const std::uint32_t slot_idx = emplace_callback(std::forward<Fn>(fn));
    queue_.push(Entry{when, seq, slot_idx});
    queue_high_water_ = std::max(queue_high_water_, queue_.size());
  }

  /// Schedules `fn` `delay` time units from now (delay >= 0; throws like
  /// schedule_at otherwise).
  template <typename Fn>
  void schedule_in(Time delay, Fn&& fn) {
    schedule_at(now_ + delay, std::forward<Fn>(fn));
  }

  /// Runs every event with time <= `until`, in (time, insertion) order, and
  /// returns the number executed.  The clock is advanced to `until` if the
  /// queue drains earlier than `until` (so time-weighted stats can be closed
  /// consistently).  Throws InvalidArgument, dispatching nothing, when
  /// `until` is NaN.
  std::size_t run(Time until = std::numeric_limits<Time>::infinity());

  Time now() const { return now_; }

  /// Largest queue size ever reached — the kernel's memory high-water mark,
  /// reported to the exec::metrics registry at the end of each run().
  std::size_t queue_high_water() const { return queue_high_water_; }

 private:
  /// Captures up to this many bytes are stored inline in the event slot.
  static constexpr std::size_t kInlineCallbackBytes = 48;
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
    if (slot_count_ / kSlabSize == slabs_.size()) {
      slabs_.push_back(exec::make_aligned_array<Slot>(kSlabSize));
    }
    ++slot_count_;
    return idx;
  }

  /// Destroys the stored callable and recycles the slot.
  void discard_slot(std::uint32_t i) {
    Slot& s = slot(i);
    s.destroy(s);
    s.next_free = free_head_;
    free_head_ = i;
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

  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> queue_;
  std::vector<exec::AlignedArray<Slot>> slabs_;
  std::size_t slot_count_ = 0;
  std::uint32_t free_head_ = kNoSlot;
  Time now_ = 0.0;
  std::uint64_t next_seq_ = 1;
  std::size_t queue_high_water_ = 0;
};

}  // namespace holms::sim
