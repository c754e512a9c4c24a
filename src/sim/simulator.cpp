#include "sim/simulator.hpp"

#include "exec/error.hpp"
#include "exec/metrics.hpp"

namespace holms::sim {

Simulator::Simulator(EventPoolCache* cache) : cache_(cache) {
  if (cache_ == nullptr || cache_->slabs_.empty()) return;
  // Adopt the recycled arena wholesale.  No per-slot reset is needed: bump
  // allocation (slot_count_ starts at 0) hands slots out in order and
  // emplace_callback overwrites every field a live slot reads.
  slabs_ = std::move(cache_->slabs_);
  cache_->slabs_.clear();
  exec::count("sim.pool_slabs_reused", slabs_.size());
}

Simulator::~Simulator() {
  // Destroy the callables of every still-queued event (cancelled or not);
  // the slabs themselves die with slabs_ — or outlive us in the cache.
  while (!queue_.empty()) {
    const Entry ev = queue_.top();
    queue_.pop();
    Slot& s = slot(ev.slot);
    if (s.destroy) s.destroy(s);
  }
  if (slabs_allocated_ > 0) {
    exec::count("sim.pool_slabs_allocated", slabs_allocated_);
  }
  if (cache_ != nullptr && !slabs_.empty()) {
    cache_->park(std::move(slabs_));
  }
}

EventPoolCache& EventPoolCache::this_thread() {
  static thread_local EventPoolCache cache;
  return cache;
}

void EventPoolCache::park(
    std::vector<exec::AlignedArray<Simulator::Slot>>&& slabs) {
  // All callables were already destroyed by ~Simulator's queue drain, so the
  // parked slabs hold raw capacity only.
  if (slabs.size() > slabs_.size()) slabs_ = std::move(slabs);
  high_water_ = std::max(high_water_, slabs_.size());
  exec::observe("sim.pool_high_water", static_cast<double>(high_water_));
}

void Simulator::reject_time() const {
  throw holms::InvalidArgument(
      "Simulator: event time is NaN or before now()");
}

void Simulator::cancel(EventId id) {
  if (id.seq == 0) return;
  // insert().second guards the live count against double-cancel of the
  // same handle (previously each duplicate decremented it again).
  if (cancelled_.insert(id.seq).second && live_events_ > 0) --live_events_;
}

bool Simulator::is_cancelled(std::uint64_t seq) {
  // erase() returns the number of elements removed: O(1) membership test
  // and compaction in one call.
  return cancelled_.erase(seq) != 0;
}

bool Simulator::step() {
  while (!queue_.empty()) {
    const Entry ev = queue_.top();
    queue_.pop();
    if (is_cancelled(ev.seq)) {
      discard_slot(ev.slot);
      continue;
    }
    --live_events_;
    now_ = ev.when;
    ++executed_;
    // The slot reference stays valid across invoke even if the callback
    // schedules (slabs are append-only); it is recycled only afterwards.
    Slot& s = slot(ev.slot);
    s.invoke(s);
    discard_slot(ev.slot);
    return true;
  }
  return false;
}

std::size_t Simulator::run(Time until) {
  stop_requested_ = false;
  std::size_t n = 0;
  std::vector<Entry> batch;
  batch.reserve(16);
  while (!stop_requested_) {
    // Pop past cancelled entries to decide whether the next live event is
    // within the horizon.
    while (!queue_.empty() && is_cancelled(queue_.top().seq)) {
      const std::uint32_t slot_idx = queue_.top().slot;
      queue_.pop();
      discard_slot(slot_idx);
    }
    if (queue_.empty() || queue_.top().when > until) break;
    // Pop the whole same-timestamp cohort at once, then dispatch in seq
    // order.  Events a callback schedules *at this same timestamp* land in
    // the queue and form the next batch — exactly the order the one-pop-per
    // -event loop produced, with fewer heap sifts.
    const Time t = queue_.top().when;
    batch.clear();
    while (!queue_.empty() && queue_.top().when == t) {
      batch.push_back(queue_.top());
      queue_.pop();
    }
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const Entry& ev = batch[i];
      // Re-check: an earlier event in this batch may have cancelled a later
      // one after it was popped.
      if (is_cancelled(ev.seq)) {
        discard_slot(ev.slot);
        continue;
      }
      --live_events_;
      now_ = ev.when;
      ++executed_;
      ++n;
      Slot& s = slot(ev.slot);
      s.invoke(s);
      discard_slot(ev.slot);
      if (stop_requested_ && i + 1 < batch.size()) {
        // Return the unexecuted tail to the queue so pending() and a later
        // resume see exactly the events a per-pop loop would have left.
        for (std::size_t j = i + 1; j < batch.size(); ++j) {
          queue_.push(batch[j]);
        }
        break;
      }
    }
  }
  if (until != std::numeric_limits<Time>::infinity() && now_ < until &&
      !stop_requested_) {
    now_ = until;
  }
  exec::count("sim.events_executed", n);
  exec::observe("sim.queue_high_water",
                static_cast<double>(queue_high_water_));
  return n;
}

void Ticker::start(Time offset) {
  if (running_) return;
  running_ = true;
  pending_ = sim_.schedule_in(offset, [this] { fire(); });
}

void Ticker::stop() {
  if (!running_) return;
  running_ = false;
  sim_.cancel(pending_);
  pending_ = EventId{};
}

void Ticker::fire() {
  if (!running_) return;
  if (!on_tick_()) {
    running_ = false;
    pending_ = EventId{};
    return;
  }
  pending_ = sim_.schedule_in(period_, [this] { fire(); });
}

}  // namespace holms::sim
