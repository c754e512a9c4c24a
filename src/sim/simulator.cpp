#include "sim/simulator.hpp"

#include <cmath>

#include "exec/error.hpp"
#include "exec/metrics.hpp"

namespace holms::sim {

Simulator::~Simulator() {
  // Destroy the callables of every still-queued event; the slabs themselves
  // die with slabs_.
  while (!queue_.empty()) {
    Slot& s = slot(queue_.top().slot);
    queue_.pop();
    s.destroy(s);
  }
}

void Simulator::reject_time() const {
  throw holms::InvalidArgument(
      "Simulator: event time is NaN or before now()");
}

std::size_t Simulator::run(Time until) {
  if (std::isnan(until)) {
    throw holms::InvalidArgument("Simulator: run() horizon is NaN");
  }
  std::size_t n = 0;
  while (!queue_.empty() && queue_.top().when <= until) {
    const Entry ev = queue_.top();
    queue_.pop();
    now_ = ev.when;
    ++n;
    // The slot reference stays valid across invoke even if the callback
    // schedules (slabs are append-only); it is recycled only afterwards.
    Slot& s = slot(ev.slot);
    s.invoke(s);
    discard_slot(ev.slot);
  }
  if (until != std::numeric_limits<Time>::infinity() && now_ < until) {
    now_ = until;
  }
  exec::count("sim.events_executed", n);
  exec::observe("sim.queue_high_water",
                static_cast<double>(queue_high_water_));
  return n;
}

}  // namespace holms::sim
