#include "fault/schedule.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <tuple>

#include "exec/rng_stream.hpp"
#include "fault/domain.hpp"
#include "sim/random.hpp"

#include "exec/error.hpp"

namespace holms::fault {

namespace {

// Spec checks.  Each is false for NaN and for +inf, so every generator's
// arrival loop reaches its finite horizon.
bool positive(double x) { return std::isfinite(x) && x > 0.0; }
bool non_negative(double x) { return std::isfinite(x) && x >= 0.0; }

bool event_order(const FaultEvent& a, const FaultEvent& b) {
  return std::tie(a.time, a.target, a.id, a.kind) <
         std::tie(b.time, b.target, b.id, b.kind);
}

#ifndef NDEBUG
/// Debug invariant for generator-built traces: per (target, id), repairs
/// never outnumber fails and scrubs never outnumber soft fails at any
/// prefix of the canonical order — i.e. every repair/scrub follows the
/// fault it clears.  Bursts may re-fail a still-down target (overlapping
/// domain events), which keeps the prefix counts legal; a repair arriving
/// before any fail would not.
void check_monotone_repair_after_fail(const std::vector<FaultEvent>& events) {
  for (std::size_t i = 0; i < events.size(); ++i) {
    const FaultEvent& e = events[i];
    if (e.kind != FaultKind::kRepair && e.kind != FaultKind::kScrub) continue;
    const FaultKind opens =
        e.kind == FaultKind::kRepair ? FaultKind::kFail : FaultKind::kSoftFail;
    std::ptrdiff_t balance = 0;
    for (std::size_t j = 0; j <= i; ++j) {
      const FaultEvent& p = events[j];
      if (p.target != e.target || p.id != e.id) continue;
      if (p.kind == opens) ++balance;
      if (p.kind == e.kind) --balance;
    }
    assert(balance >= 0 &&
           "fault trace: repair/scrub precedes its fail/soft-fail");
  }
}
#endif

}  // namespace

FaultSchedule FaultSchedule::canonical(std::vector<FaultEvent> events,
                                       bool generator_trace) {
  for (const FaultEvent& e : events) {
    if (!non_negative(e.time)) {
      throw holms::InvalidArgument(
          "FaultSchedule: event time must be >= 0 and finite");
    }
  }
  std::stable_sort(events.begin(), events.end(), event_order);
#ifndef NDEBUG
  if (generator_trace) check_monotone_repair_after_fail(events);
#else
  (void)generator_trace;
#endif
  return FaultSchedule(std::move(events));
}

FaultSchedule FaultSchedule::from_trace(std::vector<FaultEvent> events) {
  // User-assembled traces may encode states the generators never produce
  // (e.g. a repair of a target assumed down at t=0), so only the generator
  // paths run the monotone repair-after-fail debug check.
  return canonical(std::move(events), /*generator_trace=*/false);
}

FaultSchedule FaultSchedule::poisson(std::uint64_t seed,
                                     const PoissonSpec& spec) {
  if (!positive(spec.fail_rate)) {
    throw holms::InvalidArgument(
        "FaultSchedule::poisson: fail_rate must be finite and > 0");
  }
  if (!non_negative(spec.repair_rate)) {
    throw holms::InvalidArgument(
        "FaultSchedule::poisson: repair_rate must be finite and >= 0");
  }
  if (!non_negative(spec.horizon)) {
    throw holms::InvalidArgument(
        "FaultSchedule::poisson: horizon must be finite and >= 0");
  }
  std::vector<FaultEvent> events;
  for (std::size_t id = 0; id < spec.num_targets; ++id) {
    // Per-target counter-derived stream: the target's event sequence depends
    // only on (seed, id), never on how many other targets exist.
    sim::Rng rng(exec::stream_seed(seed, id));
    double t = 0.0;
    bool up = true;
    while (true) {
      const double rate = up ? spec.fail_rate : spec.repair_rate;
      if (rate <= 0.0) break;  // permanent failure: no repair leg
      t += rng.exponential(rate);
      if (t >= spec.horizon) break;
      events.push_back(FaultEvent{
          t, up ? FaultKind::kFail : FaultKind::kRepair, spec.target, id});
      up = !up;
    }
  }
  return canonical(std::move(events), /*generator_trace=*/true);
}

FaultSchedule FaultSchedule::bursts(std::uint64_t seed,
                                    const FailureDomainTree& tree,
                                    const BurstSpec& spec, BurstStats* stats) {
  if (spec.domains.empty()) {
    throw holms::InvalidArgument(
        "FaultSchedule::bursts: spec.domains must be non-empty");
  }
  for (std::size_t i = 0; i < spec.domains.size(); ++i) {
    if (spec.domains[i] >= tree.num_domains()) {
      throw holms::InvalidArgument(
          "FaultSchedule::bursts: domain id out of range");
    }
    for (std::size_t j = 0; j < i; ++j) {
      if (spec.domains[j] == spec.domains[i]) {
        throw holms::InvalidArgument(
            "FaultSchedule::bursts: duplicate domain id");
      }
    }
  }
  if (!positive(spec.burst_rate)) {
    throw holms::InvalidArgument(
        "FaultSchedule::bursts: burst_rate must be finite and > 0");
  }
  for (const double v : {spec.onset_jitter, spec.repair_time,
                         spec.repair_stagger, spec.horizon}) {
    if (!non_negative(v)) {
      throw holms::InvalidArgument(
          "FaultSchedule::bursts: jitter, repair and horizon must be finite "
          "and >= 0");
    }
  }

  BurstStats local;
  BurstStats& st = stats != nullptr ? *stats : local;
  st = BurstStats{};

  // Phase 1: expand domain-level bursts into per-target failures.  Each
  // domain draws from its own counter-derived stream (burst times, then per
  // target an onset jitter and a repair duration, in canonical
  // targets_under() order), so one domain's trace is a pure function of
  // (seed, domain, tree, spec).
  struct FailRec {
    double time = 0.0;           // jittered onset
    double duration = 0.0;       // repair_time + stagger draw
    std::size_t priority = 0;    // burst domain subtree size (blast radius)
    Target target = Target::kLink;
    std::size_t id = 0;
  };
  std::vector<FailRec> fails;
  for (std::size_t di = 0; di < spec.domains.size(); ++di) {
    const std::size_t d = spec.domains[di];
    const std::vector<TargetRef> targets = tree.targets_under(d);
    const std::size_t radius = targets.size();
    sim::Rng rng(exec::stream_seed(seed, d));
    double t = 0.0;
    while (true) {
      t += rng.exponential(spec.burst_rate);
      if (t >= spec.horizon) break;
      ++st.bursts;
      for (const TargetRef& ref : targets) {
        FailRec rec;
        rec.time = t + rng.uniform(0.0, spec.onset_jitter);
        rec.duration = spec.repair_time + rng.uniform(0.0, spec.repair_stagger);
        rec.priority = radius;
        rec.target = ref.target;
        rec.id = ref.id;
        fails.push_back(rec);
        ++st.targets_failed;
      }
    }
  }
  std::sort(fails.begin(), fails.end(), [](const FailRec& a, const FailRec& b) {
    return std::tie(a.time, a.target, a.id, a.duration) <
           std::tie(b.time, b.target, b.id, b.duration);
  });

  std::vector<FaultEvent> events;
  events.reserve(fails.size() * 2);
  for (const FailRec& f : fails) {
    events.push_back(FaultEvent{f.time, FaultKind::kFail, f.target, f.id});
  }

  // Phase 2: repairs.  Permanent when repair_time == 0; otherwise either
  // immediate (unlimited crews: repair starts at the onset) or scheduled
  // through the bounded crew pool — a deterministic non-preemptive priority
  // queue (bigger blast radius first, FIFO within a class).
  if (spec.repair_time > 0.0) {
    if (spec.crews == 0) {
      for (const FailRec& f : fails) {
        const double done = f.time + f.duration;
        events.push_back(FaultEvent{done, FaultKind::kRepair, f.target, f.id});
        st.last_repair_time = std::max(st.last_repair_time, done);
      }
    } else {
      // Crew free times, kept sorted ascending (size == crews).
      std::vector<double> crew(spec.crews, 0.0);
      // Pending repairs: indices into `fails`, picked by (priority desc,
      // fail time asc, target, id) — scan-select keeps the choice
      // deterministic and the queue is short in practice.
      std::vector<std::size_t> pending;
      std::size_t next = 0;
      while (next < fails.size() || !pending.empty()) {
        const double crew_free = crew.front();
        if (pending.empty()) {
          pending.push_back(next++);
        }
        // The earliest possible service start: the first crew to free up,
        // or the earliest pending arrival if the crews are already idle.
        double earliest_arrival = fails[pending.front()].time;
        for (const std::size_t p : pending) {
          earliest_arrival = std::min(earliest_arrival, fails[p].time);
        }
        const double start = std::max(crew_free, earliest_arrival);
        // Everything failing by the service start competes for the crew.
        while (next < fails.size() && fails[next].time <= start) {
          pending.push_back(next++);
        }
        st.crew_queue_max_depth =
            std::max(st.crew_queue_max_depth, pending.size());
        std::size_t pick = 0;
        for (std::size_t i = 1; i < pending.size(); ++i) {
          const FailRec& a = fails[pending[i]];
          const FailRec& b = fails[pending[pick]];
          if (std::tie(b.priority, a.time, a.target, a.id) <
              std::tie(a.priority, b.time, b.target, b.id)) {
            pick = i;
          }
        }
        const FailRec& job = fails[pending[pick]];
        const double begin = std::max(crew_free, job.time);
        const double done = begin + job.duration;
        events.push_back(
            FaultEvent{done, FaultKind::kRepair, job.target, job.id});
        st.last_repair_time = std::max(st.last_repair_time, done);
        pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(pick));
        crew.front() = done;
        std::sort(crew.begin(), crew.end());
      }
    }
  }
  return canonical(std::move(events), /*generator_trace=*/true);
}

FaultSchedule FaultSchedule::soft(std::uint64_t seed, const SoftSpec& spec) {
  if (!positive(spec.soft_rate)) {
    throw holms::InvalidArgument(
        "FaultSchedule::soft: soft_rate must be finite and > 0");
  }
  if (!positive(spec.scrub_interval)) {
    throw holms::InvalidArgument(
        "FaultSchedule::soft: scrub_interval must be finite and > 0");
  }
  if (!non_negative(spec.horizon)) {
    throw holms::InvalidArgument(
        "FaultSchedule::soft: horizon must be finite and >= 0");
  }
  std::vector<FaultEvent> events;
  for (std::size_t id = 0; id < spec.num_targets; ++id) {
    sim::Rng rng(exec::stream_seed(seed, id));
    double t = 0.0;
    while (true) {
      t += rng.exponential(spec.soft_rate);
      if (t >= spec.horizon) break;
      events.push_back(FaultEvent{t, FaultKind::kSoftFail, spec.target, id});
      // Cleared at the next global scrubbing pass strictly after onset —
      // emitted even past the horizon so every soft fault is balanced by
      // exactly one scrub.
      const double pass =
          (std::floor(t / spec.scrub_interval) + 1.0) * spec.scrub_interval;
      events.push_back(FaultEvent{pass, FaultKind::kScrub, spec.target, id});
    }
  }
  return canonical(std::move(events), /*generator_trace=*/true);
}

FaultSchedule FaultSchedule::merge(const FaultSchedule& a,
                                   const FaultSchedule& b) {
  std::vector<FaultEvent> events;
  events.reserve(a.events_.size() + b.events_.size());
  std::merge(a.events_.begin(), a.events_.end(), b.events_.begin(),
             b.events_.end(), std::back_inserter(events), event_order);
  return FaultSchedule(std::move(events));
}

std::uint64_t FaultSchedule::fingerprint() const {
  std::uint64_t h = 0x6861756c746c6179ULL;  // arbitrary nonzero start
  for (const FaultEvent& e : events_) {
    h = exec::splitmix64(h ^ std::bit_cast<std::uint64_t>(e.time));
    h = exec::splitmix64(h ^ (static_cast<std::uint64_t>(e.kind) |
                              (static_cast<std::uint64_t>(e.target) << 8) |
                              (static_cast<std::uint64_t>(e.id) << 16)));
  }
  return h;
}

}  // namespace holms::fault
