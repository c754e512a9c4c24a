#pragma once
// Seeded, replayable fault schedules shared by every HolMS layer.
//
// The paper's ambient-intelligence vision (§5) asks for systems that keep
// operating "with limited resources and failing parts".  Prior to this layer
// each simulator either assumed a permanently healthy substrate (NoC, MANET,
// FGS) or rolled its own private failure clock (core::run_ambient_scenario).
// `FaultSchedule` centralises failure modelling: a sorted, immutable list of
// fail/repair events over abstract targets (links, nodes, tiles) that is
//   * deterministic — built either from an explicit trace or from a seeded
//     Poisson process, so the same (seed, spec) always yields the same
//     events, bitwise;
//   * layer-agnostic — event times are in the consumer's native unit
//     (cycles for the NoC, seconds for MANET/FGS/ambient); the schedule
//     itself never interprets them;
//   * replayable — consumers walk it with a `FaultInjector` cursor, so one
//     schedule can drive many independent runs (fault replicas in
//     `core::explore()` are just more candidates).
//
// Simulators must stay fast when no faults are armed: the injector is a raw
// pointer + index, and a null schedule means the hot path never branches on
// fault state (see router.cpp's `faults_armed()` pattern).

#include <cstddef>
#include <cstdint>
#include <vector>

#include "exec/error.hpp"

namespace holms::fault {

class FailureDomainTree;  // domain.hpp

/// What happens to the target at the event time.
///
/// kFail/kRepair are *hard* faults: the target is out of service until a
/// repair (possibly crew-scheduled) brings it back.  kSoftFail/kScrub are
/// *transient* faults: the target stays in service but corrupts what flows
/// through it (per-packet / per-slot) until a scrubbing pass clears it —
/// scrubbing is background hygiene and never occupies a repair crew.
/// Consumers that model only hard outages (NoC link state, MANET crashes,
/// ambient tile liveness) skip the soft kinds; SlotLossTrace consumes both.
enum class FaultKind : std::uint8_t {
  kFail,      ///< target goes down
  kRepair,    ///< target comes back up
  kSoftFail,  ///< target corrupts traffic (still in service)
  kScrub,     ///< scrubbing pass clears one pending soft fault
};

/// What kind of component the event addresses.  The id namespace is defined
/// by the consumer: for the NoC, kLink ids are Mesh2D undirected-link ids and
/// kTile/kNode ids are tile ids; for MANET, kNode ids are node indices; the
/// ambient scenario consumes kTile ids.
enum class Target : std::uint8_t {
  kLink,
  kNode,
  kTile,
};

/// One fail or repair event.  `time` is in the consumer's native unit.
struct FaultEvent {
  double time = 0.0;
  FaultKind kind = FaultKind::kFail;
  Target target = Target::kLink;
  std::size_t id = 0;
};

/// Immutable, time-sorted sequence of fault events.
///
/// Construction validates and canonicalises the event order (time, then
/// target, then id, then kind) so two schedules built from the same inputs
/// compare and replay identically regardless of how the trace was assembled.
/// The generators throw holms::InvalidArgument on a spec value that is NaN,
/// infinite or outside its documented range.
class FaultSchedule {
 public:
  FaultSchedule() = default;

  /// Builds a schedule from an explicit trace.  Events are sorted into
  /// canonical order; negative or non-finite times throw
  /// holms::InvalidArgument.
  static FaultSchedule from_trace(std::vector<FaultEvent> events);

  /// Parameters for a seeded Poisson fail/repair process over a set of
  /// targets.  Each target alternates exponential(fail_rate) time-to-failure
  /// and exponential(repair_rate) time-to-repair; repair_rate == 0 makes
  /// failures permanent.
  struct PoissonSpec {
    Target target = Target::kLink;
    std::size_t num_targets = 0;  ///< ids 0..num_targets-1
    double fail_rate = 0.0;       ///< failures per unit time (> 0)
    double repair_rate = 0.0;     ///< repairs per unit time (>= 0; 0 = permanent)
    double horizon = 0.0;         ///< events generated in [0, horizon)
  };

  /// Generates a schedule from a seeded Poisson process.  Each target id gets
  /// its own counter-derived RNG stream (exec::stream_seed(seed, id)), so the
  /// schedule is invariant to target iteration order and to num_targets of
  /// *other* specs: adding a target never perturbs another target's events.
  static FaultSchedule poisson(std::uint64_t seed, const PoissonSpec& spec);

  /// Parameters for correlated domain bursts over a FailureDomainTree.  A
  /// burst is one domain-level physical event (rack PDU trip, enclosure
  /// backplane fault, cable-bundle cut): every target under the domain's
  /// subtree fails, each with its own jittered onset, and comes back after a
  /// per-target repair — staggered when crews are unlimited, crew-scheduled
  /// (load-dependent) when `crews` bounds the number of simultaneous
  /// repairs.
  struct BurstSpec {
    /// Burst-eligible domain ids (tree node ids); each draws its own
    /// counter-derived stream, so adding a domain never perturbs another
    /// domain's bursts.  Must be non-empty and duplicate-free.
    std::vector<std::size_t> domains;
    double burst_rate = 0.0;      ///< domain-level bursts per unit time (> 0)
    double onset_jitter = 0.0;    ///< per-target onset delay ~ U[0, jitter]
    double repair_time = 0.0;     ///< base per-target repair duration
                                  ///< (0 = permanent: no repair leg)
    double repair_stagger = 0.0;  ///< extra per-target duration ~ U[0, stagger]
    double horizon = 0.0;         ///< bursts drawn in [0, horizon)
    /// Max simultaneous repairs (the crew pool).  0 = unlimited: every
    /// target's repair starts the moment it fails.  Bounded crews serve
    /// pending repairs highest-blast-radius-first (burst domain subtree
    /// size), FIFO within a priority class, so long bursts saturate the
    /// crews and repair time becomes load-dependent — the availability
    /// cliff i.i.d. models never show.
    std::size_t crews = 0;
  };

  /// Telemetry of one bursts() expansion (crew saturation is invisible in
  /// the trace itself, so the generator reports it out-of-band).
  struct BurstStats {
    std::size_t bursts = 0;          ///< domain-level events drawn
    std::size_t targets_failed = 0;  ///< per-target kFail events emitted
    /// Max number of repairs pending (waiting or about to be picked) at any
    /// crew-dispatch instant; 0 or 1 means the crews never saturated.
    std::size_t crew_queue_max_depth = 0;
    double last_repair_time = 0.0;   ///< completion of the final repair
  };

  /// Generates correlated domain-burst faults over `tree`.  Deterministic
  /// in (seed, tree, spec); traces are canonically sorted and fingerprinted
  /// like every other schedule.  Event times inherit the caller's unit.
  static FaultSchedule bursts(std::uint64_t seed,
                              const FailureDomainTree& tree,
                              const BurstSpec& spec,
                              BurstStats* stats = nullptr);

  /// Parameters for transient soft faults cleared by periodic scrubbing.
  /// Each target draws per-target Poisson kSoftFail arrivals; every soft
  /// fault is cleared by a kScrub event at the next global scrubbing pass
  /// (times scrub_interval, 2*scrub_interval, ...).  The clearing scrub of
  /// a late soft fault may land at the first pass at or after `horizon`, so
  /// soft faults never outlive the schedule by construction.
  struct SoftSpec {
    Target target = Target::kLink;
    std::size_t num_targets = 0;  ///< ids 0..num_targets-1
    double soft_rate = 0.0;       ///< soft faults per unit time (> 0)
    double scrub_interval = 0.0;  ///< scrubbing pass period (> 0)
    double horizon = 0.0;         ///< soft faults drawn in [0, horizon)
  };

  /// Generates a transient soft-fault/scrub schedule.  Per-target
  /// counter-derived streams, same independence contract as poisson().
  static FaultSchedule soft(std::uint64_t seed, const SoftSpec& spec);

  /// Concatenates two schedules (e.g. link faults + node faults) into one
  /// canonical merged schedule.
  static FaultSchedule merge(const FaultSchedule& a, const FaultSchedule& b);

  const std::vector<FaultEvent>& events() const { return events_; }
  bool empty() const { return events_.empty(); }
  std::size_t size() const { return events_.size(); }

  /// Order-sensitive 64-bit digest of the full event list (times hashed
  /// bitwise).  Two schedules with equal fingerprints replay identically;
  /// used by tests and BENCH_fault.json to pin reproducibility.
  std::uint64_t fingerprint() const;

 private:
  explicit FaultSchedule(std::vector<FaultEvent> events)
      : events_(std::move(events)) {}

  /// The one trace-finishing path every builder funnels through: validates
  /// times, sorts into canonical order and (for generator-built traces, in
  /// debug builds) asserts the monotone repair-after-fail invariant per
  /// target.
  static FaultSchedule canonical(std::vector<FaultEvent> events,
                                 bool generator_trace);

  std::vector<FaultEvent> events_;
};

}  // namespace holms::fault
