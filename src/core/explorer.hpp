#pragma once
// Design-space exploration: "The overall goal of successful design is then
// to find the best mapping of the target multimedia application onto the
// architectural resources, while satisfying an imposed set of design
// constraints ... and specified QoS metrics" (paper abstract).
//
// The explorer couples the node-centric knobs (mapping, DVS) into one search
// and reports the best feasible design plus the energy/latency Pareto front.
//
// Parallel execution (holms::exec): candidate generation and pricing run on
// a deterministic thread pool.  Every SA restart / random probe derives its
// RNG stream from (caller seed, candidate index) — exec/rng_stream.hpp — and
// results are merged serially in candidate order, so `threads = 8` returns a
// bitwise-identical ExploreResult to `threads = 1` for the same seed.

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/ambient.hpp"
#include "core/evaluator.hpp"
#include "sim/random.hpp"
#include "exec/error.hpp"

namespace holms::exec {
class ThreadPool;
}

namespace holms::core {

struct DesignCandidate {
  noc::Mapping mapping;
  bool use_dvs = true;
  Evaluation eval;
  /// Mean ambient availability across fault replicas (1.0 when exploration
  /// ran without a FaultScenario).
  double availability = 1.0;
  /// Windowed SLO score pooled over all replicas' windows (1.0 when no
  /// FaultScenario or FaultScenario::slo_window == 0): the fraction of
  /// tumbling availability windows that met FaultScenario::slo_target.
  double slo_fraction = 1.0;
  /// Worst single window's availability across every replica.  The mean
  /// can clear 0.999 while one burst window sits at 0.2; this is the number
  /// that exposes it.
  double worst_window_availability = 1.0;
};

/// Robustness-aware scoring: every candidate design is additionally replayed
/// through `replicas` ambient fault scenarios (distinct schedules derived
/// from `ambient.seed` via counter-based streams) and its mean availability
/// must clear `min_availability` to stay feasible.  Replicas are priced on
/// the same holms::exec pool as the base evaluations — they are just more
/// candidates.
struct FaultScenario {
  AmbientConfig ambient{};
  FaultPolicy policy = FaultPolicy::kAdaptiveRemap;
  std::size_t replicas = 2;
  double min_availability = 0.0;
  /// Optional shared schedule replayed by every replica *instead of* the
  /// per-replica Poisson derivation — how burst/crew traces (e.g.
  /// FaultSchedule::bursts over a FailureDomainTree) reach the explorer.
  /// Times in seconds, Target::kTile, ids = tiles.  With `replicas > 1`
  /// each replica still runs (the activity chain differs per replica seed),
  /// but the fault events are identical.
  const fault::FaultSchedule* schedule = nullptr;
  /// Windowed SLO scoring (0 disables it): each replica's per-period trace
  /// is cut into tumbling windows of `slo_window` periods; a window is met
  /// when its availability >= `slo_target`.  Candidate feasibility then
  /// additionally requires the pooled met-fraction to clear
  /// `min_slo_fraction` — an SLO floor, not a mean floor.
  std::size_t slo_window = 0;
  double slo_target = 0.999;
  double min_slo_fraction = 0.0;
};

struct ExploreOptions {
  std::size_t restarts = 3;        // independent SA runs
  noc::SaOptions sa{};
  std::size_t threads = 1;         // 0 = hardware concurrency, 1 = serial
  /// Evaluation cache to price through, shared across calls (every
  /// synthesize_platform trial uses one); nullptr = a cache private to the
  /// call.  Pricing always goes through a cache: a hit is bitwise equal to
  /// a fresh evaluate_design.
  EvalCache* cache = nullptr;
  const FaultScenario* faults = nullptr;  // robustness-aware DSE (optional)

  /// Contract rule C001; called by explore().  `restarts = 0` is legal (the
  /// greedy seed and random probes still run), so only nested knobs and the
  /// fault scenario are checked here.
  void validate() const {
    sa.validate();
    if (faults != nullptr && faults->replicas == 0) {
      throw holms::InvalidArgument(
          "ExploreOptions: FaultScenario.replicas must be >= 1");
    }
    if (faults != nullptr && !(faults->min_availability >= 0.0)) {
      // > 1 is legal: an unreachable floor rejects every candidate, which
      // callers use to probe infeasibility.
      throw holms::InvalidArgument(
          "ExploreOptions: FaultScenario.min_availability must be >= 0");
    }
    if (faults != nullptr && !(faults->min_slo_fraction >= 0.0)) {
      throw holms::InvalidArgument(
          "ExploreOptions: FaultScenario.min_slo_fraction must be >= 0");
    }
    if (faults != nullptr &&
        !(faults->slo_target > 0.0 && faults->slo_target <= 1.0)) {
      throw holms::InvalidArgument(
          "ExploreOptions: FaultScenario.slo_target must be in (0, 1]");
    }
    // Dead-config rejection (contract rule C001): a floor that can never
    // bind is a silently-ignored knob, not a configuration.
    if (faults != nullptr && faults->min_slo_fraction > 0.0 &&
        faults->slo_window == 0) {
      throw holms::InvalidArgument(
          "ExploreOptions: FaultScenario.min_slo_fraction > 0 requires "
          "slo_window > 0 — with windowing off the SLO floor never applies");
    }
    if (faults != nullptr && faults->slo_window > 0 &&
        faults->ambient.duration_s <= 0.0) {
      throw holms::InvalidArgument(
          "ExploreOptions: FaultScenario.slo_window > 0 needs a positive "
          "ambient.duration_s — zero periods yield no windows to score");
    }
  }
};

struct ExploreResult {
  DesignCandidate best;            // minimum energy among feasible
  std::vector<DesignCandidate> pareto;  // energy/makespan front
  std::size_t evaluated = 0;
  bool found_feasible = false;
};

/// Order-sensitive 64-bit digest of a mapping (splitmix64 chain).  Shared by
/// the fault-replay dedupe, the island emigrant ordering and the checkpoint
/// fingerprints, so "same mapping" means the same thing everywhere.
std::uint64_t mapping_digest(const noc::Mapping& m);

/// Canonical strict-weak order on candidates: feasible before infeasible,
/// then lower energy, then (mapping digest, use_dvs) as an arbitrary-but-
/// deterministic tie-break.  This is the order island emigrants are selected
/// by, which is what makes migration bitwise invariant to thread count and
/// island scheduling (DESIGN.md §5l).
bool candidate_precedes(const DesignCandidate& a, const DesignCandidate& b);

/// Serial, insertion-ordered accumulator of the best feasible candidate and
/// the energy/makespan Pareto front, shared by explore() and the island
/// explorer.  Merge order pins the tie-breaks (first minimal-energy candidate
/// wins), so callers feed it in deterministic candidate order after any
/// parallel pricing.  State is deliberately open: island checkpoints
/// serialize and restore it verbatim.
class ParetoAccumulator {
 public:
  void merge(DesignCandidate c);

  DesignCandidate best{};
  bool found_feasible = false;
  double best_energy = std::numeric_limits<double>::infinity();
  std::vector<DesignCandidate> front;
};

/// Replays already-priced candidates through `fs` (replay cursors deduped by
/// (schedule fingerprint, mapping digest, use_dvs)), fills availability /
/// slo_fraction / worst_window_availability and applies the scenario floors,
/// marking candidates that miss them infeasible.  Infeasible inputs keep
/// their perfect default scores and are never replayed.  Deterministic in
/// candidate order; thread-count invariant.  Shared by explore() and
/// core::IslandExplorer.
void score_fault_robustness(const Application& app, const Platform& platform,
                            const FaultScenario& fs, exec::ThreadPool& pool,
                            std::vector<DesignCandidate>& candidates);

/// Searches mappings (greedy seed + SA restarts + random probes) and
/// scheduler choice for the minimum-energy feasible design.  Every mapping
/// is priced twice, DVS then EDF, so `evaluated` is 2 * (1 + 2 * restarts).
///
/// Consumes exactly one draw from `rng` (the base of the per-candidate
/// counter-based streams) regardless of restarts or thread count.
ExploreResult explore(const Application& app, const Platform& platform,
                      sim::Rng& rng, const ExploreOptions& opts = {});

/// Platform synthesis under a manufacturing-cost budget (§1): starting from
/// an all-GPP mesh, greedily upgrade tiles hosting tasks to ASIP/ASIC
/// classes while the budget holds and total energy improves — the "fixed
/// processing resources (ASICs) and programmable resources" platform
/// assembly the paper's introduction describes.  Each step prices every
/// upgradeable tile concurrently (one explore() per candidate platform, all
/// sharing one evaluation cache) and accepts the best improving upgrade;
/// ties break on candidate order, so the result is thread-count independent.
struct SynthesisOptions {
  double cost_budget = 0.0;          // 0 = unconstrained
  std::size_t max_upgrades = 16;
  ExploreOptions explore{};          // per-candidate mapping search
  std::size_t threads = 1;           // 0 = hardware concurrency, 1 = serial

  /// Contract rule C001; called by synthesize_platform().
  void validate() const {
    explore.validate();
    if (!(cost_budget >= 0.0)) {
      throw holms::InvalidArgument(
          "SynthesisOptions: cost_budget must be >= 0");
    }
  }
};

struct SynthesisStep {
  std::size_t tile = 0;
  TileType to = TileType::kGpp;
  double energy_j = 0.0;
  double cost = 0.0;
};

struct SynthesisResult {
  Platform platform;
  ExploreResult design;
  std::vector<SynthesisStep> trace;
  bool found_feasible = false;
};

SynthesisResult synthesize_platform(const Application& app, std::size_t width,
                                    std::size_t height, sim::Rng& rng,
                                    const SynthesisOptions& opts = {});

}  // namespace holms::core
