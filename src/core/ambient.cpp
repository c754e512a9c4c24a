#include "core/ambient.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "exec/rng_stream.hpp"
#include "fault/injector.hpp"

#include "exec/error.hpp"

namespace holms::core {
namespace {

// Moves every task on a dead tile to the live free tile that minimizes its
// incremental communication energy (greedy repair, cheap enough to run
// online).  Returns false if no live tile remains for some task.
bool remap_off_dead_tiles(const Application& app, const Platform& platform,
                          const noc::IncidenceIndex& inc,
                          const std::vector<bool>& tile_alive,
                          noc::Mapping& mapping) {
  const noc::Mesh2D& mesh = platform.mesh;
  std::vector<bool> spare = tile_alive;  // live tiles no task holds
  for (const noc::TileId t : mapping) spare[t] = false;
  std::vector<noc::PlacementPin> pins;
  for (std::size_t i = 0; i < mapping.size(); ++i) {
    if (tile_alive[mapping[i]]) continue;
    // One pin per incident edge, in edge declaration order (which fixes
    // the summation order of each tile's cost): the edge volume and the
    // current tile of the other endpoint.
    pins.clear();
    for (const std::uint32_t o : inc.of(i)) {
      const noc::AppEdge& e = app.graph.edges()[o >> 1];
      const noc::TileId other = mapping[(o & 1) ? e.dst : e.src];
      pins.push_back({mesh.x_of(other), mesh.y_of(other), e.volume_bits});
    }
    // Prefer a spare tile; once spares run out, share a live tile — the
    // application keeps running, possibly degraded (deadline pressure).
    noc::TileId best =
        noc::cheapest_tile(mesh, platform.noc_energy, pins, spare);
    if (best >= mesh.num_tiles()) {
      best = noc::cheapest_tile(mesh, platform.noc_energy, pins, tile_alive);
    }
    if (best >= mesh.num_tiles()) return false;  // all dead
    mapping[i] = best;
    spare[best] = false;
  }
  return true;
}

}  // namespace

SloScore availability_slo(const std::vector<std::uint8_t>& period_ok,
                          double target, std::size_t window) {
  if (!(target > 0.0 && target <= 1.0)) {
    throw holms::InvalidArgument(
        "availability_slo: target must be in (0, 1]");
  }
  if (window == 0) {
    throw holms::InvalidArgument("availability_slo: window must be >= 1");
  }
  SloScore score;
  score.window = window;
  std::size_t worst_ok = 0;
  std::size_t worst_len = 1;  // worst availability as the ratio worst_ok/worst_len
  for (std::size_t begin = 0; begin < period_ok.size(); begin += window) {
    const std::size_t len = std::min(window, period_ok.size() - begin);
    std::size_t ok = 0;
    for (std::size_t i = begin; i < begin + len; ++i) {
      if (period_ok[i] != 0) ++ok;
    }
    ++score.windows;
    // Integer-exact target test: ok/len >= target  <=>  ok >= target*len,
    // with a tiny guard against the product rounding just above an integer.
    if (static_cast<double>(ok) + 1e-9 >=
        target * static_cast<double>(len)) {
      ++score.windows_met;
    }
    // Worst window by cross-multiplied integer ratio (no FP accumulation).
    if (score.windows == 1 || ok * worst_len < worst_ok * len) {
      worst_ok = ok;
      worst_len = len;
    }
  }
  if (score.windows > 0) {
    score.slo_fraction = static_cast<double>(score.windows_met) /
                         static_cast<double>(score.windows);
    score.worst_window_availability =
        static_cast<double>(worst_ok) / static_cast<double>(worst_len);
  }
  return score;
}

AmbientResult run_ambient_scenario(const Application& app,
                                   const Platform& platform,
                                   FaultPolicy policy,
                                   const AmbientConfig& cfg,
                                   const AmbientOptions& opts) {
  AmbientResult res;

  // Fault source: the shared schedule, or one derived from the config's
  // Poisson parameters (the legacy behavior).  Either way the scenario
  // replays an explicit event list, so two policies compared on the same
  // (seed, schedule) see the exact same failures.
  fault::FaultSchedule derived;
  const fault::FaultSchedule* schedule = opts.schedule;
  if (schedule == nullptr) {
    fault::FaultSchedule::PoissonSpec spec;
    spec.target = fault::Target::kTile;
    spec.num_targets = platform.mesh.num_tiles();
    spec.fail_rate = 1.0 / cfg.tile_mtbf_s;
    spec.repair_rate = cfg.tile_mttr_s > 0.0 ? 1.0 / cfg.tile_mttr_s : 0.0;
    spec.horizon = cfg.duration_s;
    derived =
        fault::FaultSchedule::poisson(exec::stream_seed(cfg.seed, 0), spec);
    schedule = &derived;
  } else {
    for (const fault::FaultEvent& e : schedule->events()) {
      if (e.target == fault::Target::kTile &&
          e.id >= platform.mesh.num_tiles()) {
        throw holms::InvalidArgument(
            "run_ambient_scenario: fault event tile id out of range");
      }
    }
  }
  fault::FaultInjector injector(schedule);
  // The activity chain draws from its own counter-derived stream, so the
  // fault process and the user model never perturb each other.
  sim::Rng activity_rng(exec::stream_seed(cfg.seed, 1));

  // Design-time mapping on the healthy platform.
  const noc::Mapping design_mapping =
      opts.initial_mapping != nullptr
          ? *opts.initial_mapping
          : noc::greedy_mapping(app.graph, platform.mesh, platform.noc_energy);
  noc::Mapping mapping = design_mapping;
  const noc::IncidenceIndex inc(app.graph);

  std::vector<bool> tile_alive(platform.mesh.num_tiles(), true);
  const double period = app.qos.period_s;

  bool user_active_high = true;
  bool mapping_valid = true;
  bool displaced = false;  // tasks currently off their design-time tiles
  Evaluation cached_eval =
      evaluate_design(app, platform, mapping, opts.use_dvs);

  const std::size_t periods =
      static_cast<std::size_t>(cfg.duration_s / period);
  res.period_ok.reserve(periods);
  for (std::size_t k = 0; k < periods; ++k) {
    ++res.periods;

    // Replay fault events up to the start of this period.
    bool changed = false;
    injector.poll(static_cast<double>(k) * period,
                  [&](const fault::FaultEvent& e) {
                    if (e.target != fault::Target::kTile) return;
                    // Transient soft faults never change tile liveness; they
                    // are counted for telemetry and otherwise pass through
                    // (per-slot corruption is a streaming-layer concern).
                    if (e.kind == fault::FaultKind::kSoftFail) {
                      ++res.soft_faults_seen;
                      return;
                    }
                    if (e.kind == fault::FaultKind::kScrub) {
                      ++res.scrubs_seen;
                      return;
                    }
                    const bool up = e.kind == fault::FaultKind::kRepair;
                    if (tile_alive[e.id] == up) return;
                    tile_alive[e.id] = up;
                    changed = true;
                    if (up) {
                      ++res.repairs_applied;
                    } else {
                      ++res.failures_injected;
                    }
                  });
    // User activity Markov chain.
    if (activity_rng.bernoulli(cfg.activity_switch_prob)) {
      user_active_high = !user_active_high;
    }
    const double activity =
        user_active_high ? cfg.activity_high : cfg.activity_low;

    if (changed) {
      bool any_dead_in_use = false;
      for (std::size_t i = 0; i < mapping.size(); ++i) {
        if (!tile_alive[mapping[i]]) any_dead_in_use = true;
      }
      if (policy == FaultPolicy::kAdaptiveRemap) {
        if (any_dead_in_use) {
          mapping_valid =
              remap_off_dead_tiles(app, platform, inc, tile_alive, mapping);
          if (mapping_valid) {
            ++res.remaps_performed;
            displaced = mapping != design_mapping;
            cached_eval =
                evaluate_design(app, platform, mapping, opts.use_dvs);
          }
        } else {
          mapping_valid = true;  // every tile in use is live again
          if (displaced) {
            // Repairs may have revived the design-time tiles: fall back to
            // the intended placement as soon as it is whole again.
            bool design_whole = true;
            for (std::size_t i = 0; i < design_mapping.size(); ++i) {
              if (!tile_alive[design_mapping[i]]) design_whole = false;
            }
            if (design_whole) {
              mapping = design_mapping;
              displaced = false;
              ++res.remaps_performed;
              cached_eval =
                  evaluate_design(app, platform, mapping, opts.use_dvs);
            }
          }
        }
      } else {
        // Static policy: the mapping never moves; it is valid exactly when
        // every used tile is live (repairs can restore it).
        mapping_valid = !any_dead_in_use;
      }
    }

    if (!mapping_valid) {
      ++res.periods_failed;
      res.period_ok.push_back(0);
      continue;
    }

    // Activity scales the schedule: low activity shortens tasks, so the
    // deadline verdict from the cached evaluation is conservative at high
    // activity and safe at low.
    const double effective_makespan =
        cached_eval.schedule.makespan_s * activity;
    if (effective_makespan <= period) {
      ++res.periods_ok;
      res.period_ok.push_back(1);
    } else {
      ++res.periods_degraded;
      res.period_ok.push_back(0);
      if (displaced) ++res.periods_fault_degraded;
    }
    res.energy_j += cached_eval.total_energy_j * activity;
  }

  res.availability =
      res.periods ? static_cast<double>(res.periods_ok) /
                        static_cast<double>(res.periods)
                  : 0.0;
  return res;
}

}  // namespace holms::core
