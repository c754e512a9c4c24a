#include "core/explorer.hpp"

#include <algorithm>
#include <limits>
#include <optional>
#include <unordered_map>

#include "exec/metrics.hpp"
#include "exec/rng_stream.hpp"
#include "exec/thread_pool.hpp"

namespace holms::core {
namespace {

bool dominates(const DesignCandidate& a, const DesignCandidate& b) {
  return a.eval.total_energy_j <= b.eval.total_energy_j &&
         a.eval.schedule.makespan_s <= b.eval.schedule.makespan_s &&
         (a.eval.total_energy_j < b.eval.total_energy_j ||
          a.eval.schedule.makespan_s < b.eval.schedule.makespan_s);
}

}  // namespace

std::uint64_t mapping_digest(const noc::Mapping& m) {
  std::uint64_t h = 0x6d61707066703164ULL;  // "mapfp1d"
  for (const std::size_t tile : m) h = exec::splitmix64(h ^ tile);
  return h;
}

bool candidate_precedes(const DesignCandidate& a, const DesignCandidate& b) {
  if (a.eval.feasible != b.eval.feasible) return a.eval.feasible;
  if (a.eval.total_energy_j != b.eval.total_energy_j) {
    return a.eval.total_energy_j < b.eval.total_energy_j;
  }
  const std::uint64_t da = mapping_digest(a.mapping);
  const std::uint64_t db = mapping_digest(b.mapping);
  if (da != db) return da < db;
  return static_cast<int>(a.use_dvs) < static_cast<int>(b.use_dvs);
}

void ParetoAccumulator::merge(DesignCandidate c) {
  if (c.eval.feasible && c.eval.total_energy_j < best_energy) {
    best_energy = c.eval.total_energy_j;
    best = c;
    found_feasible = true;
  }
  // Maintain the Pareto front over (energy, makespan) among feasible
  // candidates.
  if (c.eval.feasible) {
    bool dominated = false;
    for (const auto& p : front) {
      if (dominates(p, c)) {
        dominated = true;
        break;
      }
    }
    if (!dominated) {
      front.erase(std::remove_if(front.begin(), front.end(),
                                 [&](const DesignCandidate& p) {
                                   return dominates(c, p);
                                 }),
                  front.end());
      front.push_back(std::move(c));
    }
  }
}

void score_fault_robustness(const Application& app, const Platform& platform,
                            const FaultScenario& fs, exec::ThreadPool& pool,
                            std::vector<DesignCandidate>& candidates) {
  if (fs.replicas == 0 || candidates.empty()) return;
  std::vector<fault::FaultSchedule> derived;
  std::vector<const fault::FaultSchedule*> schedules(fs.replicas, fs.schedule);
  std::vector<AmbientConfig> cfgs(fs.replicas, fs.ambient);
  if (fs.schedule == nullptr) {
    derived.reserve(fs.replicas);
    fault::FaultSchedule::PoissonSpec spec;
    spec.target = fault::Target::kTile;
    spec.num_targets = platform.mesh.num_tiles();
    spec.fail_rate = 1.0 / fs.ambient.tile_mtbf_s;
    spec.repair_rate =
        fs.ambient.tile_mttr_s > 0.0 ? 1.0 / fs.ambient.tile_mttr_s : 0.0;
    spec.horizon = fs.ambient.duration_s;
    for (std::size_t r = 0; r < fs.replicas; ++r) {
      derived.push_back(fault::FaultSchedule::poisson(
          exec::stream_seed(fs.ambient.seed, r), spec));
      schedules[r] = &derived[r];
    }
  } else {
    // Shared schedule: the fault events are identical per replica, so the
    // replicas sample the *user-activity* axis instead.
    for (std::size_t r = 0; r < fs.replicas; ++r) {
      cfgs[r].seed = exec::stream_seed(fs.ambient.seed, r);
    }
  }

  // Replay-cursor reuse: SA restarts routinely converge onto the same
  // mapping, and both scheduler variants of one mapping share it too when
  // use_dvs matches — replaying the identical (schedule, mapping, dvs)
  // triple once per replica is pure waste.  Key each candidate's replay off
  // the schedule fingerprints + mapping digest and run only the first
  // candidate of every key; the rest reuse its scores bitwise.
  std::uint64_t sched_fp = exec::splitmix64(fs.replicas);
  for (std::size_t r = 0; r < fs.replicas; ++r) {
    sched_fp = exec::splitmix64(sched_fp ^ schedules[r]->fingerprint() ^
                                cfgs[r].seed);
  }
  constexpr std::size_t kSkip = static_cast<std::size_t>(-1);
  std::vector<std::size_t> rep(candidates.size(), kSkip);
  std::vector<std::size_t> unique_jobs;
  std::unordered_map<std::uint64_t, std::size_t> first_slot;
  for (std::size_t j = 0; j < candidates.size(); ++j) {
    if (!candidates[j].eval.feasible) continue;  // deterministic skip
    const std::uint64_t key = exec::splitmix64(
        sched_fp ^ mapping_digest(candidates[j].mapping) ^
        (candidates[j].use_dvs ? 0x9e3779b97f4a7c15ULL
                               : 0x51ed270b7a9f3cd1ULL));
    const auto it = first_slot.find(key);
    if (it == first_slot.end()) {
      first_slot.emplace(key, unique_jobs.size());
      rep[j] = unique_jobs.size();
      unique_jobs.push_back(j);
    } else {
      rep[j] = it->second;
    }
  }

  struct ReplayScore {
    double availability = 1.0;
    std::uint64_t windows = 0;
    std::uint64_t windows_met = 0;
    double worst_window = 1.0;
  };
  const std::size_t total = unique_jobs.size() * fs.replicas;
  const std::vector<ReplayScore> runs =
      exec::parallel_transform<ReplayScore>(pool, total, [&](std::size_t i) {
        const DesignCandidate& c = candidates[unique_jobs[i / fs.replicas]];
        const std::size_t r = i % fs.replicas;
        AmbientOptions aopts;
        aopts.schedule = schedules[r];
        aopts.initial_mapping = &c.mapping;
        aopts.use_dvs = c.use_dvs;
        const AmbientResult res =
            run_ambient_scenario(app, platform, fs.policy, cfgs[r], aopts);
        ReplayScore score;
        score.availability = res.availability;
        if (fs.slo_window > 0) {
          const SloScore slo = availability_slo(res.period_ok, fs.slo_target,
                                                fs.slo_window);
          score.windows = slo.windows;
          score.windows_met = slo.windows_met;
          score.worst_window = slo.worst_window_availability;
        }
        return score;
      });
  std::vector<double> availability(unique_jobs.size(), 1.0);
  std::vector<double> slo_fraction(unique_jobs.size(), 1.0);
  std::vector<double> worst_window(unique_jobs.size(), 1.0);
  for (std::size_t u = 0; u < unique_jobs.size(); ++u) {
    double sum = 0.0;
    std::uint64_t windows = 0, windows_met = 0;
    double worst = 1.0;
    for (std::size_t r = 0; r < fs.replicas; ++r) {
      const ReplayScore& s = runs[u * fs.replicas + r];
      sum += s.availability;
      windows += s.windows;
      windows_met += s.windows_met;
      worst = std::min(worst, s.worst_window);
    }
    availability[u] = sum / static_cast<double>(fs.replicas);
    slo_fraction[u] = windows > 0 ? static_cast<double>(windows_met) /
                                        static_cast<double>(windows)
                                  : 1.0;
    worst_window[u] = worst;
  }
  // Fan the unique scores back out to every aliased candidate and apply the
  // scenario floors (infeasible inputs keep their perfect defaults).
  for (std::size_t j = 0; j < candidates.size(); ++j) {
    if (rep[j] == kSkip) continue;
    DesignCandidate& c = candidates[j];
    c.availability = availability[rep[j]];
    c.slo_fraction = slo_fraction[rep[j]];
    c.worst_window_availability = worst_window[rep[j]];
    if (c.availability < fs.min_availability) {
      c.eval.feasible = false;  // robust-infeasible: can't meet uptime floor
    }
    if (fs.slo_window > 0 && c.slo_fraction < fs.min_slo_fraction) {
      c.eval.feasible = false;  // mean may pass, the SLO windows do not
    }
  }
  exec::count("explore.fault_replicas", total);
  exec::count("explore.fault_replays_reused",
              (candidates.size() - unique_jobs.size()) * fs.replicas);
}

ExploreResult explore(const Application& app, const Platform& platform,
                      sim::Rng& rng, const ExploreOptions& opts) {
  opts.validate();
  exec::ScopedTimer timer("explore.seconds");
  ExploreResult out;

  // One base draw; every candidate derives its stream from (base, index) so
  // the schedule of the pool below can never leak into the results.
  const std::uint64_t stream_base = rng.bits();

  exec::ThreadPool pool(opts.threads);

  // Candidate mappings by index: 0 = greedy seed, then per restart r one SA
  // run (index 1 + 2r) and one random probe (index 2 + 2r).
  const std::size_t num_mappings = 1 + 2 * opts.restarts;
  exec::count("explore.restarts", opts.restarts);

  // One SaOptions copy for every restart, priced against the platform's
  // link capacity.
  noc::SaOptions sa_base = opts.sa;
  sa_base.link_capacity_bps = platform.link_bandwidth_bps;

  const std::vector<noc::Mapping> mappings =
      exec::parallel_transform<noc::Mapping>(
          pool, num_mappings, [&](std::size_t i) {
            if (i == 0) {
              return noc::greedy_mapping(app.graph, platform.mesh,
                                         platform.noc_energy);
            }
            sim::Rng stream(exec::stream_seed(stream_base, i));
            if ((i - 1) % 2 == 0) {
              return noc::sa_mapping(app.graph, platform.mesh,
                                     platform.noc_energy, stream, sa_base);
            }
            return noc::random_mapping(app.graph.num_nodes(), platform.mesh,
                                       stream);
          });

  // Pricing job j: mapping j / 2, the DVS variant (even j) then EDF.
  const std::size_t num_jobs = 2 * num_mappings;
  std::optional<EvalCache> local_cache;
  EvalCache* cache =
      opts.cache != nullptr ? opts.cache : &local_cache.emplace();
  const std::uint64_t app_fp = app_fingerprint(app);
  const std::uint64_t plat_fp = platform_fingerprint(platform);

  std::vector<Evaluation> evals = exec::parallel_transform<Evaluation>(
      pool, num_jobs, [&](std::size_t j) {
        return cache->evaluate(app, app_fp, platform, plat_fp,
                               mappings[j / 2], j % 2 == 0);
      });
  exec::count("explore.candidates", num_jobs);

  std::vector<DesignCandidate> candidates(num_jobs);
  for (std::size_t j = 0; j < num_jobs; ++j) {
    candidates[j].mapping = mappings[j / 2];
    candidates[j].use_dvs = j % 2 == 0;
    candidates[j].eval = std::move(evals[j]);
  }

  // Robustness pass: replay each (still feasible) candidate through R
  // ambient fault replicas — either independent Poisson schedules derived
  // from (ambient.seed, replica) or one shared schedule (burst/crew traces)
  // with per-replica activity seeds.  Candidate j's score never depends on
  // the thread schedule, so thread-count invariance is preserved.
  if (opts.faults != nullptr) {
    score_fault_robustness(app, platform, *opts.faults, pool, candidates);
  }

  out.evaluated = num_jobs;
  ParetoAccumulator acc;
  for (DesignCandidate& c : candidates) acc.merge(std::move(c));
  out.best = std::move(acc.best);
  out.found_feasible = acc.found_feasible;
  out.pareto = std::move(acc.front);
  std::sort(out.pareto.begin(), out.pareto.end(),
            [](const DesignCandidate& a, const DesignCandidate& b) {
              return a.eval.total_energy_j < b.eval.total_energy_j;
            });
  return out;
}

SynthesisResult synthesize_platform(const Application& app, std::size_t width,
                                    std::size_t height, sim::Rng& rng,
                                    const SynthesisOptions& opts) {
  opts.validate();
  exec::ScopedTimer timer("synthesize.seconds");
  SynthesisResult out;
  out.platform = Platform::homogeneous(width, height, gpp_tile());

  // One evaluation cache spans the whole synthesis: every upgrade trial
  // re-prices the greedy seed mapping (and often the same SA results) on
  // mostly-unchanged platforms, and identical (platform, mapping, scheduler)
  // triples are only priced once across all steps and threads.
  EvalCache shared_cache;
  exec::ThreadPool pool(opts.threads);
  ExploreOptions inner = opts.explore;
  if (inner.cache == nullptr) inner.cache = &shared_cache;
  // Upgrade candidates are the parallel axis; nested pools would only
  // oversubscribe (determinism holds either way).
  if (pool.size() > 1) inner.threads = 1;

  out.design = explore(app, out.platform, rng, inner);
  out.found_feasible = out.design.found_feasible;

  for (std::size_t step = 0; step < opts.max_upgrades; ++step) {
    if (!out.design.found_feasible) break;
    // Candidate upgrades: every tile hosting at least one task that is not
    // yet fully upgraded, ordered by the heaviest task it hosts (the legacy
    // serial heuristic's pick comes first, so its tie-break is preserved).
    const noc::Mapping& m = out.design.best.mapping;
    std::vector<std::size_t> tiles;
    std::vector<double> weight(out.platform.mesh.num_tiles(), -1.0);
    for (std::size_t i = 0; i < app.graph.num_nodes(); ++i) {
      const std::size_t tile = m[i];
      if (out.platform.tiles[tile].type == TileType::kAsic) continue;
      if (weight[tile] < 0.0) tiles.push_back(tile);
      weight[tile] = std::max(weight[tile], app.graph.node(i).compute_cycles);
    }
    std::sort(tiles.begin(), tiles.end(), [&](std::size_t a, std::size_t b) {
      if (weight[a] != weight[b]) return weight[a] > weight[b];
      return a < b;
    });
    if (tiles.empty()) break;
    exec::count("synthesize.upgrade_candidates", tiles.size());

    struct Trial {
      Platform platform;
      ExploreResult design;
    };
    const std::uint64_t stream_base = rng.bits();
    std::vector<Trial> trials = exec::parallel_transform<Trial>(
        pool, tiles.size(), [&](std::size_t c) {
          Trial t;
          t.platform = out.platform;
          TileSpec& spec = t.platform.tiles[tiles[c]];
          spec = spec.type == TileType::kGpp ? asip_tile() : asic_tile();
          sim::Rng probe(exec::stream_seed(stream_base, c));
          t.design = explore(app, t.platform, probe, inner);
          return t;
        });

    // Deterministic accept: the lowest-energy improving trial within
    // budget; ties break toward the earlier candidate index.
    std::size_t chosen = trials.size();
    for (std::size_t c = 0; c < trials.size(); ++c) {
      const Trial& t = trials[c];
      if (!t.design.found_feasible) continue;
      const bool within_budget =
          opts.cost_budget <= 0.0 ||
          t.design.best.eval.platform_cost <= opts.cost_budget;
      const bool improves = t.design.best.eval.total_energy_j <
                            out.design.best.eval.total_energy_j;
      if (!within_budget || !improves) continue;
      if (chosen == trials.size() ||
          t.design.best.eval.total_energy_j <
              trials[chosen].design.best.eval.total_energy_j) {
        chosen = c;
      }
    }
    if (chosen == trials.size()) break;

    out.platform = std::move(trials[chosen].platform);
    out.design = std::move(trials[chosen].design);
    out.trace.push_back(SynthesisStep{
        tiles[chosen], out.platform.tiles[tiles[chosen]].type,
        out.design.best.eval.total_energy_j,
        out.design.best.eval.platform_cost});
    exec::count("synthesize.upgrades_accepted");
  }
  return out;
}

}  // namespace holms::core
