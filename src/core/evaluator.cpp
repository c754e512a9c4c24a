#include "core/evaluator.hpp"
// HOLMS_LINT_ALLOW_FILE(D005): EvalCache shard lookups take a short-lived
// lock_guard on the exploration path; see the header's rationale.

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "exec/metrics.hpp"
#include "exec/rng_stream.hpp"

#include "exec/error.hpp"

namespace holms::core {
namespace {

// Streaming 64-bit hash: order-sensitive fold of one value into the state.
std::uint64_t fold(std::uint64_t h, std::uint64_t v) {
  return exec::splitmix64(h ^ exec::splitmix64(v));
}

std::uint64_t fold(std::uint64_t h, double d) {
  std::uint64_t bits;
  static_assert(sizeof bits == sizeof d);
  std::memcpy(&bits, &d, sizeof bits);
  return fold(h, bits);
}

}  // namespace

std::string tile_type_name(TileType t) {
  switch (t) {
    case TileType::kGpp: return "GPP";
    case TileType::kAsip: return "ASIP";
    case TileType::kAsic: return "ASIC";
    case TileType::kMemory: return "MEM";
  }
  return "?";
}

noc::SchedProblem make_sched_problem(const Application& app,
                                     const Platform& platform,
                                     const noc::Mapping& mapping) {
  if (mapping.size() != app.graph.num_nodes()) {
    throw holms::InvalidArgument("make_sched_problem: mapping size mismatch");
  }
  if (platform.tiles.size() != platform.mesh.num_tiles()) {
    throw holms::InvalidArgument("make_sched_problem: platform tiles mismatch");
  }
  noc::SchedProblem p;
  p.mesh = platform.mesh;
  p.tile_of = mapping;
  p.deadline_s = app.qos.period_s;
  p.power = platform.power;
  p.points = platform.points;
  p.link_bandwidth_bps = platform.link_bandwidth_bps;
  p.hop_latency_s = platform.hop_latency_s;
  p.noc_energy = platform.noc_energy;

  for (std::size_t i = 0; i < app.graph.num_nodes(); ++i) {
    const auto& node = app.graph.node(i);
    const TileSpec& spec = platform.tiles.at(mapping[i]);
    noc::SchedTask t;
    t.name = node.name;
    // A faster resource class executes the same work in fewer base cycles.
    t.cycles = node.compute_cycles / spec.speedup;
    p.tasks.push_back(std::move(t));
  }
  for (const auto& e : app.graph.edges()) {
    p.deps.push_back(noc::SchedDep{e.src, e.dst, e.volume_bits});
  }
  return p;
}

Evaluation evaluate_design(const Application& app, const Platform& platform,
                           const noc::Mapping& mapping, bool use_dvs) {
  Evaluation ev;
  ev.comm = noc::evaluate_mapping(app.graph, platform.mesh,
                                  platform.noc_energy, mapping,
                                  platform.link_bandwidth_bps);
  const noc::SchedProblem prob = make_sched_problem(app, platform, mapping);
  ev.schedule = use_dvs ? noc::schedule_energy_aware(prob)
                        : noc::schedule_edf(prob);

  // Scale compute energy by each tile's resource-class efficiency.
  double compute_j = 0.0;
  for (std::size_t i = 0; i < prob.tasks.size(); ++i) {
    const TileSpec& spec = platform.tiles.at(mapping[i]);
    const auto& op = platform.points.at(ev.schedule.placement[i].dvs_level);
    // HOLMS_LINT_ALLOW(D006): per-candidate energy roll-up in fixed task-index order
    compute_j +=
        platform.power.energy_for_cycles(prob.tasks[i].cycles, op) *
        spec.energy_factor;
  }
  ev.total_energy_j = compute_j + ev.comm.comm_energy_j +
                      ev.schedule.idle_energy_j;
  ev.average_power_w = ev.total_energy_j / app.qos.period_s;
  // Manufacturing cost: only the tiles the mapping actually uses would be
  // instantiated when the platform is synthesized.
  std::vector<bool> used(platform.mesh.num_tiles(), false);
  for (noc::TileId t : mapping) used[t] = true;
  for (std::size_t t = 0; t < used.size(); ++t) {
    if (used[t]) ev.platform_cost += platform.tiles[t].unit_cost;
  }
  ev.deadline_met = ev.schedule.deadline_met;
  ev.power_met = app.qos.max_power_w <= 0.0 ||
                 ev.average_power_w <= app.qos.max_power_w;
  ev.cost_met =
      app.qos.max_cost <= 0.0 || ev.platform_cost <= app.qos.max_cost;
  ev.feasible = ev.deadline_met && ev.power_met && ev.cost_met &&
                ev.comm.bandwidth_feasible;
  return ev;
}

std::uint64_t platform_fingerprint(const Platform& p) {
  std::uint64_t h = 0x686f6c6d735f7066ULL;  // "holms_pf"
  h = fold(h, static_cast<std::uint64_t>(p.mesh.width()));
  h = fold(h, static_cast<std::uint64_t>(p.mesh.height()));
  for (const TileSpec& t : p.tiles) {
    h = fold(h, static_cast<std::uint64_t>(t.type));
    h = fold(h, t.speedup);
    h = fold(h, t.energy_factor);
    h = fold(h, t.unit_cost);
  }
  for (const auto& op : p.points) {
    h = fold(h, op.frequency_hz);
    h = fold(h, op.voltage);
  }
  h = fold(h, p.power.ceff_farad);
  h = fold(h, p.power.leak_per_volt);
  h = fold(h, p.noc_energy.e_router_pj);
  h = fold(h, p.noc_energy.e_link_pj);
  h = fold(h, p.noc_energy.e_buffer_pj);
  h = fold(h, p.link_bandwidth_bps);
  h = fold(h, p.hop_latency_s);
  return h;
}

std::uint64_t app_fingerprint(const Application& app) {
  std::uint64_t h = 0x686f6c6d735f6166ULL;  // "holms_af"
  h = fold(h, static_cast<std::uint64_t>(app.graph.num_nodes()));
  for (std::size_t i = 0; i < app.graph.num_nodes(); ++i) {
    h = fold(h, app.graph.node(i).compute_cycles);
  }
  for (const auto& e : app.graph.edges()) {
    h = fold(h, static_cast<std::uint64_t>(e.src));
    h = fold(h, static_cast<std::uint64_t>(e.dst));
    h = fold(h, e.volume_bits);
    h = fold(h, e.bandwidth_bps);
  }
  h = fold(h, app.qos.period_s);
  h = fold(h, app.qos.max_power_w);
  h = fold(h, app.qos.max_cost);
  return h;
}

std::size_t EvalCache::KeyHash::operator()(const Key& k) const {
  std::uint64_t h = fold(k.app_fp, k.platform_fp);
  h = fold(h, static_cast<std::uint64_t>(k.use_dvs));
  for (noc::TileId t : k.mapping) h = fold(h, static_cast<std::uint64_t>(t));
  return static_cast<std::size_t>(h);
}

std::size_t EvalCache::size() const {
  std::size_t n = 0;
  for (const Shard& s : shards_) {
    std::lock_guard<std::mutex> lk(s.mu);
    n += s.map.size();
  }
  return n;
}

Evaluation EvalCache::evaluate(const Application& app, std::uint64_t app_fp,
                               const Platform& platform,
                               std::uint64_t platform_fp,
                               const noc::Mapping& mapping, bool use_dvs) {
  Key key{app_fp, platform_fp, use_dvs, mapping};
  const std::size_t h = KeyHash{}(key);
  Shard& shard = shard_for(h);
  {
    std::lock_guard<std::mutex> lk(shard.mu);
    auto it = shard.map.find(key);
    if (it != shard.map.end()) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      exec::count("explore.cache_hits");
      return it->second;
    }
  }
  // Compute outside the shard lock: other threads may fill other entries
  // (or even race on the same key — both compute the same pure result, the
  // second insert is a no-op).
  Evaluation ev = evaluate_design(app, platform, mapping, use_dvs);
  misses_.fetch_add(1, std::memory_order_relaxed);
  exec::count("explore.cache_misses");
  {
    std::lock_guard<std::mutex> lk(shard.mu);
    if (shard.map.emplace(std::move(key), ev).second) {
      inserts_.fetch_add(1, std::memory_order_relaxed);
      exec::count("explore.cache_inserts");
    }
  }
  return ev;
}

MultiAppEvaluation evaluate_multi_design(
    const std::vector<Application>& apps, const Platform& platform,
    const std::vector<noc::Mapping>& mappings, bool use_dvs,
    double utilization_bound) {
  if (apps.size() != mappings.size()) {
    throw holms::InvalidArgument(
        "evaluate_multi_design: apps/mappings size mismatch");
  }
  MultiAppEvaluation out;
  out.tile_utilization.assign(platform.mesh.num_tiles(), 0.0);
  bool all_qos = true;
  for (std::size_t a = 0; a < apps.size(); ++a) {
    Evaluation ev = evaluate_design(apps[a], platform, mappings[a], use_dvs);
    all_qos = all_qos && ev.feasible;
    out.total_power_w += ev.average_power_w;
    // Per-tile busy time at the chosen DVS levels, normalized by the app's
    // own period.
    const noc::SchedProblem prob =
        make_sched_problem(apps[a], platform, mappings[a]);
    for (std::size_t i = 0; i < prob.tasks.size(); ++i) {
      const auto& op =
          platform.points.at(ev.schedule.placement[i].dvs_level);
      const double busy = prob.tasks[i].cycles / op.frequency_hz;
      out.tile_utilization[mappings[a][i]] += busy / apps[a].qos.period_s;
    }
    out.per_app.push_back(std::move(ev));
  }
  for (double u : out.tile_utilization) {
    out.max_tile_utilization = std::max(out.max_tile_utilization, u);
  }
  out.schedulable = out.max_tile_utilization <= utilization_bound + 1e-12;
  out.feasible = out.schedulable && all_qos;
  return out;
}

}  // namespace holms::core
