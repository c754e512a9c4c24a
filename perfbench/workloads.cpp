#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "core/ambient.hpp"
#include "core/explorer.hpp"
#include "core/islands.hpp"
#include "exec/rng_stream.hpp"
#include "exec/thread_pool.hpp"
#include "fault/domain.hpp"
#include "fault/schedule.hpp"
#include "markov/chain.hpp"
#include "noc/mapping.hpp"
#include "noc/router.hpp"
#include "noc/taskgraph.hpp"
#include "noc/topology.hpp"
#include "serve/service.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

using holms::fault::FailureDomainTree;
using holms::fault::FaultSchedule;
using holms::fault::Target;

// Sub-stream indices: every input of a workload draws from its own
// counter-derived stream of the workload seed.
enum Stream : std::uint64_t {
  kTandemRates = 1,
  kDesReplicas,
  kIslands,
  kTileBursts,
  kLinkBursts,
  kNocTraffic,
  kAmbient,
  kNodeBursts,
  kServeSessions,
  kMapping,
};

std::uint64_t sub(std::uint64_t seed, Stream s) {
  return holms::exec::stream_seed(seed, s);
}

// splitmix64 fold: digests of simulated results that must repeat per seed.
std::uint64_t fold(std::uint64_t h, std::uint64_t v) {
  std::uint64_t z = h + 0x9e3779b97f4a7c15ULL + v;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t fold(std::uint64_t h, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return fold(h, bits);
}

std::uint64_t noc_digest(const holms::noc::NocStats& s) {
  std::uint64_t h = 0;
  h = fold(h, s.packets_injected);
  h = fold(h, s.packets_delivered);
  h = fold(h, s.flit_hops);
  h = fold(h, s.mean_packet_latency);
  h = fold(h, s.p99_packet_latency);
  h = fold(h, s.mean_buffer_occupancy);
  h = fold(h, s.accepted_flits_per_cycle);
  h = fold(h, s.energy_joules);
  h = fold(h, s.energy_per_bit_pj);
  h = fold(h, s.packets_dropped);
  h = fold(h, s.delivery_ratio);
  h = fold(h, s.reroute_hops);
  h = fold(h, s.faults_applied);
  return h;
}

// ---- correlated bursts with a fixed burst count -----------------------------

struct Bursts {
  FaultSchedule schedule;
  FaultSchedule::BurstStats stats;
};

/// FaultSchedule::bursts over `tree`, drawn from successive sub-seeds of
/// `seed` until the expansion holds exactly `bursts` domain-level events.
/// Conditioning on the count keeps the fault work of a pass the same for
/// every seed, so seed-to-seed spread reflects where the bursts land, not
/// how many there are.
Bursts fixed_count_bursts(std::uint64_t seed, const FailureDomainTree& tree,
                          const FaultSchedule::BurstSpec& spec,
                          std::size_t bursts) {
  Span span("fault.FaultSchedule.bursts");
  for (std::uint64_t k = 0; k < 4096; ++k) {
    Bursts b;
    b.schedule = FaultSchedule::bursts(holms::exec::stream_seed(seed, k), tree,
                                       spec, &b.stats);
    if (b.stats.bursts == bursts) return b;
  }
  throw std::runtime_error("no burst draw with the requested count");
}

/// rack -> bundle -> link tree over a mesh's undirected links: one bundle per
/// mesh row (its horizontal links) and one per column (its vertical links),
/// bundles spread round-robin over `racks`.  A bundle burst is a cable-bundle
/// cut: every link of one row or column fails together.
FailureDomainTree link_bundle_tree(const holms::noc::Mesh2D& mesh,
                                   std::size_t racks) {
  FailureDomainTree tree("noc");
  std::vector<std::size_t> rack_ids;
  for (std::size_t r = 0; r < racks; ++r) {
    rack_ids.push_back(
        tree.add_domain(FailureDomainTree::kRoot, "rack" + std::to_string(r)));
  }
  const std::size_t w = mesh.width(), h = mesh.height();
  std::vector<std::size_t> bundles;
  for (std::size_t b = 0; b < w + h; ++b) {
    bundles.push_back(tree.add_domain(rack_ids[b % racks],
                                      "bundle" + std::to_string(b)));
  }
  const std::size_t horizontal = (w - 1) * h;
  for (std::size_t id = 0; id < mesh.num_undirected_links(); ++id) {
    const std::size_t bundle =
        id < horizontal ? id / (w - 1) : h + (id - horizontal) % w;
    tree.map_target(Target::kLink, id, bundles[bundle]);
  }
  return tree;
}

/// Domain ids of the tree's bundles (every domain below a rack).
std::vector<std::size_t> leaf_domains(const FailureDomainTree& tree) {
  std::vector<std::size_t> leaves;
  for (std::size_t d = 1; d < tree.num_domains(); ++d) {
    if (tree.children(d).empty()) leaves.push_back(d);
  }
  return leaves;
}

// ---- design_farm32 ----------------------------------------------------------

// §2.2 tandem of two finite buffers: Poisson arrivals (lambda) to station 1,
// lost when it is full; station 1 serves (mu1) only while station 2 has room
// (blocking), station 2 serves (mu2).  State (i, j) = jobs at each station.
struct Tandem {
  std::size_t levels = 0;  // states per station: 0..levels-1 jobs
  double lambda = 0.0, mu1 = 0.0, mu2 = 0.0;

  std::size_t states() const { return levels * levels; }
  std::size_t index(std::size_t i, std::size_t j) const {
    return i * levels + j;
  }
};

// Kept away from levels = 32 (n = 1024, exactly four 256-column shards):
// block-hybrid Gauss-Seidel stops unconverged there (see NOTES.md).
constexpr std::size_t kTandemLevels = 36;
constexpr double kSolveTol = 1e-10;
constexpr double kTransientT = 40.0;
constexpr std::size_t kDesRuns = 8;
constexpr double kDesWarmup = 500.0;
constexpr double kDesHorizon = 6000.0;
// Two-sided 99.99% Student-t quantile for kDesRuns - 1 = 7 degrees of
// freedom (the interval uses the sample standard deviation of the
// replications): the DES cross-check fails a correct model with probability
// ~1e-4 per seed, not the 5% a 95% interval would.
constexpr double kDesT = 7.885;
static_assert(kDesRuns == 8, "kDesT is the t quantile for 7 degrees of freedom");

holms::markov::Ctmc build_tandem(const Tandem& t) {
  holms::markov::Ctmc q(t.states());
  for (std::size_t i = 0; i < t.levels; ++i) {
    for (std::size_t j = 0; j < t.levels; ++j) {
      const std::size_t s = t.index(i, j);
      if (i + 1 < t.levels) q.set_rate(s, t.index(i + 1, j), t.lambda);
      if (i > 0 && j + 1 < t.levels) {
        q.set_rate(s, t.index(i - 1, j + 1), t.mu1);
      }
      if (j > 0) q.set_rate(s, t.index(i, j - 1), t.mu2);
    }
  }
  return q;
}

double mean_occupancy(const Tandem& t, const std::vector<double>& pi) {
  double m = 0.0;
  for (std::size_t i = 0; i < t.levels; ++i) {
    for (std::size_t j = 0; j < t.levels; ++j) {
      m += pi[t.index(i, j)] * static_cast<double>(i + j);
    }
  }
  return m;
}

/// One DES replication of the tandem on sim::Simulator: the same chain,
/// stepped event by event, time-averaging the occupancy after a warm-up.
class TandemDes {
 public:
  TandemDes(const Tandem& t, std::uint64_t seed) : t_(t), rng_(seed) {}

  double run(double warmup, double horizon) {
    sim_.schedule_at(warmup, [this] {
      measuring_ = true;
      occ_.update(sim_.now(), static_cast<double>(i_ + j_));
    });
    arm();
    sim_.run(horizon);
    occ_.finish(horizon);
    return occ_.mean();
  }

 private:
  void arm() {
    const double up = i_ + 1 < t_.levels ? t_.lambda : 0.0;
    const double move = i_ > 0 && j_ + 1 < t_.levels ? t_.mu1 : 0.0;
    const double down = j_ > 0 ? t_.mu2 : 0.0;
    const double total = up + move + down;
    sim_.schedule_in(rng_.exponential(total), [this, up, move, total] {
      const double u = rng_.uniform(0.0, total);
      if (u < up) {
        ++i_;
      } else if (u < up + move) {
        --i_;
        ++j_;
      } else {
        --j_;
      }
      if (measuring_) occ_.update(sim_.now(), static_cast<double>(i_ + j_));
      arm();
    });
  }

  const Tandem& t_;
  holms::sim::Rng rng_;
  holms::sim::Simulator sim_;
  holms::sim::TimeWeightedStats occ_;
  std::size_t i_ = 0, j_ = 0;
  bool measuring_ = false;
};

/// The 32x32 platform of the bandwidth-capped farm sweeps: per-flit NoC
/// energies x100 so communication dominates, links capped at 240 Mbps so the
/// greedy packing is infeasible and the mapper has a real search problem.
holms::core::Platform farm_platform32() {
  holms::core::Platform plat = holms::core::Platform::homogeneous(32, 32);
  plat.noc_energy.e_router_pj *= 100.0;
  plat.noc_energy.e_link_pj *= 100.0;
  plat.noc_energy.e_buffer_pj *= 100.0;
  plat.link_bandwidth_bps = 2.4e8;
  return plat;
}

holms::core::Application farm_app() {
  holms::core::Application app;
  app.name = "surveillance-farm";
  app.graph = holms::noc::surveillance_farm_graph(46);  // 202 tasks
  app.qos.period_s = 1.0;
  return app;
}

/// Records a batch of replays of `cycles` cycles each: counts are summed,
/// the two simulated outputs are means over the replays (in replay order).
void record_noc(const std::vector<holms::noc::NocStats>& replays,
                double cycles, PassOutput& out) {
  double delivery = 0.0, p99 = 0.0, flit_hops = 0.0, faults = 0.0,
         reroute = 0.0, dropped = 0.0;
  std::uint64_t h = 0;
  for (const holms::noc::NocStats& st : replays) {
    out.checks.emplace_back(
        "noc.no_overcount",
        st.packets_delivered + st.packets_dropped <= st.packets_injected);
    delivery += st.delivery_ratio;
    p99 += st.p99_packet_latency;
    flit_hops += static_cast<double>(st.flit_hops);
    faults += static_cast<double>(st.faults_applied);
    reroute += static_cast<double>(st.reroute_hops);
    dropped += static_cast<double>(st.packets_dropped);
    h = fold(h, noc_digest(st));
  }
  const double n = static_cast<double>(replays.size());
  out.values["noc_delivery_ratio"] = delivery / n;
  out.values["noc_p99_latency_cycles"] = p99 / n;
  out.values["noc.cycles"] = cycles * n;
  out.values["noc.flit_hops"] = flit_hops;
  out.values["noc.faults_applied"] = faults;
  out.values["noc.reroute_hops"] = reroute;
  out.values["noc.packets_dropped"] = dropped;
  out.fingerprints["noc_stats"] = h;
}

class DesignFarm32 final : public Workload {
 public:
  DesignFarm32(std::uint64_t seed, std::size_t threads)
      : seed_(seed), threads_(threads) {}

  void setup(PassOutput& out) override {
    app_ = farm_app();
    platform_ = farm_platform32();
    routes_.reset();  // never hold two ~90 MB tables at once
    routes_ = traced("noc.XyRouteTable", [&] {
      return std::make_unique<holms::noc::XyRouteTable>(platform_.mesh);
    });

    // Enclosure-level tile bursts: 4 racks x 8 enclosures, one mesh row of
    // 32 tiles per enclosure, repaired by a bounded crew pool.
    tile_tree_ = FailureDomainTree("farm");
    std::vector<std::size_t> enclosures;
    for (std::size_t r = 0; r < 4; ++r) {
      const std::size_t rack = tile_tree_.add_domain(
          FailureDomainTree::kRoot, "rack" + std::to_string(r));
      for (std::size_t e = 0; e < 8; ++e) {
        enclosures.push_back(
            tile_tree_.add_domain(rack, "enc" + std::to_string(8 * r + e)));
      }
    }
    for (std::size_t t = 0; t < platform_.mesh.num_tiles(); ++t) {
      tile_tree_.map_target(Target::kTile, t, enclosures[t / 32]);
    }
    FaultSchedule::BurstSpec tiles;
    tiles.domains = enclosures;
    tiles.burst_rate = 4.0 / (32.0 * kAmbientS);
    tiles.onset_jitter = 2.0;
    tiles.repair_time = 20.0;
    tiles.repair_stagger = 10.0;
    tiles.horizon = kAmbientS;
    tiles.crews = 4;
    tile_bursts_ = fixed_count_bursts(sub(seed_, kTileBursts), tile_tree_,
                                      tiles, 4);

    // Cable-bundle cuts for the NoC replay, in cycles.
    link_tree_ = link_bundle_tree(platform_.mesh, 4);
    FaultSchedule::BurstSpec links;
    links.domains = leaf_domains(link_tree_);
    // Bursts land in the first quarter and every repair finishes inside the
    // replay, so all 124 link events are applied for every seed.
    links.horizon = kReplayCycles * 0.25;
    links.burst_rate =
        2.0 / (static_cast<double>(links.domains.size()) * links.horizon);
    links.onset_jitter = 5.0;
    links.repair_time = 20.0;
    links.repair_stagger = 10.0;
    links.crews = 32;
    link_bursts_ = fixed_count_bursts(sub(seed_, kLinkBursts), link_tree_,
                                      links, 2);

    scenario_ = holms::core::FaultScenario{};
    scenario_.ambient.duration_s = kAmbientS;
    scenario_.ambient.activity_low = 1.0;  // availability is fault-driven
    scenario_.ambient.seed = sub(seed_, kAmbient);
    scenario_.policy = holms::core::FaultPolicy::kAdaptiveRemap;
    scenario_.replicas = 1;
    scenario_.schedule = &tile_bursts_.schedule;
    scenario_.slo_window = kSloWindow;
    scenario_.slo_target = kSloTarget;

    holms::sim::Rng rates(sub(seed_, kTandemRates));
    tandem_.levels = kTandemLevels;
    tandem_.lambda = 1.0;
    tandem_.mu1 = rates.uniform(1.115, 1.125);
    tandem_.mu2 = rates.uniform(1.165, 1.175);

    out.values["fault.events"] = static_cast<double>(
        tile_bursts_.schedule.size() + link_bursts_.schedule.size());
    out.values["fault.crew_queue_max_depth"] = static_cast<double>(
        std::max(tile_bursts_.stats.crew_queue_max_depth,
                 link_bursts_.stats.crew_queue_max_depth));
  }

  void pass(PassOutput& out) override {
    analysis(out);
    const holms::core::ExploreResult best = explore(out);
    replay(best.best.mapping, out);
    score(best.best, out);
  }

 private:
  static constexpr double kAmbientS = 600.0;
  static constexpr std::size_t kSloWindow = 60;
  static constexpr double kSloTarget = 0.99;
  static constexpr double kReplayCycles = 120.0;
  static constexpr std::size_t kEpochs = 8;

  void analysis(PassOutput& out) {
    Span stage("bench.stage.analysis");
    const Tandem& t = tandem_;
    const holms::markov::Ctmc q =
        traced("markov.Ctmc.set_rate", [&] { return build_tandem(t); });
    holms::markov::SolveOptions power;
    power.method = holms::markov::SteadyStateMethod::kPowerIteration;
    power.tolerance = kSolveTol;
    power.threads = threads_;
    holms::markov::SolveOptions gs = power;
    gs.method = holms::markov::SteadyStateMethod::kGaussSeidel;
    const holms::markov::SolveResult rp =
        traced("markov.Ctmc.steady_state", [&] { return q.steady_state(power); });
    const holms::markov::SolveResult rg =
        traced("markov.Ctmc.steady_state", [&] { return q.steady_state(gs); });
    std::vector<double> empty(t.states(), 0.0);
    empty[0] = 1.0;
    const std::vector<double> pt = traced(
        "markov.Ctmc.transient", [&] { return q.transient(empty, kTransientT); });

    double l1 = 0.0;
    for (std::size_t s = 0; s < t.states(); ++s) {
      l1 += std::abs(rp.distribution[s] - rg.distribution[s]);
    }
    const double analytic = mean_occupancy(t, rg.distribution);

    holms::sim::OnlineStats des;
    const std::uint64_t des_base = sub(seed_, kDesReplicas);
    for (std::size_t r = 0; r < kDesRuns; ++r) {
      TandemDes rep(t, holms::exec::stream_seed(des_base, r));
      des.add(traced("sim.Simulator.run",
                     [&] { return rep.run(kDesWarmup, kDesHorizon); }));
    }
    const double half_width =
        kDesT * des.stddev() / std::sqrt(static_cast<double>(des.count()));

    out.checks.emplace_back("markov.power_converged", rp.converged);
    out.checks.emplace_back("markov.gs_converged", rg.converged);
    out.checks.emplace_back("markov.power_gs_agree", l1 <= 1e-6);
    out.checks.emplace_back("markov.des_within_ci",
                            std::abs(des.mean() - analytic) <= half_width);
    out.values["markov.states"] = static_cast<double>(t.states());
    out.values["markov.steady_iterations"] =
        static_cast<double>(rp.iterations + rg.iterations);
    out.values["markov.unconverged"] =
        static_cast<double>((rp.converged ? 0 : 1) + (rg.converged ? 0 : 1));
    std::uint64_t h = 0;
    for (const double p : rg.distribution) h = fold(h, p);
    for (const double p : pt) h = fold(h, p);
    h = fold(h, des.mean());
    out.fingerprints["markov"] = h;
  }

  holms::core::ExploreResult explore(PassOutput& out) {
    Span stage("bench.stage.explore");
    holms::core::IslandOptions opts;
    opts.islands = 4;
    opts.epochs = kEpochs;
    opts.sa.iterations = 5000;
    opts.sa.initial_temperature = 0.02;
    opts.sa.w_cluster_relocate = 0.3;
    opts.sa.routes = routes_.get();
    opts.threads = threads_;
    opts.faults = &scenario_;
    holms::sim::Rng rng(sub(seed_, kIslands));
    const auto ex = traced("core.IslandExplorer", [&] {
      return std::make_unique<holms::core::IslandExplorer>(app_, platform_,
                                                           rng, opts);
    });
    for (std::size_t e = 0; e < kEpochs; ++e) {
      traced("core.IslandExplorer.step", [&] { ex->step(); });
    }
    holms::core::ExploreResult res =
        traced("core.IslandExplorer.result", [&] { return ex->result(); });
    out.checks.emplace_back("core.found_feasible", res.found_feasible);
    if (!res.found_feasible) {
      // Keep the later stages' work the same: replay the greedy seed.
      res.best.mapping = holms::noc::greedy_mapping(
          app_.graph, platform_.mesh, platform_.noc_energy);
    }
    out.values["core.candidates"] = static_cast<double>(res.evaluated);
    out.values["design_energy_j"] = res.best.eval.total_energy_j;
    out.fingerprints["islands"] = ex->result_fingerprint();
    return res;
  }

  void replay(const holms::noc::Mapping& mapping, PassOutput& out) {
    Span stage("bench.stage.replay");
    holms::noc::NocSim::Config cfg;
    cfg.virtual_channels = 2;
    cfg.routing = holms::noc::RoutingAlgo::kFaultTolerant;
    cfg.energy = platform_.noc_energy;
    const auto sim = traced("noc.NocSim", [&] {
      auto s = std::make_unique<holms::noc::NocSim>(
          platform_.mesh, cfg, holms::sim::Rng(sub(seed_, kNocTraffic)));
      holms::noc::add_appgraph_flows(*s, app_.graph, mapping, 2.0, 4);
      s->attach_fault_schedule(&link_bursts_.schedule);
      return s;
    });
    traced("noc.NocSim.run",
           [&] { sim->run(static_cast<std::uint64_t>(kReplayCycles)); });
    record_noc({sim->stats()}, kReplayCycles, out);
  }

  void score(const holms::core::DesignCandidate& best, PassOutput& out) {
    Span stage("bench.stage.score");
    holms::core::AmbientOptions aopts;
    aopts.schedule = &tile_bursts_.schedule;
    aopts.initial_mapping = &best.mapping;
    aopts.use_dvs = best.use_dvs;
    const holms::core::AmbientResult amb =
        traced("core.run_ambient_scenario", [&] {
          return holms::core::run_ambient_scenario(
              app_, platform_, holms::core::FaultPolicy::kAdaptiveRemap,
              scenario_.ambient, aopts);
        });
    const holms::core::SloScore slo = traced("core.availability_slo", [&] {
      return holms::core::availability_slo(amb.period_ok, kSloTarget,
                                           kSloWindow);
    });
    out.values["design_slo_fraction"] = slo.slo_fraction;
    std::uint64_t h = fold(0, amb.availability);
    h = fold(h, amb.energy_j);
    h = fold(h, static_cast<std::uint64_t>(amb.remaps_performed));
    h = fold(h, slo.slo_fraction);
    out.fingerprints["ambient"] = h;
  }

  std::uint64_t seed_;
  std::size_t threads_;
  holms::core::Application app_;
  holms::core::Platform platform_;
  std::unique_ptr<holms::noc::XyRouteTable> routes_;
  FailureDomainTree tile_tree_;
  FailureDomainTree link_tree_;
  Bursts tile_bursts_;
  Bursts link_bursts_;
  holms::core::FaultScenario scenario_;
  Tandem tandem_;
};

// ---- noc_farm16 -------------------------------------------------------------

// A batch of kReplays independent replays, each with its own bundle cut and
// injection stream, spread over the pool's workers.  One single-threaded
// replay measured one core of a shared host, whose speed swung by up to
// 1.5x between runs; a batch measures the throughput of all of them.
class NocFarm16 final : public Workload {
 public:
  NocFarm16(std::uint64_t seed, std::size_t threads)
      : seed_(seed), pool_(threads), mesh_(16, 16) {}

  void setup(PassOutput& out) override {
    graph_ = holms::noc::surveillance_farm_graph(46);
    const auto routes = traced("noc.XyRouteTable", [&] {
      return std::make_unique<holms::noc::XyRouteTable>(mesh_);
    });
    // The designer's mapping: greedy seed refined by a short, cold SA.
    holms::noc::SaOptions sa;
    sa.iterations = 20000;
    sa.initial_temperature = 0.02;
    sa.routes = routes.get();
    holms::sim::Rng rng(sub(seed_, kMapping));
    mapping_ = traced("noc.sa_mapping", [&] {
      return holms::noc::sa_mapping(graph_, mesh_, holms::noc::EnergyModel{},
                                    rng, sa);
    });
    tree_ = link_bundle_tree(mesh_, 4);
    FaultSchedule::BurstSpec spec;
    spec.domains = leaf_domains(tree_);
    spec.burst_rate = static_cast<double>(kBursts) /
                      (static_cast<double>(spec.domains.size()) * kHorizon);
    // One bundle cut of 15 links per replay, all repaired inside the replay
    // by the crews: 30 fault events, each a full FT table rebuild.
    spec.onset_jitter = 20.0;
    spec.repair_time = 30.0;
    spec.repair_stagger = 10.0;
    spec.horizon = kHorizon;
    spec.crews = 8;
    bursts_.clear();
    double events = 0.0, depth = 0.0;
    for (std::size_t r = 0; r < kReplays; ++r) {
      bursts_.push_back(fixed_count_bursts(
          holms::exec::stream_seed(sub(seed_, kLinkBursts), r), tree_, spec,
          kBursts));
      events += static_cast<double>(bursts_.back().schedule.size());
      depth = std::max(
          depth, static_cast<double>(bursts_.back().stats.crew_queue_max_depth));
    }
    out.values["fault.events"] = events;
    out.values["fault.crew_queue_max_depth"] = depth;
  }

  void pass(PassOutput& out) override {
    holms::noc::NocSim::Config cfg;
    cfg.virtual_channels = 2;
    cfg.routing = holms::noc::RoutingAlgo::kFaultTolerant;
    const std::uint64_t traffic = sub(seed_, kNocTraffic);
    std::vector<std::unique_ptr<holms::noc::NocSim>> sims;
    traced("noc.NocSim", [&] {
      for (std::size_t r = 0; r < kReplays; ++r) {
        sims.push_back(std::make_unique<holms::noc::NocSim>(
            mesh_, cfg,
            holms::sim::Rng(holms::exec::stream_seed(traffic, r))));
        holms::noc::add_appgraph_flows(*sims.back(), graph_, mapping_,
                                       kAggregateRate, 4);
        sims.back()->attach_fault_schedule(&bursts_[r].schedule);
      }
    });
    traced("noc.NocSim.run", [&] {
      pool_.parallel_for(kReplays, [&](std::size_t r) { sims[r]->run(kCycles); });
    });
    std::vector<holms::noc::NocStats> stats;
    for (const auto& s : sims) stats.push_back(s->stats());
    record_noc(stats, static_cast<double>(kCycles), out);
  }

 private:
  static constexpr std::uint64_t kCycles = 400;
  static constexpr std::size_t kReplays = 8;
  static constexpr double kHorizon = 150.0;  // bursts drawn in [0, 150)
  static constexpr std::size_t kBursts = 1;
  static constexpr double kAggregateRate = 2.0;  // packets per cycle

  std::uint64_t seed_;
  holms::exec::ThreadPool pool_;
  holms::noc::Mesh2D mesh_;
  holms::noc::AppGraph graph_;
  holms::noc::Mapping mapping_;
  FailureDomainTree tree_;
  std::vector<Bursts> bursts_;
};

// ---- serve_mixed / serve_fgs ------------------------------------------------

struct FleetSpec {
  std::size_t fgs_sessions = 0;
  std::size_t slots = 0;
  std::size_t mpeg2_per_locality = 0;  // > 0 forces serve's DES path
  std::size_t mpeg2_frames = 0;
  double degrade_watermark = 1.0;
};

class ServeFleet final : public Workload {
 public:
  ServeFleet(std::uint64_t seed, std::size_t threads, FleetSpec spec)
      : seed_(seed), threads_(threads), spec_(spec) {}

  void setup(PassOutput& out) override {
    manager_.reset();
    // rack -> locality tree: node bursts take out whole racks of localities
    // or single localities, repaired by two crews.
    tree_ = FailureDomainTree("fleet");
    std::vector<std::size_t> domains;
    for (std::size_t r = 0; r < kLocalities / 4; ++r) {
      const std::size_t rack = tree_.add_domain(FailureDomainTree::kRoot,
                                                "rack" + std::to_string(r));
      domains.push_back(rack);
      for (std::size_t l = 4 * r; l < 4 * r + 4; ++l) {
        const std::size_t loc =
            tree_.add_domain(rack, "loc" + std::to_string(l));
        tree_.map_target(Target::kNode, l, loc);
        domains.push_back(loc);
      }
    }
    const double stream_s = static_cast<double>(spec_.slots) * 0.5;
    FaultSchedule::BurstSpec bs;
    bs.domains = domains;
    bs.burst_rate = 3.0 / (static_cast<double>(domains.size()) * stream_s);
    bs.onset_jitter = 1.0;
    bs.repair_time = 8.0;
    bs.repair_stagger = 4.0;
    bs.horizon = stream_s;
    bs.crews = 2;
    bursts_ = fixed_count_bursts(sub(seed_, kNodeBursts), tree_, bs, 3);
    out.values["fault.events"] = static_cast<double>(bursts_.schedule.size());
    out.values["fault.crew_queue_max_depth"] =
        static_cast<double>(bursts_.stats.crew_queue_max_depth);

    const std::size_t total =
        spec_.fgs_sessions + spec_.mpeg2_per_locality * kLocalities;
    holms::serve::ServeOptions o;
    o.localities = kLocalities;
    o.threads = threads_;
    o.max_sessions = total;
    o.degrade_watermark = spec_.degrade_watermark;
    o.fault_loss = 0.3;
    o.seed = sub(seed_, kServeSessions);
    manager_ = traced("serve.ServiceManager", [&] {
      auto m = std::make_unique<holms::serve::ServiceManager>(o);
      m->attach_fault_schedule(&bursts_.schedule);
      return m;
    });
    Span span("serve.ServiceManager.admit");
    const holms::streaming::FgsConfig cfg;
    const holms::streaming::FgsPolicy mix[3] = {
        holms::streaming::FgsPolicy::kClientFeedback,
        holms::streaming::FgsPolicy::kNonAdaptive,
        holms::streaming::FgsPolicy::kGracefulDegradation};
    // Interleave the MPEG-2 tenants through the FGS admissions (an MPEG-2
    // session after every `every` FGS ones; the sizes divide evenly) so
    // every locality (id % localities) hosts both kinds and every policy.
    const std::size_t mpeg2 = spec_.mpeg2_per_locality * kLocalities;
    const std::size_t every = mpeg2 > 0 ? spec_.fgs_sessions / mpeg2 : 0;
    for (std::size_t i = 0; i < spec_.fgs_sessions; ++i) {
      manager_->add_fgs_session(mix[i % 3], cfg, spec_.slots);
      if (every > 0 && (i + 1) % every == 0) {
        manager_->add_mpeg2_session(
            holms::stream::Mpeg2Config{},
            holms::traffic::VideoTraceGenerator::Params{}, spec_.mpeg2_frames);
      }
    }
  }

  void pass(PassOutput& out) override {
    const double stream_s = static_cast<double>(spec_.slots) * 0.5;
    const double frames_s = static_cast<double>(spec_.mpeg2_frames) / 30.0;
    const double horizon = std::max(stream_s, frames_s + 2.0) + 5.0;
    const holms::serve::ServeReport r = traced(
        "serve.ServiceManager.run", [&] { return manager_->run(horizon); });
    out.checks.emplace_back("serve.all_admitted",
                            r.sessions_admitted == r.sessions_offered);
    out.checks.emplace_back("serve.sessions_conserved",
                            r.sessions_completed == r.sessions_admitted);
    out.values["slot_psnr_p1_db"] = r.slot_psnr_db.quantile(0.01);
    out.values["session_energy_j"] = r.session_energy_j.mean();
    if (spec_.mpeg2_per_locality > 0) {
      out.values["mpeg2_frame_latency_s"] = r.mpeg2_frame_latency.mean();
    }
    out.values["serve.fom_steps"] = static_cast<double>(r.events_dispatched);
    out.values["serve.sessions_degraded"] =
        static_cast<double>(r.sessions_degraded);
    out.values["serve.faults_in_window"] =
        static_cast<double>(r.faults_in_window);
    out.values["streaming.slots"] =
        static_cast<double>(r.slot_psnr_db.count());
    out.values["stream.mpeg2_frames_out"] =
        static_cast<double>(r.mpeg2_frames_out);
    out.fingerprints["serve_report"] = r.fingerprint();
  }

 private:
  static constexpr std::size_t kLocalities = 16;

  std::uint64_t seed_;
  std::size_t threads_;
  FleetSpec spec_;
  FailureDomainTree tree_;
  Bursts bursts_;
  std::unique_ptr<holms::serve::ServiceManager> manager_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        std::size_t threads) {
  if (name == "design_farm32") {
    return std::make_unique<DesignFarm32>(seed, threads);
  }
  if (name == "noc_farm16") return std::make_unique<NocFarm16>(seed, threads);
  if (name == "serve_mixed") {
    FleetSpec s;
    s.fgs_sessions = 12288;
    s.slots = 120;
    s.mpeg2_per_locality = 4;
    s.mpeg2_frames = 120;
    s.degrade_watermark = 0.8;
    return std::make_unique<ServeFleet>(seed, threads, s);
  }
  if (name == "serve_fgs") {
    FleetSpec s;
    s.fgs_sessions = 16384;
    s.slots = 400;
    return std::make_unique<ServeFleet>(seed, threads, s);
  }
  return nullptr;
}

}  // namespace perfbench
