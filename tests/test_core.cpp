// Unit tests for the holistic layer (holms::core): platform, evaluator,
// explorer, ambient extension — paper §1/§2/§5.
#include <gtest/gtest.h>

#include "core/ambient.hpp"
#include "core/evaluator.hpp"
#include "core/explorer.hpp"
#include "core/platform.hpp"
#include "noc/taskgraph.hpp"

namespace {

using holms::sim::Rng;
using namespace holms::core;

Application small_app() {
  Application app;
  app.name = "diamond";
  const auto a = app.graph.add_node("a", 4e6);
  const auto b = app.graph.add_node("b", 6e6);
  const auto c = app.graph.add_node("c", 5e6);
  const auto d = app.graph.add_node("d", 3e6);
  app.graph.add_edge(a, b, 1e5);
  app.graph.add_edge(a, c, 1e5);
  app.graph.add_edge(b, d, 1e5);
  app.graph.add_edge(c, d, 1e5);
  app.qos.period_s = 0.05;
  return app;
}

Application surveillance_app() {
  Application app;
  app.name = "surveillance";
  Rng rng(3);
  app.graph = holms::noc::random_graph(12, rng, 5e5);
  app.qos.period_s = 0.05;
  return app;
}

TEST(Platform, HomogeneousFactory) {
  const Platform p = Platform::homogeneous(3, 3, asip_tile());
  EXPECT_EQ(p.tiles.size(), 9u);
  for (const auto& t : p.tiles) {
    EXPECT_EQ(t.type, TileType::kAsip);
    EXPECT_DOUBLE_EQ(t.speedup, 4.0);
  }
}

TEST(Platform, TileClassesOrderedByEfficiency) {
  EXPECT_GT(asic_tile().speedup, asip_tile().speedup);
  EXPECT_GT(asip_tile().speedup, gpp_tile().speedup);
  EXPECT_LT(asic_tile().energy_factor, asip_tile().energy_factor);
  EXPECT_LT(asip_tile().energy_factor, gpp_tile().energy_factor);
}

TEST(Evaluator, SchedProblemScalesCyclesBySpeedup) {
  const Application app = small_app();
  Platform plat = Platform::homogeneous(2, 2, asip_tile());  // 4x speedup
  const holms::noc::Mapping m{0, 1, 2, 3};
  const auto prob = make_sched_problem(app, plat, m);
  EXPECT_NEAR(prob.tasks[0].cycles, 1e6, 1);   // 4e6 / 4
  EXPECT_NEAR(prob.tasks[1].cycles, 1.5e6, 1);
  EXPECT_EQ(prob.deps.size(), app.graph.edges().size());
}

TEST(Evaluator, FeasibleDesignOnEasyProblem) {
  const Application app = small_app();
  const Platform plat = Platform::homogeneous(2, 2);
  const holms::noc::Mapping m{0, 1, 2, 3};
  const Evaluation ev = evaluate_design(app, plat, m, true);
  EXPECT_TRUE(ev.deadline_met);
  EXPECT_TRUE(ev.feasible);
  EXPECT_GT(ev.total_energy_j, 0.0);
  EXPECT_NEAR(ev.average_power_w, ev.total_energy_j / 0.05, 1e-12);
}

TEST(Evaluator, DvsReducesEnergy) {
  const Application app = small_app();
  const Platform plat = Platform::homogeneous(2, 2);
  const holms::noc::Mapping m{0, 1, 2, 3};
  const Evaluation edf = evaluate_design(app, plat, m, false);
  const Evaluation dvs = evaluate_design(app, plat, m, true);
  EXPECT_TRUE(dvs.deadline_met);
  EXPECT_LT(dvs.total_energy_j, edf.total_energy_j);
}

TEST(Evaluator, FasterTilesLowerEnergyAndMakespan) {
  const Application app = small_app();
  const Platform gpp = Platform::homogeneous(2, 2, gpp_tile());
  const Platform asic = Platform::homogeneous(2, 2, asic_tile());
  const holms::noc::Mapping m{0, 1, 2, 3};
  const Evaluation e1 = evaluate_design(app, gpp, m, false);
  const Evaluation e2 = evaluate_design(app, asic, m, false);
  EXPECT_LT(e2.schedule.makespan_s, e1.schedule.makespan_s);
  EXPECT_LT(e2.total_energy_j, e1.total_energy_j);
}

TEST(Evaluator, PowerConstraintEnforced) {
  Application app = small_app();
  app.qos.max_power_w = 1e-9;  // impossible cap
  const Platform plat = Platform::homogeneous(2, 2);
  const holms::noc::Mapping m{0, 1, 2, 3};
  const Evaluation ev = evaluate_design(app, plat, m, true);
  EXPECT_FALSE(ev.power_met);
  EXPECT_FALSE(ev.feasible);
}

TEST(Evaluator, MappingSizeMismatchThrows) {
  const Application app = small_app();
  const Platform plat = Platform::homogeneous(2, 2);
  EXPECT_THROW(evaluate_design(app, plat, holms::noc::Mapping{0, 1}, true),
               std::invalid_argument);
}

TEST(Explorer, FindsFeasibleDesignAndParetoFront) {
  const Application app = surveillance_app();
  const Platform plat = Platform::homogeneous(4, 4);
  Rng rng(5);
  ExploreOptions opts;
  opts.restarts = 2;
  opts.sa.iterations = 3000;
  const ExploreResult res = explore(app, plat, rng, opts);
  ASSERT_TRUE(res.found_feasible);
  // Greedy seed + one SA run and one random probe per restart, each priced
  // under both schedulers (DVS and EDF).
  EXPECT_EQ(res.evaluated, 2 * (1 + 2 * opts.restarts));
  EXPECT_TRUE(res.best.eval.feasible);
  ASSERT_FALSE(res.pareto.empty());
  // Pareto front: sorted by energy, makespan must then be non-increasing.
  for (std::size_t i = 0; i + 1 < res.pareto.size(); ++i) {
    EXPECT_LE(res.pareto[i].eval.total_energy_j,
              res.pareto[i + 1].eval.total_energy_j);
    EXPECT_GE(res.pareto[i].eval.schedule.makespan_s,
              res.pareto[i + 1].eval.schedule.makespan_s - 1e-12);
  }
  // Best is the head of the front.
  EXPECT_NEAR(res.best.eval.total_energy_j,
              res.pareto.front().eval.total_energy_j, 1e-15);
}

TEST(Explorer, BestBeatsRandomProbes) {
  const Application app = surveillance_app();
  const Platform plat = Platform::homogeneous(4, 4);
  Rng rng(6);
  const ExploreResult res = explore(app, plat, rng);
  ASSERT_TRUE(res.found_feasible);
  Rng probe_rng(99);
  for (int i = 0; i < 5; ++i) {
    const auto m = holms::noc::random_mapping(app.graph.num_nodes(),
                                              plat.mesh, probe_rng);
    const Evaluation ev = evaluate_design(app, plat, m, true);
    if (ev.feasible) {
      EXPECT_LE(res.best.eval.total_energy_j, ev.total_energy_j * 1.0001);
    }
  }
}

// ---------- multiple applications sharing one platform (§1) ----------

TEST(MultiApp, TwoLightAppsShareFeasibly) {
  const Application a = small_app();
  Application b = small_app();
  b.name = "second";
  const Platform plat = Platform::homogeneous(3, 3);
  const std::vector<Application> apps{a, b};
  // Disjoint tiles: utilizations never collide.
  const std::vector<holms::noc::Mapping> maps{{0, 1, 2, 3}, {4, 5, 6, 7}};
  const MultiAppEvaluation ev =
      evaluate_multi_design(apps, plat, maps, true);
  ASSERT_EQ(ev.per_app.size(), 2u);
  EXPECT_TRUE(ev.schedulable);
  EXPECT_TRUE(ev.feasible);
  EXPECT_LE(ev.max_tile_utilization, 1.0);
  EXPECT_NEAR(ev.total_power_w,
              ev.per_app[0].average_power_w + ev.per_app[1].average_power_w,
              1e-12);
}

TEST(MultiApp, SharedTilesAccumulateUtilization) {
  const Application a = small_app();
  const Platform plat = Platform::homogeneous(3, 3);
  const std::vector<Application> apps{a, a};
  const std::vector<holms::noc::Mapping> same{{0, 1, 2, 3}, {0, 1, 2, 3}};
  const std::vector<holms::noc::Mapping> split{{0, 1, 2, 3}, {4, 5, 6, 7}};
  const MultiAppEvaluation shared =
      evaluate_multi_design(apps, plat, same, false);
  const MultiAppEvaluation spread =
      evaluate_multi_design(apps, plat, split, false);
  EXPECT_GT(shared.max_tile_utilization,
            spread.max_tile_utilization * 1.5);
}

TEST(MultiApp, OverloadedTileIsUnschedulable) {
  // Many copies of the app stacked on the same tiles with a short period.
  Application a = small_app();
  a.qos.period_s = 0.012;
  const Platform plat = Platform::homogeneous(3, 3);
  std::vector<Application> apps(4, a);
  std::vector<holms::noc::Mapping> maps(4,
                                        holms::noc::Mapping{0, 1, 2, 3});
  const MultiAppEvaluation ev =
      evaluate_multi_design(apps, plat, maps, false);
  EXPECT_FALSE(ev.schedulable);
  EXPECT_FALSE(ev.feasible);
}

TEST(MultiApp, MismatchedSizesThrow) {
  const Application a = small_app();
  const Platform plat = Platform::homogeneous(2, 2);
  EXPECT_THROW(
      evaluate_multi_design({a}, plat, {}, true),
      std::invalid_argument);
}

// ---------- platform synthesis under cost budget ----------

TEST(Synthesis, UpgradesReduceEnergyWithinBudget) {
  const Application app = surveillance_app();
  Rng rng(21);
  SynthesisOptions opts;
  opts.explore.restarts = 1;
  opts.explore.sa.iterations = 1500;
  opts.cost_budget = 30.0;  // room for a few ASIP/ASIC upgrades
  const SynthesisResult res = synthesize_platform(app, 4, 4, rng, opts);
  ASSERT_TRUE(res.found_feasible);
  EXPECT_FALSE(res.trace.empty());
  EXPECT_LE(res.design.best.eval.platform_cost, opts.cost_budget + 1e-9);
  // Energy strictly improves along the trace.
  for (std::size_t i = 1; i < res.trace.size(); ++i) {
    EXPECT_LT(res.trace[i].energy_j, res.trace[i - 1].energy_j);
  }
  // Versus the all-GPP starting point.
  Rng rng2(21);
  const Platform gpp = Platform::homogeneous(4, 4);
  const ExploreResult base = explore(app, gpp, rng2, opts.explore);
  ASSERT_TRUE(base.found_feasible);
  EXPECT_LT(res.design.best.eval.total_energy_j,
            base.best.eval.total_energy_j);
}

TEST(Synthesis, TightBudgetBlocksUpgrades) {
  const Application app = surveillance_app();
  Rng rng(22);
  SynthesisOptions opts;
  opts.explore.restarts = 1;
  opts.explore.sa.iterations = 1000;
  // Budget equal to the all-GPP used-tile cost: any upgrade overshoots.
  opts.cost_budget = static_cast<double>(app.graph.num_nodes()) *
                     gpp_tile().unit_cost;
  const SynthesisResult res = synthesize_platform(app, 4, 4, rng, opts);
  EXPECT_TRUE(res.trace.empty());
  for (const auto& t : res.platform.tiles) {
    EXPECT_EQ(t.type, TileType::kGpp);
  }
}

// ---------- manufacturing cost (§1) ----------

TEST(Cost, PlatformCostSumsUsedTiles) {
  const Application app = small_app();
  Platform plat = Platform::homogeneous(3, 3, gpp_tile());
  plat.tiles[1] = asic_tile();
  const holms::noc::Mapping m{0, 1, 2, 3};  // uses one ASIC + three GPPs
  const Evaluation ev = evaluate_design(app, plat, m, true);
  EXPECT_NEAR(ev.platform_cost,
              asic_tile().unit_cost + 3.0 * gpp_tile().unit_cost, 1e-12);
  EXPECT_TRUE(ev.cost_met);  // unconstrained by default
}

TEST(Cost, SharedTileCountedOnce) {
  const Application app = small_app();
  const Platform plat = Platform::homogeneous(3, 3);
  const holms::noc::Mapping m{0, 0, 0, 1};  // three tasks share tile 0
  const Evaluation ev = evaluate_design(app, plat, m, true);
  EXPECT_NEAR(ev.platform_cost, 2.0 * gpp_tile().unit_cost, 1e-12);
}

TEST(Cost, CapMakesExpensiveDesignInfeasible) {
  Application app = small_app();
  app.qos.max_cost = 3.0;  // only three GPP-priced tiles allowed
  const Platform plat = Platform::homogeneous(2, 2, gpp_tile());
  const holms::noc::Mapping spread{0, 1, 2, 3};  // cost 4
  const Evaluation e1 = evaluate_design(app, plat, spread, true);
  EXPECT_FALSE(e1.cost_met);
  EXPECT_FALSE(e1.feasible);
  const holms::noc::Mapping packed{0, 0, 1, 2};  // cost 3
  const Evaluation e2 = evaluate_design(app, plat, packed, true);
  EXPECT_TRUE(e2.cost_met);
}

TEST(Cost, ExplorerRespectsCostCap) {
  Application app = surveillance_app();
  const Platform plat = Platform::homogeneous(4, 4, asip_tile());
  app.qos.max_cost = asip_tile().unit_cost * 12.0;  // every task spread out
  Rng rng(8);
  const ExploreResult res = explore(app, plat, rng);
  if (res.found_feasible) {
    EXPECT_LE(res.best.eval.platform_cost, app.qos.max_cost + 1e-9);
  }
}

TEST(Platform, TileTypeNamesDistinct) {
  EXPECT_NE(tile_type_name(TileType::kGpp), tile_type_name(TileType::kAsip));
  EXPECT_NE(tile_type_name(TileType::kAsic),
            tile_type_name(TileType::kMemory));
}

TEST(Evaluator, MemoryTileRunsComputeAtGppSpeed) {
  // memory_tile has speedup 1: a compute task mapped there is legal but
  // gains nothing (the §3.3 advice is to keep memories passive).
  const Application app = small_app();
  Platform plat = Platform::homogeneous(2, 2, memory_tile());
  const holms::noc::Mapping m{0, 1, 2, 3};
  const auto prob = make_sched_problem(app, plat, m);
  EXPECT_NEAR(prob.tasks[0].cycles, app.graph.node(0).compute_cycles, 1e-9);
}

// ---------- ambient extension (§5) ----------

AmbientConfig quick_ambient() {
  AmbientConfig cfg;
  cfg.duration_s = 600.0;
  cfg.tile_mtbf_s = 900.0;  // aggressive failures
  cfg.seed = 11;
  return cfg;
}

TEST(Ambient, AdaptiveRemapBeatsStaticAvailability) {
  const Application app = small_app();
  // 3x3 platform: 5 spare tiles to absorb failures.
  const Platform plat = Platform::homogeneous(3, 3);
  const AmbientResult st = run_ambient_scenario(
      app, plat, FaultPolicy::kStatic, quick_ambient());
  const AmbientResult ad = run_ambient_scenario(
      app, plat, FaultPolicy::kAdaptiveRemap, quick_ambient());
  EXPECT_GT(st.failures_injected, 0u);
  EXPECT_GT(ad.remaps_performed, 0u);
  EXPECT_GT(ad.availability, st.availability);
  EXPECT_EQ(st.periods, ad.periods);
}

TEST(Ambient, AccountingIsConsistent) {
  const Application app = small_app();
  const Platform plat = Platform::homogeneous(3, 3);
  const AmbientResult r = run_ambient_scenario(
      app, plat, FaultPolicy::kAdaptiveRemap, quick_ambient());
  EXPECT_EQ(r.periods, r.periods_ok + r.periods_degraded + r.periods_failed);
  // Fault-displaced degradation is a strict subset of degradation: the
  // partition above is unaffected by the finer-grained counter.
  EXPECT_LE(r.periods_fault_degraded, r.periods_degraded);
  EXPECT_GT(r.energy_j, 0.0);
  EXPECT_LE(r.availability, 1.0);
}

TEST(Ambient, SharedScheduleReplaysIdentically) {
  const Application app = small_app();
  const Platform plat = Platform::homogeneous(3, 3);
  holms::fault::FaultSchedule::PoissonSpec spec;
  spec.target = holms::fault::Target::kTile;
  spec.num_targets = plat.mesh.num_tiles();
  spec.fail_rate = 1.0 / 400.0;
  spec.repair_rate = 1.0 / 150.0;
  spec.horizon = 600.0;
  const auto sched = holms::fault::FaultSchedule::poisson(3, spec);
  AmbientOptions opts;
  opts.schedule = &sched;
  const AmbientResult a = run_ambient_scenario(
      app, plat, FaultPolicy::kAdaptiveRemap, quick_ambient(), opts);
  const AmbientResult b = run_ambient_scenario(
      app, plat, FaultPolicy::kAdaptiveRemap, quick_ambient(), opts);
  EXPECT_EQ(a.periods_ok, b.periods_ok);
  EXPECT_EQ(a.periods_degraded, b.periods_degraded);
  EXPECT_EQ(a.periods_fault_degraded, b.periods_fault_degraded);
  EXPECT_EQ(a.periods_failed, b.periods_failed);
  EXPECT_EQ(a.failures_injected, b.failures_injected);
  EXPECT_EQ(a.repairs_applied, b.repairs_applied);
  EXPECT_EQ(a.remaps_performed, b.remaps_performed);
  EXPECT_DOUBLE_EQ(a.energy_j, b.energy_j);
  EXPECT_DOUBLE_EQ(a.availability, b.availability);
}

TEST(Ambient, RepairRestoresDesignMapping) {
  // One tile in use fails and later comes back: the adaptive policy must
  // remap away (displacing the design mapping) and then restore it once the
  // design-time tile is whole again — two remaps, one failure, one repair.
  const Application app = small_app();
  const Platform plat = Platform::homogeneous(3, 3);
  const holms::noc::Mapping design{0, 1, 2, 3};
  const auto sched = holms::fault::FaultSchedule::from_trace({
      {60.0, holms::fault::FaultKind::kFail, holms::fault::Target::kTile, 0},
      {120.0, holms::fault::FaultKind::kRepair, holms::fault::Target::kTile,
       0},
  });
  AmbientConfig cfg = quick_ambient();
  cfg.duration_s = 300.0;
  AmbientOptions opts;
  opts.schedule = &sched;
  opts.initial_mapping = &design;
  const AmbientResult r = run_ambient_scenario(
      app, plat, FaultPolicy::kAdaptiveRemap, cfg, opts);
  EXPECT_EQ(r.failures_injected, 1u);
  EXPECT_EQ(r.repairs_applied, 1u);
  EXPECT_EQ(r.remaps_performed, 2u);  // displace + restore
  EXPECT_EQ(r.periods_failed, 0u);    // spare tiles always available
  EXPECT_EQ(r.periods, r.periods_ok + r.periods_degraded + r.periods_failed);
}

TEST(Ambient, NoFailuresMeansFullAvailability) {
  const Application app = small_app();
  const Platform plat = Platform::homogeneous(2, 2);
  AmbientConfig cfg = quick_ambient();
  cfg.tile_mtbf_s = 1e12;  // effectively no failures
  const AmbientResult r =
      run_ambient_scenario(app, plat, FaultPolicy::kStatic, cfg);
  EXPECT_EQ(r.failures_injected, 0u);
  EXPECT_DOUBLE_EQ(r.availability, 1.0);
}

TEST(Ambient, UserActivityScalesEnergy) {
  const Application app = small_app();
  const Platform plat = Platform::homogeneous(2, 2);
  AmbientConfig busy = quick_ambient();
  busy.tile_mtbf_s = 1e12;
  busy.activity_low = 1.0;  // always high activity
  AmbientConfig calm = busy;
  calm.activity_low = 0.2;
  calm.activity_high = 0.2;  // always low activity
  const AmbientResult rb =
      run_ambient_scenario(app, plat, FaultPolicy::kStatic, busy);
  const AmbientResult rc =
      run_ambient_scenario(app, plat, FaultPolicy::kStatic, calm);
  EXPECT_GT(rb.energy_j, rc.energy_j);
}

}  // namespace
