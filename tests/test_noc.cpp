// Unit tests for the NoC subsystem: topology, graphs, mapping, router,
// scheduling (holms::noc) — paper §3.2/§3.3.
#include <gtest/gtest.h>

#include "fault/schedule.hpp"
#include "noc/mapping.hpp"
#include "noc/router.hpp"
#include "noc/scheduling.hpp"
#include "noc/taskgraph.hpp"
#include "noc/topology.hpp"
#include "support/noc_pins.hpp"
#include "support/xy_route.hpp"

namespace {

using holms::sim::Rng;
using namespace holms::noc;

// ---------- topology ----------

TEST(Mesh, GeometryBasics) {
  Mesh2D m(4, 3);
  EXPECT_EQ(m.num_tiles(), 12u);
  EXPECT_EQ(m.tile_at(2, 1), 6u);
  EXPECT_EQ(m.x_of(6), 2u);
  EXPECT_EQ(m.y_of(6), 1u);
  EXPECT_EQ(m.hops(0, 11), 5u);  // (0,0) -> (3,2)
  EXPECT_EQ(m.hops(5, 5), 0u);
}

TEST(Mesh, XyRoutingGoesXFirst) {
  Mesh2D m(4, 4);
  const TileId src = m.tile_at(0, 0), dst = m.tile_at(2, 3);
  EXPECT_EQ(m.xy_next(src, dst), Dir::kEast);
  const TileId mid = m.tile_at(2, 0);
  EXPECT_EQ(m.xy_next(mid, dst), Dir::kSouth);
  EXPECT_EQ(m.xy_next(dst, dst), Dir::kLocal);
}

TEST(Mesh, XyRouteIsMinimalAndConnected) {
  Mesh2D m(5, 5);
  const auto path =
      holms::test_support::xy_route(m, m.tile_at(1, 4), m.tile_at(4, 0));
  EXPECT_EQ(path.size(), m.hops(m.tile_at(1, 4), m.tile_at(4, 0)) + 1);
  EXPECT_EQ(path.front(), m.tile_at(1, 4));
  EXPECT_EQ(path.back(), m.tile_at(4, 0));
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    EXPECT_EQ(m.hops(path[i], path[i + 1]), 1u);
  }
}

TEST(Mesh, NeighborOffMeshThrows) {
  Mesh2D m(2, 2);
  EXPECT_THROW(m.neighbor(0, Dir::kNorth), std::out_of_range);
  EXPECT_THROW(m.neighbor(0, Dir::kWest), std::out_of_range);
  EXPECT_EQ(m.neighbor(0, Dir::kEast), 1u);
  EXPECT_FALSE(m.has_neighbor(0, Dir::kNorth));
  EXPECT_TRUE(m.has_neighbor(0, Dir::kSouth));
}

TEST(EnergyModel, MoreHopsCostMore) {
  EnergyModel e;
  EXPECT_GT(e.bit_energy(3), e.bit_energy(1));
  EXPECT_DOUBLE_EQ(e.bit_energy(0), e.e_router_pj);  // local delivery
  EXPECT_NEAR(e.transfer_energy(1e6, 2),
              1e6 * (3 * e.e_router_pj + 2 * e.e_link_pj) * 1e-12, 1e-18);
}

// ---------- application graphs ----------

TEST(AppGraph, FactoriesProduceConsistentGraphs) {
  for (const AppGraph& g : {mms_graph(), video_surveillance_graph()}) {
    EXPECT_GE(g.num_nodes(), 12u);
    EXPECT_GT(g.edges().size(), g.num_nodes() - 2);
    for (const auto& e : g.edges()) {
      EXPECT_LT(e.src, g.num_nodes());
      EXPECT_LT(e.dst, g.num_nodes());
      EXPECT_GT(e.volume_bits, 0.0);
    }
    EXPECT_GT(g.total_volume(), 0.0);
  }
}

TEST(AppGraph, SurveillancePipelineIsHighestBandwidth) {
  // §3.2: along motion-detect -> filtering the network should provide the
  // highest bandwidth; user-input traffic is orders of magnitude lower.
  const AppGraph g = video_surveillance_graph();
  double md_filt = 0.0, ui = 0.0;
  for (const auto& e : g.edges()) {
    if (g.node(e.src).name == "motion-detect" &&
        g.node(e.dst).name == "filtering") {
      md_filt = e.volume_bits;
    }
    if (g.node(e.src).name == "user-input") ui = e.volume_bits;
  }
  EXPECT_GT(md_filt, 100.0 * ui);
}

TEST(AppGraph, NodeTrafficSumsIncidentEdges) {
  AppGraph g;
  const auto a = g.add_node("a");
  const auto b = g.add_node("b");
  const auto c = g.add_node("c");
  g.add_edge(a, b, 10.0);
  g.add_edge(b, c, 5.0);
  EXPECT_DOUBLE_EQ(g.node_traffic(b), 15.0);
  EXPECT_DOUBLE_EQ(g.node_traffic(a), 10.0);
}

TEST(AppGraph, RejectsBadEdges) {
  AppGraph g;
  const auto a = g.add_node("a");
  const auto b = g.add_node("b");
  EXPECT_THROW(g.add_edge(a, a, 1.0), std::invalid_argument);
  EXPECT_THROW(g.add_edge(a, 5, 1.0), std::invalid_argument);
  EXPECT_THROW(g.add_edge(a, b, 0.0), std::invalid_argument);
}

TEST(AppGraph, RandomGraphIsTopologicallyOrdered) {
  Rng rng(1);
  const AppGraph g = random_graph(20, rng);
  for (const auto& e : g.edges()) EXPECT_LT(e.src, e.dst);
  EXPECT_TRUE(is_topologically_ordered(g));
}

TEST(AppGraph, DagVariantsAreSchedulable) {
  EXPECT_TRUE(is_topologically_ordered(video_surveillance_dag()));
  EXPECT_TRUE(is_topologically_ordered(mms_dag()));
  // The cyclic originals are not (they model sustained traffic instead).
  EXPECT_FALSE(is_topologically_ordered(mms_graph()));
  EXPECT_FALSE(is_topologically_ordered(video_surveillance_graph()));
}

TEST(AppGraph, DagVariantsScheduleEndToEnd) {
  Rng rng(2);
  for (const AppGraph& g : {video_surveillance_dag(), mms_dag()}) {
    SchedProblem p;
    p.mesh = Mesh2D(4, 4);
    for (std::size_t i = 0; i < g.num_nodes(); ++i) {
      p.tasks.push_back({g.node(i).name, g.node(i).compute_cycles});
    }
    for (const auto& e : g.edges()) {
      p.deps.push_back({e.src, e.dst, e.volume_bits});
    }
    p.tile_of = random_mapping(g.num_nodes(), p.mesh, rng);
    p.deadline_s = 0.2;
    const auto edf = schedule_edf(p);
    EXPECT_TRUE(edf.deadline_met);
    EXPECT_TRUE(schedule_is_valid(p, edf));
    const auto eas = schedule_energy_aware(p);
    EXPECT_TRUE(schedule_is_valid(p, eas));
    EXPECT_LE(eas.total_energy_j, edf.total_energy_j + 1e-12);
  }
}

// ---------- mapping ----------

TEST(Mapping, EvaluateSmallCaseByHand) {
  AppGraph g;
  const auto a = g.add_node("a");
  const auto b = g.add_node("b");
  g.add_edge(a, b, 1e6);
  Mesh2D mesh(2, 2);
  EnergyModel em;
  const Mapping adjacent{0, 1};      // 1 hop
  const Mapping diagonal{0, 3};      // 2 hops
  const auto e1 = evaluate_mapping(g, mesh, em, adjacent);
  const auto e2 = evaluate_mapping(g, mesh, em, diagonal);
  EXPECT_NEAR(e1.comm_energy_j, em.transfer_energy(1e6, 1), 1e-18);
  EXPECT_NEAR(e2.comm_energy_j, em.transfer_energy(1e6, 2), 1e-18);
  EXPECT_DOUBLE_EQ(e1.volume_weighted_hops, 1.0);
  EXPECT_DOUBLE_EQ(e2.volume_weighted_hops, 2.0);
}

TEST(Mapping, LinkLoadFollowsXyRoute) {
  AppGraph g;
  const auto a = g.add_node("a");
  const auto b = g.add_node("b");
  g.add_edge(a, b, 1e6);
  Mesh2D mesh(3, 3);
  EnergyModel em;
  const Mapping m{0, 8};  // (0,0) -> (2,2): 4 hops
  const auto ev = evaluate_mapping(g, mesh, em, m, 2e6);
  EXPECT_TRUE(ev.bandwidth_feasible);
  EXPECT_DOUBLE_EQ(ev.max_link_load_bps, 1e6);
  const auto ev2 = evaluate_mapping(g, mesh, em, m, 0.5e6);
  EXPECT_FALSE(ev2.bandwidth_feasible);
}

TEST(Mapping, RandomMappingIsInjective) {
  Rng rng(2);
  Mesh2D mesh(4, 4);
  for (int trial = 0; trial < 20; ++trial) {
    const Mapping m = random_mapping(12, mesh, rng);
    std::vector<bool> used(mesh.num_tiles(), false);
    for (TileId t : m) {
      EXPECT_LT(t, mesh.num_tiles());
      EXPECT_FALSE(used[t]);
      used[t] = true;
    }
  }
}

TEST(Mapping, RejectsTooManyCores) {
  Rng rng(3);
  Mesh2D mesh(2, 2);
  EXPECT_THROW(random_mapping(5, mesh, rng), std::invalid_argument);
  EXPECT_THROW(greedy_mapping(mms_graph(), mesh, EnergyModel{}),
               std::invalid_argument);
}

TEST(Mapping, GreedyBeatsRandomOnAverage) {
  const AppGraph g = mms_graph();
  Mesh2D mesh(4, 4);
  EnergyModel em;
  Rng rng(4);
  const double greedy =
      evaluate_mapping(g, mesh, em, greedy_mapping(g, mesh, em)).comm_energy_j;
  double random_sum = 0.0;
  const int trials = 20;
  for (int i = 0; i < trials; ++i) {
    random_sum += evaluate_mapping(g, mesh, em,
                                   random_mapping(g.num_nodes(), mesh, rng))
                      .comm_energy_j;
  }
  EXPECT_LT(greedy, random_sum / trials);
}

TEST(Mapping, SaNotWorseThanGreedy) {
  const AppGraph g = mms_graph();
  Mesh2D mesh(4, 4);
  EnergyModel em;
  Rng rng(5);
  SaOptions opts;
  opts.iterations = 5000;
  const double greedy =
      evaluate_mapping(g, mesh, em, greedy_mapping(g, mesh, em)).comm_energy_j;
  const double sa =
      evaluate_mapping(g, mesh, em, sa_mapping(g, mesh, em, rng, opts))
          .comm_energy_j;
  EXPECT_LE(sa, greedy * 1.0001);
}

// ---------- flit-level router ----------

TEST(Router, UncontendedDeliveryIsLossless) {
  Mesh2D mesh(4, 4);
  NocSim::Config cfg;
  NocSim sim(mesh, cfg, Rng(8));
  Flow f;
  f.src = 0;
  f.dst = 15;
  f.packet_flits = 4;
  f.packets_per_cycle = 0.05;
  sim.add_flow(f);
  sim.run(20000);
  const NocStats s = sim.stats();
  EXPECT_GT(s.packets_injected, 500u);
  // All but the in-flight tail delivered.
  EXPECT_GE(s.packets_delivered + 20, s.packets_injected);
  EXPECT_GT(s.mean_packet_latency, 6.0);  // >= hops + serialization
  EXPECT_GT(s.energy_joules, 0.0);
}

TEST(Router, LatencyGrowsWithLoad) {
  Mesh2D mesh(4, 4);
  auto run_at = [&](double rate) {
    NocSim sim(mesh, NocSim::Config{}, Rng(9));
    // Hot-spot pattern: all corners send to the center.
    for (TileId src : {mesh.tile_at(0, 0), mesh.tile_at(3, 0),
                       mesh.tile_at(0, 3), mesh.tile_at(3, 3)}) {
      Flow f;
      f.src = src;
      f.dst = mesh.tile_at(1, 1);
      f.packet_flits = 8;
      f.packets_per_cycle = rate;
      sim.add_flow(f);
    }
    sim.run(30000);
    return sim.stats();
  };
  const NocStats light = run_at(0.005);
  const NocStats heavy = run_at(0.04);
  EXPECT_GT(heavy.mean_packet_latency, light.mean_packet_latency);
  EXPECT_GT(heavy.mean_buffer_occupancy, light.mean_buffer_occupancy);
}

TEST(Router, SaturationCapsDelivery) {
  Mesh2D mesh(3, 3);
  NocSim sim(mesh, NocSim::Config{}, Rng(10));
  // Everyone floods the center: offered >> capacity.
  for (TileId t = 0; t < mesh.num_tiles(); ++t) {
    if (t == mesh.tile_at(1, 1)) continue;
    Flow f;
    f.src = t;
    f.dst = mesh.tile_at(1, 1);
    f.packet_flits = 8;
    f.packets_per_cycle = 0.2;
    sim.add_flow(f);
  }
  sim.run(20000);
  const NocStats s = sim.stats();
  EXPECT_LT(s.packets_delivered, s.packets_injected / 2);
  // The ejection port moves at most 1 flit/cycle: hard ceiling.
  EXPECT_LE(static_cast<double>(s.packets_delivered) * 8.0, 20000.0 * 1.01);
}

TEST(Router, WestFirstDeliversEverythingUncontended) {
  Mesh2D mesh(4, 4);
  NocSim::Config cfg;
  cfg.routing = RoutingAlgo::kWestFirst;
  NocSim sim(mesh, cfg, Rng(12));
  // Exercise all quadrant directions, including pure-west routes.
  const Flow flows[] = {
      {mesh.tile_at(3, 3), mesh.tile_at(0, 0), 0.02, 4},
      {mesh.tile_at(0, 0), mesh.tile_at(3, 3), 0.02, 4},
      {mesh.tile_at(3, 0), mesh.tile_at(0, 3), 0.02, 4},
      {mesh.tile_at(1, 2), mesh.tile_at(2, 1), 0.02, 4},
  };
  NocSim* s = &sim;
  for (const Flow& f : flows) s->add_flow(f);
  sim.run(30000);
  const NocStats st = sim.stats();
  EXPECT_GT(st.packets_injected, 1000u);
  EXPECT_GE(st.packets_delivered + 40, st.packets_injected);
}

TEST(Router, WestFirstAdaptsAroundHotspots) {
  // Under a column hotspot the adaptive algorithm can spill onto a second
  // productive direction; it must at least match XY's delivery and never
  // deadlock.
  for (const RoutingAlgo algo : {RoutingAlgo::kXY, RoutingAlgo::kWestFirst}) {
    Mesh2D mesh(4, 4);
    NocSim::Config cfg;
    cfg.routing = algo;
    NocSim sim(mesh, cfg, Rng(13));
    for (std::size_t y = 0; y < 4; ++y) {
      Flow f;
      f.src = mesh.tile_at(0, y);
      f.dst = mesh.tile_at(3, (y + 2) % 4);
      f.packet_flits = 8;
      f.packets_per_cycle = 0.06;
      sim.add_flow(f);
    }
    sim.run(30000);
    const NocStats st = sim.stats();
    EXPECT_GT(st.packets_delivered, st.packets_injected / 2)
        << "algo " << static_cast<int>(algo);
  }
}

TEST(Router, RejectsInvalidFlows) {
  Mesh2D mesh(2, 2);
  NocSim sim(mesh, NocSim::Config{}, Rng(11));
  Flow f;
  f.src = 0;
  f.dst = 0;
  EXPECT_THROW(sim.add_flow(f), std::invalid_argument);
  f.dst = 1;
  f.packet_flits = 0;
  EXPECT_THROW(sim.add_flow(f), std::invalid_argument);
  f.packet_flits = 2;
  f.packets_per_cycle = 2.0;
  EXPECT_THROW(sim.add_flow(f), std::invalid_argument);
}

TEST(Router, LoadedRunsMatchPinnedStats) {
  // Runs whose VC buffers fill, wrap around and get purged, pinned bit for
  // bit: under contention every round-robin grant, stall count and purge
  // shows in the stats.  XY with one 2-flit VC floods the 6x6 hotspot far
  // past its 1 flit/cycle ejection limit; west-first with two VCs sits at
  // the uniform-traffic latency knee; kFaultTolerant fails the hotspot's
  // north neighbour (tile 15) while its buffers are full, repairs it, then
  // fails the west neighbour (tile 20) for good, so purges, stall drops and
  // detours all happen in 3-flit rings.
  using holms::fault::FaultEvent;
  using holms::fault::FaultKind;
  using holms::fault::Target;
  struct Case {
    const char* name;
    RoutingAlgo routing;
    std::size_t vcs, depth;
    TrafficPattern pattern;
    double rate;
    std::vector<FaultEvent> faults;
    holms::test_support::PinnedNocStats pinned;
  };
  const Case cases[] = {
      {"xy_hotspot_saturated", RoutingAlgo::kXY, 1, 2,
       TrafficPattern::kHotspot, 0.05, {},
       {10548, 1498, 17982, 0x1.f3067e76424edp+6, 0x1.ad40a3d70a3d7p+11,
        0x1.72ef3c9b0a891p-1, 0x1.7f9db22d0e56p+1, 0x1.083f2ac235cb7p-19,
        0x1.b5cd16d50ca11p+3, 0, 0x1.22da0aadc5f23p-3, 0, 0}},
      {"west_first_uniform_knee", RoutingAlgo::kWestFirst, 2, 4,
       TrafficPattern::kUniformRandom, 0.1, {},
       {21631, 21496, 345692, 0x1.a46c0a4a1f721p+4, 0x1.8c147ae147bp+7,
        0x1.64f810de94647p+0, 0x1.ccec33e1f6715p+5, 0x1.2c805e632d1c9p-15,
        0x1.15a59db605abcp+4, 0, 0x1.fccdf9594b481p-1, 0, 0}},
      {"ft_router_fails_full", RoutingAlgo::kFaultTolerant, 2, 3,
       TrafficPattern::kHotspot, 0.04,
       {{1500.0, FaultKind::kFail, Target::kNode, 15},
        {3000.0, FaultKind::kRepair, Target::kNode, 15},
        {3500.0, FaultKind::kFail, Target::kNode, 20}},
       {8478, 1498, 18166, 0x1.6e22c6ebd59e9p+9, 0x1.ffe55e6f8091ap+11,
        0x1.05a0941014a2dp+1, 0x1.838a94d242e6cp+1, 0x1.10a326a4c54a1p-19,
        0x1.c3b3d875fd8f6p+3, 595, 0x1.69ddd17f9b822p-3, 26, 3}},
  };
  const Mesh2D mesh(6, 6);
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    NocSim::Config cfg;
    cfg.routing = c.routing;
    cfg.virtual_channels = c.vcs;
    cfg.buffer_depth = c.depth;
    NocSim sim(mesh, cfg, Rng(31));
    add_pattern_flows(sim, mesh, c.pattern, c.rate, 4);
    const auto sched = holms::fault::FaultSchedule::from_trace(c.faults);
    if (!c.faults.empty()) sim.attach_fault_schedule(&sched);
    sim.run(6000);
    holms::test_support::expect_pinned(sim.stats(), c.pinned);
  }
}

TEST(Mapping, BranchAndBoundIsExactOnSmallGraphs) {
  // Brute-force reference on a tiny instance.
  Rng rng(31);
  const AppGraph g = random_graph(5, rng, 1e6);
  Mesh2D mesh(2, 3);
  EnergyModel em;
  const Mapping bb = bb_mapping(g, mesh, em);
  const double bb_cost = evaluate_mapping(g, mesh, em, bb).comm_energy_j;
  // Exhaustive check over all injective placements (6P5 = 720).
  std::vector<TileId> tiles{0, 1, 2, 3, 4, 5};
  double best = 1e300;
  std::sort(tiles.begin(), tiles.end());
  do {
    const Mapping m(tiles.begin(), tiles.begin() + 5);
    best = std::min(best, evaluate_mapping(g, mesh, em, m).comm_energy_j);
  } while (std::next_permutation(tiles.begin(), tiles.end()));
  EXPECT_NEAR(bb_cost, best, best * 1e-12);
}

TEST(Mapping, HeuristicsWithinFactorOfOptimal) {
  Rng rng(32);
  const AppGraph g = random_graph(8, rng, 1e6);
  Mesh2D mesh(3, 3);
  EnergyModel em;
  const double opt =
      evaluate_mapping(g, mesh, em, bb_mapping(g, mesh, em)).comm_energy_j;
  SaOptions sa;
  sa.iterations = 8000;
  Rng sa_rng(33);
  const double sa_cost =
      evaluate_mapping(g, mesh, em, sa_mapping(g, mesh, em, sa_rng, sa))
          .comm_energy_j;
  EXPECT_GE(sa_cost, opt - 1e-15);      // optimal is a lower bound
  EXPECT_LE(sa_cost, opt * 1.10);       // SA lands within 10% here
}

TEST(Mapping, BbBudgetFallsBackToIncumbent) {
  Rng rng(34);
  const AppGraph g = random_graph(8, rng, 1e6);
  Mesh2D mesh(3, 3);
  EnergyModel em;
  const Mapping limited = bb_mapping(g, mesh, em, /*node_budget=*/1);
  const Mapping greedy = greedy_mapping(g, mesh, em);
  EXPECT_LE(evaluate_mapping(g, mesh, em, limited).comm_energy_j,
            evaluate_mapping(g, mesh, em, greedy).comm_energy_j + 1e-15);
}

// ---------- virtual channels ----------

class VcSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(VcSweep, DeliveryConservedAcrossVcCounts) {
  Mesh2D mesh(3, 3);
  NocSim::Config cfg;
  cfg.virtual_channels = GetParam();
  NocSim sim(mesh, cfg, Rng(21));
  Flow f;
  f.src = 0;
  f.dst = 8;
  f.packet_flits = 6;
  f.packets_per_cycle = 0.02;
  sim.add_flow(f);
  Flow g;
  g.src = 2;
  g.dst = 6;
  g.packet_flits = 6;
  g.packets_per_cycle = 0.02;
  sim.add_flow(g);
  sim.run(30000);
  const auto s = sim.stats();
  EXPECT_LE(s.packets_delivered, s.packets_injected);
  EXPECT_GE(s.packets_delivered + 30, s.packets_injected);
}

INSTANTIATE_TEST_SUITE_P(Counts, VcSweep, ::testing::Values(1, 2, 4));

TEST(VirtualChannels, RelieveHeadOfLineBlockingBelowSaturation) {
  // At moderate uniform load, head-of-line blocking inflates the latency
  // tail with one VC; extra VCs let packets slip past blocked worms.
  // (Above saturation VCs only add buffering, so the comparison must be
  // made below the knee.)
  auto run_with = [](std::size_t vcs) {
    Mesh2D mesh(4, 4);
    NocSim::Config cfg;
    cfg.virtual_channels = vcs;
    cfg.buffer_depth = 4;
    return latency_throughput_sweep(mesh, TrafficPattern::kUniformRandom,
                                    {0.04}, 30000, cfg, 22)[0];
  };
  const SweepPoint one = run_with(1);
  const SweepPoint two = run_with(2);
  EXPECT_GE(two.delivery_ratio, one.delivery_ratio - 0.01);
  EXPECT_LT(two.p99_latency, one.p99_latency);
}

TEST(VirtualChannels, RejectZeroVcs) {
  Mesh2D mesh(2, 2);
  NocSim::Config cfg;
  cfg.virtual_channels = 0;
  EXPECT_THROW(NocSim(mesh, cfg, Rng(1)), std::invalid_argument);
}

// ---------- synthetic traffic patterns ----------

TEST(Patterns, TransposeAndComplementTargetsAreCorrect) {
  Mesh2D mesh(4, 4);
  NocSim sim(mesh, NocSim::Config{}, Rng(14));
  // Just exercising construction: flows must be legal for every tile.
  EXPECT_NO_THROW(add_pattern_flows(sim, mesh, TrafficPattern::kTranspose,
                                    0.01, 4));
  EXPECT_NO_THROW(add_pattern_flows(
      sim, mesh, TrafficPattern::kBitComplement, 0.01, 4));
  EXPECT_NO_THROW(add_pattern_flows(sim, mesh, TrafficPattern::kHotspot,
                                    0.01, 4));
  EXPECT_NO_THROW(add_pattern_flows(
      sim, mesh, TrafficPattern::kUniformRandom, 0.01, 4));
  sim.run(2000);
  EXPECT_GT(sim.stats().packets_delivered, 0u);
}

TEST(Patterns, AppGraphFlowsScaleWithVolume) {
  const AppGraph g = video_surveillance_graph();
  Mesh2D mesh(4, 4);
  Rng rng(40);
  const Mapping m = random_mapping(g.num_nodes(), mesh, rng);
  NocSim sim(mesh, NocSim::Config{}, Rng(41));
  add_appgraph_flows(sim, g, m, 0.2, 8);
  sim.run(20000);
  const auto s = sim.stats();
  // Aggregate Bernoulli rate 0.2/cycle over 20000 cycles ~ 4000 packets.
  EXPECT_NEAR(static_cast<double>(s.packets_injected), 4000.0, 400.0);
  EXPECT_GT(s.packets_delivered, s.packets_injected / 2);
  // Mapping-size mismatch is rejected.
  NocSim sim2(mesh, NocSim::Config{}, Rng(42));
  EXPECT_THROW(add_appgraph_flows(sim2, g, Mapping{0, 1}, 0.1, 8),
               std::invalid_argument);
}

TEST(Patterns, SweepShowsSaturationKnee) {
  Mesh2D mesh(4, 4);
  const std::vector<double> rates{0.002, 0.01, 0.05, 0.15};
  const auto curve = latency_throughput_sweep(
      mesh, TrafficPattern::kUniformRandom, rates, 20000, NocSim::Config{},
      7);
  ASSERT_EQ(curve.size(), rates.size());
  // Latency is non-decreasing in offered load; low load delivers ~all.
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_GE(curve[i].mean_latency, curve[i - 1].mean_latency * 0.95);
  }
  EXPECT_GT(curve.front().delivery_ratio, 0.95);
  EXPECT_LT(curve.back().delivery_ratio, curve.front().delivery_ratio);
  // Accepted throughput saturates: the last step gains little.
  EXPECT_LT(curve[3].accepted_flits_per_cycle,
            curve[2].accepted_flits_per_cycle * 3.0);
}

TEST(Patterns, HotspotSaturatesBeforeUniform) {
  Mesh2D mesh(4, 4);
  const std::vector<double> rates{0.03};
  const auto uni = latency_throughput_sweep(
      mesh, TrafficPattern::kUniformRandom, rates, 20000, NocSim::Config{},
      8);
  const auto hot = latency_throughput_sweep(
      mesh, TrafficPattern::kHotspot, rates, 20000, NocSim::Config{}, 8);
  EXPECT_LT(hot.front().delivery_ratio, uni.front().delivery_ratio);
}

// ---------- scheduling ----------

SchedProblem small_problem() {
  SchedProblem p;
  p.mesh = Mesh2D(2, 2);
  // Diamond DAG: 0 -> {1, 2} -> 3.
  p.tasks = {{"a", 4e6}, {"b", 6e6}, {"c", 5e6}, {"d", 3e6}};
  p.deps = {{0, 1, 1e5}, {0, 2, 1e5}, {1, 3, 1e5}, {2, 3, 1e5}};
  p.tile_of = {0, 1, 2, 3};
  p.deadline_s = 0.05;
  return p;
}

TEST(Scheduling, EdfMeetsDeadlineAndIsValid) {
  const SchedProblem p = small_problem();
  const ScheduleResult r = schedule_edf(p);
  EXPECT_TRUE(r.deadline_met);
  EXPECT_TRUE(schedule_is_valid(p, r));
  // At the top point every task runs at max frequency.
  for (const auto& pl : r.placement) {
    EXPECT_EQ(pl.dvs_level, p.points.size() - 1);
  }
}

TEST(Scheduling, EnergyAwareSavesEnergyWithSlack) {
  const SchedProblem p = small_problem();
  const ScheduleResult edf = schedule_edf(p);
  for (auto policy :
       {SlackPolicy::kProportional, SlackPolicy::kGreedyLongest}) {
    const ScheduleResult eas = schedule_energy_aware(p, policy);
    EXPECT_TRUE(eas.deadline_met);
    EXPECT_TRUE(schedule_is_valid(p, eas));
    EXPECT_LT(eas.compute_energy_j, edf.compute_energy_j);
    EXPECT_LT(eas.total_energy_j, edf.total_energy_j);
  }
}

TEST(Scheduling, NoSlackMeansNoSavings) {
  SchedProblem p = small_problem();
  // Shrink the deadline to just above the fastest makespan.
  const ScheduleResult fast = schedule_edf(p);
  p.deadline_s = fast.makespan_s * 1.001;
  const ScheduleResult eas = schedule_energy_aware(p);
  EXPECT_TRUE(eas.deadline_met);
  // Nearly everything must stay at (or near) the top level.
  EXPECT_GT(eas.compute_energy_j, 0.9 * fast.compute_energy_j);
}

TEST(Scheduling, InfeasibleDeadlineReported) {
  SchedProblem p = small_problem();
  p.deadline_s = 1e-6;
  const ScheduleResult r = schedule_energy_aware(p);
  EXPECT_FALSE(r.deadline_met);
}

TEST(Scheduling, SharedTileSerializes) {
  SchedProblem p = small_problem();
  p.tile_of = {0, 1, 1, 2};  // b and c share tile 1
  const ScheduleResult r = schedule_edf(p);
  EXPECT_TRUE(schedule_is_valid(p, r));
  // b and c cannot overlap: makespan grows vs the fully spread mapping.
  const ScheduleResult spread = schedule_edf(small_problem());
  EXPECT_GT(r.makespan_s, spread.makespan_s);
}

TEST(Scheduling, CommDelayPushesStart) {
  SchedProblem p = small_problem();
  p.deps[0].volume_bits = 1e9;  // 0->1 becomes a huge transfer
  const ScheduleResult r = schedule_edf(p);
  EXPECT_TRUE(schedule_is_valid(p, r));
  EXPECT_GT(r.placement[1].start,
            r.placement[0].finish + 0.4);  // ~1e9 / 2e9 bps
}

TEST(Scheduling, RejectsNonTopologicalOrder) {
  SchedProblem p = small_problem();
  p.deps.push_back({3, 0, 1e5});  // cycle
  EXPECT_THROW(schedule_edf(p), std::invalid_argument);
}

}  // namespace
