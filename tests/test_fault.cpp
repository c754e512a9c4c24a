// Cross-layer fault injection tests (holms::fault + consumers).
//
// The contract under test: every simulator driven by a (seed, FaultSchedule)
// pair is bitwise reproducible — same schedule, same numbers — and the
// fault-tolerant mechanisms (kFaultTolerant NoC routing, MANET route repair,
// FGS graceful degradation, robustness-aware explore()) degrade gracefully
// instead of wedging or silently lying.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/ambient.hpp"
#include "core/explorer.hpp"
#include "exec/rng_stream.hpp"
#include "fault/domain.hpp"
#include "fault/injector.hpp"
#include "fault/schedule.hpp"
#include "manet/routing.hpp"
#include "noc/mapping.hpp"
#include "noc/router.hpp"
#include "noc/taskgraph.hpp"
#include "serve/service.hpp"
#include "streaming/fgs.hpp"
#include "support/noc_pins.hpp"

namespace {

using holms::sim::Rng;
using holms::fault::FaultEvent;
using holms::fault::FaultKind;
using holms::fault::FaultSchedule;
using holms::fault::Target;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

// ---------- schedule ----------

TEST(FaultSchedule, FromTraceCanonicalisesOrder) {
  const std::vector<FaultEvent> forward = {
      {1.0, FaultKind::kFail, Target::kLink, 3},
      {2.0, FaultKind::kFail, Target::kLink, 1},
      {2.0, FaultKind::kRepair, Target::kLink, 1},
  };
  std::vector<FaultEvent> shuffled = {forward[2], forward[0], forward[1]};
  const auto a = FaultSchedule::from_trace(forward);
  const auto b = FaultSchedule::from_trace(shuffled);
  ASSERT_EQ(a.size(), 3u);
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  EXPECT_DOUBLE_EQ(a.events()[0].time, 1.0);
  // Same (time, target, id): kFail sorts before kRepair.
  EXPECT_EQ(a.events()[1].kind, FaultKind::kFail);
  EXPECT_EQ(a.events()[2].kind, FaultKind::kRepair);
}

TEST(FaultSchedule, NegativeTimeThrows) {
  EXPECT_THROW(
      FaultSchedule::from_trace({{-0.5, FaultKind::kFail, Target::kNode, 0}}),
      std::invalid_argument);
}

TEST(FaultSchedule, NonFiniteTimeThrows) {
  for (const double t : {kNaN, kInf}) {
    EXPECT_THROW(
        FaultSchedule::from_trace({{t, FaultKind::kFail, Target::kNode, 0}}),
        std::invalid_argument);
  }
}

TEST(FaultSchedule, PoissonIsSeedDeterministic) {
  FaultSchedule::PoissonSpec spec;
  spec.target = Target::kLink;
  spec.num_targets = 16;
  spec.fail_rate = 1.0 / 50.0;
  spec.repair_rate = 1.0 / 10.0;
  spec.horizon = 1000.0;
  const auto a = FaultSchedule::poisson(42, spec);
  const auto b = FaultSchedule::poisson(42, spec);
  const auto c = FaultSchedule::poisson(43, spec);
  ASSERT_GT(a.size(), 0u);
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  EXPECT_NE(a.fingerprint(), c.fingerprint());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.events()[i].time, b.events()[i].time);
    EXPECT_EQ(a.events()[i].id, b.events()[i].id);
    EXPECT_EQ(a.events()[i].kind, b.events()[i].kind);
  }
}

TEST(FaultSchedule, PoissonTargetStreamsAreIndependent) {
  // Counter-based per-target streams: widening the target set never perturbs
  // the events of the targets already present.
  FaultSchedule::PoissonSpec narrow;
  narrow.target = Target::kTile;
  narrow.num_targets = 4;
  narrow.fail_rate = 0.01;
  narrow.repair_rate = 0.05;
  narrow.horizon = 2000.0;
  FaultSchedule::PoissonSpec wide = narrow;
  wide.num_targets = 9;
  const auto a = FaultSchedule::poisson(7, narrow);
  const auto b = FaultSchedule::poisson(7, wide);
  std::vector<FaultEvent> b_low;
  for (const auto& e : b.events()) {
    if (e.id < narrow.num_targets) b_low.push_back(e);
  }
  ASSERT_EQ(a.size(), b_low.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.events()[i].time, b_low[i].time);
    EXPECT_EQ(a.events()[i].id, b_low[i].id);
    EXPECT_EQ(a.events()[i].kind, b_low[i].kind);
  }
}

TEST(FaultSchedule, PoissonValidatesSpec) {
  FaultSchedule::PoissonSpec spec;
  spec.num_targets = 2;
  spec.horizon = 10.0;
  spec.fail_rate = 0.0;  // must be > 0
  EXPECT_THROW(FaultSchedule::poisson(1, spec), std::invalid_argument);
  spec.fail_rate = 0.1;
  spec.repair_rate = -1.0;
  EXPECT_THROW(FaultSchedule::poisson(1, spec), std::invalid_argument);
  spec.repair_rate = 0.0;
  spec.horizon = -5.0;
  EXPECT_THROW(FaultSchedule::poisson(1, spec), std::invalid_argument);
  // NaN and +inf pass no range check: with either the arrival loop would
  // never reach its horizon.
  spec.horizon = 10.0;
  for (const double bad : {kNaN, kInf}) {
    for (double FaultSchedule::PoissonSpec::*field :
         {&FaultSchedule::PoissonSpec::fail_rate,
          &FaultSchedule::PoissonSpec::repair_rate,
          &FaultSchedule::PoissonSpec::horizon}) {
      FaultSchedule::PoissonSpec s = spec;
      s.*field = bad;
      EXPECT_THROW(FaultSchedule::poisson(1, s), std::invalid_argument);
    }
  }
  EXPECT_NO_THROW(FaultSchedule::poisson(1, spec));
}

TEST(FaultSchedule, MergeIsCanonical) {
  const auto a = FaultSchedule::from_trace(
      {{5.0, FaultKind::kFail, Target::kLink, 0}});
  const auto b = FaultSchedule::from_trace(
      {{1.0, FaultKind::kFail, Target::kNode, 2}});
  const auto m = FaultSchedule::merge(a, b);
  ASSERT_EQ(m.size(), 2u);
  EXPECT_DOUBLE_EQ(m.events()[0].time, 1.0);
  EXPECT_EQ(FaultSchedule::merge(a, b).fingerprint(),
            FaultSchedule::merge(b, a).fingerprint());
}

TEST(FaultInjector, PollAppliesEventsUpToNow) {
  const auto s = FaultSchedule::from_trace({
      {1.0, FaultKind::kFail, Target::kNode, 0},
      {2.0, FaultKind::kFail, Target::kNode, 1},
      {3.0, FaultKind::kRepair, Target::kNode, 0},
  });
  holms::fault::FaultInjector inj(&s);
  EXPECT_TRUE(inj.armed());
  std::size_t applied = 0;
  EXPECT_EQ(inj.poll(0.5, [&](const FaultEvent&) { ++applied; }), 0u);
  EXPECT_EQ(inj.poll(2.0, [&](const FaultEvent&) { ++applied; }), 2u);
  EXPECT_FALSE(inj.exhausted());
  EXPECT_EQ(inj.poll(100.0, [&](const FaultEvent&) { ++applied; }), 1u);
  EXPECT_EQ(applied, 3u);
  EXPECT_TRUE(inj.exhausted());
}

// ---------- NoC ----------

holms::noc::NocSim::Config noc_cfg(holms::noc::RoutingAlgo algo) {
  holms::noc::NocSim::Config cfg;
  cfg.virtual_channels = 2;
  cfg.routing = algo;
  return cfg;
}

holms::noc::NocStats run_noc(const holms::noc::Mesh2D& mesh,
                             holms::noc::RoutingAlgo algo,
                             const FaultSchedule* schedule,
                             std::uint64_t cycles = 8000) {
  holms::noc::NocSim sim(mesh, noc_cfg(algo), Rng(99));
  add_pattern_flows(sim, mesh, holms::noc::TrafficPattern::kUniformRandom,
                    0.02, 4);
  if (schedule != nullptr) sim.attach_fault_schedule(schedule);
  sim.run(cycles);
  return sim.stats();
}

TEST(NocFault, SameScheduleSameSeedBitwiseIdentical) {
  const holms::noc::Mesh2D mesh(6, 6);
  FaultSchedule::PoissonSpec spec;
  spec.target = Target::kLink;
  spec.num_targets = mesh.num_undirected_links();
  spec.fail_rate = 1.0 / 4000.0;   // per-link, per-cycle
  spec.repair_rate = 1.0 / 1500.0;
  spec.horizon = 8000.0;
  const auto sched = FaultSchedule::poisson(21, spec);
  ASSERT_FALSE(sched.empty());
  const auto a =
      run_noc(mesh, holms::noc::RoutingAlgo::kFaultTolerant, &sched);
  const auto b =
      run_noc(mesh, holms::noc::RoutingAlgo::kFaultTolerant, &sched);
  EXPECT_GT(a.faults_applied, 0u);
  EXPECT_EQ(a.packets_injected, b.packets_injected);
  EXPECT_EQ(a.packets_delivered, b.packets_delivered);
  EXPECT_EQ(a.packets_dropped, b.packets_dropped);
  EXPECT_EQ(a.flit_hops, b.flit_hops);
  EXPECT_EQ(a.reroute_hops, b.reroute_hops);
  EXPECT_EQ(a.faults_applied, b.faults_applied);
  EXPECT_DOUBLE_EQ(a.mean_packet_latency, b.mean_packet_latency);
  EXPECT_DOUBLE_EQ(a.energy_joules, b.energy_joules);
  EXPECT_DOUBLE_EQ(a.delivery_ratio, b.delivery_ratio);
}

using holms::test_support::expect_pinned;
using holms::test_support::PinnedNocStats;

// 8000-cycle kFaultTolerant replay of 0.02 packets/cycle/tile uniform traffic
// (4-flit packets) under `sched`.
holms::noc::NocStats run_ft_replay(const holms::noc::Mesh2D& mesh,
                                   const FaultSchedule& sched) {
  holms::noc::NocSim sim(mesh, noc_cfg(holms::noc::RoutingAlgo::kFaultTolerant),
                         Rng(99));
  add_pattern_flows(sim, mesh, holms::noc::TrafficPattern::kUniformRandom,
                    0.02, 4);
  sim.attach_fault_schedule(&sched);
  sim.run(8000);
  return sim.stats();
}

TEST(NocFault, FtRoutingMatchesPinnedAllDestinationTables) {
  // The 8x8 stats come from the eager router, which rebuilt the admit table
  // of every destination on each fault/repair event; the 7x5 stats from the
  // router that derived every move's legality from mesh coordinates.  The
  // lazy per-destination tables over precomputed turn and live masks must
  // route bit for bit the same under a schedule crossing several fault
  // epochs.  7x5 has an odd width, so its last column (x = 6) is even and
  // bans EN/ES turns, unlike 8x8's; its router 27 sits on the east edge.
  struct Case {
    std::size_t width, height, link_step;
    PinnedNocStats pinned;
  };
  const Case cases[] = {
      {8, 8, 20,
       {10316, 9884, 213528, 0x1.a9ca559337d7ap+6, 0x1.938a3d70a3d7p+10,
        0x1.08116872b020fp-1, 0x1.ab0e560418937p+4, 0x1.6490f8b7a5d3dp-16,
        0x1.6646fad6cf9c4p+4, 299, 0x1.ea8f233d0c02cp-1, 205, 13}},
      {7, 5, 10,
       {5605, 5252, 85103, 0x1.ff93984630bf2p+6, 0x1.c8deb851eb85p+10,
        0x1.20adab9f559cep-1, 0x1.546978d4fdf3bp+3, 0x1.28387700298dep-17,
        0x1.180f6fde94b52p+4, 242, 0x1.dfc1273bc95fep-1, 118, 13}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(std::to_string(c.width) + "x" + std::to_string(c.height));
    const holms::noc::Mesh2D mesh(c.width, c.height);
    std::vector<FaultEvent> trace;
    for (std::size_t i = 0; i < mesh.num_undirected_links();
         i += c.link_step) {
      trace.push_back({2000.0, FaultKind::kFail, Target::kLink, i});
      trace.push_back({5000.0, FaultKind::kRepair, Target::kLink, i});
    }
    trace.push_back({3000.0, FaultKind::kFail, Target::kNode, 27});
    const auto sched = FaultSchedule::from_trace(trace);
    const auto s = run_ft_replay(mesh, sched);
    EXPECT_GT(s.faults_applied, 0u);
    expect_pinned(s, c.pinned);
  }
}

TEST(NocFault, FaultTolerantSustainsDeliveryWhereXyBlackholes) {
  // Acceptance scenario: 8x8 mesh, ~5% of links fail mid-run and stay dead.
  const holms::noc::Mesh2D mesh(8, 8);
  std::vector<FaultEvent> trace;
  const std::size_t num_links = mesh.num_undirected_links();  // 112
  for (std::size_t i = 0; i < num_links; i += 20) {           // 6 links ~ 5.4%
    trace.push_back({2000.0, FaultKind::kFail, Target::kLink, i});
  }
  const auto sched = FaultSchedule::from_trace(trace);

  const auto ft = run_noc(mesh, holms::noc::RoutingAlgo::kFaultTolerant,
                          &sched, 12000);
  const auto xy = run_noc(mesh, holms::noc::RoutingAlgo::kXY, &sched, 12000);

  EXPECT_GE(ft.delivery_ratio, 0.95);
  EXPECT_GT(ft.reroute_hops, 0u);  // detours actually taken
  // XY keeps steering worms into the dead links: deliveries collapse and the
  // stall-drop valve converts the blackholed heads into counted drops.
  EXPECT_LT(xy.delivery_ratio, 0.6);
  EXPECT_GT(xy.packets_dropped, 100u);
  EXPECT_GT(ft.delivery_ratio, xy.delivery_ratio + 0.3);
}

TEST(NocFault, FaultTolerantWithoutFaultsBehavesLikeBaseline) {
  const holms::noc::Mesh2D mesh(4, 4);
  const auto ft =
      run_noc(mesh, holms::noc::RoutingAlgo::kFaultTolerant, nullptr, 4000);
  const auto xy = run_noc(mesh, holms::noc::RoutingAlgo::kXY, nullptr, 4000);
  EXPECT_EQ(ft.packets_dropped, 0u);
  EXPECT_EQ(xy.packets_dropped, 0u);
  EXPECT_GE(ft.delivery_ratio, 0.95);
  EXPECT_GE(xy.delivery_ratio, 0.95);
  EXPECT_EQ(ft.faults_applied, 0u);
}

TEST(NocFault, ManualLinkControlTogglesAndRepairs) {
  const holms::noc::Mesh2D mesh(3, 3);
  holms::noc::NocSim sim(mesh, noc_cfg(holms::noc::RoutingAlgo::kFaultTolerant),
                         Rng(5));
  EXPECT_TRUE(sim.link_up(0, holms::noc::Dir::kEast));
  sim.set_link_up(0, holms::noc::Dir::kEast, false);
  EXPECT_FALSE(sim.link_up(0, holms::noc::Dir::kEast));
  // The reverse directed channel dies with it.
  EXPECT_FALSE(sim.link_up(1, holms::noc::Dir::kWest));
  sim.set_link_up(0, holms::noc::Dir::kEast, true);
  EXPECT_TRUE(sim.link_up(0, holms::noc::Dir::kEast));
  sim.set_router_up(4, false);
  EXPECT_FALSE(sim.router_up(4));
  sim.set_router_up(4, true);
  EXPECT_TRUE(sim.router_up(4));
}

TEST(NocFault, DeadRouterTrafficIsDroppedNotWedged) {
  const holms::noc::Mesh2D mesh(4, 4);
  holms::noc::NocSim sim(mesh, noc_cfg(holms::noc::RoutingAlgo::kFaultTolerant),
                         Rng(11));
  holms::noc::Flow f;
  f.src = 0;
  f.dst = 15;
  f.packets_per_cycle = 0.05;
  f.packet_flits = 4;
  sim.add_flow(f);
  sim.set_router_up(15, false);  // destination gone: nothing is deliverable
  sim.run(4000);
  const auto st = sim.stats();
  EXPECT_GT(st.packets_injected, 0u);
  EXPECT_EQ(st.packets_delivered, 0u);
  EXPECT_GT(st.packets_dropped, 0u);
  EXPECT_DOUBLE_EQ(st.delivery_ratio, 0.0);
}

// ---------- MANET ----------

holms::manet::LifetimeConfig manet_cfg() {
  holms::manet::LifetimeConfig cfg;
  cfg.max_time_s = 800.0;
  cfg.num_flows = 4;
  return cfg;
}

TEST(ManetFault, SameScheduleSameSeedIdenticalCounts) {
  holms::manet::Manet::Params p;
  p.num_nodes = 30;
  FaultSchedule::PoissonSpec spec;
  spec.target = Target::kNode;
  spec.num_targets = p.num_nodes;
  spec.fail_rate = 1.0 / 300.0;
  spec.repair_rate = 1.0 / 80.0;
  spec.horizon = 800.0;
  const auto sched = FaultSchedule::poisson(13, spec);
  ASSERT_FALSE(sched.empty());
  const auto a = holms::manet::simulate_lifetime(
      holms::manet::Protocol::kBatteryCost, p, manet_cfg(), 17, &sched);
  const auto b = holms::manet::simulate_lifetime(
      holms::manet::Protocol::kBatteryCost, p, manet_cfg(), 17, &sched);
  EXPECT_GT(a.faults_applied, 0u);
  EXPECT_EQ(a.packets_sent, b.packets_sent);
  EXPECT_EQ(a.packets_delivered, b.packets_delivered);
  EXPECT_EQ(a.route_repairs, b.route_repairs);
  EXPECT_EQ(a.repair_failures, b.repair_failures);
  EXPECT_EQ(a.packets_blackholed, b.packets_blackholed);
  EXPECT_EQ(a.faults_applied, b.faults_applied);
  EXPECT_EQ(a.repairs_applied, b.repairs_applied);
  EXPECT_DOUBLE_EQ(a.lifetime_s, b.lifetime_s);
  EXPECT_DOUBLE_EQ(a.delivery_ratio, b.delivery_ratio);
}

TEST(ManetFault, CrashScheduleTriggersRouteRepair) {
  holms::manet::Manet::Params p;
  p.num_nodes = 30;
  FaultSchedule::PoissonSpec spec;
  spec.target = Target::kNode;
  spec.num_targets = p.num_nodes;
  spec.fail_rate = 1.0 / 150.0;  // aggressive crashes
  spec.repair_rate = 1.0 / 60.0;
  spec.horizon = 800.0;
  const auto sched = FaultSchedule::poisson(29, spec);
  const auto faulty = holms::manet::simulate_lifetime(
      holms::manet::Protocol::kBatteryCost, p, manet_cfg(), 17, &sched);
  const auto clean = holms::manet::simulate_lifetime(
      holms::manet::Protocol::kBatteryCost, p, manet_cfg(), 17);
  EXPECT_GT(faulty.faults_applied, 0u);
  EXPECT_GT(faulty.repairs_applied, 0u);
  EXPECT_GT(faulty.route_repairs, 0u);  // on-demand repair actually ran
  EXPECT_LE(faulty.packets_delivered, faulty.packets_sent);
  // Crashes cost deliveries, but repair keeps the session alive.
  EXPECT_LT(faulty.delivery_ratio, clean.delivery_ratio + 1e-9);
  EXPECT_GT(faulty.delivery_ratio, 0.0);
  EXPECT_EQ(clean.faults_applied, 0u);
}

// ---------- FGS streaming ----------

TEST(FgsFault, SlotLossTraceFollowsSchedule) {
  const auto sched = FaultSchedule::from_trace({
      {10.0, FaultKind::kFail, Target::kLink, 0},
      {20.0, FaultKind::kRepair, Target::kLink, 0},
  });
  holms::streaming::SlotLossTrace trace(&sched, 1.0, 0.01, 0.3);
  for (std::size_t s = 0; s < 30; ++s) {
    const double l = trace.loss_for_slot(s);
    if (s >= 10 && s < 20) {
      EXPECT_DOUBLE_EQ(l, 0.3) << "slot " << s;
    } else {
      EXPECT_DOUBLE_EQ(l, 0.01) << "slot " << s;
    }
  }
}

TEST(FgsFault, GracefulDegradationKeepsBaseIntactUnder30PctLoss) {
  // Permanent 30% loss from t=0.  The channel's worst state still carries
  // base/(1-loss) (~366 kbps), so shedding enhancement + FEC margin must keep
  // every slot's base layer decodable: zero misses, PSNR never below base.
  const auto sched = FaultSchedule::from_trace(
      {{0.0, FaultKind::kFail, Target::kLink, 0}});
  holms::streaming::FgsConfig cfg;
  holms::dvfs::Processor cpu(holms::dvfs::xscale_points(),
                             holms::dvfs::PowerModel{});
  holms::streaming::ChannelTrace ch(Rng(31), 3.0e6, 1.2e6, 0.6e6);
  holms::streaming::SlotLossTrace loss(&sched, cfg.slot_s, 0.0, 0.3);
  const auto r = holms::streaming::run_fgs_session(
      holms::streaming::FgsPolicy::kGracefulDegradation, cfg, cpu, ch, 400,
      &loss);
  EXPECT_EQ(r.base_layer_misses, 0u);
  EXPECT_GE(r.min_psnr_db, cfg.psnr_base_db - 1e-9);
  EXPECT_NEAR(r.mean_loss, 0.3, 1e-9);
  EXPECT_GT(r.mean_enhancement_shed, 0.3);  // ladder actually engaged
}

TEST(FgsFault, GracefulRecoversWhenChannelHeals) {
  // Fault covers the first half of the session; after the repair the shed
  // fraction must decay back toward zero (EWMA-driven recovery).
  holms::streaming::FgsConfig cfg;
  const double half_t = 200 * cfg.slot_s;
  const auto sched = FaultSchedule::from_trace({
      {0.0, FaultKind::kFail, Target::kLink, 0},
      {half_t, FaultKind::kRepair, Target::kLink, 0},
  });
  holms::dvfs::Processor cpu(holms::dvfs::xscale_points(),
                             holms::dvfs::PowerModel{});
  holms::streaming::ChannelTrace ch(Rng(31), 3.0e6, 1.2e6, 0.6e6);
  holms::streaming::SlotLossTrace loss(&sched, cfg.slot_s, 0.0, 0.3);
  const auto r = holms::streaming::run_fgs_session(
      holms::streaming::FgsPolicy::kGracefulDegradation, cfg, cpu, ch, 400,
      &loss);
  EXPECT_NEAR(r.mean_loss, 0.15, 1e-9);
  // Mean shed over the whole session sits well below the sustained-loss shed
  // level (~0.6): the second half ran essentially unshed.
  EXPECT_LT(r.mean_enhancement_shed, 0.45);
  EXPECT_GT(r.mean_enhancement_shed, 0.1);
  EXPECT_EQ(r.base_layer_misses, 0u);
}

TEST(FgsFault, GracefulSessionIsDeterministic) {
  const auto sched = FaultSchedule::from_trace(
      {{0.0, FaultKind::kFail, Target::kLink, 0}});
  holms::streaming::FgsConfig cfg;
  auto run = [&] {
    holms::dvfs::Processor cpu(holms::dvfs::xscale_points(),
                               holms::dvfs::PowerModel{});
    holms::streaming::ChannelTrace ch(Rng(31), 3.0e6, 1.2e6, 0.6e6);
    holms::streaming::SlotLossTrace loss(&sched, cfg.slot_s, 0.0, 0.3);
    return holms::streaming::run_fgs_session(
        holms::streaming::FgsPolicy::kGracefulDegradation, cfg, cpu, ch, 200,
        &loss);
  };
  const auto a = run();
  const auto b = run();
  EXPECT_DOUBLE_EQ(a.mean_psnr_db, b.mean_psnr_db);
  EXPECT_DOUBLE_EQ(a.min_psnr_db, b.min_psnr_db);
  EXPECT_DOUBLE_EQ(a.client_total_energy_j, b.client_total_energy_j);
  EXPECT_DOUBLE_EQ(a.mean_enhancement_shed, b.mean_enhancement_shed);
  EXPECT_EQ(a.base_layer_misses, b.base_layer_misses);
}

// ---------- robustness-aware explore() ----------

holms::core::Application fault_app() {
  holms::core::Application app;
  app.name = "pipe";
  const auto a = app.graph.add_node("a", 4e6);
  const auto b = app.graph.add_node("b", 6e6);
  const auto c = app.graph.add_node("c", 5e6);
  app.graph.add_edge(a, b, 1e5);
  app.graph.add_edge(b, c, 1e5);
  return app;
}

holms::core::FaultScenario fault_scenario() {
  holms::core::FaultScenario fs;
  fs.ambient.duration_s = 300.0;
  fs.ambient.tile_mtbf_s = 400.0;
  fs.ambient.tile_mttr_s = 120.0;
  fs.ambient.seed = 23;
  fs.replicas = 2;
  return fs;
}

TEST(ExploreFault, AvailabilityScoredAndThreadInvariant) {
  const auto app = fault_app();
  const auto plat = holms::core::Platform::homogeneous(3, 3);
  const auto fs = fault_scenario();
  auto run = [&](std::size_t threads) {
    holms::core::ExploreOptions opts;
    opts.restarts = 2;
    opts.threads = threads;
    opts.faults = &fs;
    Rng rng(9);
    return holms::core::explore(app, plat, rng, opts);
  };
  const auto serial = run(1);
  const auto parallel = run(4);
  ASSERT_TRUE(serial.found_feasible);
  EXPECT_GT(serial.best.availability, 0.0);
  EXPECT_LE(serial.best.availability, 1.0);
  EXPECT_DOUBLE_EQ(serial.best.eval.total_energy_j,
                   parallel.best.eval.total_energy_j);
  EXPECT_DOUBLE_EQ(serial.best.availability, parallel.best.availability);
  EXPECT_EQ(serial.evaluated, parallel.evaluated);
  ASSERT_EQ(serial.pareto.size(), parallel.pareto.size());
  for (std::size_t i = 0; i < serial.pareto.size(); ++i) {
    EXPECT_DOUBLE_EQ(serial.pareto[i].availability,
                     parallel.pareto[i].availability);
    EXPECT_DOUBLE_EQ(serial.pareto[i].eval.total_energy_j,
                     parallel.pareto[i].eval.total_energy_j);
  }
}

TEST(ExploreFault, NoScenarioMeansFullAvailability) {
  const auto app = fault_app();
  const auto plat = holms::core::Platform::homogeneous(3, 3);
  Rng rng(9);
  const auto res = holms::core::explore(app, plat, rng);
  ASSERT_TRUE(res.found_feasible);
  EXPECT_DOUBLE_EQ(res.best.availability, 1.0);
}

TEST(ExploreFault, UnreachableAvailabilityFloorRejectsEverything) {
  const auto app = fault_app();
  const auto plat = holms::core::Platform::homogeneous(3, 3);
  auto fs = fault_scenario();
  fs.min_availability = 1.5;  // no candidate can clear > 1.0
  holms::core::ExploreOptions opts;
  opts.faults = &fs;
  Rng rng(9);
  const auto res = holms::core::explore(app, plat, rng, opts);
  EXPECT_FALSE(res.found_feasible);
  EXPECT_TRUE(res.pareto.empty());
}

// ---------- failure-domain trees ----------

using holms::fault::FailureDomainTree;

// rack -> 2 enclosures -> 9 tiles (enc0 owns tiles 0..4, enc1 owns 5..8).
struct TileTree {
  FailureDomainTree tree{"rack"};
  std::size_t enc0 = 0;
  std::size_t enc1 = 0;
  TileTree() {
    enc0 = tree.add_domain(FailureDomainTree::kRoot, "enc0");
    enc1 = tree.add_domain(FailureDomainTree::kRoot, "enc1");
    for (std::size_t t = 0; t < 9; ++t) {
      tree.map_target(Target::kTile, t, t < 5 ? enc0 : enc1);
    }
  }
};

TEST(DomainTree, StructureQueriesAreCanonical) {
  TileTree tt;
  EXPECT_EQ(tt.tree.num_domains(), 3u);
  EXPECT_EQ(tt.tree.num_targets(), 9u);
  EXPECT_EQ(tt.tree.parent(tt.enc0), FailureDomainTree::kRoot);
  EXPECT_TRUE(tt.tree.is_ancestor(FailureDomainTree::kRoot, tt.enc1));
  EXPECT_TRUE(tt.tree.is_ancestor(tt.enc0, tt.enc0));
  EXPECT_FALSE(tt.tree.is_ancestor(tt.enc0, tt.enc1));
  EXPECT_EQ(tt.tree.subtree_targets(tt.enc0), 5u);
  EXPECT_EQ(tt.tree.subtree_targets(tt.enc1), 4u);
  EXPECT_EQ(tt.tree.subtree_targets(FailureDomainTree::kRoot), 9u);
  const auto under = tt.tree.targets_under(tt.enc1);
  ASSERT_EQ(under.size(), 4u);
  for (std::size_t i = 0; i < under.size(); ++i) {
    EXPECT_EQ(under[i].target, Target::kTile);
    EXPECT_EQ(under[i].id, 5 + i);  // canonical (target, id) order
  }
  // Fingerprint is a pure function of structure + mapping.
  EXPECT_EQ(tt.tree.fingerprint(), TileTree().tree.fingerprint());
}

TEST(DomainTree, TargetsUnderMatchesAncestorWalk) {
  // Random trees whose domains attach to any earlier domain, so subtrees
  // interleave in id order: targets_under and subtree_targets must agree
  // with filtering every target through is_ancestor, in canonical order.
  Rng rng(17);
  for (int trial = 0; trial < 20; ++trial) {
    FailureDomainTree tree;
    const auto domains = static_cast<std::size_t>(rng.uniform_int(1, 40));
    for (std::size_t d = 1; d < domains; ++d) {
      tree.add_domain(static_cast<std::size_t>(rng.uniform_int(
                          0, static_cast<std::int64_t>(d) - 1)),
                      "d" + std::to_string(d));
    }
    std::vector<std::pair<holms::fault::TargetRef, std::size_t>> mapped;
    for (std::size_t id = 0; id < 120; ++id) {
      const Target target = rng.bernoulli(0.5) ? Target::kTile : Target::kLink;
      const auto domain = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(domains) - 1));
      tree.map_target(target, 119 - id, domain);
      mapped.push_back({{target, 119 - id}, domain});
    }
    for (std::size_t d = 0; d < domains; ++d) {
      std::vector<holms::fault::TargetRef> want;
      for (const auto& [ref, domain] : mapped) {
        if (tree.is_ancestor(d, domain)) want.push_back(ref);
      }
      std::sort(want.begin(), want.end(),
                [](const holms::fault::TargetRef& a,
                   const holms::fault::TargetRef& b) {
                  return std::tie(a.target, a.id) < std::tie(b.target, b.id);
                });
      const auto got = tree.targets_under(d);
      ASSERT_EQ(got.size(), want.size()) << "trial " << trial << " d " << d;
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].target, want[i].target);
        EXPECT_EQ(got[i].id, want[i].id);
      }
      EXPECT_EQ(tree.subtree_targets(d), want.size());
    }
  }
}

TEST(DomainTree, RejectsBadParentsAndDuplicateTargets) {
  FailureDomainTree tree;
  EXPECT_THROW(tree.add_domain(99, "orphan"), std::invalid_argument);
  const auto d = tree.add_domain(FailureDomainTree::kRoot, "d");
  tree.map_target(Target::kNode, 3, d);
  EXPECT_THROW(tree.map_target(Target::kNode, 3, FailureDomainTree::kRoot),
               std::invalid_argument);
  EXPECT_THROW(tree.map_target(Target::kLink, 0, 42), std::invalid_argument);
  EXPECT_THROW(tree.targets_under(42), std::invalid_argument);
  // A duplicate of any mapped target throws, not only of the last one, and
  // a rejected mapping leaves the tree as it was.
  tree.map_target(Target::kNode, 9, d);
  tree.map_target(Target::kLink, 1, d);
  const std::uint64_t before = tree.fingerprint();
  EXPECT_THROW(tree.map_target(Target::kNode, 3, d), std::invalid_argument);
  EXPECT_THROW(tree.map_target(Target::kNode, 9, d), std::invalid_argument);
  EXPECT_THROW(tree.map_target(Target::kLink, 1, d), std::invalid_argument);
  EXPECT_EQ(tree.fingerprint(), before);
  tree.map_target(Target::kNode, 5, d);  // between two mapped ids
  EXPECT_EQ(tree.num_targets(), 4u);
  EXPECT_EQ(tree.subtree_targets(FailureDomainTree::kRoot), 4u);
}

// ---------- correlated domain bursts ----------

FaultSchedule::BurstSpec tile_burst_spec(const TileTree& tt) {
  FaultSchedule::BurstSpec spec;
  spec.domains = {tt.enc0, tt.enc1};
  spec.burst_rate = 1.0 / 40.0;
  spec.onset_jitter = 0.5;
  spec.repair_time = 2.0;
  spec.repair_stagger = 1.0;
  spec.horizon = 200.0;
  return spec;
}

TEST(DomainBurst, SameSeedSameFingerprint) {
  TileTree tt;
  const auto spec = tile_burst_spec(tt);
  const auto a = FaultSchedule::bursts(5, tt.tree, spec);
  const auto b = FaultSchedule::bursts(5, tt.tree, spec);
  const auto c = FaultSchedule::bursts(6, tt.tree, spec);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  EXPECT_NE(a.fingerprint(), c.fingerprint());
}

TEST(DomainBurst, BurstFailsEveryTargetInSubtree) {
  // One eligible domain, rate high enough that at least one burst lands:
  // every target under the domain must fail, none outside it.
  TileTree tt;
  FaultSchedule::BurstSpec spec;
  spec.domains = {tt.enc0};
  spec.burst_rate = 1.0;  // ~200 bursts over the horizon
  spec.horizon = 200.0;
  spec.repair_time = 0.05;
  FaultSchedule::BurstStats stats;
  const auto sched = FaultSchedule::bursts(11, tt.tree, spec, &stats);
  EXPECT_GT(stats.bursts, 0u);
  EXPECT_EQ(stats.targets_failed, stats.bursts * 5);  // enc0 owns 5 tiles
  std::vector<std::size_t> fails(9, 0);
  for (const auto& e : sched.events()) {
    EXPECT_EQ(e.target, Target::kTile);
    if (e.kind == FaultKind::kFail) ++fails[e.id];
  }
  for (std::size_t t = 0; t < 5; ++t) EXPECT_EQ(fails[t], stats.bursts);
  for (std::size_t t = 5; t < 9; ++t) EXPECT_EQ(fails[t], 0u);
}

TEST(DomainBurst, CrewCountShapesTheTrace) {
  // The repair legs depend on the crew pool, so crews=1 and unlimited crews
  // must yield different traces; the fail legs are identical.
  TileTree tt;
  auto spec = tile_burst_spec(tt);
  FaultSchedule::BurstStats unlimited_stats;
  const auto unlimited =
      FaultSchedule::bursts(5, tt.tree, spec, &unlimited_stats);
  spec.crews = 1;
  FaultSchedule::BurstStats one_stats;
  const auto one = FaultSchedule::bursts(5, tt.tree, spec, &one_stats);
  ASSERT_FALSE(unlimited.empty());
  EXPECT_NE(unlimited.fingerprint(), one.fingerprint());
  EXPECT_EQ(one_stats.bursts, unlimited_stats.bursts);
  EXPECT_EQ(one_stats.targets_failed, unlimited_stats.targets_failed);

  auto fails_only = [](const FaultSchedule& s) {
    std::vector<FaultEvent> f;
    for (const auto& e : s.events()) {
      if (e.kind == FaultKind::kFail) f.push_back(e);
    }
    return FaultSchedule::from_trace(std::move(f)).fingerprint();
  };
  EXPECT_EQ(fails_only(unlimited), fails_only(one));

  // One crew serialises every repair: the last repair lands strictly later
  // and the queue visibly saturates (a whole enclosure fails at once).
  EXPECT_GT(one_stats.last_repair_time, unlimited_stats.last_repair_time);
  EXPECT_GE(one_stats.crew_queue_max_depth, 2u);
  EXPECT_LE(unlimited_stats.crew_queue_max_depth, 1u);
}

TEST(DomainBurst, CrewSaturationDelaysAvailability) {
  // Replaying the crews=1 trace through the ambient scenario must cost
  // availability relative to the unlimited-crew trace of the same bursts.
  TileTree tt;
  auto spec = tile_burst_spec(tt);
  spec.horizon = 300.0;
  const auto unlimited = FaultSchedule::bursts(5, tt.tree, spec);
  spec.crews = 1;
  const auto one = FaultSchedule::bursts(5, tt.tree, spec);

  const auto app = fault_app();
  const auto plat = holms::core::Platform::homogeneous(3, 3);
  holms::core::AmbientConfig cfg;
  cfg.duration_s = 300.0;
  cfg.activity_low = 1.0;  // pin activity: availability is fault-driven only
  cfg.seed = 23;
  auto run = [&](const FaultSchedule* s) {
    holms::core::AmbientOptions opts;
    opts.schedule = s;
    return holms::core::run_ambient_scenario(
        app, plat, holms::core::FaultPolicy::kStatic, cfg, opts);
  };
  const auto res_unlimited = run(&unlimited);
  const auto res_one = run(&one);
  EXPECT_GT(res_one.failures_injected, 0u);
  EXPECT_LT(res_one.availability, res_unlimited.availability);
  EXPECT_EQ(res_one.period_ok.size(), res_one.periods);
}

TEST(DomainBurst, ValidatesSpec) {
  TileTree tt;
  FaultSchedule::BurstSpec spec;  // empty domains
  spec.burst_rate = 1.0;
  spec.horizon = 10.0;
  EXPECT_THROW(FaultSchedule::bursts(1, tt.tree, spec),
               std::invalid_argument);
  spec.domains = {tt.enc0, tt.enc0};  // duplicate
  EXPECT_THROW(FaultSchedule::bursts(1, tt.tree, spec),
               std::invalid_argument);
  spec.domains = {99};  // out of range
  EXPECT_THROW(FaultSchedule::bursts(1, tt.tree, spec),
               std::invalid_argument);
  spec.domains = {tt.enc0};
  spec.burst_rate = 0.0;  // must be > 0
  EXPECT_THROW(FaultSchedule::bursts(1, tt.tree, spec),
               std::invalid_argument);
  spec.burst_rate = 1.0;
  for (const double bad : {-1.0, kNaN, kInf}) {
    for (double FaultSchedule::BurstSpec::*field :
         {&FaultSchedule::BurstSpec::burst_rate,
          &FaultSchedule::BurstSpec::onset_jitter,
          &FaultSchedule::BurstSpec::repair_time,
          &FaultSchedule::BurstSpec::repair_stagger,
          &FaultSchedule::BurstSpec::horizon}) {
      FaultSchedule::BurstSpec s = spec;
      s.*field = bad;
      EXPECT_THROW(FaultSchedule::bursts(1, tt.tree, s),
                   std::invalid_argument);
    }
  }
  EXPECT_NO_THROW(FaultSchedule::bursts(1, tt.tree, spec));
}

// ---------- transient soft faults + scrubbing ----------

FaultSchedule::SoftSpec soft_spec() {
  FaultSchedule::SoftSpec spec;
  spec.target = Target::kLink;
  spec.num_targets = 4;
  spec.soft_rate = 1.0 / 30.0;
  spec.scrub_interval = 10.0;
  spec.horizon = 400.0;
  return spec;
}

TEST(SoftFault, ValidatesSpec) {
  const FaultSchedule::SoftSpec spec = soft_spec();
  for (const double bad : {0.0, -1.0, kNaN, kInf}) {
    for (double FaultSchedule::SoftSpec::*field :
         {&FaultSchedule::SoftSpec::soft_rate,
          &FaultSchedule::SoftSpec::scrub_interval}) {
      FaultSchedule::SoftSpec s = spec;
      s.*field = bad;
      EXPECT_THROW(FaultSchedule::soft(1, s), std::invalid_argument);
    }
  }
  for (const double bad : {-1.0, kNaN, kInf}) {
    FaultSchedule::SoftSpec s = spec;
    s.horizon = bad;
    EXPECT_THROW(FaultSchedule::soft(1, s), std::invalid_argument);
  }
  EXPECT_NO_THROW(FaultSchedule::soft(1, spec));
}

TEST(SoftFault, SeedDeterministicAndScrubBalanced) {
  const auto spec = soft_spec();
  const auto a = FaultSchedule::soft(3, spec);
  const auto b = FaultSchedule::soft(3, spec);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  EXPECT_NE(a.fingerprint(), FaultSchedule::soft(4, spec).fingerprint());
  // Every soft fault is cleared by a scrub at the next scrubbing pass, so
  // per-target counts balance and only soft kinds appear.
  std::vector<long> pending(spec.num_targets, 0);
  std::size_t soft_seen = 0;
  for (const auto& e : a.events()) {
    ASSERT_TRUE(e.kind == FaultKind::kSoftFail || e.kind == FaultKind::kScrub);
    if (e.kind == FaultKind::kSoftFail) {
      ++pending[e.id];
      ++soft_seen;
      // Scrub passes land on the global grid, never before the fault.
    } else {
      --pending[e.id];
      EXPECT_GE(pending[e.id], 0);
    }
  }
  EXPECT_GT(soft_seen, 0u);
  for (const auto p : pending) EXPECT_EQ(p, 0);
}

TEST(SoftFault, SlotLossTraceDistinguishesSoftFromHard) {
  const auto sched = FaultSchedule::from_trace({
      {5.0, FaultKind::kSoftFail, Target::kLink, 0},
      {10.0, FaultKind::kScrub, Target::kLink, 0},
      {15.0, FaultKind::kFail, Target::kLink, 0},
      {18.0, FaultKind::kSoftFail, Target::kLink, 0},  // hard outage dominates
      {20.0, FaultKind::kRepair, Target::kLink, 0},
      {25.0, FaultKind::kScrub, Target::kLink, 0},
  });
  holms::streaming::SlotLossTrace trace(&sched, 1.0, 0.01, 0.4, 0.1);
  for (std::size_t s = 0; s < 30; ++s) {
    const double l = trace.loss_for_slot(s);
    if (s >= 15 && s < 20) {
      EXPECT_DOUBLE_EQ(l, 0.4) << "slot " << s;  // hard fault
    } else if ((s >= 5 && s < 10) || (s >= 20 && s < 25)) {
      EXPECT_DOUBLE_EQ(l, 0.1) << "slot " << s;  // soft corruption
    } else {
      EXPECT_DOUBLE_EQ(l, 0.01) << "slot " << s;
    }
  }
  EXPECT_EQ(trace.scrubs_applied(), 2u);
}

TEST(SoftFault, ScrubbingNeverOccupiesARepairCrew) {
  // Merging a soft schedule into a crews=1 burst trace must not change the
  // crew telemetry (scrubbing is background hygiene, not crew work), and the
  // ambient scenario counts — but never acts on — the soft events.
  TileTree tt;
  auto bspec = tile_burst_spec(tt);
  bspec.crews = 1;
  FaultSchedule::BurstStats alone;
  const auto burst = FaultSchedule::bursts(5, tt.tree, bspec, &alone);
  FaultSchedule::SoftSpec sspec = soft_spec();
  sspec.target = Target::kTile;
  sspec.num_targets = 9;
  sspec.horizon = 200.0;
  const auto merged = FaultSchedule::merge(burst, FaultSchedule::soft(3, sspec));
  FaultSchedule::BurstStats again;
  FaultSchedule::bursts(5, tt.tree, bspec, &again);
  EXPECT_EQ(alone.crew_queue_max_depth, again.crew_queue_max_depth);
  EXPECT_DOUBLE_EQ(alone.last_repair_time, again.last_repair_time);

  const auto app = fault_app();
  const auto plat = holms::core::Platform::homogeneous(3, 3);
  holms::core::AmbientConfig cfg;
  cfg.duration_s = 200.0;
  cfg.activity_low = 1.0;
  auto run = [&](const FaultSchedule* s) {
    holms::core::AmbientOptions opts;
    opts.schedule = s;
    return holms::core::run_ambient_scenario(
        app, plat, holms::core::FaultPolicy::kStatic, cfg, opts);
  };
  const auto hard_only = run(&burst);
  const auto with_soft = run(&merged);
  EXPECT_GT(with_soft.soft_faults_seen, 0u);
  EXPECT_GT(with_soft.scrubs_seen, 0u);
  EXPECT_EQ(hard_only.soft_faults_seen, 0u);
  // Tile liveness — and so availability — is untouched by soft events.
  EXPECT_EQ(with_soft.periods_ok, hard_only.periods_ok);
  EXPECT_EQ(with_soft.periods_failed, hard_only.periods_failed);
  EXPECT_DOUBLE_EQ(with_soft.availability, hard_only.availability);
}

TEST(SoftFault, ServeSoftLossDrivesGracefulShedding) {
  // serve: a locality under transient soft corruption sheds enhancement on
  // its graceful-degradation sessions, without any hard outage.
  FaultSchedule::SoftSpec spec;
  spec.target = Target::kNode;  // serve locality namespace
  spec.num_targets = 2;
  spec.soft_rate = 1.0;  // essentially always corrupted until scrubbed
  spec.scrub_interval = 5.0;
  spec.horizon = 30.0;
  const auto soft = FaultSchedule::soft(17, spec);
  auto run = [&](const FaultSchedule* s) {
    holms::serve::ServeOptions o;
    o.localities = 2;
    o.threads = 1;
    holms::serve::ServiceManager m(o);
    if (s != nullptr) m.attach_fault_schedule(s);
    const holms::streaming::FgsConfig cfg;
    for (std::size_t i = 0; i < 8; ++i) {
      m.add_fgs_session(holms::streaming::FgsPolicy::kGracefulDegradation,
                        cfg, 40);
    }
    return m.run(30.0);
  };
  const auto corrupted = run(&soft);
  const auto clean = run(nullptr);
  EXPECT_GT(corrupted.session_shed.mean(), clean.session_shed.mean());
  EXPECT_GT(corrupted.session_shed.mean(), 0.05);
  // Deterministic replay: same schedule, same report.
  EXPECT_EQ(corrupted.fingerprint(), run(&soft).fingerprint());
}

// ---------- windowed availability SLO ----------

TEST(AvailabilitySlo, ScoresTumblingWindows) {
  // 100 periods, one 10-period outage inside the second window of 20.
  std::vector<std::uint8_t> ok(100, 1);
  for (std::size_t p = 25; p < 35; ++p) ok[p] = 0;
  const auto s = holms::core::availability_slo(ok, 0.999, 20);
  EXPECT_EQ(s.windows, 5u);
  EXPECT_EQ(s.windows_met, 4u);
  EXPECT_EQ(s.window, 20u);
  EXPECT_DOUBLE_EQ(s.slo_fraction, 0.8);
  EXPECT_DOUBLE_EQ(s.worst_window_availability, 0.5);  // 10/20 in window 1
}

TEST(AvailabilitySlo, PartialFinalWindowScoredOverActualLength) {
  std::vector<std::uint8_t> ok(25, 1);
  ok[24] = 0;  // last window holds periods 20..24 only
  const auto s = holms::core::availability_slo(ok, 0.999, 10);
  EXPECT_EQ(s.windows, 3u);
  EXPECT_EQ(s.windows_met, 2u);
  EXPECT_DOUBLE_EQ(s.worst_window_availability, 0.8);  // 4/5
  // A lax target admits the partial window too.
  EXPECT_EQ(holms::core::availability_slo(ok, 0.75, 10).windows_met, 3u);
}

TEST(AvailabilitySlo, EmptyTraceAndValidation) {
  const auto s = holms::core::availability_slo({}, 0.999, 10);
  EXPECT_EQ(s.windows, 0u);
  EXPECT_DOUBLE_EQ(s.slo_fraction, 1.0);
  EXPECT_THROW(holms::core::availability_slo({1}, 0.0, 10),
               std::invalid_argument);
  EXPECT_THROW(holms::core::availability_slo({1}, 1.5, 10),
               std::invalid_argument);
  EXPECT_THROW(holms::core::availability_slo({1}, 0.999, 0),
               std::invalid_argument);
}

// A bursty tile schedule engineered so the *mean* availability stays high
// (short, rare outages over a long run) while the windows containing the
// bursts blow the SLO — the divergence the windowed score exists to expose.
FaultSchedule divergence_schedule() {
  TileTree tt;
  FaultSchedule::BurstSpec spec;
  // One rack-level burst early in the run: all 9 tiles fail and a single
  // crew repairs them one by one (~0.45 s each), so the outage lasts a few
  // seconds — deep enough to blow a 10 s window, brief enough that the mean
  // over an hour still clears three nines.
  spec.domains = {FailureDomainTree::kRoot};
  spec.burst_rate = 1.0 / 100.0;
  spec.onset_jitter = 0.05;
  spec.repair_time = 0.4;
  spec.repair_stagger = 0.1;
  spec.horizon = 100.0;
  spec.crews = 1;
  return FaultSchedule::bursts(41, tt.tree, spec);
}

TEST(ExploreFault, MeanAvailabilityHidesWhatTheSloCatches) {
  const auto sched = divergence_schedule();
  ASSERT_FALSE(sched.empty());
  const auto app = fault_app();
  const auto plat = holms::core::Platform::homogeneous(3, 3);
  holms::core::AmbientConfig cfg;
  cfg.duration_s = 3600.0;
  cfg.activity_low = 1.0;
  holms::core::AmbientOptions opts;
  opts.schedule = &sched;
  const auto res = holms::core::run_ambient_scenario(
      app, plat, holms::core::FaultPolicy::kStatic, cfg, opts);
  ASSERT_GT(res.failures_injected, 0u);
  // The acceptance divergence: mean clears three nines...
  EXPECT_GE(res.availability, 0.999);
  EXPECT_LT(res.availability, 1.0);
  // ...while 10 s windows (250 periods at the 40 ms QoS period) do not.
  const auto slo = holms::core::availability_slo(res.period_ok, 0.999, 250);
  EXPECT_LT(slo.slo_fraction, 1.0);
  EXPECT_LT(slo.worst_window_availability, 0.9);
}

TEST(ExploreFault, SloFloorRejectsWhatTheMeanFloorAccepts) {
  const auto sched = divergence_schedule();
  const auto app = fault_app();
  const auto plat = holms::core::Platform::homogeneous(3, 3);
  holms::core::FaultScenario fs;
  fs.ambient.duration_s = 3600.0;
  fs.ambient.activity_low = 1.0;
  fs.ambient.seed = 23;
  fs.policy = holms::core::FaultPolicy::kStatic;
  fs.replicas = 2;
  fs.schedule = &sched;
  fs.slo_window = 250;
  fs.min_availability = 0.999;  // mean floor: passes
  holms::core::ExploreOptions opts;
  opts.restarts = 1;
  opts.faults = &fs;
  {
    Rng rng(9);
    const auto res = holms::core::explore(app, plat, rng, opts);
    ASSERT_TRUE(res.found_feasible);
    EXPECT_GE(res.best.availability, 0.999);
    EXPECT_LT(res.best.slo_fraction, 1.0);
    EXPECT_LT(res.best.worst_window_availability, 0.9);
  }
  fs.min_slo_fraction = 1.0;  // SLO floor: the same designs now fail
  {
    Rng rng(9);
    const auto res = holms::core::explore(app, plat, rng, opts);
    EXPECT_FALSE(res.found_feasible);
  }
}

TEST(ExploreFault, SloScoresAreThreadCountInvariant) {
  const auto sched = divergence_schedule();
  const auto app = fault_app();
  const auto plat = holms::core::Platform::homogeneous(3, 3);
  holms::core::FaultScenario fs;
  fs.ambient.duration_s = 1200.0;
  fs.ambient.activity_low = 1.0;
  fs.ambient.seed = 23;
  fs.policy = holms::core::FaultPolicy::kStatic;
  fs.replicas = 3;
  fs.schedule = &sched;
  fs.slo_window = 250;
  auto run = [&](std::size_t threads) {
    holms::core::ExploreOptions opts;
    opts.restarts = 2;
    opts.threads = threads;
    opts.faults = &fs;
    Rng rng(9);
    return holms::core::explore(app, plat, rng, opts);
  };
  const auto base = run(1);
  ASSERT_TRUE(base.found_feasible);
  for (const std::size_t threads : {2u, 4u, 7u}) {
    const auto r = run(threads);
    EXPECT_DOUBLE_EQ(base.best.availability, r.best.availability)
        << threads << " threads";
    EXPECT_DOUBLE_EQ(base.best.slo_fraction, r.best.slo_fraction)
        << threads << " threads";
    EXPECT_DOUBLE_EQ(base.best.worst_window_availability,
                     r.best.worst_window_availability)
        << threads << " threads";
    EXPECT_DOUBLE_EQ(base.best.eval.total_energy_j,
                     r.best.eval.total_energy_j)
        << threads << " threads";
    EXPECT_EQ(base.evaluated, r.evaluated) << threads << " threads";
  }
}

// ---------- NoC row bursts ----------

// A cable-bundle domain per mesh row 3 and 5, each owning every horizontal
// link of its row: one burst severs a whole row at once.
FaultSchedule row_burst_schedule(const holms::noc::Mesh2D& mesh) {
  const std::size_t per_row = mesh.width() - 1;
  FailureDomainTree tree("mesh");
  const auto bundle3 = tree.add_domain(FailureDomainTree::kRoot, "row3");
  const auto bundle5 = tree.add_domain(FailureDomainTree::kRoot, "row5");
  for (std::size_t i = 0; i < per_row; ++i) {
    tree.map_target(Target::kLink, 3 * per_row + i, bundle3);
    tree.map_target(Target::kLink, 5 * per_row + i, bundle5);
  }
  FaultSchedule::BurstSpec spec;
  spec.domains = {bundle3, bundle5};
  spec.burst_rate = 1.0 / 4000.0;  // times are cycles here
  spec.onset_jitter = 50.0;
  spec.repair_time = 2500.0;
  spec.repair_stagger = 500.0;
  spec.horizon = 8000.0;
  spec.crews = 2;
  return FaultSchedule::bursts(33, tree, spec);
}

TEST(NocFault, RowBurstFtRoutingMatchesPinnedAllDestinationTables) {
  // Whole-row cuts force detours; the lazy per-destination admit tables must
  // reproduce the stats the eager all-destination tables produced.  The
  // 12x12 input has 144 destinations, more than a small table cache could
  // hold, so every destination's table is recomputed per fault epoch.
  {
    const holms::noc::Mesh2D mesh(8, 8);
    const auto sched = row_burst_schedule(mesh);
    ASSERT_FALSE(sched.empty());
    const auto s = run_ft_replay(mesh, sched);
    EXPECT_GT(s.faults_applied, 0u);
    EXPECT_GT(s.reroute_hops, 0u);  // the severed rows forced detours
    expect_pinned(s, {10316, 10281, 219180, 0x1.3c00197f76f3fp+3,
                      0x1.321b73b0b1c8ep+4, 0x1.0af4f0d844cfp-3,
                      0x1.b65c28f5c28f6p+4, 0x1.6e106338cc306p-16,
                      0x1.619ef1f9003c4p+4, 0, 0x1.fe434cedd5b6cp-1, 1, 7});
  }
  {
    const holms::noc::Mesh2D mesh(12, 12);
    const auto sched = row_burst_schedule(mesh);
    ASSERT_FALSE(sched.empty());
    const auto s = run_ft_replay(mesh, sched);
    EXPECT_GT(s.faults_applied, 0u);
    EXPECT_GT(s.reroute_hops, 0u);
    expect_pinned(s, {23143, 23053, 736453, 0x1.ab7da10db6e99p+3,
                      0x1.a603718bd36a8p+4, 0x1.71093d1f1587p-3,
                      0x1.7039fbe76c8b4p+6, 0x1.26a574ebfbd58p-14,
                      0x1.fba94b2db93e8p+4, 2, 0x1.fe024759035fbp-1, 2, 11});
  }
}

// ---------- NoC farm replays ----------

// The 202-task surveillance farm, greedy-mapped, replayed under
// kFaultTolerant with 2 VCs while every horizontal link of mesh row `row` is
// cut at cycle 300 and the links come back one by one, every 100 cycles
// from cycle 1000 on.
holms::noc::NocStats run_farm_replay(const holms::noc::Mesh2D& mesh,
                                     std::size_t row, std::uint64_t cycles) {
  const auto graph = holms::noc::surveillance_farm_graph(46);
  const auto mapping =
      holms::noc::greedy_mapping(graph, mesh, holms::noc::EnergyModel{});
  const std::size_t per_row = mesh.width() - 1;
  std::vector<FaultEvent> trace;
  for (std::size_t i = 0; i < per_row; ++i) {
    const std::size_t id = row * per_row + i;
    trace.push_back({300.0, FaultKind::kFail, Target::kLink, id});
    trace.push_back({1000.0 + 100.0 * static_cast<double>(i),
                     FaultKind::kRepair, Target::kLink, id});
  }
  const auto sched = FaultSchedule::from_trace(trace);
  holms::noc::NocSim sim(mesh, noc_cfg(holms::noc::RoutingAlgo::kFaultTolerant),
                         Rng(99));
  holms::noc::add_appgraph_flows(sim, graph, mapping, 1.0, 4);
  sim.attach_fault_schedule(&sched);
  sim.run(cycles);
  return sim.stats();
}

TEST(NocFault, FarmReplayFtRoutingMatchesPinnedStats) {
  // The uniform-traffic pins above ask every destination's table about
  // states all over the mesh.  The farm's tasks talk to near neighbours, so
  // its head flits ask only about states a few hops from the destination:
  // these pins hold the admit tables to the same routes when most of each
  // table is never asked about.  The stats come from the router that built
  // every destination's whole table on first use per fault epoch.
  {
    const holms::noc::Mesh2D mesh(16, 16);
    const auto s = run_farm_replay(mesh, 8, 3000);
    EXPECT_GT(s.reroute_hops, 0u);  // the severed row forced detours
    expect_pinned(s, {2920, 2914, 21720, 0x1.a766c95b30ac2p+2,
                      0x1.fb6f46508dfefp+3, 0x1.f652bd3c3611bp-7,
                      0x1.cf5c28f5c28f6p+2, 0x1.65ffd0075d342p-19,
                      0x1.30f956890ed1ap+3, 2, 0x1.fef2ac8977ef3p-1, 75, 30});
  }
  {
    const holms::noc::Mesh2D mesh(32, 32);
    const auto s = run_farm_replay(mesh, 16, 4500);
    EXPECT_GT(s.reroute_hops, 0u);
    expect_pinned(s, {4419, 4412, 31281, 0x1.b32d4225996a5p+2,
                      0x1.f58db558db55bp+3, 0x1.dabcdf012343fp-9,
                      0x1.bce2a53490b9bp+2, 0x1.059e7f2ec119ap-18,
                      0x1.26772b3bb5c96p+3, 3, 0x1.ff305f78abf0fp-1, 93, 62});
  }
}

// ---------- MANET enclosure bursts ----------

TEST(ManetFault, EnclosureBurstCrashesAreCorrelatedAndDeterministic) {
  // 30 nodes in 3 enclosures of 10: one backplane burst crashes a third of
  // the network near-simultaneously, which Poisson i.i.d. crashes never do.
  holms::manet::Manet::Params p;
  p.num_nodes = 30;
  FailureDomainTree tree("site");
  std::vector<std::size_t> encs;
  for (std::size_t e = 0; e < 3; ++e) {
    encs.push_back(tree.add_domain(FailureDomainTree::kRoot,
                                   "enc" + std::to_string(e)));
  }
  for (std::size_t n = 0; n < p.num_nodes; ++n) {
    tree.map_target(Target::kNode, n, encs[n / 10]);
  }
  FaultSchedule::BurstSpec spec;
  spec.domains = encs;
  spec.burst_rate = 1.0 / 600.0;
  spec.onset_jitter = 2.0;
  spec.repair_time = 60.0;
  spec.repair_stagger = 20.0;
  spec.horizon = 800.0;
  spec.crews = 2;
  FaultSchedule::BurstStats stats;
  const auto sched = FaultSchedule::bursts(47, tree, spec, &stats);
  ASSERT_GT(stats.bursts, 0u);
  EXPECT_EQ(stats.targets_failed, stats.bursts * 10);  // whole enclosures

  const auto a = holms::manet::simulate_lifetime(
      holms::manet::Protocol::kBatteryCost, p, manet_cfg(), 17, &sched);
  const auto b = holms::manet::simulate_lifetime(
      holms::manet::Protocol::kBatteryCost, p, manet_cfg(), 17, &sched);
  EXPECT_GT(a.faults_applied, 0u);
  EXPECT_GT(a.route_repairs, 0u);
  EXPECT_EQ(a.packets_sent, b.packets_sent);
  EXPECT_EQ(a.packets_delivered, b.packets_delivered);
  EXPECT_EQ(a.faults_applied, b.faults_applied);
  EXPECT_EQ(a.repairs_applied, b.repairs_applied);
  EXPECT_DOUBLE_EQ(a.delivery_ratio, b.delivery_ratio);
}

}  // namespace
