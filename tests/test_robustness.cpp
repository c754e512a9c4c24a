// Robustness and failure-injection tests: every public entry point must
// either produce a defined result or throw a typed exception — never crash,
// hang, or silently return garbage — under degenerate configurations.
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "asip/assembler.hpp"
#include "asip/builder.hpp"
#include "asip/iss.hpp"
#include "core/ambient.hpp"
#include "core/explorer.hpp"
#include "exec/metrics.hpp"
#include "fault/schedule.hpp"
#include "manet/routing.hpp"
#include "markov/chain.hpp"
#include "markov/jackson.hpp"
#include "noc/router.hpp"
#include "noc/scheduling.hpp"
#include "noc/taskgraph.hpp"
#include "sim/simulator.hpp"
#include "stream/kpn.hpp"
#include "stream/lipsync.hpp"
#include "stream/stream_system.hpp"
#include "streaming/fgs.hpp"
#include "support/chains.hpp"
#include "traffic/sources.hpp"
#include "wireless/jscc.hpp"

namespace {

using holms::sim::Rng;

// ---------- sim ----------

TEST(Robust, SimulatorEmptyRunAdvancesClock) {
  holms::sim::Simulator sim;
  sim.run(5.0);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
}

// ---------- markov ----------

TEST(Robust, SingleStateChain) {
  holms::markov::Dtmc d(1);
  d.set(0, 0, 1.0);
  const auto r = d.steady_state();
  ASSERT_EQ(r.distribution.size(), 1u);
  EXPECT_DOUBLE_EQ(r.distribution[0], 1.0);
}

TEST(Robust, EmptyChainSolvesToEmptyDistribution) {
  for (const auto method : {holms::markov::SteadyStateMethod::kPowerIteration,
                            holms::markov::SteadyStateMethod::kGaussSeidel,
                            holms::markov::SteadyStateMethod::kDirect}) {
    holms::markov::SolveOptions opts;
    opts.method = method;
    for (const auto& r : {holms::markov::Dtmc(0).steady_state(opts),
                          holms::markov::Ctmc(0).steady_state(opts)}) {
      EXPECT_TRUE(r.distribution.empty());
      EXPECT_EQ(r.iterations, 0u);
      EXPECT_FALSE(r.converged);
    }
  }
}

TEST(Robust, PeriodicChainStillSolvableByDirectMethod) {
  // Period-2 chain: power iteration oscillates, the direct solve does not
  // care.
  holms::markov::Dtmc d(2);
  d.set(0, 1, 1.0);
  d.set(1, 0, 1.0);
  holms::markov::SolveOptions direct;
  direct.method = holms::markov::SteadyStateMethod::kDirect;
  const auto r = d.steady_state(direct);
  EXPECT_NEAR(r.distribution[0], 0.5, 1e-9);
}

TEST(Robust, HugeThreadCountSolvesOnOneMemberPerShard) {
  // A sharded solve starts at most one pool member per shard, so a thread
  // count far past any OS thread limit neither exhausts the process nor
  // changes a bit: 34 shards, 34 members.  The tandem's 8464 states and
  // ~33,500 nonzeros clear the sharding floors.
  const holms::markov::Dtmc d =
      holms::test_support::tandem_chain(92, 1.0, 1.12, 1.17).uniformized();
  holms::exec::MetricsRegistry reg;
  const holms::exec::ScopedMetricsSink sink(reg);
  holms::markov::SolveOptions opts;
  opts.max_iterations = 200;
  opts.threads = 1;
  const auto serial = d.steady_state(opts);
  opts.threads = std::size_t{1} << 20;
  const auto huge = d.steady_state(opts);
  EXPECT_EQ(reg.counter("markov.sharded_solves").value(), 2u);
  EXPECT_EQ(serial.iterations, huge.iterations);
  EXPECT_EQ(holms::test_support::bits_digest(serial.distribution),
            holms::test_support::bits_digest(huge.distribution));
}

// The chain API checks its arguments in every build type: an assert would
// vanish under NDEBUG and leave an out-of-bounds access behind.

TEST(Robust, DtmcTransientWrongSpanSizeThrows) {
  holms::markov::Dtmc d(3);
  d.set(0, 0, 1.0);
  EXPECT_THROW(d.transient(std::vector<double>{1.0, 0.0}, 1),
               holms::InvalidArgument);
}

TEST(Robust, CtmcTransientWrongSpanSizeThrows) {
  holms::markov::Ctmc c(3);
  c.set_rate(0, 1, 1.0);
  EXPECT_THROW(c.transient(std::vector<double>{1.0, 0.0}, 1.0),
               holms::InvalidArgument);
  // Also at t = 0, which returns the initial vector unchanged.
  EXPECT_THROW(c.transient(std::vector<double>{1.0, 0.0, 0.0, 0.0}, 0.0),
               holms::InvalidArgument);
}

TEST(Robust, DtmcSetOutOfRangeIndexThrows) {
  holms::markov::Dtmc d(2);
  EXPECT_THROW(d.set(2, 0, 0.5), holms::OutOfRange);
  EXPECT_THROW(d.set(0, 2, 0.5), holms::OutOfRange);
}

TEST(Robust, DtmcGetOutOfRangeIndexThrows) {
  holms::markov::Dtmc d(2);
  EXPECT_THROW(d.get(2, 0), holms::OutOfRange);
  EXPECT_THROW(d.get(0, 2), holms::OutOfRange);
}

TEST(Robust, CtmcSetRateOutOfRangeIndexThrows) {
  holms::markov::Ctmc c(2);
  EXPECT_THROW(c.set_rate(2, 0, 1.0), holms::OutOfRange);
  EXPECT_THROW(c.set_rate(0, 2, 1.0), holms::OutOfRange);
}

TEST(Robust, CtmcRateOutOfRangeIndexThrows) {
  holms::markov::Ctmc c(2);
  EXPECT_THROW(c.rate(2, 0), holms::OutOfRange);
  EXPECT_THROW(c.rate(0, 2), holms::OutOfRange);
  EXPECT_THROW(c.exit_rate(2), holms::OutOfRange);
}

TEST(Robust, DtmcNegativeProbabilityThrows) {
  holms::markov::Dtmc d(2);
  EXPECT_THROW(d.set(0, 1, -0.25), holms::InvalidArgument);
  EXPECT_THROW(d.set(0, 1, 1.5), holms::InvalidArgument);
  EXPECT_EQ(d.get(0, 1), 0.0);  // a rejected set stores nothing
}

TEST(Robust, CtmcNegativeRateThrows) {
  holms::markov::Ctmc c(2);
  EXPECT_THROW(c.set_rate(0, 1, -1.0), holms::InvalidArgument);
  EXPECT_EQ(c.rate(0, 1), 0.0);
}

TEST(Robust, CtmcDiagonalSetRateThrows) {
  holms::markov::Ctmc c(2);
  EXPECT_THROW(c.set_rate(1, 1, 1.0), holms::InvalidArgument);
  EXPECT_EQ(c.exit_rate(1), 0.0);
}

TEST(Robust, JacksonTrappedCycleThrows) {
  holms::markov::JacksonNetwork net({{5.0, 1.0}, {5.0, 0.0}});
  net.set_routing(0, 1, 1.0);
  net.set_routing(1, 0, 1.0);  // nothing ever leaves
  EXPECT_THROW(net.solve(), std::runtime_error);
}

// ---------- stream ----------

TEST(Robust, StreamZeroDurationIsEmptyReport) {
  holms::traffic::CbrSource src(10.0);
  holms::stream::IidErrorModel err(0.0, Rng(1));
  const auto q = run_stream(src, err, holms::stream::StreamConfig{}, 0.0);
  EXPECT_EQ(q.delivered, 0u);
  EXPECT_DOUBLE_EQ(q.loss_rate, 0.0);
}

TEST(Robust, StreamFullyLossyChannel) {
  holms::traffic::CbrSource src(50.0);
  holms::stream::IidErrorModel err(1.0, Rng(2));
  holms::stream::StreamConfig cfg;
  cfg.arq_max_retransmissions = 2;
  const auto q = run_stream(src, err, cfg, 10.0);
  EXPECT_EQ(q.delivered, 0u);
  EXPECT_NEAR(q.loss_rate, 1.0, 1e-9);
  EXPECT_GT(q.retransmissions, 0u);
}

TEST(Robust, ProcessNetworkWithNoSourcesDrainsImmediately) {
  holms::sim::Simulator sim;
  holms::stream::ProcessNetwork net(sim);
  const auto cpu = net.add_cpu();
  holms::stream::NodeSpec w;
  w.name = "idle";
  w.cpu = cpu;
  w.service_time = [](const holms::stream::Token&) { return 1.0; };
  const auto a = net.add_worker(std::move(w));
  const auto sink = net.add_sink("sink");
  net.connect(a, sink, 2);
  net.start();
  sim.run(10.0);
  net.finish();
  EXPECT_EQ(net.tokens_delivered(), 0u);
}

TEST(Robust, LipsyncZeroDuration) {
  const auto r = holms::stream::run_lipsync({}, 0.0, 1);
  EXPECT_EQ(r.presented, 0u);
  EXPECT_DOUBLE_EQ(r.in_sync_fraction, 0.0);
}

// ---------- asip ----------

TEST(Robust, IssEmptyProgramHalts) {
  holms::asip::Iss iss(holms::asip::CoreConfig{}, {});
  const auto r = iss.run(holms::asip::Program{});
  EXPECT_TRUE(r.halted);
  EXPECT_EQ(r.cycles, 0u);
}

TEST(Robust, IssFallingOffTheEndStops) {
  holms::asip::ProgramBuilder b;
  b.li(1, 1);  // no halt
  holms::asip::Iss iss(holms::asip::CoreConfig{}, {});
  const auto r = iss.run(b.build());
  EXPECT_EQ(r.instructions, 1u);
}

TEST(Robust, IssRegionMapMismatchThrows) {
  holms::asip::Program p;
  p.code.push_back({holms::asip::Opcode::kHalt, 0, 0, 0, 0});
  // region left empty -> mismatch
  holms::asip::Iss iss(holms::asip::CoreConfig{}, {});
  EXPECT_THROW(iss.run(p), std::invalid_argument);
}

TEST(Robust, AssemblerEmptySourceIsEmptyProgram) {
  const auto p = holms::asip::assemble("  \n ; nothing here\n");
  EXPECT_EQ(p.size(), 0u);
}

TEST(Robust, IssOutOfRangeMemoryThrows) {
  holms::asip::ProgramBuilder b;
  b.li(1, 1 << 20);  // far beyond the 64k-word memory
  b.lw(2, 1, 0);
  b.halt();
  holms::asip::Iss iss(holms::asip::CoreConfig{}, {});
  EXPECT_THROW(iss.run(b.build()), std::out_of_range);
}

// ---------- noc ----------

TEST(Robust, SingleTileMeshHasNoFlows) {
  holms::noc::Mesh2D mesh(1, 1);
  holms::noc::NocSim sim(mesh, holms::noc::NocSim::Config{}, Rng(3));
  holms::noc::Flow f;
  f.src = 0;
  f.dst = 0;
  EXPECT_THROW(sim.add_flow(f), std::invalid_argument);
  EXPECT_NO_THROW(sim.run(100));
  EXPECT_EQ(sim.stats().packets_injected, 0u);
}

TEST(Robust, NocZeroBufferDepthThrows) {
  holms::noc::Mesh2D mesh(2, 2);
  holms::noc::NocSim::Config cfg;
  cfg.buffer_depth = 0;
  EXPECT_THROW(holms::noc::NocSim(mesh, cfg, Rng(3)), std::invalid_argument);
}

TEST(Robust, NocZeroVirtualChannelsThrows) {
  holms::noc::Mesh2D mesh(2, 2);
  holms::noc::NocSim::Config cfg;
  cfg.virtual_channels = 0;
  EXPECT_THROW(holms::noc::NocSim(mesh, cfg, Rng(3)), std::invalid_argument);
}

TEST(Robust, NocConfigRejectsNonFiniteAndOutOfRangeFields) {
  using Config = holms::noc::NocSim::Config;
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<std::pair<const char*, void (*)(Config&, double)>> fields{
      {"flit_bits", [](Config& c, double x) { c.flit_bits = x; }},
      {"e_router_pj", [](Config& c, double x) { c.energy.e_router_pj = x; }},
      {"e_link_pj", [](Config& c, double x) { c.energy.e_link_pj = x; }},
      {"e_buffer_pj", [](Config& c, double x) { c.energy.e_buffer_pj = x; }},
  };
  const holms::noc::Mesh2D mesh(2, 2);
  for (const auto& [name, set] : fields) {
    for (const double bad : {nan, inf, -inf, -1.0}) {
      SCOPED_TRACE(std::string(name) + " = " + std::to_string(bad));
      Config cfg;
      set(cfg, bad);
      EXPECT_THROW(cfg.validate(), holms::InvalidArgument);
      EXPECT_THROW(holms::noc::NocSim(mesh, cfg, Rng(3)),
                   holms::InvalidArgument);
    }
  }
  // Zero energy is a legal (energy-blind) model; zero-bit flits are not.
  Config zero_energy;
  zero_energy.energy = {0.0, 0.0, 0.0};
  EXPECT_NO_THROW(zero_energy.validate());
  Config zero_bits;
  zero_bits.flit_bits = 0.0;
  EXPECT_THROW(zero_bits.validate(), holms::InvalidArgument);
  // A zero stall budget would drop every head that waits a single cycle.
  Config no_stall;
  no_stall.head_stall_drop_cycles = 0;
  EXPECT_THROW(no_stall.validate(), holms::InvalidArgument);
  EXPECT_NO_THROW(Config{}.validate());
}

TEST(Robust, NocHugeVcRingArrayThrowsInsteadOfWrapping) {
  // tiles x 5 ports x VCs x buffer_depth flits must not wrap size_t (a
  // wrapped product would size a tiny ring array) nor reach the allocator.
  const holms::noc::Mesh2D mesh(2, 2);
  holms::noc::NocSim::Config deep;
  deep.buffer_depth = std::size_t{1} << 62;
  EXPECT_THROW(holms::noc::NocSim(mesh, deep, Rng(3)), holms::InvalidArgument);
  holms::noc::NocSim::Config wide;
  wide.virtual_channels = std::size_t{1} << 62;
  EXPECT_THROW(holms::noc::NocSim(mesh, wide, Rng(3)), holms::InvalidArgument);
  holms::noc::NocSim::Config both;
  both.virtual_channels = std::size_t{1} << 31;
  both.buffer_depth = std::size_t{1} << 31;
  EXPECT_THROW(holms::noc::NocSim(mesh, both, Rng(3)), holms::InvalidArgument);
}

TEST(Robust, NocFaultScheduleIdOutOfRangeThrows) {
  holms::noc::Mesh2D mesh(2, 2);
  holms::noc::NocSim sim(mesh, holms::noc::NocSim::Config{}, Rng(3));
  const auto bad_link = holms::fault::FaultSchedule::from_trace(
      {{1.0, holms::fault::FaultKind::kFail, holms::fault::Target::kLink,
        mesh.num_undirected_links()}});
  EXPECT_THROW(sim.attach_fault_schedule(&bad_link), std::invalid_argument);
  const auto bad_tile = holms::fault::FaultSchedule::from_trace(
      {{1.0, holms::fault::FaultKind::kFail, holms::fault::Target::kTile,
        mesh.num_tiles()}});
  EXPECT_THROW(sim.attach_fault_schedule(&bad_tile), std::invalid_argument);
}

TEST(Robust, NocSetLinkUpNoSuchLinkThrows) {
  holms::noc::Mesh2D mesh(2, 2);
  holms::noc::NocSim sim(mesh, holms::noc::NocSim::Config{}, Rng(3));
  // Tile 1 is the north-east corner of the 2x2 mesh: no east neighbor.
  EXPECT_THROW(sim.set_link_up(1, holms::noc::Dir::kEast, false),
               std::invalid_argument);
  EXPECT_THROW(sim.set_link_up(0, holms::noc::Dir::kLocal, false),
               std::invalid_argument);
}

TEST(Robust, NocZeroCyclesRun) {
  holms::noc::Mesh2D mesh(2, 2);
  holms::noc::NocSim sim(mesh, holms::noc::NocSim::Config{}, Rng(4));
  sim.run(0);
  EXPECT_EQ(sim.stats().packets_delivered, 0u);
}

TEST(Robust, SchedulerEmptyTaskListThrows) {
  holms::noc::SchedProblem p;
  EXPECT_THROW(holms::noc::schedule_edf(p), std::invalid_argument);
}

TEST(Robust, SchedulerSingleTask) {
  holms::noc::SchedProblem p;
  p.mesh = holms::noc::Mesh2D(2, 2);
  p.tasks = {{"only", 1e6}};
  p.tile_of = {0};
  p.deadline_s = 1.0;
  const auto r = holms::noc::schedule_edf(p);
  EXPECT_TRUE(r.deadline_met);
  EXPECT_TRUE(holms::noc::schedule_is_valid(p, r));
}

TEST(Robust, SchedulerRejectsOutOfRangeDependency) {
  // A dependency naming a task past the end would index the per-task
  // arrays out of range (undefined behaviour): validation must reject it.
  holms::noc::SchedProblem base;
  base.mesh = holms::noc::Mesh2D(2, 2);
  base.tasks = {{"a", 1e6}, {"b", 1e6}};
  base.tile_of = {0, 1};
  base.deadline_s = 1.0;
  for (const holms::noc::SchedDep bad :
       {holms::noc::SchedDep{0, 2, 1e3}, holms::noc::SchedDep{2, 1, 1e3},
        holms::noc::SchedDep{0, std::size_t{1} << 40, 1e3}}) {
    SCOPED_TRACE(std::to_string(bad.src) + " -> " + std::to_string(bad.dst));
    holms::noc::SchedProblem p = base;
    p.deps = {{0, 1, 1e3}, bad};
    EXPECT_THROW(holms::noc::schedule_edf(p), holms::InvalidArgument);
    for (const auto policy : {holms::noc::SlackPolicy::kProportional,
                              holms::noc::SlackPolicy::kGreedyLongest}) {
      EXPECT_THROW(holms::noc::schedule_energy_aware(p, policy),
                   holms::InvalidArgument);
    }
  }
  base.deps = {{0, 1, 1e3}};
  const holms::noc::ScheduleResult ok = holms::noc::schedule_edf(base);
  EXPECT_TRUE(holms::noc::schedule_is_valid(base, ok));
  base.deps.push_back({1, 2, 1e3});  // the checker must not read past the end
  EXPECT_FALSE(holms::noc::schedule_is_valid(base, ok));
}

TEST(Robust, AppGraphRejectsNonFiniteVolumeAndBandwidth) {
  // Link loads sum edge bandwidths (or volumes): an infinite one makes a
  // load inf and the first move off that link inf - inf = NaN.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<std::pair<const char*, void (*)(holms::noc::AppGraph&,
                                                    double)>>
      fields{
          {"volume_bits",
           [](holms::noc::AppGraph& g, double x) { g.add_edge(0, 1, x); }},
          {"bandwidth_bps",
           [](holms::noc::AppGraph& g, double x) { g.add_edge(0, 1, 1e3, x); }},
      };
  holms::noc::AppGraph g;
  g.add_node("a");
  g.add_node("b");
  for (const auto& [name, add] : fields) {
    for (const double bad : {nan, inf, -inf, -1.0}) {
      SCOPED_TRACE(std::string(name) + " = " + std::to_string(bad));
      EXPECT_THROW(add(g, bad), holms::InvalidArgument);
    }
  }
  EXPECT_TRUE(g.edges().empty());
  // A zero volume carries nothing; a zero bandwidth means "use the volume".
  EXPECT_THROW(g.add_edge(0, 1, 0.0), holms::InvalidArgument);
  EXPECT_NO_THROW(g.add_edge(0, 1, 1e3, 0.0));
  EXPECT_NO_THROW(g.add_edge(0, 1, 1e3, 2e6));
  EXPECT_EQ(g.edges().size(), 2u);
}

// ---------- wireless / streaming ----------

TEST(Robust, JsccImpossibleDistortionBudget) {
  holms::wireless::JsccOptimizer::Options opts;
  opts.max_distortion = 1e-9;  // unreachable even at max rate
  holms::wireless::JsccOptimizer opt(holms::wireless::ImageModel{},
                                     holms::wireless::RadioModel{}, opts);
  const auto c = opt.optimize(1e-8);
  EXPECT_FALSE(c.feasible);  // reported, not crashed
}

TEST(Robust, FgsSingleSlot) {
  holms::dvfs::Processor cpu(holms::dvfs::xscale_points(),
                             holms::dvfs::PowerModel{});
  holms::streaming::ChannelTrace tr{Rng(5)};
  const auto r = holms::streaming::run_fgs_session(
      holms::streaming::FgsPolicy::kClientFeedback, {}, cpu, tr, 1);
  EXPECT_EQ(r.slots, 1u);
  EXPECT_GT(r.client_total_energy_j, 0.0);
}

// ---------- manet ----------

TEST(Robust, ManetAllNodesDeadStopsSimulation) {
  holms::manet::Manet::Params p;
  p.num_nodes = 5;
  p.battery_j = 1e-6;  // everyone dies on the first flood
  holms::manet::LifetimeConfig cfg;
  cfg.max_time_s = 100.0;
  const auto r = holms::manet::simulate_lifetime(
      holms::manet::Protocol::kMinPower, p, cfg, 6);
  EXPECT_LE(r.lifetime_s, 100.0);
  EXPECT_GT(r.route_discoveries, 0u);
}

TEST(Robust, ManetNonPositiveRadioRangeThrows) {
  holms::manet::Manet::Params p;
  p.radio.range_m = 0.0;
  EXPECT_THROW(holms::manet::Manet(p, Rng(7)), std::invalid_argument);
  p.radio.range_m = -10.0;
  EXPECT_THROW(holms::manet::Manet(p, Rng(7)), std::invalid_argument);
}

TEST(Robust, ManetDegenerateParamsThrow) {
  holms::manet::Manet::Params p;
  p.field_m = 0.0;
  EXPECT_THROW(holms::manet::Manet(p, Rng(7)), std::invalid_argument);
  p = {};
  p.battery_j = -1.0;
  EXPECT_THROW(holms::manet::Manet(p, Rng(7)), std::invalid_argument);
  p = {};
  p.min_speed_mps = 5.0;
  p.max_speed_mps = 1.0;  // inverted speed interval
  EXPECT_THROW(holms::manet::Manet(p, Rng(7)), std::invalid_argument);
}

TEST(Robust, ManetLifetimeFaultIdOutOfRangeThrows) {
  holms::manet::Manet::Params p;
  p.num_nodes = 5;
  const auto sched = holms::fault::FaultSchedule::from_trace(
      {{1.0, holms::fault::FaultKind::kFail, holms::fault::Target::kNode,
        p.num_nodes}});
  holms::manet::LifetimeConfig cfg;
  cfg.max_time_s = 10.0;
  EXPECT_THROW(holms::manet::simulate_lifetime(
                   holms::manet::Protocol::kMinPower, p, cfg, 6, &sched),
               std::invalid_argument);
}

TEST(Robust, ManetTwoNodesOutOfRange) {
  holms::manet::Manet::Params p;
  p.num_nodes = 2;
  p.field_m = 50000.0;
  holms::manet::Manet net(p, Rng(7));
  const auto route = holms::manet::find_route(
      net, holms::manet::Protocol::kMinPower, 0, 1, 1000.0);
  if (!net.connected(0, 1)) {
    EXPECT_TRUE(route.empty());
  }
}

// ---------- core ----------

TEST(Robust, ExplorerImpossibleQosReportsInfeasible) {
  holms::core::Application app;
  app.graph.add_node("t0", 1e12);  // absurd work
  app.graph.add_node("t1", 1e12);
  app.graph.add_edge(0, 1, 1e6);
  app.qos.period_s = 1e-6;
  const auto plat = holms::core::Platform::homogeneous(2, 2);
  Rng rng(8);
  const auto res = holms::core::explore(app, plat, rng);
  EXPECT_FALSE(res.found_feasible);
  EXPECT_TRUE(res.pareto.empty());
}

TEST(Robust, AmbientScheduleTileIdOutOfRangeThrows) {
  holms::core::Application app;
  app.graph.add_node("a", 1e6);
  app.graph.add_node("b", 1e6);
  app.graph.add_edge(0, 1, 1e5);
  const auto plat = holms::core::Platform::homogeneous(2, 2);
  const auto sched = holms::fault::FaultSchedule::from_trace(
      {{1.0, holms::fault::FaultKind::kFail, holms::fault::Target::kTile,
        plat.mesh.num_tiles()}});
  holms::core::AmbientOptions opts;
  opts.schedule = &sched;
  EXPECT_THROW(
      holms::core::run_ambient_scenario(
          app, plat, holms::core::FaultPolicy::kStatic, {}, opts),
      std::invalid_argument);
}

TEST(Robust, SlotLossTraceInvalidConfigThrows) {
  EXPECT_THROW(holms::streaming::SlotLossTrace(nullptr, 0.0),
               std::invalid_argument);
  EXPECT_THROW(holms::streaming::SlotLossTrace(nullptr, 1.0, -0.1, 0.3),
               std::invalid_argument);
  EXPECT_THROW(holms::streaming::SlotLossTrace(nullptr, 1.0, 0.0, 1.5),
               std::invalid_argument);
}

TEST(Robust, AmbientZeroDuration) {
  holms::core::Application app;
  app.graph.add_node("a", 1e6);
  app.graph.add_node("b", 1e6);
  app.graph.add_edge(0, 1, 1e5);
  const auto plat = holms::core::Platform::homogeneous(2, 2);
  holms::core::AmbientConfig cfg;
  cfg.duration_s = 0.0;
  const auto r = holms::core::run_ambient_scenario(
      app, plat, holms::core::FaultPolicy::kStatic, cfg);
  EXPECT_EQ(r.periods, 0u);
  EXPECT_DOUBLE_EQ(r.availability, 0.0);
}

}  // namespace
