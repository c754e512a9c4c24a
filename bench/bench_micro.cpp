// Substrate micro-benchmarks (google-benchmark): the kernels every
// experiment leans on — DES event dispatch, steady-state solvers, fGn
// synthesis, flit routing, ISS execution, mapping evaluation.
//
// Custom main(): besides the google-benchmark tables, a set of hand-timed
// headline rates (SA moves/s full vs incremental, stationary and direct
// solve wall time, ns per random draw, ns per FGS slot and per quantile-
// sketch add, simulator events/s, fault-tolerant NoC replay cycles/s,
// scalar-vs-SIMD kernel speedups, farm scheduling and capped-SA rates) is
// written into
// BENCH_micro.json — the CI perf-smoke job gates those numbers against
// bench/thresholds.json.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <limits>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "asip/kernels.hpp"
#include "bench_util.hpp"
#include "core/evaluator.hpp"
#include "core/platform.hpp"
#include "dvfs/dvfs.hpp"
#include "exec/aligned.hpp"
#include "exec/simd.hpp"
#include "fault/schedule.hpp"
#include "markov/chain.hpp"
#include "markov/jackson.hpp"
#include "markov/queueing.hpp"
#include "noc/mapping.hpp"
#include "noc/router.hpp"
#include "noc/scheduling.hpp"
#include "noc/taskgraph.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"
#include "streaming/fgs.hpp"
#include "support/chains.hpp"
#include "support/sa_oracle.hpp"
#include "traffic/selfsim.hpp"
#include "wireless/link_sim.hpp"

namespace {

void BM_SimulatorEventDispatch(benchmark::State& state) {
  for (auto _ : state) {
    holms::sim::Simulator sim;
    int count = 0;
    std::function<void()> tick = [&] {
      if (++count < 10000) sim.schedule_in(1.0, tick);
    };
    sim.schedule_in(1.0, tick);
    sim.run();
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_SimulatorEventDispatch);

void BM_SteadyState(benchmark::State& state) {
  const auto method =
      static_cast<holms::markov::SteadyStateMethod>(state.range(0));
  holms::markov::ProducerConsumerModel m;
  m.producer_rate = 95.0;
  m.consumer_rate = 100.0;
  m.buffer_capacity = static_cast<std::size_t>(state.range(1));
  const auto chain = m.to_ctmc();
  holms::markov::SolveOptions opts;
  opts.method = method;
  for (auto _ : state) {
    auto r = chain.steady_state(opts);
    benchmark::DoNotOptimize(r.distribution.data());
  }
}
BENCHMARK(BM_SteadyState)
    ->ArgsProduct({{0, 1, 2}, {16, 64, 256}})
    ->ArgNames({"method", "states"});

void BM_FgnHosking(benchmark::State& state) {
  holms::sim::Rng rng(1);
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    auto xs = holms::traffic::fgn_hosking(n, 0.8, rng);
    benchmark::DoNotOptimize(xs.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FgnHosking)->Arg(1024)->Arg(4096);

void BM_NocCycle(benchmark::State& state) {
  holms::noc::Mesh2D mesh(4, 4);
  holms::noc::NocSim sim(mesh, holms::noc::NocSim::Config{},
                         holms::sim::Rng(2));
  for (holms::noc::TileId t = 1; t < mesh.num_tiles(); ++t) {
    holms::noc::Flow f;
    f.src = t;
    f.dst = 0;
    f.packet_flits = 8;
    f.packets_per_cycle = 0.02;
    sim.add_flow(f);
  }
  for (auto _ : state) {
    sim.run(1000);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_NocCycle);

void BM_IssVoiceApp(benchmark::State& state) {
  holms::asip::VoiceRecognitionApp app;
  const bool accel = state.range(0) != 0;
  const std::vector<std::string> exts =
      accel ? std::vector<std::string>{holms::asip::kExtMacLoad,
                                       holms::asip::kExtSqdLoad,
                                       holms::asip::kExtAbsDiff,
                                       holms::asip::kExtDtwCell}
            : std::vector<std::string>{};
  for (auto _ : state) {
    auto r = holms::asip::evaluate_app(app, holms::asip::CoreConfig{}, exts);
    benchmark::DoNotOptimize(r.cycles);
  }
}
BENCHMARK(BM_IssVoiceApp)->Arg(0)->Arg(1)->ArgName("accel");

void BM_MappingEvaluate(benchmark::State& state) {
  const auto g = holms::noc::mms_graph();
  holms::noc::Mesh2D mesh(4, 4);
  holms::noc::EnergyModel em;
  holms::sim::Rng rng(3);
  const auto m = holms::noc::random_mapping(g.num_nodes(), mesh, rng);
  for (auto _ : state) {
    auto ev = holms::noc::evaluate_mapping(g, mesh, em, m, 1e9);
    benchmark::DoNotOptimize(ev.comm_energy_j);
  }
}
BENCHMARK(BM_MappingEvaluate);

void BM_SaMapping(benchmark::State& state) {
  const auto g = holms::noc::mms_graph();
  holms::noc::Mesh2D mesh(4, 4);
  holms::noc::EnergyModel em;
  holms::noc::SaOptions opts;
  opts.iterations = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    holms::sim::Rng rng(4);
    auto m = holms::noc::sa_mapping(g, mesh, em, rng, opts);
    benchmark::DoNotOptimize(m.data());
  }
}
BENCHMARK(BM_SaMapping)->Arg(1000)->Arg(5000)->ArgName("iters");

// Full re-evaluation (the test-support reference loop) vs the library's
// O(deg) delta-cost loop, on the E4 video/audio configuration (mms_graph,
// 4x4 mesh).
void BM_SaMappingMode(benchmark::State& state) {
  const auto g = holms::noc::mms_graph();
  holms::noc::Mesh2D mesh(4, 4);
  holms::noc::EnergyModel em;
  holms::noc::SaOptions opts;
  opts.iterations = 20000;
  const bool incremental = state.range(0) != 0;
  for (auto _ : state) {
    holms::sim::Rng rng(4);
    auto m = incremental
                 ? holms::noc::sa_mapping(g, mesh, em, rng, opts)
                 : holms::test_support::sa_mapping_full(g, mesh, em, rng, opts);
    benchmark::DoNotOptimize(m.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(opts.iterations));
}
BENCHMARK(BM_SaMappingMode)->Arg(0)->Arg(1)->ArgName("incremental");

holms::markov::Dtmc birth_death_chain(std::size_t n) {
  holms::markov::Dtmc d(n);
  for (std::size_t i = 0; i < n; ++i) {
    double stay = 0.2;
    if (i + 1 < n) d.set(i, i + 1, 0.5); else stay += 0.5;
    if (i > 0) d.set(i, i - 1, 0.3); else stay += 0.3;
    d.set(i, i, stay);
  }
  return d;
}

// Power-iteration stationary solve of a birth-death chain: CSR built from
// the chain's sparse rows, then the exec::simd kernels.
void BM_Stationary(benchmark::State& state) {
  const auto d = birth_death_chain(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto r = d.steady_state();
    benchmark::DoNotOptimize(r.distribution.data());
  }
}
BENCHMARK(BM_Stationary)->Arg(128)->Arg(512)->Arg(1024)->ArgName("states");

void BM_JacksonSolve(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<double> mus(n, 10.0);
  auto net = holms::markov::tandem_network(mus, 5.0);
  for (auto _ : state) {
    auto sol = net.solve();
    benchmark::DoNotOptimize(sol.total_jobs);
  }
}
BENCHMARK(BM_JacksonSolve)->Arg(8)->Arg(64)->ArgName("stations");

void BM_BbMapping(benchmark::State& state) {
  holms::sim::Rng rng(5);
  const auto g =
      holms::noc::random_graph(static_cast<std::size_t>(state.range(0)), rng,
                               1e6);
  holms::noc::Mesh2D mesh(3, 3);
  holms::noc::EnergyModel em;
  for (auto _ : state) {
    auto m = holms::noc::bb_mapping(g, mesh, em);
    benchmark::DoNotOptimize(m.data());
  }
}
BENCHMARK(BM_BbMapping)->Arg(6)->Arg(8)->ArgName("cores");

void BM_AwgnLinkSim(benchmark::State& state) {
  holms::sim::Rng rng(6);
  const auto m = static_cast<holms::wireless::Modulation>(state.range(0));
  for (auto _ : state) {
    auto r = holms::wireless::simulate_awgn_ber(m, 4.0, 10000, rng);
    benchmark::DoNotOptimize(r.bit_errors);
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_AwgnLinkSim)->Arg(0)->Arg(3)->ArgName("modulation");

// ---------------------------------------------------------------------------
// Headline rates for the perf trajectory (BENCH_micro.json).
// ---------------------------------------------------------------------------

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// SA moves/s on the E4 configuration: the full-evaluation reference loop
// (tests/support/sa_oracle.hpp) and the library's incremental loop.  The two
// are timed in interleaved rounds, best of 3 each, so host noise lands on
// both sides of sa_speedup_vs_full instead of on one timed run of either.
struct SaRates {
  double full = 0.0;
  double incremental = 0.0;
};

SaRates sa_moves_per_s() {
  const auto g = holms::noc::mms_graph();
  holms::noc::Mesh2D mesh(4, 4);
  holms::noc::EnergyModel em;
  const auto options = [](std::size_t iterations) {
    holms::noc::SaOptions o;
    o.iterations = iterations;
    o.cooling = 1.0 - 1.0 / static_cast<double>(iterations);
    return o;
  };
  const holms::noc::SaOptions full_opts = options(100000);
  const holms::noc::SaOptions inc_opts = options(300000);
  // Moves per second of one seeded run.
  const auto rate = [&](bool full, const holms::noc::SaOptions& o) {
    holms::sim::Rng rng(4);
    const auto t0 = std::chrono::steady_clock::now();
    auto m = full ? holms::test_support::sa_mapping_full(g, mesh, em, rng, o)
                  : holms::noc::sa_mapping(g, mesh, em, rng, o);
    const double dt = seconds_since(t0);
    benchmark::DoNotOptimize(m.data());
    return static_cast<double>(o.iterations) / dt;
  };
  for (const bool full : {true, false}) {  // warmup: caches, predictors
    holms::noc::SaOptions w = full ? full_opts : inc_opts;
    w.iterations = 2000;
    rate(full, w);
  }
  SaRates best;
  for (int rep = 0; rep < 3; ++rep) {
    best.full = std::max(best.full, rate(true, full_opts));
    best.incremental = std::max(best.incremental, rate(false, inc_opts));
  }
  return best;
}

// Stationary solve wall time at n states (power iteration, birth-death).
double stationary_seconds(std::size_t n) {
  const auto d = birth_death_chain(n);
  const auto t0 = std::chrono::steady_clock::now();
  auto r = d.steady_state();
  benchmark::DoNotOptimize(r.distribution.data());
  return seconds_since(t0);
}

// Exact steady state of a 64x64-level tandem (n = 4096, band 128 wide)
// through the banded GTH elimination, best of 3.
double direct_solve_seconds() {
  const auto q = holms::test_support::tandem_chain(64, 1.0, 1.12, 1.17);
  holms::markov::SolveOptions opts;
  opts.method = holms::markov::SteadyStateMethod::kDirect;
  double best = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    const auto r = q.steady_state(opts);
    best = std::min(best, seconds_since(t0));
    benchmark::DoNotOptimize(r.distribution.data());
  }
  return best;
}

// Nanoseconds per draw on one hot stream: Rng::uniform() and normal(0, 0.08),
// the ChannelTrace wobble every FGS slot takes.  Best of 3 runs.
void rng_draw_metrics(holms::bench::BenchReport& report) {
  holms::sim::Rng rng(7001);
  double sink = 0.0;
  const auto ns_per_draw = [&](int draws, auto draw) {
    double best = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < 3; ++rep) {
      const auto t0 = std::chrono::steady_clock::now();
      for (int i = 0; i < draws; ++i) sink += draw();
      best = std::min(best, seconds_since(t0) * 1e9 / draws);
    }
    return best;
  };
  const double uniform_ns =
      ns_per_draw(10000000, [&rng] { return rng.uniform(); });
  const double normal_ns =
      ns_per_draw(2000000, [&rng] { return rng.normal(0.0, 0.08); });
  benchmark::DoNotOptimize(sink);
  report.set("rng_uniform_ns", uniform_ns);
  report.set("rng_normal_ns", normal_ns);
  std::printf("-- Rng draws: uniform() %.3g ns, normal(0, 0.08) %.3g ns\n",
              uniform_ns, normal_ns);
}

// Nanoseconds per FGS slot: one hot kGracefulDegradation session under a
// SlotLossTrace of link fail/repair faults, driven as serve's wave path
// drives it (run_slots, kSlotChunk slots per call).  Best of 3 sessions.
double fgs_slot_ns() {
  namespace st = holms::streaming;
  constexpr std::size_t kSlots = 1000000;
  const st::FgsConfig cfg;
  holms::fault::FaultSchedule::PoissonSpec spec;
  spec.num_targets = 4;
  spec.fail_rate = 1e-3;
  spec.repair_rate = 1e-2;
  spec.horizon = static_cast<double>(kSlots) * cfg.slot_s;
  const auto faults = holms::fault::FaultSchedule::poisson(23, spec);
  double psnr[st::kSlotChunk];
  double load[st::kSlotChunk];
  double best = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < 4; ++rep) {  // rep 0 warms caches and predictors
    holms::dvfs::Processor cpu(holms::dvfs::xscale_points(),
                               holms::dvfs::PowerModel{});
    st::ChannelTrace channel(holms::sim::Rng(7001));
    st::SlotLossTrace loss(&faults, cfg.slot_s);
    st::FgsSessionFom fom(st::FgsPolicy::kGracefulDegradation, cfg, cpu,
                          channel, kSlots, &loss);
    fom.step();  // kInit
    const auto t0 = std::chrono::steady_clock::now();
    while (fom.run_slots(st::kSlotChunk, psnr, load) > 0) {
    }
    const double ns = seconds_since(t0) * 1e9 / static_cast<double>(kSlots);
    benchmark::DoNotOptimize(fom.report().mean_psnr_db);
    if (rep > 0) best = std::min(best, ns);
  }
  return best;
}

// Nanoseconds per channel capacity: one hot ChannelTrace filled kSlotChunk
// capacities per call, as FgsSessionFom::run_slots draws them (Markov steps
// and polar points from bulk-converted uniforms, then one polar_lognormal
// call on the owned exp and log).  Best of 3.
double channel_draw_ns() {
  namespace st = holms::streaming;
  constexpr std::size_t kDraws = std::size_t{1} << 20;
  double cap[st::kSlotChunk];
  double best = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < 4; ++rep) {  // rep 0 warms caches and predictors
    st::ChannelTrace channel(holms::sim::Rng(7001));
    double sum = 0.0;
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < kDraws; i += st::kSlotChunk) {
      channel.fill_capacity_bps(cap);
      sum += cap[0];
    }
    const double ns = seconds_since(t0) * 1e9 / static_cast<double>(kDraws);
    benchmark::DoNotOptimize(sum);
    if (rep > 0) best = std::min(best, ns);
  }
  return best;
}

// Nanoseconds per QuantileSketch::add on serve's slot-load layout
// (1e-3, 64, 32) over a fixed log-uniform stream of 2^16 values, fed 64
// times.  Best of 3.
double sketch_add_ns() {
  holms::sim::Rng rng(11);
  std::vector<double> xs(std::size_t{1} << 16);
  for (double& x : xs) {
    x = 1e-3 * std::ldexp(1.0 + rng.uniform(),
                          static_cast<int>(rng.uniform_int(-1, 16)));
  }
  constexpr int kPasses = 64;
  double best = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < 3; ++rep) {
    holms::sim::QuantileSketch sketch(1e-3, 64.0, 32);
    const auto t0 = std::chrono::steady_clock::now();
    for (int pass = 0; pass < kPasses; ++pass) {
      for (const double x : xs) sketch.add(x);
    }
    best = std::min(best, seconds_since(t0) * 1e9 /
                              static_cast<double>(kPasses * xs.size()));
    benchmark::DoNotOptimize(sketch.fingerprint());
  }
  return best;
}

double sim_events_per_s() {
  holms::sim::Simulator sim;
  std::size_t count = 0;
  constexpr std::size_t kEvents = 1000000;
  struct Chain {
    holms::sim::Simulator& sim;
    std::size_t& count;
    std::size_t remaining;
    void operator()() const {
      ++count;
      if (remaining > 0) sim.schedule_in(1.0, Chain{sim, count, remaining - 1});
    }
  };
  const auto t0 = std::chrono::steady_clock::now();
  sim.schedule_in(1.0, Chain{sim, count, kEvents - 1});
  sim.run();
  const double dt = seconds_since(t0);
  benchmark::DoNotOptimize(count);
  return static_cast<double>(kEvents) / dt;
}

// Cycles/s of a 16x16 kFaultTolerant replay (transpose traffic) under a
// whole-row cut: every horizontal link of row 8 fails at cycle 50 and the
// links come back one at a time every 20 cycles.  Each event starts a fault
// epoch in which head flits re-run the per-destination admit BFS, so the
// rate follows the BFS's cost.
double noc_ft_cycles_per_s() {
  using holms::fault::FaultKind;
  using holms::fault::Target;
  const holms::noc::Mesh2D mesh(16, 16);
  const std::size_t per_row = mesh.width() - 1;
  std::vector<holms::fault::FaultEvent> trace;
  for (std::size_t i = 0; i < per_row; ++i) {
    trace.push_back({50.0, FaultKind::kFail, Target::kLink, 8 * per_row + i});
    trace.push_back({100.0 + 20.0 * static_cast<double>(i), FaultKind::kRepair,
                     Target::kLink, 8 * per_row + i});
  }
  const auto sched = holms::fault::FaultSchedule::from_trace(trace);
  holms::noc::NocSim::Config cfg;
  cfg.virtual_channels = 2;
  cfg.routing = holms::noc::RoutingAlgo::kFaultTolerant;
  holms::noc::NocSim sim(mesh, cfg, holms::sim::Rng(3));
  holms::noc::add_pattern_flows(sim, mesh,
                                holms::noc::TrafficPattern::kTranspose, 0.05,
                                4);
  sim.attach_fault_schedule(&sched);
  constexpr std::uint64_t kCycles = 400;
  const auto t0 = std::chrono::steady_clock::now();
  sim.run(kCycles);
  const double dt = seconds_since(t0);
  const auto st = sim.stats();
  benchmark::DoNotOptimize(st.packets_delivered);
  return static_cast<double>(kCycles) / dt;
}

// Sharded sparse power iteration wall time at a fixed sweep count (the
// tolerance is unreachable, so every thread count does identical work —
// the solves are bitwise identical by design, only the wall time moves).
double threaded_solve_seconds(const holms::markov::Dtmc& d,
                              std::size_t threads) {
  holms::markov::SolveOptions opts;
  opts.threads = threads;
  opts.max_iterations = 400;
  opts.tolerance = 1e-300;  // never met: exactly 400 sweeps
  const auto t0 = std::chrono::steady_clock::now();
  auto r = d.steady_state(opts);
  benchmark::DoNotOptimize(r.distribution.data());
  return seconds_since(t0);
}

// SA move-mix ablation on the E4 configuration: moves/s and final mapping
// cost per mix, so the move-set's value (quality per wall-second) is recorded
// alongside its throughput cost.
struct MoveMix {
  const char* key;
  double w_swap, w_seg, w_cluster;
  std::size_t reheat_after;
};

void sa_move_mix_metrics(holms::bench::BenchReport& report) {
  static constexpr MoveMix kMixes[] = {
      {"swap", 1.0, 0.0, 0.0, 0},
      {"swap2opt", 0.7, 0.3, 0.0, 0},
      {"swapcluster", 0.7, 0.0, 0.3, 0},
      {"mixed", 0.6, 0.2, 0.2, 0},
      {"mixed_reheat", 0.6, 0.2, 0.2, 2000},
  };
  const auto g = holms::noc::mms_graph();
  holms::noc::Mesh2D mesh(4, 4);
  holms::noc::EnergyModel em;
  double swap_rate = 0.0, mixed_rate = 0.0;
  constexpr std::size_t kNumMixes = std::size(kMixes);
  constexpr int kReps = 5;
  std::array<holms::noc::SaOptions, kNumMixes> opt;
  std::array<double, kNumMixes> best_dt;
  std::array<holms::noc::Mapping, kNumMixes> map;
  for (std::size_t i = 0; i < kNumMixes; ++i) {
    // Long enough (~100ms/rep) that a scheduler quantum of interference
    // averages out instead of poisoning a whole repetition.
    opt[i].iterations = 600000;
    opt[i].cooling = 1.0 - 1.0 / static_cast<double>(opt[i].iterations);
    opt[i].w_swap = kMixes[i].w_swap;
    opt[i].w_segment_reversal = kMixes[i].w_seg;
    opt[i].w_cluster_relocate = kMixes[i].w_cluster;
    opt[i].reheat_after = kMixes[i].reheat_after;
    best_dt[i] = std::numeric_limits<double>::infinity();
    {  // warmup
      holms::sim::Rng rng(4);
      holms::noc::SaOptions w = opt[i];
      w.iterations = 2000;
      benchmark::DoNotOptimize(holms::noc::sa_mapping(g, mesh, em, rng, w));
    }
  }
  // Per-mix rate is best-of-kReps, and the repetitions are interleaved
  // round-robin across mixes: a stretch of machine-state drift (thermal,
  // co-tenant load) then lands on every mix instead of poisoning one side
  // of the mixed/swap ratio gate.
  for (int rep = 0; rep < kReps; ++rep) {
    for (std::size_t i = 0; i < kNumMixes; ++i) {
      holms::sim::Rng rng(4);
      const auto t0 = std::chrono::steady_clock::now();
      map[i] = holms::noc::sa_mapping(g, mesh, em, rng, opt[i]);
      best_dt[i] = std::min(best_dt[i], seconds_since(t0));
    }
  }
  for (std::size_t i = 0; i < kNumMixes; ++i) {
    const double rate =
        static_cast<double>(opt[i].iterations) / best_dt[i];
    const double cost =
        holms::noc::evaluate_mapping(g, mesh, em, map[i]).comm_energy_j;
    report.set(std::string("sa_moves_per_s_") + kMixes[i].key, rate);
    report.set(std::string("sa_final_cost_") + kMixes[i].key, cost);
    report.set(std::string("sa_cost_per_wall_s_") + kMixes[i].key,
               cost / best_dt[i]);
    std::printf("-- SA mix %-13s %.3g moves/s, final E4 cost %.6g J\n",
                kMixes[i].key, rate, cost);
    if (std::string(kMixes[i].key) == "swap") swap_rate = rate;
    if (std::string(kMixes[i].key) == "mixed") mixed_rate = rate;
  }
  report.set("sa_move_mix_throughput_ratio",
             swap_rate > 0.0 ? mixed_rate / swap_rate : 0.0);
  std::printf("-- SA mixed/swap throughput ratio: %.2f\n",
              swap_rate > 0.0 ? mixed_rate / swap_rate : 0.0);
}

// Two core hot paths on the 202-task farm (surveillance_farm_graph(46)) that
// the E4 mms rates above never reach: schedule_energy_aware on the greedy
// 32x32 mapping (period 1 s, so the proportional policy stretches and
// repairs — many list_schedule passes per call), and SA on the 32x32 mesh
// with links capped at 240 Mbps, where the greedy packing overloads links
// and the overload penalty keeps the busiest-link rescan live.  Best of 3.
void farm_core_metrics(holms::bench::BenchReport& report) {
  holms::core::Application app;
  app.graph = holms::noc::surveillance_farm_graph(46);
  app.qos.period_s = 1.0;
  const holms::core::Platform plat =
      holms::core::Platform::homogeneous(32, 32);
  const holms::noc::Mapping greedy =
      holms::noc::greedy_mapping(app.graph, plat.mesh, plat.noc_energy);
  const holms::noc::SchedProblem prob =
      holms::core::make_sched_problem(app, plat, greedy);
  holms::noc::SaOptions sa;
  sa.iterations = 200000;
  sa.cooling = 1.0 - 1.0 / static_cast<double>(sa.iterations);
  sa.link_capacity_bps = 2.4e8;
  constexpr int kSchedCalls = 4000;
  double sched_dt = std::numeric_limits<double>::infinity();
  double sa_dt = sched_dt;
  for (int rep = 0; rep < 4; ++rep) {  // rep 0 warms up
    auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kSchedCalls; ++i) {
      benchmark::DoNotOptimize(
          holms::noc::schedule_energy_aware(prob).total_energy_j);
    }
    if (rep > 0) sched_dt = std::min(sched_dt, seconds_since(t0));
    holms::sim::Rng rng(4);
    t0 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(
        holms::noc::sa_mapping_from(app.graph, plat.mesh, plat.noc_energy,
                                    greedy, rng, sa)
            .data());
    if (rep > 0) sa_dt = std::min(sa_dt, seconds_since(t0));
  }
  const double sched_rate = kSchedCalls / sched_dt;
  const double sa_rate = static_cast<double>(sa.iterations) / sa_dt;
  report.set("sched_eas_per_s_farm202", sched_rate);
  report.set("sa_moves_per_s_capped_farm32", sa_rate);
  std::printf(
      "-- farm202: energy-aware schedules/s %.3g, capped 32x32 SA moves/s "
      "%.3g\n",
      sched_rate, sa_rate);
}

// Scalar-vs-SIMD wall-clock speedups for the two reduction-heavy kernels,
// measured through kernels_for() so the numbers reflect what the hardware
// can do regardless of the HOLMS_SIMD setting.  The two tables produce
// bitwise identical results by construction (test_hotpath proves it); only
// the wall time differs, and thresholds.json gates the ratio when the AVX2
// table is live (simd_avx2 == 1).
void simd_kernel_metrics(holms::bench::BenchReport& report) {
  namespace simd = holms::exec::simd;
  const bool avx2 = simd::isa_available(simd::Isa::kAvx2);
  report.set("simd_avx2", avx2 ? 1.0 : 0.0);
  const simd::Kernels& scalar = simd::kernels_for(simd::Isa::kScalar);
  const simd::Kernels& best = simd::kernels_for(simd::best_isa());

  // Gather-form banded CSR, n=4096 with 8 neighbors each side (~69k
  // nonzeros) — the same shape threaded_solve_metrics runs end to end.
  constexpr std::size_t kN = 4096, kBand = 8;
  holms::sim::Rng rng(9);
  holms::exec::aligned_vector<std::size_t> offsets(kN + 1, 0);
  holms::exec::aligned_vector<std::uint32_t> srcs;
  holms::exec::aligned_vector<double> vals;
  for (std::size_t c = 0; c < kN; ++c) {
    const std::size_t lo = c > kBand ? c - kBand : 0;
    const std::size_t hi = std::min(kN - 1, c + kBand);
    for (std::size_t r = lo; r <= hi; ++r) {
      srcs.push_back(static_cast<std::uint32_t>(r));
      vals.push_back(rng.uniform(0.0, 1.0));
    }
    offsets[c + 1] = srcs.size();
  }
  holms::exec::aligned_vector<double> x(kN), out(kN, 0.0);
  for (double& v : x) v = rng.uniform(0.0, 1.0);
  constexpr int kSpmvReps = 200;
  const auto time_spmv = [&](const simd::Kernels& k) {
    k.spmv_cols(offsets.data(), srcs.data(), vals.data(), x.data(),
                out.data(), 0, kN);  // warmup
    const auto t0 = std::chrono::steady_clock::now();
    for (int rep = 0; rep < kSpmvReps; ++rep) {
      k.spmv_cols(offsets.data(), srcs.data(), vals.data(), x.data(),
                  out.data(), 0, kN);
      benchmark::DoNotOptimize(out.data());
    }
    return seconds_since(t0);
  };

  // SwapEvaluator-shaped delta evaluation: deg=16 touched edges per call,
  // rotating through 64 distinct buffers so the call cannot be hoisted.
  constexpr std::size_t kDeg = 16, kBufs = 64;
  holms::exec::aligned_vector<double> vol(kDeg * kBufs), old_hops(kDeg * kBufs),
      new_hops(kDeg * kBufs);
  for (std::size_t i = 0; i < kDeg * kBufs; ++i) {
    vol[i] = rng.uniform(1e3, 1e6);
    old_hops[i] = static_cast<double>(rng.uniform_int(1, 6));
    new_hops[i] = static_cast<double>(rng.uniform_int(1, 6));
  }
  constexpr int kDeltaCalls = 400000;
  const auto time_delta = [&](const simd::Kernels& k) {
    double acc = 0.0;
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kDeltaCalls; ++i) {
      const std::size_t b = static_cast<std::size_t>(i) % kBufs * kDeg;
      acc += k.transfer_delta(vol.data() + b, old_hops.data() + b,
                              new_hops.data() + b, kDeg, 0.98, 1.74);
    }
    benchmark::DoNotOptimize(acc);
    return seconds_since(t0);
  };

  // Best-of-3 with the scalar/SIMD repetitions interleaved, so machine-state
  // drift lands on both sides of each ratio instead of poisoning one.
  double spmv_scalar = std::numeric_limits<double>::infinity();
  double spmv_simd = spmv_scalar, delta_scalar = spmv_scalar,
         delta_simd = spmv_scalar;
  for (int rep = 0; rep < 3; ++rep) {
    spmv_scalar = std::min(spmv_scalar, time_spmv(scalar));
    spmv_simd = std::min(spmv_simd, time_spmv(best));
    delta_scalar = std::min(delta_scalar, time_delta(scalar));
    delta_simd = std::min(delta_simd, time_delta(best));
  }
  const double spmv_speedup = spmv_simd > 0.0 ? spmv_scalar / spmv_simd : 0.0;
  const double delta_speedup =
      delta_simd > 0.0 ? delta_scalar / delta_simd : 0.0;
  report.set("spmv_simd_speedup", spmv_speedup);
  report.set("sa_delta_simd_speedup", delta_speedup);
  std::printf(
      "-- SIMD kernels (%s vs scalar): spmv n=4096 band=8 %.2fx, "
      "transfer_delta deg=16 %.2fx\n",
      best.name, spmv_speedup, delta_speedup);
}

// Sweeps per second of design_farm32's solves: perfbench's n = 1296 tandem
// at tolerance 1e-10 with threads = 4.  The chain sits below power
// iteration's sharding floors, so both methods sweep inline through their
// sliced plans and the rates time the sweep kernels, with no team hand-off.
// Gauss–Seidel counts two sweeps (forward and backward) per symmetric
// iteration.  Best of 3, the two methods interleaved.
void tandem_sweep_metrics(holms::bench::BenchReport& report) {
  const auto q = holms::test_support::tandem_chain(36, 1.0, 1.12, 1.17);
  struct Method {
    const char* key;
    holms::markov::SteadyStateMethod method;
    double sweeps_per_iteration;
    double best_rate = 0.0;
  };
  Method methods[] = {
      {"markov_power_sweeps_per_s_n1296",
       holms::markov::SteadyStateMethod::kPowerIteration, 1.0},
      {"markov_gs_sweeps_per_s_n1296",
       holms::markov::SteadyStateMethod::kGaussSeidel, 2.0}};
  for (int rep = 0; rep < 4; ++rep) {  // rep 0 warms up
    for (Method& m : methods) {
      holms::markov::SolveOptions opts;
      opts.method = m.method;
      opts.tolerance = 1e-10;
      opts.threads = 4;
      const auto t0 = std::chrono::steady_clock::now();
      const auto r = q.steady_state(opts);
      const double rate = m.sweeps_per_iteration *
                          static_cast<double>(r.iterations) /
                          seconds_since(t0);
      if (rep > 0) m.best_rate = std::max(m.best_rate, rate);
    }
  }
  for (const Method& m : methods) report.set(m.key, m.best_rate);
  std::printf("-- tandem n=1296 t4: power %.3g sweeps/s, GS %.3g sweeps/s\n",
              methods[0].best_rate, methods[1].best_rate);
}

void threaded_solve_metrics(holms::bench::BenchReport& report) {
  const auto d = holms::test_support::banded_chain(4096, 8);
  benchmark::DoNotOptimize(threaded_solve_seconds(d, 1));  // warmup
  const double t1 = threaded_solve_seconds(d, 1);
  const double t2 = threaded_solve_seconds(d, 2);
  const double t4 = threaded_solve_seconds(d, 4);
  report.set("stationary_sparse_s_n4096_t1", t1);
  report.set("stationary_sparse_s_n4096_t2", t2);
  report.set("stationary_sparse_s_n4096_t4", t4);
  report.set("solve_thread_speedup_n4096", t4 > 0.0 ? t1 / t4 : 0.0);
  report.set("hw_threads",
             static_cast<double>(std::thread::hardware_concurrency()));
  std::printf(
      "-- sharded solve n=4096: t1 %.3gs, t2 %.3gs, t4 %.3gs (4T %.2fx, "
      "%u hw threads)\n",
      t1, t2, t4, t4 > 0.0 ? t1 / t4 : 0.0,
      std::thread::hardware_concurrency());
}

void headline_metrics(holms::bench::BenchReport& report) {
  const auto [full, inc] = sa_moves_per_s();
  report.set("sa_moves_per_s_full", full);
  report.set("sa_moves_per_s_incremental", inc);
  report.set("sa_speedup_vs_full", inc / full);
  std::printf("-- SA moves/s: full %.3g, incremental %.3g (%.2fx)\n", full,
              inc, inc / full);

  // The key keeps its historical name so bench/history.jsonl stays
  // continuous.
  const double sparse = stationary_seconds(512);
  report.set("stationary_sparse_s_n512", sparse);
  std::printf("-- stationary n=512 (CSR): %.3gs\n", sparse);

  const double direct = direct_solve_seconds();
  report.set("direct_solve_s_n4096", direct);
  std::printf("-- direct (GTH) tandem n=4096: %.3gs\n", direct);

  rng_draw_metrics(report);

  const double slot_ns = fgs_slot_ns();
  const double draw_ns = channel_draw_ns();
  const double add_ns = sketch_add_ns();
  report.set("fgs_slot_ns", slot_ns);
  report.set("channel_draw_ns", draw_ns);
  report.set("sketch_add_ns", add_ns);
  std::printf("-- FGS slot (graceful, run_slots): %.3g ns; channel draw: "
              "%.3g ns; sketch add: %.3g ns\n",
              slot_ns, draw_ns, add_ns);

  const double events = sim_events_per_s();
  report.set("sim_events_per_s", events);
  std::printf("-- simulator events/s: %.3g\n", events);

  const double ft_cycles = noc_ft_cycles_per_s();
  report.set("noc_ft_cycles_per_s", ft_cycles);
  std::printf("-- 16x16 FT replay under a row cut: %.3g cycles/s\n", ft_cycles);

  simd_kernel_metrics(report);
  threaded_solve_metrics(report);
  tandem_sweep_metrics(report);
  sa_move_mix_metrics(report);
  farm_core_metrics(report);
}

}  // namespace

int main(int argc, char** argv) {
  holms::bench::BenchReport report("micro");
  headline_metrics(report);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
