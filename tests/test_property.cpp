// Property-based tests: parameterized sweeps over model invariants.
#include <gtest/gtest.h>

#include <deque>

#include "asip/kernels.hpp"
#include "dvfs/dvfs.hpp"
#include "markov/chain.hpp"
#include "markov/jackson.hpp"
#include "markov/queueing.hpp"
#include "noc/mapping.hpp"
#include "noc/router.hpp"
#include "noc/scheduling.hpp"
#include "noc/taskgraph.hpp"
#include "sim/random.hpp"
#include "stream/channel.hpp"
#include "stream/kpn.hpp"
#include "stream/stream_system.hpp"
#include "traffic/sources.hpp"
#include "wireless/transceiver.hpp"

namespace {

using holms::sim::Rng;

// ---------- M/M/1/K monotonicity properties ----------

class Mm1kBufferSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Mm1kBufferSweep, BlockingDecreasesWithBuffer) {
  const std::size_t k = GetParam();
  const auto small = holms::markov::mm1k(1.5, 2.0, k);
  const auto bigger = holms::markov::mm1k(1.5, 2.0, k + 1);
  EXPECT_GT(small.blocking_probability, bigger.blocking_probability);
  EXPECT_LE(small.throughput, bigger.throughput + 1e-12);
}

TEST_P(Mm1kBufferSweep, DistributionIsNormalized) {
  const auto pi = holms::markov::mm1k_distribution(1.5, 2.0, GetParam());
  double sum = 0.0;
  for (double x : pi) {
    EXPECT_GE(x, 0.0);
    sum += x;
  }
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Buffers, Mm1kBufferSweep,
                         ::testing::Values(1, 2, 4, 8, 16, 32, 64));

class LoadSweep : public ::testing::TestWithParam<double> {};

TEST_P(LoadSweep, QueueLengthIncreasesWithLoad) {
  const double rho = GetParam();
  const auto lighter = holms::markov::mm1(rho * 2.0 * 0.95, 2.0);
  const auto heavier = holms::markov::mm1(rho * 2.0, 2.0);
  EXPECT_LT(lighter.mean_queue_length, heavier.mean_queue_length);
  EXPECT_LT(heavier.utilization, 1.0);
}

INSTANTIATE_TEST_SUITE_P(Loads, LoadSweep,
                         ::testing::Values(0.2, 0.4, 0.6, 0.8, 0.95));

// ---------- random stochastic matrices: solver agreement ----------

class RandomChain : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomChain, AllSolversAgree) {
  Rng rng(GetParam());
  const std::size_t n = 3 + GetParam() % 6;
  holms::markov::Dtmc d(n);
  for (std::size_t r = 0; r < n; ++r) {
    std::vector<double> row(n);
    double sum = 0.0;
    for (std::size_t c = 0; c < n; ++c) {
      row[c] = rng.uniform(0.01, 1.0);  // strictly positive => ergodic
      sum += row[c];
    }
    for (std::size_t c = 0; c < n; ++c) d.set(r, c, row[c] / sum);
  }
  ASSERT_TRUE(d.is_stochastic(1e-9));
  holms::markov::SolveOptions power, gs, direct;
  power.method = holms::markov::SteadyStateMethod::kPowerIteration;
  gs.method = holms::markov::SteadyStateMethod::kGaussSeidel;
  direct.method = holms::markov::SteadyStateMethod::kDirect;
  const auto p1 = d.steady_state(power).distribution;
  const auto p2 = d.steady_state(gs).distribution;
  const auto p3 = d.steady_state(direct).distribution;
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(p1[i], p3[i], 1e-6);
    EXPECT_NEAR(p2[i], p3[i], 1e-6);
  }
  // Stationarity: pi P == pi.
  const auto stepped = d.transient(p3, 1);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(stepped[i], p3[i], 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomChain,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ---------- FIFO model check against std::deque ----------

TEST(BufferModelCheck, RandomOpsMatchReference) {
  Rng rng(42);
  holms::stream::Buffer buf("b", 5, 1, 1);
  std::deque<holms::stream::Token> ref;
  double now = 0.0;
  for (int op = 0; op < 5000; ++op) {
    now += 0.001;
    if (rng.bernoulli(0.5)) {
      if (ref.size() < 5) {
        holms::stream::Token t;
        t.id = static_cast<std::uint64_t>(op);
        buf.push(now, t);
        ref.push_back(t);
      } else {
        EXPECT_TRUE(buf.full());
      }
    } else if (!ref.empty()) {
      const auto got = buf.pop(now);
      EXPECT_EQ(got.id, ref.front().id);
      ref.pop_front();
    } else {
      EXPECT_TRUE(buf.empty());
    }
    EXPECT_EQ(buf.size(), ref.size());
  }
}

// ---------- mapping properties over random graphs ----------

class RandomMappingCase : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomMappingCase, SaNeverWorseThanRandomBaseline) {
  Rng rng(GetParam());
  const auto g = holms::noc::random_graph(10 + GetParam() % 5, rng, 1e6);
  holms::noc::Mesh2D mesh(4, 4);
  holms::noc::EnergyModel em;
  holms::noc::SaOptions sa;
  sa.iterations = 2000;
  Rng sa_rng = rng.fork();
  const auto best = holms::noc::sa_mapping(g, mesh, em, sa_rng, sa);
  const double e_best =
      holms::noc::evaluate_mapping(g, mesh, em, best).comm_energy_j;
  for (int i = 0; i < 5; ++i) {
    const auto m = holms::noc::random_mapping(g.num_nodes(), mesh, rng);
    const double e = holms::noc::evaluate_mapping(g, mesh, em, m).comm_energy_j;
    EXPECT_LE(e_best, e + 1e-15);
  }
}

TEST_P(RandomMappingCase, GreedyMappingIsInjective) {
  Rng rng(GetParam() + 100);
  const auto g = holms::noc::random_graph(12, rng, 1e6);
  holms::noc::Mesh2D mesh(4, 4);
  const auto m = holms::noc::greedy_mapping(g, mesh, holms::noc::EnergyModel{});
  std::vector<bool> used(mesh.num_tiles(), false);
  for (auto t : m) {
    EXPECT_FALSE(used[t]);
    used[t] = true;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomMappingCase,
                         ::testing::Values(11, 22, 33, 44));

// ---------- schedule validity over random DAGs ----------

class RandomSchedule : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomSchedule, BothSchedulersProduceValidSchedules) {
  Rng rng(GetParam());
  const auto g = holms::noc::random_graph(10, rng, 2e5);
  holms::noc::SchedProblem p;
  p.mesh = holms::noc::Mesh2D(4, 3);
  for (std::size_t i = 0; i < g.num_nodes(); ++i) {
    p.tasks.push_back({g.node(i).name, g.node(i).compute_cycles});
  }
  for (const auto& e : g.edges()) {
    p.deps.push_back({e.src, e.dst, e.volume_bits});
  }
  p.tile_of = holms::noc::random_mapping(g.num_nodes(), p.mesh, rng);
  p.deadline_s = 0.2;
  const auto edf = holms::noc::schedule_edf(p);
  EXPECT_TRUE(holms::noc::schedule_is_valid(p, edf));
  for (auto policy : {holms::noc::SlackPolicy::kProportional,
                      holms::noc::SlackPolicy::kGreedyLongest}) {
    const auto eas = holms::noc::schedule_energy_aware(p, policy);
    EXPECT_TRUE(holms::noc::schedule_is_valid(p, eas));
    if (edf.deadline_met) {
      EXPECT_TRUE(eas.deadline_met);
      EXPECT_LE(eas.total_energy_j, edf.total_energy_j + 1e-12);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomSchedule,
                         ::testing::Values(3, 5, 7, 9, 13));

// ---------- router flit conservation ----------

class RouterConfigSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RouterConfigSweep, FlitsConservedAcrossBufferDepths) {
  holms::noc::Mesh2D mesh(3, 3);
  holms::noc::NocSim::Config cfg;
  cfg.buffer_depth = GetParam();
  holms::noc::NocSim sim(mesh, cfg, Rng(77));
  holms::noc::Flow f;
  f.src = 0;
  f.dst = 8;
  f.packet_flits = 6;
  f.packets_per_cycle = 0.02;
  sim.add_flow(f);
  holms::noc::Flow g;
  g.src = 2;
  g.dst = 6;
  g.packet_flits = 6;
  g.packets_per_cycle = 0.02;
  sim.add_flow(g);
  sim.run(30000);
  const auto s = sim.stats();
  // Delivered never exceeds injected; under light load nearly all arrive.
  EXPECT_LE(s.packets_delivered, s.packets_injected);
  EXPECT_GE(s.packets_delivered + 30, s.packets_injected);
}

INSTANTIATE_TEST_SUITE_P(Depths, RouterConfigSweep,
                         ::testing::Values(1, 2, 4, 8));

// ---------- CTMC balance equations on random chains ----------

class RandomCtmc : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomCtmc, SteadyStateSatisfiesGlobalBalance) {
  Rng rng(GetParam());
  const std::size_t n = 4 + GetParam() % 4;
  holms::markov::Ctmc c(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j) c.set_rate(i, j, rng.uniform(0.1, 3.0));
    }
  }
  holms::markov::SolveOptions direct;
  direct.method = holms::markov::SteadyStateMethod::kDirect;
  const auto pi = c.steady_state(direct).distribution;
  // Global balance: inflow == outflow per state.
  for (std::size_t s = 0; s < n; ++s) {
    double inflow = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      if (j != s) inflow += pi[j] * c.rate(j, s);
    }
    EXPECT_NEAR(inflow, pi[s] * c.exit_rate(s), 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomCtmc,
                         ::testing::Values(41, 42, 43, 44, 45, 46));

// ---------- Jackson = per-station M/M/1 under any stable tandem ----------

class TandemSweep : public ::testing::TestWithParam<double> {};

TEST_P(TandemSweep, SojournEqualsSumOfStationWaits) {
  const double lambda = GetParam();
  const auto net =
      holms::markov::tandem_network({8.0, 6.0, 10.0, 7.0}, lambda);
  const auto sol = net.solve();
  ASSERT_TRUE(sol.stable);
  double w = 0.0;
  for (const auto& s : sol.station) w += s.mean_waiting_time;
  EXPECT_NEAR(sol.mean_sojourn_time, w, 1e-9);
  // Throughput conservation.
  EXPECT_NEAR(sol.throughput, lambda, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Loads, TandemSweep,
                         ::testing::Values(1.0, 2.5, 4.0, 5.5));

// ---------- cross-config bit-exactness of the ASIP applications ----------

class VoiceSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(VoiceSeedSweep, AcceleratedDecisionBitExactAcrossSeeds) {
  holms::asip::VoiceRecognitionApp app;
  std::int32_t base = -1, accel = -2;
  holms::asip::CoreConfig tuned;
  tuned.include_mac_block = true;
  tuned.dcache_lines = 256;
  evaluate_app(app, holms::asip::CoreConfig{}, {}, GetParam(), &base);
  evaluate_app(app, tuned,
               {holms::asip::kExtMacLoad, holms::asip::kExtSqdLoad,
                holms::asip::kExtAbsDiff, holms::asip::kExtDtwCell},
               GetParam(), &accel);
  EXPECT_EQ(base, accel);
  EXPECT_GE(base, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, VoiceSeedSweep,
                         ::testing::Values(1, 17, 99, 1234));

// ---------- stream loss tracks channel error rate ----------

class PerSweep : public ::testing::TestWithParam<double> {};

TEST_P(PerSweep, UncodedLossApproximatesPer) {
  const double per = GetParam();
  holms::traffic::CbrSource src(100.0);
  holms::stream::IidErrorModel err(per, Rng(55));
  holms::stream::StreamConfig cfg;
  cfg.link.bits_per_second = 10e6;
  const auto q = run_stream(src, err, cfg, 40.0);
  EXPECT_NEAR(q.loss_rate, per, 0.1 * per + 0.01);
}

INSTANTIATE_TEST_SUITE_P(Pers, PerSweep,
                         ::testing::Values(0.02, 0.08, 0.2, 0.4));

// ---------- DVFS level selection is minimal and feasible ----------

class DeadlineSweep : public ::testing::TestWithParam<double> {};

TEST_P(DeadlineSweep, MinLevelIsTightestFeasible) {
  holms::dvfs::Processor cpu(holms::dvfs::xscale_points(),
                             holms::dvfs::PowerModel{});
  const double cycles = 3e8;
  const double deadline = GetParam();
  const std::size_t lvl = cpu.min_level_for(cycles, deadline);
  if (lvl < cpu.num_points()) {
    EXPECT_LE(cycles / cpu.point(lvl).frequency_hz, deadline);
    if (lvl > 0) {
      EXPECT_GT(cycles / cpu.point(lvl - 1).frequency_hz, deadline);
    }
  } else {
    EXPECT_GT(cycles / cpu.point(cpu.num_points() - 1).frequency_hz,
              deadline);
  }
}

INSTANTIATE_TEST_SUITE_P(Deadlines, DeadlineSweep,
                         ::testing::Values(0.2, 0.5, 0.8, 1.5, 3.0));

// ---------- adaptation dominance over random channel states ----------

class AdaptGainSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AdaptGainSweep, GameTheoreticBetweenOracleAndStatic) {
  holms::wireless::EnergyManager mgr(
      holms::wireless::RadioModel{},
      holms::wireless::EnergyManager::Options{});
  Rng rng(GetParam());
  const double worst = 1e-10;
  const auto fixed = mgr.static_config(worst);
  ASSERT_TRUE(fixed.feasible);
  for (int i = 0; i < 5; ++i) {
    const double gain = worst * std::pow(10.0, rng.uniform(0.0, 2.0));
    const auto oracle = mgr.optimal(gain);
    const auto adapted = mgr.game_theoretic(gain, fixed);
    const auto still = mgr.evaluate(fixed.modulation, fixed.tx_power_w,
                                    fixed.code, gain);
    ASSERT_TRUE(adapted.feasible);
    EXPECT_GE(adapted.energy_per_bit_j, oracle.energy_per_bit_j - 1e-18);
    if (still.feasible) {
      EXPECT_LE(adapted.energy_per_bit_j, still.energy_per_bit_j + 1e-18);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AdaptGainSweep,
                         ::testing::Values(61, 62, 63));

// ---------- transceiver feasibility frontier ----------

class GainSweep : public ::testing::TestWithParam<double> {};

TEST_P(GainSweep, OptimalEnergyDecreasesWithChannelGain) {
  holms::wireless::EnergyManager mgr(holms::wireless::RadioModel{},
                                     holms::wireless::EnergyManager::Options{});
  const double gain = GetParam();
  const auto here = mgr.optimal(gain);
  const auto better = mgr.optimal(gain * 2.0);
  if (here.feasible && better.feasible) {
    EXPECT_LE(better.energy_per_bit_j, here.energy_per_bit_j + 1e-18);
  }
}

INSTANTIATE_TEST_SUITE_P(Gains, GainSweep,
                         ::testing::Values(1e-10, 3e-10, 1e-9, 3e-9, 1e-8));

}  // namespace
