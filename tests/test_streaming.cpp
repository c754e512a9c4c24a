// Unit tests for energy-aware MPEG-4 FGS streaming (holms::streaming) —
// paper §4.1.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "dvfs/dvfs.hpp"
#include "exec/error.hpp"
#include "exec/rng_stream.hpp"
#include "exec/simd.hpp"
#include "fault/schedule.hpp"
#include "streaming/fgs.hpp"

namespace {

using holms::dvfs::Processor;
using holms::sim::Rng;
using namespace holms::streaming;

Processor make_cpu() {
  return Processor(holms::dvfs::xscale_points(), holms::dvfs::PowerModel{});
}

// ---------- DVFS substrate ----------

TEST(Dvfs, PointsSortedAndPowerMonotone) {
  Processor cpu = make_cpu();
  ASSERT_GE(cpu.num_points(), 3u);
  for (std::size_t i = 0; i + 1 < cpu.num_points(); ++i) {
    EXPECT_LT(cpu.point(i).frequency_hz, cpu.point(i + 1).frequency_hz);
    EXPECT_LE(cpu.point(i).voltage, cpu.point(i + 1).voltage);
    EXPECT_LT(cpu.model().total_power(cpu.point(i)),
              cpu.model().total_power(cpu.point(i + 1)));
  }
}

TEST(Dvfs, LowerLevelSavesEnergyPerCycle) {
  Processor cpu = make_cpu();
  const double cycles = 1e8;
  cpu.set_level(0);
  const double e_low = cpu.energy_for_cycles(cycles);
  cpu.set_level(cpu.num_points() - 1);
  const double e_high = cpu.energy_for_cycles(cycles);
  EXPECT_LT(e_low, e_high);
  // V^2 scaling: the ratio should exceed the frequency ratio alone.
  EXPECT_GT(e_high / e_low, 1.5);
}

TEST(Dvfs, MinLevelForDeadline) {
  Processor cpu = make_cpu();
  // 400e6 cycles in 1 s -> needs the 400 MHz point (index 2).
  EXPECT_EQ(cpu.min_level_for(400e6, 1.0), 2u);
  // Impossible deadline -> num_points().
  EXPECT_EQ(cpu.min_level_for(2e9, 1.0), cpu.num_points());
  // Trivial load -> lowest point.
  EXPECT_EQ(cpu.min_level_for(1e6, 1.0), 0u);
}

TEST(Dvfs, SlackEnergySavingPositiveWithSlack) {
  Processor cpu = make_cpu();
  EXPECT_GT(cpu.slack_energy_saving(100e6, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(cpu.slack_energy_saving(5e9, 1.0), 0.0);  // infeasible
}

TEST(Dvfs, GovernorTracksTarget) {
  Processor cpu = make_cpu();
  cpu.set_level(cpu.num_points() - 1);
  holms::dvfs::LoadTrackingGovernor gov(cpu, 0.9);
  // Persistent low load walks the ladder down...
  for (int i = 0; i < 10; ++i) gov.observe(0.2);
  EXPECT_EQ(cpu.level(), 0u);
  // ...and saturating load walks it back up.
  for (int i = 0; i < 10; ++i) gov.observe(1.0);
  EXPECT_EQ(cpu.level(), cpu.num_points() - 1);
}

TEST(Dvfs, GovernorDoesNotStepDownIntoOverload) {
  Processor cpu = make_cpu();
  cpu.set_level(3);  // 600 MHz
  holms::dvfs::LoadTrackingGovernor gov(cpu, 0.9, 0.05);
  // 0.8 utilization at 600 MHz would be 1.2 at 400 MHz: must hold.
  gov.observe(0.8);
  EXPECT_EQ(cpu.level(), 3u);
}

// ---------- channel trace ----------

TEST(ChannelTrace, CapacitiesPositiveAndVarying) {
  ChannelTrace tr(Rng(1));
  std::vector<double> cap(2000);
  tr.fill_capacity_bps(cap);
  double lo = 1e18, hi = 0.0;
  for (const double c : cap) {
    EXPECT_GT(c, 0.0);
    lo = std::min(lo, c);
    hi = std::max(hi, c);
  }
  EXPECT_GT(hi / lo, 3.0);  // visits distinct states
}

// ---------- FGS session ----------

FgsConfig default_cfg() { return FgsConfig{}; }

TEST(Fgs, FeedbackKeepsNormalizedLoadNearUnity) {
  // The headline mechanism of [28]: normalized decoding load pinned at 1.
  Processor cpu = make_cpu();
  ChannelTrace tr(Rng(2));
  const FgsReport r = run_fgs_session(FgsPolicy::kClientFeedback,
                                      default_cfg(), cpu, tr, 2000);
  EXPECT_GT(r.mean_normalized_load, 0.7);
  EXPECT_LE(r.mean_normalized_load, 1.05);
  EXPECT_LT(r.wasted_rx_fraction, 0.02);
}

TEST(Fgs, NonAdaptiveWastesReceivedBitsWhenCpuSlow) {
  // Cripple the client CPU ladder so even max frequency can't decode the
  // typical stream: the blind server keeps pushing anyway.
  std::vector<holms::dvfs::OperatingPoint> weak = {
      {80e6, 0.75}, {120e6, 0.9}, {150e6, 1.0}};
  Processor cpu(weak, holms::dvfs::PowerModel{});
  ChannelTrace tr(Rng(3));
  const FgsReport r = run_fgs_session(FgsPolicy::kNonAdaptive, default_cfg(),
                                      cpu, tr, 2000);
  EXPECT_GT(r.wasted_rx_fraction, 0.1);
  EXPECT_GT(r.mean_normalized_load, 1.1);
}

TEST(Fgs, FeedbackReducesClientCommunicationEnergy) {
  // Same weak client, same channel seed: the adaptive policy receives only
  // what it can decode -> lower RX energy (the ~15% claim's shape).
  std::vector<holms::dvfs::OperatingPoint> weak = {
      {100e6, 0.75}, {200e6, 0.95}, {300e6, 1.1}};
  ChannelTrace t1(Rng(4)), t2(Rng(4));
  Processor c1(weak, holms::dvfs::PowerModel{});
  Processor c2(weak, holms::dvfs::PowerModel{});
  const FgsReport blind =
      run_fgs_session(FgsPolicy::kNonAdaptive, default_cfg(), c1, t1, 2000);
  const FgsReport adaptive = run_fgs_session(FgsPolicy::kClientFeedback,
                                             default_cfg(), c2, t2, 2000);
  EXPECT_LT(adaptive.client_rx_energy_j, blind.client_rx_energy_j);
  EXPECT_LT(adaptive.client_total_energy_j, blind.client_total_energy_j);
  // Quality is not sacrificed beyond what the client could decode anyway.
  EXPECT_NEAR(adaptive.mean_psnr_db, blind.mean_psnr_db, 1.0);
}

TEST(Fgs, DvfsSavesComputeEnergyOnCapableClient) {
  // A capable client at full speed vs feedback-driven DVFS: same decoded
  // stream, lower CPU energy.
  ChannelTrace t1(Rng(5)), t2(Rng(5));
  Processor c1 = make_cpu();
  Processor c2 = make_cpu();
  const FgsReport blind =
      run_fgs_session(FgsPolicy::kNonAdaptive, default_cfg(), c1, t1, 2000);
  const FgsReport adaptive = run_fgs_session(FgsPolicy::kClientFeedback,
                                             default_cfg(), c2, t2, 2000);
  EXPECT_LT(adaptive.client_cpu_energy_j, blind.client_cpu_energy_j);
  EXPECT_GE(adaptive.mean_psnr_db, blind.mean_psnr_db - 0.5);
}

TEST(Fgs, BaseLayerProtected) {
  Processor cpu = make_cpu();
  ChannelTrace tr(Rng(6));
  const FgsReport r = run_fgs_session(FgsPolicy::kClientFeedback,
                                      default_cfg(), cpu, tr, 2000);
  // The worst channel state (0.35 Mbps) still exceeds the 256 kbps base
  // layer, so base-layer misses should be rare.
  EXPECT_LT(static_cast<double>(r.base_layer_misses) /
                static_cast<double>(r.slots),
            0.05);
  EXPECT_GE(r.min_psnr_db, 9.0);
}

TEST(Fgs, QualityGrowsWithChannelQuality) {
  Processor c1 = make_cpu(), c2 = make_cpu();
  ChannelTrace good(Rng(7), 6e6, 3e6, 1e6);
  ChannelTrace bad(Rng(7), 1.2e6, 0.6e6, 0.3e6);
  const FgsReport rg = run_fgs_session(FgsPolicy::kClientFeedback,
                                       default_cfg(), c1, good, 1500);
  const FgsReport rb = run_fgs_session(FgsPolicy::kClientFeedback,
                                       default_cfg(), c2, bad, 1500);
  EXPECT_GT(rg.mean_psnr_db, rb.mean_psnr_db);
}

// ---------- ad hoc (distributed) mode, §4.1 ----------

TEST(FgsAdhoc, MoreClientsMeansLessQualityEach) {
  const FgsConfig cfg;
  ChannelTrace t2{Rng(10)};
  ChannelTrace t6{Rng(10)};
  std::vector<holms::dvfs::Processor> two(2, make_cpu());
  std::vector<holms::dvfs::Processor> six(6, make_cpu());
  const AdhocReport r2 =
      run_fgs_adhoc(FgsPolicy::kClientFeedback, cfg, two, t2, 1500);
  const AdhocReport r6 =
      run_fgs_adhoc(FgsPolicy::kClientFeedback, cfg, six, t6, 1500);
  ASSERT_EQ(r2.per_client.size(), 2u);
  ASSERT_EQ(r6.per_client.size(), 6u);
  EXPECT_GT(r2.mean_psnr_db, r6.mean_psnr_db);
}

TEST(FgsAdhoc, FeedbackSavesEnergyInAdhocModeToo) {
  const FgsConfig cfg;
  ChannelTrace tb{Rng(11)};
  ChannelTrace ta{Rng(11)};
  std::vector<holms::dvfs::Processor> blind(4, make_cpu());
  std::vector<holms::dvfs::Processor> adaptive(4, make_cpu());
  const AdhocReport rb =
      run_fgs_adhoc(FgsPolicy::kNonAdaptive, cfg, blind, tb, 1500);
  const AdhocReport ra =
      run_fgs_adhoc(FgsPolicy::kClientFeedback, cfg, adaptive, ta, 1500);
  EXPECT_LT(ra.total_client_energy_j, rb.total_client_energy_j);
  EXPECT_GT(ra.mean_psnr_db, rb.mean_psnr_db - 0.5);
}

TEST(FgsAdhoc, ClientsAreStatisticallySimilar) {
  const FgsConfig cfg;
  ChannelTrace tr{Rng(12)};
  std::vector<holms::dvfs::Processor> cpus(3, make_cpu());
  const AdhocReport r =
      run_fgs_adhoc(FgsPolicy::kClientFeedback, cfg, cpus, tr, 1500);
  // All clients see the same share sequence -> identical reports.
  for (std::size_t c = 1; c < r.per_client.size(); ++c) {
    EXPECT_NEAR(r.per_client[c].mean_psnr_db, r.per_client[0].mean_psnr_db,
                1e-9);
  }
}

TEST(FgsAdhoc, EmptyClientListIsWellDefined) {
  const FgsConfig cfg;
  ChannelTrace tr{Rng(13)};
  std::vector<holms::dvfs::Processor> none;
  const AdhocReport r =
      run_fgs_adhoc(FgsPolicy::kClientFeedback, cfg, none, tr, 100);
  EXPECT_TRUE(r.per_client.empty());
  EXPECT_DOUBLE_EQ(r.total_client_energy_j, 0.0);
}

TEST(Fgs, ZeroSlotsIsWellDefined) {
  Processor cpu = make_cpu();
  ChannelTrace tr(Rng(8));
  const FgsReport r =
      run_fgs_session(FgsPolicy::kClientFeedback, default_cfg(), cpu, tr, 0);
  EXPECT_EQ(r.slots, 0u);
  EXPECT_DOUBLE_EQ(r.client_total_energy_j, 0.0);
}

// A slot length that is NaN, negative, zero or infinite has no timeslot
// meaning: the session machine and the ad hoc runner refuse it up front.
TEST(FgsConfig, RejectsSlotLengthsThatAreNotFinitePositive) {
  EXPECT_NO_THROW(FgsConfig{}.validate());
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double slot_s : {kNan, -0.5, 0.0, kInf}) {
    FgsConfig cfg;
    cfg.slot_s = slot_s;
    EXPECT_THROW(cfg.validate(), holms::InvalidArgument) << slot_s;
    Processor cpu = make_cpu();
    ChannelTrace tr(Rng(4));
    EXPECT_THROW(FgsSessionFom(FgsPolicy::kClientFeedback, cfg, cpu, tr, 10),
                 holms::InvalidArgument)
        << slot_s;
    std::vector<Processor> clients{make_cpu(), make_cpu()};
    EXPECT_THROW(
        run_fgs_adhoc(FgsPolicy::kClientFeedback, cfg, clients, tr, 10),
        holms::InvalidArgument)
        << slot_s;
  }
}

TEST(FgsConfig, RejectsDivisorsGainsAndEnergiesOutOfRange) {
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  const auto rejects = [](void (*edit)(FgsConfig&)) {
    FgsConfig cfg;
    edit(cfg);
    try {
      cfg.validate();
    } catch (const holms::InvalidArgument&) {
      return true;
    }
    return false;
  };
  EXPECT_TRUE(rejects([](FgsConfig& c) { c.base_layer_bps = 0.0; }));
  EXPECT_TRUE(rejects([](FgsConfig& c) { c.target_normalized_load = 0.0; }));
  EXPECT_TRUE(rejects([](FgsConfig& c) { c.loss_ewma_alpha = 1.5; }));
  EXPECT_TRUE(rejects([](FgsConfig& c) { c.loss_ewma_alpha = -0.1; }));
  EXPECT_TRUE(rejects([](FgsConfig& c) { c.rx_nj_per_bit = -1.0; }));
  EXPECT_TRUE(rejects([](FgsConfig& c) { c.feedback_tx_nj = kNan; }));
  EXPECT_TRUE(rejects([](FgsConfig& c) {
    c.max_enhancement_bps = std::numeric_limits<double>::infinity();
  }));
  EXPECT_TRUE(
      rejects([](FgsConfig& c) { c.psnr_gain_db_per_doubling = -2.8; }));
  // The ends of the closed ranges are valid.
  EXPECT_FALSE(rejects([](FgsConfig& c) { c.loss_ewma_alpha = 1.0; }));
  EXPECT_FALSE(rejects([](FgsConfig& c) { c.feedback_tx_nj = 0.0; }));
  EXPECT_FALSE(rejects([](FgsConfig& c) { c.max_enhancement_bps = 0.0; }));
}

// ---------- pinned slot paths ----------

std::uint64_t fold(std::uint64_t h, std::uint64_t v) {
  return holms::exec::splitmix64(h ^ holms::exec::splitmix64(v));
}

std::uint64_t fold(std::uint64_t h, double v) {
  return fold(h, std::bit_cast<std::uint64_t>(v));
}

// The channel's capacity stream, pinned: three seeds, 10^5 capacities each,
// drawn in chunks whose sizes cycle over 1..kSlotChunk.  The digests were
// taken from the one-capacity-at-a-time draw (bernoulli state steps, the polar
// normal, std::exp), so every chunked fill must reproduce it bit for bit.
TEST(ChannelTrace, CapacityStreamIsPinned) {
  const std::uint64_t seeds[3] = {1, 7001, 0x9e3779b97f4a7c15ULL};
  const std::uint64_t pins[3] = {0x9c890594fea31fc1ULL, 0xba33ec3ba89b18f7ULL,
                                 0xb083b3ee7e98ea2dULL};
  for (int s = 0; s < 3; ++s) {
    ChannelTrace tr(Rng(seeds[s]));
    std::vector<double> cap(100000);
    for (std::size_t i = 0, k = 1; i < cap.size(); k = k % kSlotChunk + 1) {
      const std::size_t n = std::min(k, cap.size() - i);
      tr.fill_capacity_bps(std::span<double>(cap).subspan(i, n));
      i += n;
    }
    std::uint64_t h = 0;
    for (const double c : cap) h = fold(h, c);
    EXPECT_EQ(h, pins[s]) << "seed " << seeds[s] << ": 0x" << std::hex << h;
  }
}

// Fills of every chunk size k = 1..kSlotChunk give the one-slot stream, and
// so do the polar_lognormal tails of every available kernel table, fed the
// same (y, r2, rate) staging chunk by chunk: the chunk and the ISA move no
// bit.  The staging below restates fill_capacity_bps's first phase on
// Rng::uniform() draws.
TEST(ChannelTrace, FillMatchesAcrossChunkSizesAndIsas) {
  constexpr std::size_t kSlots = 1500;
  const double rates[3] = {3.0e6, 1.2e6, 0.35e6};
  for (const std::uint64_t seed : {11u, 7919u}) {
    ChannelTrace one(Rng{seed});
    std::vector<double> want(kSlots);
    for (double& c : want) one.fill_capacity_bps(std::span<double>(&c, 1));

    for (std::size_t k = 1; k <= kSlotChunk; ++k) {
      ChannelTrace tr(Rng{seed});
      std::vector<double> got(kSlots);
      for (std::size_t i = 0; i < kSlots; i += k) {
        tr.fill_capacity_bps(
            std::span<double>(got).subspan(i, std::min(k, kSlots - i)));
      }
      for (std::size_t i = 0; i < kSlots; ++i) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i]),
                  std::bit_cast<std::uint64_t>(want[i]))
            << "seed " << seed << ", chunk " << k << ", slot " << i;
      }
    }

    Rng rng(seed);
    std::size_t state = 0;
    std::vector<double> y(kSlots), r2(kSlots), rate(kSlots);
    for (std::size_t i = 0; i < kSlots; ++i) {
      if (rng.uniform() < 0.2) {
        state = state != 1 ? 1 : (rng.uniform() < 0.5 ? 0 : 2);
      }
      const holms::sim::PolarPoint p =
          holms::sim::polar_point([&] { return rng.uniform(); });
      y[i] = p.y;
      r2[i] = p.r2;
      rate[i] = rates[state];
    }
    using holms::exec::simd::Isa;
    for (const Isa isa : {Isa::kScalar, Isa::kAvx2, Isa::kNeon}) {
      if (!holms::exec::simd::isa_available(isa)) continue;
      const auto& kern = holms::exec::simd::kernels_for(isa);
      for (std::size_t k = 1; k <= kSlotChunk; ++k) {
        std::vector<double> got(kSlots);
        for (std::size_t i = 0; i < kSlots; i += k) {
          kern.polar_lognormal(&y[i], &r2[i], &rate[i],
                               std::min(k, kSlots - i), 0.0, 0.08, &got[i]);
        }
        for (std::size_t i = 0; i < kSlots; ++i) {
          ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i]),
                    std::bit_cast<std::uint64_t>(want[i]))
              << kern.name << ", seed " << seed << ", chunk " << k
              << ", slot " << i;
        }
      }
    }
  }
}

// Every report field, bit for bit, then the client's final DVFS level.
std::uint64_t fold_report(std::uint64_t h, const FgsReport& r,
                          const Processor& cpu) {
  h = fold(h, r.mean_psnr_db);
  h = fold(h, r.min_psnr_db);
  h = fold(h, r.client_rx_energy_j);
  h = fold(h, r.client_cpu_energy_j);
  h = fold(h, r.client_total_energy_j);
  h = fold(h, r.mean_normalized_load);
  h = fold(h, r.wasted_rx_fraction);
  h = fold(h, static_cast<std::uint64_t>(r.base_layer_misses));
  h = fold(h, static_cast<std::uint64_t>(r.slots));
  h = fold(h, r.mean_loss);
  h = fold(h, r.mean_enhancement_shed);
  return fold(h, static_cast<std::uint64_t>(cpu.level()));
}

// A client that tops out at XScale's third operating point, so ad hoc
// clients on one shared channel still differ.
Processor make_slow_cpu() {
  const std::vector<holms::dvfs::OperatingPoint> all =
      holms::dvfs::xscale_points();
  return Processor({all.begin(), all.begin() + 3}, holms::dvfs::PowerModel{});
}

// Absolute pins of both slot loops: one session, and ad hoc clients sharing
// a channel.  Slot counts straddle 64, and the loss trace carries one hard
// fail/repair and one soft fail/scrub within the first 64 slots of 0.5 s.
// One digest per (policy, loss or none) and loop.
TEST(FgsPaths, PinnedDigests) {
  using holms::fault::FaultKind;
  using holms::fault::Target;
  const holms::fault::FaultSchedule faults =
      holms::fault::FaultSchedule::from_trace(
          {{3.0, FaultKind::kFail, Target::kNode, 0},
           {11.0, FaultKind::kRepair, Target::kNode, 0},
           {15.5, FaultKind::kSoftFail, Target::kNode, 0},
           {27.0, FaultKind::kScrub, Target::kNode, 0}});
  const FgsPolicy policies[3] = {FgsPolicy::kNonAdaptive,
                                 FgsPolicy::kClientFeedback,
                                 FgsPolicy::kGracefulDegradation};
  // Without loss, graceful degradation sheds nothing and sends what client
  // feedback sends, so their loss-free pins agree.
  const std::uint64_t session_pins[3][2] = {
      {0xa2c0791ec2317f24ULL, 0x82c3ea8be098acddULL},
      {0xb4e4cfb0b0f9bdbfULL, 0xc583202b34effc93ULL},
      {0xb4e4cfb0b0f9bdbfULL, 0x69020b7b8e982ce8ULL}};
  const std::uint64_t adhoc_pins[3][2] = {
      {0x9a70e7374e4444e9ULL, 0x25ec22c70c0280ddULL},
      {0x5425245c29628a63ULL, 0xc5a4c8d0479393b7ULL},
      {0x5425245c29628a63ULL, 0xa4cc3421e44a15d9ULL}};
  const FgsConfig cfg;
  for (int p = 0; p < 3; ++p) {
    for (int lossy = 0; lossy < 2; ++lossy) {
      std::uint64_t h = 0;
      for (const std::size_t slots : {1, 63, 64, 65, 400}) {
        Processor cpu = make_cpu();
        ChannelTrace ch(Rng(1000 + slots));
        SlotLossTrace loss(&faults, cfg.slot_s, 0.01, 0.3, 0.1);
        const FgsReport r = run_fgs_session(policies[p], cfg, cpu, ch, slots,
                                            lossy ? &loss : nullptr);
        h = fold_report(h, r, cpu);
      }
      EXPECT_EQ(h, session_pins[p][lossy])
          << "run_fgs_session, policy " << p << ", loss " << lossy << ": 0x"
          << std::hex << h;

      h = 0;
      for (const std::size_t clients : {1, 3, 6}) {
        for (const std::size_t slots : {0, 1, 63, 64, 65, 300}) {
          std::vector<Processor> cpus;
          for (std::size_t c = 0; c < clients; ++c) {
            cpus.push_back(c % 2 ? make_slow_cpu() : make_cpu());
          }
          ChannelTrace ch(Rng(2000 + 7 * clients + slots));
          SlotLossTrace loss(&faults, cfg.slot_s, 0.01, 0.3, 0.1);
          const AdhocReport r = run_fgs_adhoc(policies[p], cfg, cpus, ch,
                                              slots, lossy ? &loss : nullptr);
          for (std::size_t c = 0; c < clients; ++c) {
            h = fold_report(h, r.per_client[c], cpus[c]);
          }
          h = fold(h, r.total_client_energy_j);
          h = fold(h, r.mean_psnr_db);
          h = fold(h, r.min_psnr_db);
        }
      }
      EXPECT_EQ(h, adhoc_pins[p][lossy])
          << "run_fgs_adhoc, policy " << p << ", loss " << lossy << ": 0x"
          << std::hex << h;
    }
  }
}

}  // namespace
