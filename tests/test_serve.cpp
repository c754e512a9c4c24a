// Tests for holms::serve (DESIGN.md §5h): legacy-vs-FOM bitwise equivalence
// for FGS and MPEG-2 sessions, ServiceManager thread-count invariance,
// admission control, and fault-driven load shedding.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <tuple>
#include <vector>

#include "dvfs/dvfs.hpp"
#include "exec/error.hpp"
#include "exec/metrics.hpp"
#include "exec/rng_stream.hpp"
#include "exec/thread_pool.hpp"
#include "fault/schedule.hpp"
#include "serve/service.hpp"
#include "sim/simulator.hpp"
#include "stream/mpeg2.hpp"
#include "streaming/fgs.hpp"
#include "traffic/video.hpp"

namespace {

using holms::dvfs::Processor;
using holms::serve::ServeOptions;
using holms::serve::ServeReport;
using holms::serve::ServiceManager;
using holms::sim::Rng;
using namespace holms::streaming;

Processor make_cpu() {
  return Processor(holms::dvfs::xscale_points(), holms::dvfs::PowerModel{});
}

void expect_fgs_bitwise_equal(const FgsReport& a, const FgsReport& b) {
  EXPECT_EQ(a.mean_psnr_db, b.mean_psnr_db);
  EXPECT_EQ(a.min_psnr_db, b.min_psnr_db);
  EXPECT_EQ(a.client_rx_energy_j, b.client_rx_energy_j);
  EXPECT_EQ(a.client_cpu_energy_j, b.client_cpu_energy_j);
  EXPECT_EQ(a.client_total_energy_j, b.client_total_energy_j);
  EXPECT_EQ(a.mean_normalized_load, b.mean_normalized_load);
  EXPECT_EQ(a.wasted_rx_fraction, b.wasted_rx_fraction);
  EXPECT_EQ(a.base_layer_misses, b.base_layer_misses);
  EXPECT_EQ(a.slots, b.slots);
  EXPECT_EQ(a.mean_loss, b.mean_loss);
  EXPECT_EQ(a.mean_enhancement_shed, b.mean_enhancement_shed);
}

// ---------- FGS session FOM ----------

TEST(FgsFom, SimulatorDrivenSessionMatchesLegacyBitwise) {
  const holms::fault::FaultSchedule sched =
      holms::fault::FaultSchedule::from_trace(
          {{10.0, holms::fault::FaultKind::kFail, holms::fault::Target::kNode,
            0},
           {30.0, holms::fault::FaultKind::kRepair,
            holms::fault::Target::kNode, 0}});
  for (FgsPolicy policy : {FgsPolicy::kNonAdaptive, FgsPolicy::kClientFeedback,
                           FgsPolicy::kGracefulDegradation}) {
    const FgsConfig cfg;
    Processor cpu_a = make_cpu();
    ChannelTrace ch_a(Rng(42));
    SlotLossTrace loss_a(&sched, cfg.slot_s, 0.0, 0.35);
    const FgsReport legacy =
        run_fgs_session(policy, cfg, cpu_a, ch_a, 100, &loss_a);

    // Same session as a state machine parked on a DES kernel between slots.
    Processor cpu_b = make_cpu();
    ChannelTrace ch_b(Rng(42));
    SlotLossTrace loss_b(&sched, cfg.slot_s, 0.0, 0.35);
    FgsSessionFom fom(policy, cfg, cpu_b, ch_b, 100, &loss_b);
    holms::sim::Simulator sim;
    std::function<void()> pump = [&] {
      const double d = fom.step();
      if (d >= 0.0) sim.schedule_in(d, [&pump] { pump(); });
    };
    sim.schedule_at(0.0, [&pump] { pump(); });
    sim.run(std::numeric_limits<double>::infinity());

    ASSERT_TRUE(fom.done());
    // The final slot starts at (slots-1) * slot_s.
    EXPECT_DOUBLE_EQ(sim.now(), 99 * cfg.slot_s);
    expect_fgs_bitwise_equal(fom.report(), legacy);
  }
}

TEST(FgsFom, ZeroSlotSessionFinishesOnFirstStep) {
  const FgsConfig cfg;
  Processor cpu = make_cpu();
  ChannelTrace ch(Rng(1));
  FgsSessionFom fom(FgsPolicy::kClientFeedback, cfg, cpu, ch, 0);
  EXPECT_THROW(fom.report(), holms::RuntimeError);
  EXPECT_LT(fom.step(), 0.0);
  ASSERT_TRUE(fom.done());
  EXPECT_EQ(fom.report().slots, 0u);
  EXPECT_EQ(fom.report().mean_psnr_db, 0.0);
}

TEST(FgsFom, StepYieldsSlotPeriodAndExposesSlotTelemetry) {
  FgsConfig cfg;
  cfg.slot_s = 0.25;
  Processor cpu = make_cpu();
  ChannelTrace ch(Rng(3));
  FgsSessionFom fom(FgsPolicy::kClientFeedback, cfg, cpu, ch, 2);
  EXPECT_EQ(fom.step(), FgsSessionFom::kAgain);  // kInit
  EXPECT_EQ(fom.phase(), FgsFomPhase::kSlot);
  EXPECT_EQ(fom.step(), cfg.slot_s);  // slot 0 done, park until next slot
  EXPECT_EQ(fom.slots_done(), 1u);
  EXPECT_GT(fom.last_psnr_db(), 0.0);
  EXPECT_GT(fom.last_load(), 0.0);
  EXPECT_LT(fom.step(), 0.0);  // final slot -> finished
  EXPECT_TRUE(fom.done());
}

// run_slots reproduces step() bit for bit in any chunking, across chunk
// edges and through a hard and a soft fault: every report field, the final
// DVFS level, and every slot's PSNR and load.
TEST(FgsFom, RunSlotsMatchesStepInAnyChunking) {
  using holms::fault::FaultKind;
  using holms::fault::Target;
  const holms::fault::FaultSchedule sched =
      holms::fault::FaultSchedule::from_trace(
          {{10.0, FaultKind::kFail, Target::kNode, 0},
           {30.0, FaultKind::kRepair, Target::kNode, 0},
           {40.0, FaultKind::kSoftFail, Target::kNode, 0},
           {70.0, FaultKind::kScrub, Target::kNode, 0}});
  const std::size_t slots = 3 * kSlotChunk + 5;
  for (FgsPolicy policy : {FgsPolicy::kNonAdaptive, FgsPolicy::kClientFeedback,
                           FgsPolicy::kGracefulDegradation}) {
    const FgsConfig cfg;
    Processor cpu_a = make_cpu();
    ChannelTrace ch_a(Rng(17));
    SlotLossTrace loss_a(&sched, cfg.slot_s, 0.01, 0.35, 0.1);
    FgsSessionFom stepped(policy, cfg, cpu_a, ch_a, slots, &loss_a);
    std::vector<double> psnr_a, load_a;
    stepped.step();  // kInit
    while (!stepped.done()) {
      stepped.step();
      psnr_a.push_back(stepped.last_psnr_db());
      load_a.push_back(stepped.last_load());
    }

    for (const std::size_t k :
         {std::size_t{1}, std::size_t{7}, kSlotChunk, kSlotChunk + 1, slots}) {
      Processor cpu_b = make_cpu();
      ChannelTrace ch_b(Rng(17));
      SlotLossTrace loss_b(&sched, cfg.slot_s, 0.01, 0.35, 0.1);
      FgsSessionFom fom(policy, cfg, cpu_b, ch_b, slots, &loss_b);
      fom.step();  // kInit
      std::vector<double> psnr(slots), load(slots);
      std::size_t ran = 0;
      while (!fom.done()) {
        ran += fom.run_slots(k, std::span(psnr).subspan(ran),
                             std::span(load).subspan(ran));
      }
      ASSERT_EQ(ran, slots) << "k = " << k;
      expect_fgs_bitwise_equal(fom.report(), stepped.report());
      EXPECT_EQ(cpu_b.level(), cpu_a.level()) << "k = " << k;
      EXPECT_EQ(psnr, psnr_a) << "k = " << k;
      EXPECT_EQ(load, load_a) << "k = " << k;
      EXPECT_EQ(fom.last_psnr_db(), stepped.last_psnr_db());
      EXPECT_EQ(fom.run_slots(k, psnr, load), 0u);  // done: a no-op
    }
  }
}

// run_slots refuses to run before the kInit step and to write past its
// output spans; a refused call changes nothing.
TEST(FgsFom, RunSlotsChecksPhaseAndOutputRoom) {
  const FgsConfig cfg;
  Processor cpu = make_cpu();
  ChannelTrace ch(Rng(3));
  FgsSessionFom fom(FgsPolicy::kClientFeedback, cfg, cpu, ch, 10);
  std::vector<double> psnr(10), load(10);
  EXPECT_THROW(fom.run_slots(4, psnr, load), holms::RuntimeError);
  fom.step();  // kInit
  EXPECT_THROW(fom.run_slots(4, std::span(psnr).first(3), load),
               holms::InvalidArgument);
  EXPECT_THROW(fom.run_slots(4, psnr, std::span(load).first(3)),
               holms::InvalidArgument);
  EXPECT_EQ(fom.slots_done(), 0u);
  // Room for what is left is enough, however large k is.
  EXPECT_EQ(fom.run_slots(std::size_t{1} << 40, psnr, load), 10u);
  EXPECT_TRUE(fom.done());
}

// ---------- MPEG-2 session FOM ----------

TEST(Mpeg2Fom, ExternalSimulatorSessionMatchesLegacyBitwise) {
  for (const bool two_cpus : {false, true}) {
    holms::stream::Mpeg2Config cfg;
    cfg.two_cpus = two_cpus;
    const holms::traffic::VideoTraceGenerator::Params vp;

    holms::traffic::VideoTraceGenerator video_a(vp, Rng(7));
    const holms::stream::Mpeg2Report legacy =
        holms::stream::run_mpeg2_decoder(video_a, 120, cfg);

    holms::traffic::VideoTraceGenerator video_b(vp, Rng(7));
    holms::sim::Simulator sim;
    holms::stream::Mpeg2SessionFom fom(sim, video_b, 120, cfg);
    EXPECT_GT(fom.step(), 0.0);  // build returns the feed+drain horizon
    sim.run(fom.horizon());
    EXPECT_LT(fom.step(), 0.0);
    ASSERT_TRUE(fom.done());

    const holms::stream::Mpeg2Report& r = fom.report();
    EXPECT_EQ(r.mean_b2, legacy.mean_b2);
    EXPECT_EQ(r.mean_b3, legacy.mean_b3);
    EXPECT_EQ(r.mean_b4, legacy.mean_b4);
    EXPECT_EQ(r.mean_frame_latency, legacy.mean_frame_latency);
    EXPECT_EQ(r.jitter, legacy.jitter);
    EXPECT_EQ(r.fps_out, legacy.fps_out);
    EXPECT_EQ(r.cpu0_utilization, legacy.cpu0_utilization);
    EXPECT_EQ(r.cpu1_utilization, legacy.cpu1_utilization);
    EXPECT_EQ(r.vld_blocked_time, legacy.vld_blocked_time);
    EXPECT_EQ(r.frames_in, legacy.frames_in);
    EXPECT_EQ(r.frames_out, legacy.frames_out);
    EXPECT_EQ(r.frames_dropped, legacy.frames_dropped);
  }
}

TEST(Mpeg2Fom, AdmissionTimeOffsetDoesNotChangeTheSession) {
  const holms::stream::Mpeg2Config cfg;
  const holms::traffic::VideoTraceGenerator::Params vp;

  holms::traffic::VideoTraceGenerator video_a(vp, Rng(11));
  const holms::stream::Mpeg2Report at_zero =
      holms::stream::run_mpeg2_decoder(video_a, 90, cfg);

  // The same session admitted mid-run on a shared kernel: all its
  // statistics are relative to its own start time.
  holms::traffic::VideoTraceGenerator video_b(vp, Rng(11));
  holms::sim::Simulator sim;
  holms::stream::Mpeg2SessionFom fom(sim, video_b, 90, cfg);
  const double offset = 7.25;
  sim.schedule_at(offset, [&fom] { fom.step(); });
  sim.run(offset + fom.horizon());
  fom.step();
  ASSERT_TRUE(fom.done());

  const holms::stream::Mpeg2Report& r = fom.report();
  EXPECT_EQ(r.frames_in, at_zero.frames_in);
  EXPECT_EQ(r.frames_out, at_zero.frames_out);
  EXPECT_EQ(r.frames_dropped, at_zero.frames_dropped);
  // Time-shifted floating-point sums may differ in the last ulp.
  EXPECT_NEAR(r.mean_frame_latency, at_zero.mean_frame_latency, 1e-9);
  EXPECT_NEAR(r.mean_b2, at_zero.mean_b2, 1e-9);
  EXPECT_NEAR(r.cpu0_utilization, at_zero.cpu0_utilization, 1e-9);
}

// ---------- ServiceManager ----------

ServeReport run_mixed_service(std::size_t threads, std::uint64_t seed) {
  ServeOptions o;
  o.localities = 5;
  o.threads = threads;
  o.max_sessions = 500;
  o.seed = seed;
  ServiceManager m(o);
  const FgsConfig cfg;
  const FgsPolicy policies[] = {FgsPolicy::kNonAdaptive,
                                FgsPolicy::kClientFeedback,
                                FgsPolicy::kGracefulDegradation};
  for (std::size_t i = 0; i < 120; ++i) {
    m.add_fgs_session(policies[i % 3], cfg, 40);
  }
  const holms::stream::Mpeg2Config mcfg;
  const holms::traffic::VideoTraceGenerator::Params vp;
  for (std::size_t i = 0; i < 6; ++i) {
    m.add_mpeg2_session(mcfg, vp, 30);
  }
  return m.run(25.0);
}

TEST(Serve, AggregateReportIsThreadCountInvariant) {
  const ServeReport base = run_mixed_service(1, 99);
  EXPECT_EQ(base.sessions_admitted, 126u);
  EXPECT_EQ(base.sessions_completed, 126u);
  EXPECT_GT(base.events_dispatched, 120u * 40u);
  EXPECT_EQ(base.slot_psnr_db.count(), 120u * 40u);

  // The locality count (5) — not the worker count — defines the partition,
  // so any pool size reproduces the same report, fingerprint and all.
  // env_threads folds the CI HOLMS_THREADS matrix into the sweep.
  for (std::size_t threads :
       {std::size_t{2}, std::size_t{4}, std::size_t{7},
        holms::exec::env_threads(3)}) {
    const ServeReport r = run_mixed_service(threads, 99);
    EXPECT_EQ(r.fingerprint(), base.fingerprint()) << threads << " threads";
    EXPECT_EQ(r.events_dispatched, base.events_dispatched);
    EXPECT_EQ(r.session_psnr_db.mean(), base.session_psnr_db.mean());
    EXPECT_EQ(r.session_energy_j.sum(), base.session_energy_j.sum());
    EXPECT_EQ(r.mpeg2_frames_out, base.mpeg2_frames_out);
    EXPECT_EQ(r.slot_psnr_db.p99(), base.slot_psnr_db.p99());
  }

  // And a different seed is a genuinely different service.
  EXPECT_NE(run_mixed_service(1, 100).fingerprint(), base.fingerprint());
}

// A homogeneous FGS-only service, run in one slice to the horizon and in
// 1-s slices: both must produce the identical report, fingerprint and all.
ServeReport run_fgs_only_service(std::size_t threads, double slice_s) {
  ServeOptions o;
  o.localities = 4;
  o.threads = threads;
  o.max_sessions = 200;
  o.seed = 7;
  ServiceManager m(o);
  const FgsConfig cfg;
  const FgsPolicy policies[] = {FgsPolicy::kNonAdaptive,
                                FgsPolicy::kClientFeedback,
                                FgsPolicy::kGracefulDegradation};
  for (std::size_t i = 0; i < 60; ++i) {
    m.add_fgs_session(policies[i % 3], cfg, 30);
  }
  m.add_fgs_session(FgsPolicy::kClientFeedback, cfg, 0);  // init-only session
  return m.run(30.0, slice_s);
}

TEST(Serve, WaveSchedulerMatchesEventDrivenPathBitwise) {
  const ServeReport wave = run_fgs_only_service(1, 0.0);
  const ServeReport des = run_fgs_only_service(1, 1.0);
  EXPECT_EQ(wave.fingerprint(), des.fingerprint());
  EXPECT_EQ(wave.events_dispatched, des.events_dispatched);
  EXPECT_EQ(wave.sessions_completed, 61u);
  EXPECT_EQ(wave.session_psnr_db.mean(), des.session_psnr_db.mean());
  EXPECT_EQ(wave.session_energy_j.sum(), des.session_energy_j.sum());
  EXPECT_EQ(wave.slot_psnr_db.count(), 60u * 30u);
  EXPECT_EQ(wave.dispatch_lag_s.count(), 0u);

  // The unsliced run is thread-count invariant like the sliced one.
  for (std::size_t threads : {std::size_t{2}, std::size_t{7}}) {
    EXPECT_EQ(run_fgs_only_service(threads, 0.0).fingerprint(),
              wave.fingerprint())
        << threads << " threads";
  }
}

// A hard fault on locality 1 and a soft one, scrubbed later, on locality 2.
holms::fault::FaultSchedule mixed_length_faults() {
  using holms::fault::FaultKind;
  using holms::fault::Target;
  return holms::fault::FaultSchedule::from_trace(
      {{3.0, FaultKind::kFail, Target::kNode, 1},
       {4.0, FaultKind::kSoftFail, Target::kNode, 2},
       {9.0, FaultKind::kRepair, Target::kNode, 1},
       {12.0, FaultKind::kScrub, Target::kNode, 2}});
}

// Sessions of mixed lengths under faults: some finish before the horizon at
// different times, some never do, and two localities replay a hard and a
// soft fault.  Sliced and unsliced runs must complete sessions in one order,
// so the order-sensitive session statistics agree bitwise.
ServeReport run_mixed_length_service(std::size_t threads, double horizon,
                                     double slice_s) {
  const holms::fault::FaultSchedule faults = mixed_length_faults();
  ServeOptions o;
  o.localities = 3;
  o.threads = threads;
  o.max_sessions = 90;
  o.degrade_watermark = 0.5;
  o.seed = 21;
  ServiceManager m(o);
  m.attach_fault_schedule(&faults);
  const FgsConfig cfg;
  const FgsPolicy policies[] = {FgsPolicy::kNonAdaptive,
                                FgsPolicy::kClientFeedback,
                                FgsPolicy::kGracefulDegradation};
  const std::size_t slots[] = {0, 7, 10, 30, 50};
  for (std::size_t i = 0; i < 90; ++i) {
    m.add_fgs_session(policies[i % 3], cfg, slots[i % 5]);
  }
  return m.run(horizon, slice_s);
}

TEST(Serve, WavePathKeepsCompletionOrderUnderMixedSlotsAndFaults) {
  const ServeReport wave = run_mixed_length_service(1, 20.0, 0.0);
  // 41 slot times fit in 20 s: the 50-slot sessions are cut off.
  EXPECT_EQ(wave.sessions_completed, 72u);
  EXPECT_EQ(wave.events_dispatched, 1674u);
  EXPECT_EQ(wave.faults_in_window, 4u);
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    for (double slice_s : {0.0, 1.0}) {
      const ServeReport r = run_mixed_length_service(threads, 20.0, slice_s);
      EXPECT_EQ(r.fingerprint(), wave.fingerprint())
          << threads << " threads, slice " << slice_s;
      EXPECT_EQ(r.sessions_completed, wave.sessions_completed);
      EXPECT_EQ(r.events_dispatched, wave.events_dispatched);
    }
  }

  // Horizon 0 runs every t = 0 step, sliced or not: 90 kInit steps and
  // slot 0 of the 72 sessions with slots; the 18 zero-slot ones complete.
  const ServeReport at_zero = run_mixed_length_service(1, 0.0, 0.0);
  EXPECT_EQ(at_zero.events_dispatched, 90u + 72u);
  EXPECT_EQ(at_zero.sessions_completed, 18u);
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    const ServeReport r = run_mixed_length_service(threads, 0.0, 1.0);
    EXPECT_EQ(r.fingerprint(), at_zero.fingerprint()) << threads << " threads";
    EXPECT_EQ(r.events_dispatched, at_zero.events_dispatched);
    EXPECT_EQ(r.sessions_completed, at_zero.sessions_completed);
  }
}

// A horizon far past the last slot: the dispatch times stop with the longest
// session instead of running on to the horizon, sliced or not.
TEST(Serve, WavePathReturnsAtOnceOnAVeryLongHorizon) {
  const ServeReport wave = run_mixed_length_service(1, 1e12, 0.0);
  const ServeReport des = run_mixed_length_service(1, 1e12, 1e11);
  EXPECT_EQ(wave.sessions_completed, 90u);
  EXPECT_EQ(wave.fingerprint(), des.fingerprint());
  EXPECT_EQ(wave.events_dispatched, des.events_dispatched);
}

// One session far longer than kSlotChunk beside short ones: an unsliced run
// runs it chunk after chunk, up to a horizon that cuts it mid-chunk and past
// its end, and must match a run in ten slices both times.
ServeReport run_long_session_service(double horizon, double slice_s) {
  ServeOptions o;
  o.localities = 1;
  o.threads = 1;
  o.max_sessions = 4;
  o.seed = 5;
  ServiceManager m(o);
  const FgsConfig cfg;
  m.add_fgs_session(FgsPolicy::kGracefulDegradation, cfg, 20000);
  m.add_fgs_session(FgsPolicy::kClientFeedback, cfg, 5);
  m.add_fgs_session(FgsPolicy::kNonAdaptive, cfg, 0);
  m.add_fgs_session(FgsPolicy::kClientFeedback, cfg, 3 * kSlotChunk + 1);
  return m.run(horizon, slice_s);
}

TEST(Serve, WavePathRunsAVeryLongSessionInChunks) {
  // 5000 s at 0.5-s slots is 10,001 slot times: 156 chunks and 17 slots.
  const double horizons[] = {5000.0, 1e7};
  const std::uint64_t events[] = {4 + 10001 + 5 + 193, 4 + 20000 + 5 + 193};
  const std::size_t completed[] = {3, 4};
  for (int h = 0; h < 2; ++h) {
    const ServeReport wave = run_long_session_service(horizons[h], 0.0);
    const ServeReport des =
        run_long_session_service(horizons[h], horizons[h] / 10);
    EXPECT_EQ(wave.events_dispatched, events[h]) << "horizon " << horizons[h];
    EXPECT_EQ(wave.sessions_completed, completed[h]);
    EXPECT_EQ(wave.slot_psnr_db.count(), events[h] - 4);
    EXPECT_EQ(wave.fingerprint(), des.fingerprint());
    EXPECT_EQ(wave.events_dispatched, des.events_dispatched);
    EXPECT_EQ(wave.sessions_completed, des.sessions_completed);
  }
}

// Mixed localities: FGS sessions of several lengths (0, under and over
// kSlotChunk, and long) beside MPEG-2 decoder networks on every locality,
// under a hard and a soft node fault.  Sliced or not, the FGS sessions run
// session-major and the DES carries only the MPEG-2 sessions.  The 900-slot
// sessions complete inside the horizon; the 2000-slot ones are cut
// mid-chunk by it.
constexpr std::size_t kMixedFgsSessions = 45;
constexpr std::size_t kMixedSlots[] = {0, 9, kSlotChunk + 3, 900, 2000};
constexpr double kMixedHorizon = 600.0;  // 1201 slot times at 0.5 s

holms::fault::FaultSchedule hard_and_soft_node_faults() {
  using holms::fault::FaultKind;
  using holms::fault::Target;
  return holms::fault::FaultSchedule::from_trace(
      {{3.0, FaultKind::kFail, Target::kNode, 0},
       {5.0, FaultKind::kSoftFail, Target::kNode, 1},
       {40.0, FaultKind::kRepair, Target::kNode, 0},
       {90.0, FaultKind::kScrub, Target::kNode, 1}});
}

ServeReport run_mixed_locality_service(std::size_t threads, double slice_s) {
  ServeOptions o;
  o.localities = 4;
  o.threads = threads;
  o.max_sessions = 64;
  o.degrade_watermark = 0.5;
  o.seed = 33;
  ServiceManager m(o);
  const holms::fault::FaultSchedule faults = hard_and_soft_node_faults();
  m.attach_fault_schedule(&faults);
  const FgsConfig cfg;
  const FgsPolicy policies[] = {FgsPolicy::kNonAdaptive,
                                FgsPolicy::kClientFeedback,
                                FgsPolicy::kGracefulDegradation};
  for (std::size_t i = 0; i < kMixedFgsSessions; ++i) {
    m.add_fgs_session(policies[i % 3], cfg, kMixedSlots[i % 5]);
  }
  const holms::stream::Mpeg2Config mcfg;
  const holms::traffic::VideoTraceGenerator::Params vp;
  for (std::size_t i = 0; i < 6; ++i) {
    m.add_mpeg2_session(mcfg, vp, 40);  // on localities 1, 2, 3, 0, 1, 2
  }
  return m.run(kMixedHorizon, slice_s);
}

// Runs the mixed-locality service and returns the events its DES kernels
// executed: the MPEG-2 sessions' steps and their decoder networks' events.
std::uint64_t des_events(std::size_t threads, double slice_s,
                         ServeReport& out) {
  holms::exec::MetricsRegistry reg;
  const holms::exec::ScopedMetricsSink sink(reg);
  out = run_mixed_locality_service(threads, slice_s);
  return reg.counter("sim.events_executed").value();
}

// One FGS session beside one MPEG-2 session on a locality under the hard
// fault.  The report's session energy is then that one session's: a
// per-session digest.  A fleet-wide sum over dozens of sessions can round
// away a last-bit difference in one of them (a reordered addition in the
// slot routine's energy accumulators moves a 900-slot session by ~1e-12 J).
double lone_session_energy(FgsPolicy policy, std::size_t slots,
                           double slice_s) {
  ServeOptions o;
  o.localities = 1;
  o.threads = 1;
  o.seed = 33;
  ServiceManager m(o);
  const holms::fault::FaultSchedule faults = hard_and_soft_node_faults();
  m.attach_fault_schedule(&faults);
  m.add_fgs_session(policy, FgsConfig{}, slots);
  m.add_mpeg2_session(holms::stream::Mpeg2Config{},
                      holms::traffic::VideoTraceGenerator::Params{}, 40);
  const ServeReport r = m.run(kMixedHorizon, slice_s);
  EXPECT_EQ(r.sessions_completed, 2u);
  return r.session_energy_j.sum();
}

TEST(Serve, MixedLocalitiesRunFgsSessionMajorBesideMpeg2Bitwise) {
  ServeReport ref;
  ServeReport sliced;
  const std::uint64_t ref_des = des_events(1, 0.0, ref);
  const std::uint64_t sliced_des = des_events(1, 7.0, sliced);
  // Every FGS session but the cut 2000-slot ones completes, and so does
  // every MPEG-2 session.
  EXPECT_EQ(ref.sessions_completed, kMixedFgsSessions / 5 * 4 + 6);
  std::size_t fgs_slots = 0;
  for (const std::size_t n : kMixedSlots) {
    fgs_slots += kMixedFgsSessions / 5 * std::min<std::size_t>(n, 1201);
  }
  EXPECT_EQ(ref.slot_psnr_db.count(), fgs_slots);
  EXPECT_EQ(ref.faults_in_window, 4u);
  EXPECT_GT(ref.mpeg2_frames_out, 0u);
  EXPECT_GT(ref.session_shed.max(), 0.0);
  // Sliced or not, each FGS session's kInit step and slots run
  // session-major and the DES carries only the MPEG-2 events.
  EXPECT_EQ(sliced_des, ref_des);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    for (const double slice_s : {0.0, 7.0}) {
      const ServeReport r = run_mixed_locality_service(threads, slice_s);
      EXPECT_EQ(r.fingerprint(), ref.fingerprint())
          << threads << " threads, slice " << slice_s;
      EXPECT_EQ(r.events_dispatched, ref.events_dispatched);
      EXPECT_EQ(r.sessions_completed, ref.sessions_completed);
      EXPECT_EQ(r.session_energy_j.sum(), ref.session_energy_j.sum());
      EXPECT_EQ(r.mpeg2_frame_latency.sum(), ref.mpeg2_frame_latency.sum());
    }
  }

  for (const FgsPolicy policy :
       {FgsPolicy::kNonAdaptive, FgsPolicy::kClientFeedback,
        FgsPolicy::kGracefulDegradation}) {
    for (const std::size_t slots : {kSlotChunk + 3, std::size_t{900}}) {
      EXPECT_EQ(lone_session_energy(policy, slots, 0.0),
                lone_session_energy(policy, slots, 7.0))
          << "policy " << static_cast<int>(policy) << ", " << slots
          << " slots";
    }
  }
}

// Absolute pins of an FGS-only fleet (FGS channel draws: bernoulli and
// normal) and of FGS beside MPEG-2 sessions (also lognormal frame sizes).
// The tests above mostly compare reports with each other, so these catch a
// draw stream that moves.
TEST(Serve, FingerprintsArePinned) {
  EXPECT_EQ(run_fgs_only_service(1, 0.0).fingerprint(), 0xfd5622249e196ae3ULL);
  EXPECT_EQ(run_mixed_service(1, 99).fingerprint(), 0x8783c80a0ff00ccbULL);
}

// 140 FGS sessions of seven slot lengths, mixed on every locality (zero- and
// one-slot sessions among them), then four MPEG-2 decoder networks, under
// the mixed-length fault trace.  Returns the report and, through
// `calls_digest`, a digest of every observer call in (locality, time)
// order, whatever order the workers made them in.
ServeReport run_seven_slot_fleet(double quantum, double horizon,
                                 double slice_s, std::size_t threads,
                                 std::uint64_t& calls_digest) {
  ServeOptions o;
  o.localities = 3;
  o.threads = threads;
  o.max_sessions = 200;
  o.degrade_watermark = 0.5;
  o.seed = 77;
  o.dispatch_quantum_s = quantum;
  ServiceManager m(o);
  const holms::fault::FaultSchedule faults = mixed_length_faults();
  m.attach_fault_schedule(&faults);
  const FgsPolicy policies[] = {FgsPolicy::kNonAdaptive,
                                FgsPolicy::kClientFeedback,
                                FgsPolicy::kGracefulDegradation};
  const double slot_lengths[] = {0.5, 0.25, 0.3, 0.2, 1.0, 0.1, 0.75};
  const std::size_t slots[] = {0, 1, 7, 10, 30, 50, 3};
  for (std::size_t i = 0; i < 140; ++i) {
    FgsConfig cfg;
    cfg.slot_s = slot_lengths[(i / 3) % 7];
    m.add_fgs_session(policies[i % 3], cfg, slots[i % 7]);
  }
  for (std::size_t i = 0; i < 4; ++i) {
    m.add_mpeg2_session(holms::stream::Mpeg2Config{},
                        holms::traffic::VideoTraceGenerator::Params{}, 30);
  }
  // One call list per locality: a locality runs on one worker at a time.
  using Call = std::tuple<std::size_t, double, std::uint64_t>;
  std::vector<std::vector<Call>> per_locality(o.localities);
  const ServeReport r = m.run(
      horizon, slice_s,
      [&per_locality](std::size_t li, double t, std::uint64_t events) {
        per_locality[li].emplace_back(li, t, events);
      });
  std::vector<Call> calls;
  for (const std::vector<Call>& v : per_locality) {
    calls.insert(calls.end(), v.begin(), v.end());
  }
  std::sort(calls.begin(), calls.end());
  auto mix = [](std::uint64_t h, std::uint64_t v) {
    return holms::exec::splitmix64(h ^ holms::exec::splitmix64(v));
  };
  std::uint64_t h = mix(0, calls.size());
  for (const auto& [li, t, events] : calls) {
    h = mix(mix(mix(h, li), std::bit_cast<std::uint64_t>(t)), events);
  }
  calls_digest = h;
  return r;
}

// Absolute pins of fleets whose slot lengths differ within a locality, with
// and without a dispatch quantum: every slot of theirs must be dispatched
// at the time, and every session completed in the order, that a DES of
// every FGS step gives.  Each value holds at every slicing and thread
// count; the observer digest pins the sliced runs' progress reports.
TEST(Serve, EventPathFleetsArePinned) {
  struct Pin {
    double quantum;
    double horizon;
    std::uint64_t fingerprint;
    std::uint64_t events;
    std::size_t completed;
    std::size_t lags;
    std::uint64_t calls_digest;  // of the run sliced every 0.7 s
  };
  const Pin pins[] = {
      {0.0, 5.0, 0x2c4ef78c42346b11ULL, 1163, 104, 0, 0x2a1540a4687bf1dfULL},
      {0.0, 20.0, 0xe918abd7cccc4bb2ULL, 1809, 125, 0, 0xebd90261b8a1af36ULL},
      {0.3, 5.0, 0x672418c73dbad599ULL, 1032, 104, 928, 0xc415121a1cac32c0ULL},
      {0.3, 20.0, 0x945a3053dfe0555aULL, 1733, 125, 1608,
       0x2152132cf9254c86ULL},
      {0.75, 5.0, 0xe5eafd776f6ee1baULL, 767, 84, 683, 0xf19430701e401c5cULL},
      {0.75, 20.0, 0x325b49259f05cc6fULL, 1557, 104, 1453,
       0x248c1567365e897fULL},
  };
  for (const Pin& p : pins) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      for (const double slice_s : {0.0, 0.7}) {
        std::uint64_t digest = 0;
        const ServeReport r = run_seven_slot_fleet(p.quantum, p.horizon,
                                                   slice_s, threads, digest);
        EXPECT_EQ(r.fingerprint(), p.fingerprint)
            << "quantum " << p.quantum << ", horizon " << p.horizon
            << ", slice " << slice_s << ", " << threads << " threads";
        EXPECT_EQ(r.events_dispatched, p.events);
        EXPECT_EQ(r.sessions_completed, p.completed);
        EXPECT_EQ(r.dispatch_lag_s.count(), p.lags);
        if (slice_s > 0.0) {
          EXPECT_EQ(digest, p.calls_digest);
        }
      }
    }
  }
}

TEST(Serve, AdmissionCapRejectsBeyondMaxSessions) {
  ServeOptions o;
  o.localities = 2;
  o.threads = 1;
  o.max_sessions = 10;
  ServiceManager m(o);
  const FgsConfig cfg;
  std::size_t rejected = 0;
  for (std::size_t i = 0; i < 15; ++i) {
    if (m.add_fgs_session(FgsPolicy::kClientFeedback, cfg, 5) ==
        ServiceManager::kRejected) {
      ++rejected;
    }
  }
  EXPECT_EQ(rejected, 5u);
  EXPECT_EQ(m.active_sessions(), 10u);
  const ServeReport r = m.run(5.0);
  EXPECT_EQ(r.sessions_offered, 15u);
  EXPECT_EQ(r.sessions_admitted, 10u);
  EXPECT_EQ(r.sessions_rejected, 5u);
  EXPECT_EQ(r.sessions_completed, 10u);
}

TEST(Serve, WatermarkForcesLateAdmissionsOntoGracefulLadder) {
  ServeOptions o;
  o.localities = 2;
  o.threads = 1;
  o.max_sessions = 10;
  o.degrade_watermark = 0.5;
  ServiceManager m(o);
  const FgsConfig cfg;
  for (std::size_t i = 0; i < 10; ++i) {
    m.add_fgs_session(FgsPolicy::kClientFeedback, cfg, 5);
  }
  const ServeReport r = m.run(5.0);
  EXPECT_EQ(r.sessions_degraded, 5u);  // sessions 5..9 were over watermark

  // Sessions that already run the graceful ladder are not re-counted.
  ServiceManager m2(o);
  for (std::size_t i = 0; i < 10; ++i) {
    m2.add_fgs_session(FgsPolicy::kGracefulDegradation, cfg, 5);
  }
  EXPECT_EQ(m2.run(5.0).sessions_degraded, 0u);
}

TEST(Serve, NodeFaultsDriveTheSheddingLadder) {
  const holms::fault::FaultSchedule sched =
      holms::fault::FaultSchedule::from_trace(
          {{0.0, holms::fault::FaultKind::kFail, holms::fault::Target::kNode,
            0}});
  auto build = [&](bool faulted) {
    ServeOptions o;
    o.localities = 2;
    o.threads = 1;
    o.fault_loss = 0.4;
    o.seed = 5;
    auto m = std::make_unique<ServiceManager>(o);
    if (faulted) m->attach_fault_schedule(&sched);
    const FgsConfig cfg;
    for (std::size_t i = 0; i < 8; ++i) {
      m->add_fgs_session(FgsPolicy::kGracefulDegradation, cfg, 60);
    }
    return m;
  };

  const ServeReport faulty = build(true)->run(35.0);
  const ServeReport healthy = build(false)->run(35.0);
  EXPECT_EQ(faulty.faults_in_window, 1u);
  EXPECT_EQ(healthy.faults_in_window, 0u);
  // The permanently faulted locality 0 (even session ids) sheds enhancement
  // hard; locality 1 stays clean.
  EXPECT_GT(faulty.session_shed.max(), 0.5);
  EXPECT_EQ(healthy.session_shed.max(), 0.0);
  EXPECT_LT(faulty.session_psnr_db.mean(), healthy.session_psnr_db.mean());

  // The fault feed is part of the admission contract: arming it after
  // sessions exist would silently miss them.
  ServeOptions o;
  ServiceManager late(o);
  late.add_fgs_session(FgsPolicy::kClientFeedback, FgsConfig{}, 1);
  EXPECT_THROW(late.attach_fault_schedule(&sched), holms::RuntimeError);
}

TEST(Serve, DispatchQuantumBatchesStepsAndRecordsLag) {
  auto run_with_quantum = [](double q) {
    ServeOptions o;
    o.localities = 2;
    o.threads = 1;
    o.dispatch_quantum_s = q;
    ServiceManager m(o);
    FgsConfig cfg;
    cfg.slot_s = 0.5;
    for (std::size_t i = 0; i < 10; ++i) {
      m.add_fgs_session(FgsPolicy::kClientFeedback, cfg, 20);
    }
    return m.run(20.0);
  };
  const ServeReport smooth = run_with_quantum(0.0);
  EXPECT_EQ(smooth.dispatch_lag_s.count(), 0u);

  const ServeReport coarse = run_with_quantum(0.75);
  EXPECT_GT(coarse.dispatch_lag_s.count(), 0u);
  EXPECT_LE(coarse.dispatch_lag_s.max(), 0.75);
  EXPECT_EQ(coarse.sessions_completed, 10u);
  // Quantized dispatch is still deterministic, and pinned.
  EXPECT_EQ(run_with_quantum(0.75).fingerprint(), coarse.fingerprint());
  EXPECT_EQ(coarse.fingerprint(), 0x9271ed5d584e7030ULL);
}

// An FGS slot length that is NaN, negative, zero or infinite never reaches a
// locality: add_fgs_session throws before it counts the offer, so run()
// neither stalls on a NaN event time nor fails on a slot in the past.
TEST(Serve, AdmissionRejectsInvalidSlotLengthsBeforeCountingTheOffer) {
  ServeOptions o;
  o.localities = 2;
  o.threads = 1;
  ServiceManager m(o);
  m.add_fgs_session(FgsPolicy::kClientFeedback, FgsConfig{}, 4);
  for (const double slot_s : {std::numeric_limits<double>::quiet_NaN(), -0.5,
                              0.0, std::numeric_limits<double>::infinity()}) {
    FgsConfig cfg;
    cfg.slot_s = slot_s;
    EXPECT_THROW(m.add_fgs_session(FgsPolicy::kClientFeedback, cfg, 4),
                 holms::InvalidArgument)
        << slot_s;
  }
  EXPECT_EQ(m.active_sessions(), 1u);
  const ServeReport r = m.run(5.0);
  EXPECT_EQ(r.sessions_offered, 1u);
  EXPECT_EQ(r.sessions_rejected, 0u);
  EXPECT_EQ(r.sessions_completed, 1u);
}

TEST(Serve, ValidatesOptionsAndIsOneShot) {
  ServeOptions bad;
  bad.localities = 0;
  EXPECT_THROW(ServiceManager{bad}, holms::InvalidArgument);
  bad = ServeOptions{};
  bad.degrade_watermark = 0.0;
  EXPECT_THROW(ServiceManager{bad}, holms::InvalidArgument);
  bad = ServeOptions{};
  bad.dispatch_quantum_s = -1.0;
  EXPECT_THROW(ServiceManager{bad}, holms::InvalidArgument);

  ServeOptions o;
  o.localities = 1;
  o.threads = 1;
  ServiceManager m(o);
  m.add_fgs_session(FgsPolicy::kClientFeedback, FgsConfig{}, 2);
  // A bad horizon or slice length throws before anything runs, so the
  // manager stays runnable: a slice length must be 0 (unsliced) or
  // positive, and a sliced run needs a finite horizon to end.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double slice_s : {nan, -1.0}) {
    EXPECT_THROW(m.run(2.0, slice_s), holms::InvalidArgument) << slice_s;
  }
  EXPECT_THROW(m.run(inf, 1.0), holms::InvalidArgument);
  EXPECT_THROW(m.run(nan), holms::InvalidArgument);
  EXPECT_THROW(m.run(-1.0), holms::InvalidArgument);
  EXPECT_EQ(m.run(2.0).sessions_completed, 1u);
  EXPECT_THROW(m.run(2.0), holms::RuntimeError);
}

}  // namespace
