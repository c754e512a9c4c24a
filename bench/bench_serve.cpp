// Service-layer scale experiment (DESIGN.md §5h).
//
// Runs a multi-tenant ServiceManager fleet — >10k concurrent FGS sessions
// plus a handful of MPEG-2 decoder networks, sharded over 16 localities —
// and measures sustained FOM-step throughput, per-event dispatch latency
// (p50/p99/p999 over wall-clock slices) and the determinism contract: the
// aggregate report fingerprint must be bitwise identical across thread
// counts and across repeat runs.  Emits BENCH_serve.json, gated by the
// "serve" section of bench/thresholds.json:
//   serve_concurrent_sessions  >= 10000  (admitted sessions in the fleet)
//   serve_thread_invariant     >= 1.0    (threads=1 fp == threads=hw fp)
//   serve_bitwise_reproducible >= 1.0    (repeat run fp identical)
//   serve_paths_agree          >= 1.0    (sliced run fp == unsliced fp)
//   serve_events_per_s         >= 3e5    (sustained FOM steps per second)
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "exec/thread_pool.hpp"
#include "fault/schedule.hpp"
#include "serve/service.hpp"
#include "sim/stats.hpp"
#include "stream/mpeg2.hpp"
#include "streaming/fgs.hpp"
#include "traffic/video.hpp"

namespace {

using holms::serve::ServeOptions;
using holms::serve::ServeReport;
using holms::serve::ServiceManager;
using holms::serve::SliceObserver;
using holms::streaming::FgsPolicy;

constexpr std::size_t kFgsSessions = 12288;
constexpr std::size_t kMpeg2Sessions = 32;
constexpr std::size_t kSlots = 200;  // 100 s of streaming at slot_s = 0.5

double fleet_horizon() {
  const holms::streaming::FgsConfig cfg;
  return static_cast<double>(kSlots) * cfg.slot_s + 5.0;
}

/// Builds the headline fleet: a 3:1 mix of feedback-adaptive and
/// non-adaptive clients plus a graceful-degradation cohort, and a few
/// MPEG-2 decoder networks as heterogeneous tenants.
std::unique_ptr<ServiceManager> make_fleet(std::size_t threads) {
  ServeOptions o;
  o.localities = 16;
  o.threads = threads;
  o.max_sessions = 20000;     // fleet fits: admission control stays out of
  o.degrade_watermark = 1.0;  // the way for the throughput measurement
  o.seed = 2026;
  auto m = std::make_unique<ServiceManager>(o);
  const holms::streaming::FgsConfig cfg;
  const FgsPolicy mix[4] = {
      FgsPolicy::kClientFeedback, FgsPolicy::kClientFeedback,
      FgsPolicy::kNonAdaptive, FgsPolicy::kGracefulDegradation};
  for (std::size_t i = 0; i < kFgsSessions; ++i) {
    m->add_fgs_session(mix[i % 4], cfg, kSlots);
  }
  const holms::stream::Mpeg2Config mcfg;
  const holms::traffic::VideoTraceGenerator::Params vp;
  for (std::size_t i = 0; i < kMpeg2Sessions; ++i) {
    m->add_mpeg2_session(mcfg, vp, 60);
  }
  return m;
}

}  // namespace

int main() {
  holms::bench::BenchReport report("serve");
  holms::bench::title("5h", "multi-tenant service layer at scale");

  const std::size_t hw = holms::exec::resolve_threads(0);
  holms::bench::note("fleet: " + std::to_string(kFgsSessions) + " FGS + " +
                     std::to_string(kMpeg2Sessions) +
                     " MPEG-2 sessions on 16 localities, " +
                     std::to_string(hw) + " hardware threads");

  // --- throughput: the full fleet on all cores, wall-clock timed ---
  using clock = std::chrono::steady_clock;
  const std::unique_ptr<ServiceManager> fleet = make_fleet(0);
  const std::size_t admitted = fleet->active_sessions();
  const auto t0 = clock::now();
  const ServeReport hw_run = fleet->run(fleet_horizon());
  const double wall = std::chrono::duration<double>(clock::now() - t0).count();
  const double events_per_s =
      wall > 0.0 ? static_cast<double>(hw_run.events_dispatched) / wall : 0.0;
  std::printf(
      "%zu sessions, %llu FOM steps in %.2f s -> %.0f events/s "
      "(%.0f sessions/core)\n",
      admitted, static_cast<unsigned long long>(hw_run.events_dispatched),
      wall, events_per_s,
      static_cast<double>(admitted) / static_cast<double>(hw));
  std::printf(
      "slot psnr p50/p99 %.2f/%.2f dB (p1 tail %.2f dB), "
      "session energy mean %.3f J, mpeg2 frames out %llu\n",
      hw_run.slot_psnr_db.p50(), hw_run.slot_psnr_db.p99(),
      hw_run.slot_psnr_db.quantile(0.01), hw_run.session_energy_j.mean(),
      static_cast<unsigned long long>(hw_run.mpeg2_frames_out));
  report.set("serve_concurrent_sessions", static_cast<double>(admitted));
  report.set("serve_events_per_s", events_per_s);
  report.set("serve_sessions_per_core",
             static_cast<double>(admitted) / static_cast<double>(hw));
  report.set("serve_slot_psnr_p99_db", hw_run.slot_psnr_db.p99());
  report.set("serve_slot_psnr_p1_db", hw_run.slot_psnr_db.quantile(0.01));
  report.set("hw_threads", static_cast<double>(hw));

  // --- determinism: thread-count invariance and repeat reproducibility ---
  const ServeReport serial_run = make_fleet(1)->run(fleet_horizon());
  const ServeReport repeat_run = make_fleet(0)->run(fleet_horizon());
  const bool invariant = serial_run.fingerprint() == hw_run.fingerprint();
  const bool reproducible = repeat_run.fingerprint() == hw_run.fingerprint();
  holms::bench::note(
      std::string("fingerprint ") + std::to_string(hw_run.fingerprint()) +
      (invariant ? ", thread-count invariant" : ", THREAD-COUNT DIVERGED") +
      (reproducible ? ", repeat identical" : ", REPEAT DIVERGED"));
  report.set("serve_thread_invariant", invariant ? 1.0 : 0.0);
  report.set("serve_bitwise_reproducible", reproducible ? 1.0 : 0.0);

  // --- dispatch latency: sliced serial run, wall time per FOM step ---
  // Each locality pauses every 5 simulated seconds; the observer converts
  // (wall elapsed / events dispatched) per slice into microseconds per event
  // and feeds a quantile sketch.  Serial execution keeps the timing clean.
  // Sliced, each locality runs its due FGS slots and its DES slice by
  // slice; the unsliced runs above do so in one slice: the reports must
  // agree.
  {
    holms::sim::QuantileSketch lat_us(1e-3, 1e4, 32);
    std::vector<std::uint64_t> prev_events(16, 0);
    auto prev_wall = clock::now();
    const SliceObserver observer = [&](std::size_t li, double /*sim_time*/,
                                       std::uint64_t events) {
      const auto now = clock::now();
      const double us =
          std::chrono::duration<double, std::micro>(now - prev_wall).count();
      const std::uint64_t delta = events - prev_events[li];
      if (delta > 0) lat_us.add(us / static_cast<double>(delta));
      prev_events[li] = events;
      prev_wall = now;
    };
    const ServeReport sliced_run =
        make_fleet(1)->run(fleet_horizon(), 5.0, observer);
    std::printf(
        "dispatch latency per FOM step: p50 %.3f us, p99 %.3f us, "
        "p999 %.3f us (%zu slices)\n",
        lat_us.p50(), lat_us.p99(), lat_us.p999(), lat_us.count());
    report.set("serve_event_p50_us", lat_us.p50());
    report.set("serve_event_p99_us", lat_us.p99());
    report.set("serve_event_p999_us", lat_us.p999());
    const bool agree = sliced_run.fingerprint() == serial_run.fingerprint();
    holms::bench::note(agree ? "sliced run matches the unsliced run"
                             : "SLICED RUN DIVERGED");
    report.set("serve_paths_agree", agree ? 1.0 : 0.0);
  }

  // --- load shedding: watermark + node faults drive the graceful ladder ---
  {
    ServeOptions o;
    o.localities = 4;
    o.threads = 0;
    o.max_sessions = 4096;
    o.degrade_watermark = 0.75;
    o.fault_loss = 0.35;
    o.seed = 7;
    const holms::fault::FaultSchedule sched =
        holms::fault::FaultSchedule::from_trace(
            {{10.0, holms::fault::FaultKind::kFail,
              holms::fault::Target::kNode, 0},
             {10.0, holms::fault::FaultKind::kFail,
              holms::fault::Target::kNode, 1},
             {40.0, holms::fault::FaultKind::kRepair,
              holms::fault::Target::kNode, 0},
             {40.0, holms::fault::FaultKind::kRepair,
              holms::fault::Target::kNode, 1}});
    ServiceManager m(o);
    m.attach_fault_schedule(&sched);
    const holms::streaming::FgsConfig cfg;
    for (std::size_t i = 0; i < 4096; ++i) {
      m.add_fgs_session(FgsPolicy::kClientFeedback, cfg, 120);
    }
    const ServeReport r = m.run(65.0);
    const double degraded_frac =
        static_cast<double>(r.sessions_degraded) /
        static_cast<double>(r.sessions_admitted);
    std::printf(
        "overload+faults: %zu/%zu sessions degraded (%.1f%%), mean shed "
        "%.3f, faults in window %zu\n",
        r.sessions_degraded, r.sessions_admitted, degraded_frac * 100.0,
        r.session_shed.mean(), r.faults_in_window);
    report.set("serve_degraded_fraction", degraded_frac);
    report.set("serve_mean_shed_faulted", r.session_shed.mean());
  }

  return 0;
}
