#pragma once
// ServiceManager: a multi-tenant streaming server multiplexing many FGS and
// MPEG-2 sessions as non-blocking state machines (serve/fom.hpp) over a
// fixed set of localities, run one locality per index on an
// exec::ThreadPool (inline on the caller at one thread).  A locality's
// private DES kernel carries its MPEG-2 sessions; its FGS sessions, whose
// slots fall due at fixed times, run session-major beside it.
// DESIGN.md §5h.
//
// Determinism contract: session ids, per-session RNG streams
// (exec::stream_seed(seed, id)), locality assignment (id % localities) and
// the per-locality event order are all pure functions of the configuration
// and admission order.  Localities are merged in index order, so the report
// — including its fingerprint() — is bitwise identical for any thread count.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "fault/schedule.hpp"
#include "sim/stats.hpp"
#include "stream/mpeg2.hpp"
#include "streaming/fgs.hpp"
#include "traffic/video.hpp"

namespace holms::serve {

struct ServeOptions {
  /// Scheduling domains.  This — not the thread count — is the unit of
  /// parallelism and of determinism: results depend on `localities`, never
  /// on `threads`.
  std::size_t localities = 8;
  std::size_t threads = 0;  // 0 = hardware concurrency, 1 = serial
  /// Admission control: sessions beyond this are rejected outright.
  std::size_t max_sessions = 100000;
  /// Load shedding: FGS sessions admitted at or above
  /// `degrade_watermark * max_sessions` active sessions are forced onto the
  /// kGracefulDegradation ladder (shed enhancement first, protect base).
  double degrade_watermark = 0.85;
  /// > 0 quantizes every inter-step delay up to the next multiple of this
  /// grid: sessions with equal slot lengths then dispatch at shared
  /// timestamps, and the induced lag is recorded in ServeReport::dispatch_lag.
  double dispatch_quantum_s = 0.0;
  /// Channel loss for FGS sessions on a locality while a scheduled hard fault
  /// (Target::kNode, id == locality index) is active or a transient soft one
  /// (kSoftFail, cleared by kScrub scrubbing passes — see
  /// fault::FaultSchedule::soft) is pending; no loss otherwise.  Soft
  /// corruption drives the graceful-degradation ladder without a repair crew
  /// ever being involved.
  double fault_loss = 0.3;
  std::uint64_t seed = 1;

  void validate() const;
};

/// Aggregate service-level report, merged across localities in index order.
struct ServeReport {
  std::size_t sessions_offered = 0;
  std::size_t sessions_admitted = 0;
  std::size_t sessions_rejected = 0;
  std::size_t sessions_degraded = 0;  // forced onto the graceful ladder
  std::size_t sessions_completed = 0;
  std::uint64_t events_dispatched = 0;  // FOM steps executed
  std::size_t faults_in_window = 0;     // scheduled fault events <= horizon

  sim::OnlineStats session_psnr_db;      // per-session mean PSNR
  sim::OnlineStats session_energy_j;     // per-session client energy
  sim::OnlineStats session_shed;         // per-session mean enhancement shed
  sim::OnlineStats mpeg2_frame_latency;  // per-session mean frame latency
  std::uint64_t mpeg2_frames_out = 0;

  // Streaming quantile sketches (p50/p99/p999) over *every* slot served.
  sim::QuantileSketch slot_psnr_db{1.0, 128.0, 32};
  sim::QuantileSketch slot_load{1e-3, 64.0, 32};
  sim::QuantileSketch dispatch_lag_s{1e-6, 64.0, 32};  // quantum mode only

  /// Order-insensitive digest of counters, sketch contents and session
  /// aggregates; the thread-count-invariance gate compares these bitwise.
  std::uint64_t fingerprint() const;
};

/// Per-slice progress callback: (locality index, locality sim time, events
/// dispatched so far on that locality).  With threads > 1 it is invoked
/// concurrently from pool workers and must be thread-safe.
using SliceObserver =
    std::function<void(std::size_t, double, std::uint64_t)>;

class ServiceManager {
 public:
  /// Returned by add_* when admission control rejects the session.
  static constexpr std::size_t kRejected = static_cast<std::size_t>(-1);

  explicit ServiceManager(const ServeOptions& opt);
  ~ServiceManager();
  ServiceManager(const ServiceManager&) = delete;
  ServiceManager& operator=(const ServiceManager&) = delete;

  /// Arms per-locality fault feeds: events with Target::kNode and
  /// id == locality index give that locality's FGS sessions a SlotLossTrace
  /// (loss `fault_loss` while active), which drives the graceful-degradation
  /// ladder.  Must be called before the first session is admitted; throws
  /// RuntimeError otherwise.  Pass nullptr to clear.
  void attach_fault_schedule(const fault::FaultSchedule* schedule);

  /// Admits one FGS session of `slots` timeslots; returns its id, or
  /// kRejected when the admission cap is reached.  Above the degrade
  /// watermark the session is forced onto FgsPolicy::kGracefulDegradation.
  /// Throws InvalidArgument (FgsConfig::validate) before counting the offer.
  std::size_t add_fgs_session(streaming::FgsPolicy policy,
                              const streaming::FgsConfig& cfg,
                              std::size_t slots);

  /// Admits one MPEG-2 decode session (its own Fig.1(b) network on the
  /// locality's kernel); the frame trace is drawn at admission from a
  /// counter-based stream, so it is independent of run order.
  std::size_t add_mpeg2_session(
      const stream::Mpeg2Config& cfg,
      const traffic::VideoTraceGenerator::Params& video_params,
      std::size_t num_frames, double extra_drain_time = 2.0);

  std::size_t active_sessions() const { return admitted_; }

  /// Runs every locality to `horizon` (one locality per pool task) and
  /// merges their statistics in index order.  `slice_s` > 0 pauses each
  /// locality every `slice_s` of simulated time, once every step due by
  /// then has run, to invoke `observer`.  Throws InvalidArgument, running
  /// nothing, for a NaN or negative `horizon` or `slice_s`, or a sliced
  /// run to an infinite horizon.  One-shot: a second call throws
  /// RuntimeError.
  ServeReport run(double horizon, double slice_s = 0.0,
                  const SliceObserver& observer = {});

 private:
  struct FgsSession;
  struct Mpeg2Session;
  struct Locality;

  /// The dispatch time of a step due at `when`: with a dispatch quantum,
  /// the next point of its grid.  Callers record the lag, aligned - when,
  /// once per step they schedule.
  double aligned(double when) const;
  void pump_mpeg2(Locality& loc, Mpeg2Session& s);
  /// Runs every FGS slot on `loc` that falls due by `t` and returns the
  /// time the next one falls due (infinity once none is left).
  double run_due_slots(Locality& loc, double t);
  void run_locality(Locality& loc, std::size_t index, double horizon,
                    double slice_s, const SliceObserver& observer);

  ServeOptions opt_;
  std::vector<std::unique_ptr<Locality>> localities_;
  std::size_t offered_ = 0;
  std::size_t admitted_ = 0;
  std::size_t rejected_ = 0;
  std::size_t degraded_ = 0;
  std::size_t next_id_ = 0;
  bool ran_ = false;
};

}  // namespace holms::serve
