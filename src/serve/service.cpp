#include "serve/service.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <utility>

#include "dvfs/dvfs.hpp"
#include "exec/error.hpp"
#include "exec/rng_stream.hpp"
#include "exec/thread_pool.hpp"
#include "serve/fom.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

namespace holms::serve {

// The ServiceManager schedules any machine speaking the step protocol; pin
// the two concrete session types to it at compile time.
static_assert(SessionFom<streaming::FgsSessionFom>);
static_assert(SessionFom<stream::Mpeg2SessionFom>);

void ServeOptions::validate() const {
  if (localities == 0) {
    throw holms::InvalidArgument("ServeOptions: localities must be > 0");
  }
  if (max_sessions == 0) {
    throw holms::InvalidArgument("ServeOptions: max_sessions must be > 0");
  }
  if (!(degrade_watermark > 0.0 && degrade_watermark <= 1.0)) {
    throw holms::InvalidArgument(
        "ServeOptions: degrade_watermark must be in (0, 1]");
  }
  if (!(dispatch_quantum_s >= 0.0)) {
    throw holms::InvalidArgument(
        "ServeOptions: dispatch_quantum_s must be >= 0");
  }
  if (!(fault_loss >= 0.0 && fault_loss <= 1.0)) {
    throw holms::InvalidArgument("ServeOptions: fault_loss must be in [0, 1]");
  }
}

std::uint64_t ServeReport::fingerprint() const {
  auto mix = [](std::uint64_t h, std::uint64_t v) {
    return exec::splitmix64(h ^ exec::splitmix64(v));
  };
  auto mixd = [&mix](std::uint64_t h, double v) {
    return mix(h, std::bit_cast<std::uint64_t>(v));
  };
  std::uint64_t h = 0x5e55101ceull;
  h = mix(h, sessions_offered);
  h = mix(h, sessions_admitted);
  h = mix(h, sessions_rejected);
  h = mix(h, sessions_degraded);
  h = mix(h, sessions_completed);
  h = mix(h, events_dispatched);
  h = mix(h, faults_in_window);
  h = mixd(h, session_psnr_db.mean());
  h = mixd(h, session_psnr_db.sum());
  h = mixd(h, session_energy_j.sum());
  h = mixd(h, session_shed.sum());
  h = mixd(h, mpeg2_frame_latency.sum());
  h = mix(h, mpeg2_frames_out);
  h = mix(h, slot_psnr_db.fingerprint());
  h = mix(h, slot_load.fingerprint());
  h = mix(h, dispatch_lag_s.fingerprint());
  return h;
}

/// One admitted FGS session: the client model (DVFS processor, channel,
/// optional fault-driven loss trace) plus its state machine.  Heap-pinned —
/// the FOM holds references into its siblings.
struct ServiceManager::FgsSession {
  FgsSession(std::size_t id_, streaming::FgsPolicy policy,
             const streaming::FgsConfig& cfg, std::size_t slots,
             std::uint64_t seed, const fault::FaultSchedule* faults,
             double fault_loss)
      : id(id_), cpu(dvfs::xscale_points(), dvfs::PowerModel{}),
        channel(sim::Rng(exec::stream_seed(seed, id_))),
        loss(faults != nullptr
                 ? std::make_unique<streaming::SlotLossTrace>(
                       faults, cfg.slot_s, /*nominal_loss=*/0.0, fault_loss)
                 : nullptr),
        fom(policy, cfg, cpu, channel, slots, loss.get()) {}

  std::size_t id;
  dvfs::Processor cpu;
  streaming::ChannelTrace channel;
  std::unique_ptr<streaming::SlotLossTrace> loss;
  streaming::FgsSessionFom fom;
};

/// One admitted MPEG-2 session: its frame source plus the decoder-network
/// state machine bound to the locality's kernel.
struct ServiceManager::Mpeg2Session {
  Mpeg2Session(sim::Simulator& sim, std::size_t id_,
               const stream::Mpeg2Config& cfg,
               const traffic::VideoTraceGenerator::Params& vp,
               std::size_t num_frames, double extra_drain_time,
               std::uint64_t seed)
      : id(id_), video(vp, sim::Rng(exec::stream_seed(seed, id_))),
        fom(sim, video, num_frames, cfg, extra_drain_time) {}

  std::size_t id;
  traffic::VideoTraceGenerator video;
  stream::Mpeg2SessionFom fom;
};

/// One scheduling domain: a private DES kernel, the sessions sharded onto
/// it, its slice of the fault schedule, and its own statistics (merged into
/// the ServeReport in locality-index order).  Sessions are declared after
/// the Simulator so they are destroyed first — their pending events are then
/// discarded, never invoked, by ~Simulator.
struct ServiceManager::Locality {
  sim::Simulator sim;
  fault::FaultSchedule faults;  // kNode events addressed to this locality
  std::vector<std::unique_ptr<FgsSession>> fgs;
  std::vector<std::unique_ptr<Mpeg2Session>> mpeg2;

  /// Adds a finished FGS session to the order-sensitive session statistics.
  void complete_fgs(const streaming::FgsReport& r) {
    ++completed;
    session_psnr.add(r.mean_psnr_db);
    session_energy.add(r.client_total_energy_j);
    session_shed.add(r.mean_enhancement_shed);
  }

  std::uint64_t events = 0;
  std::size_t completed = 0;
  sim::OnlineStats session_psnr;
  sim::OnlineStats session_energy;
  sim::OnlineStats session_shed;
  sim::OnlineStats mpeg2_latency;
  std::uint64_t mpeg2_frames_out = 0;
  sim::QuantileSketch slot_psnr{1.0, 128.0, 32};
  sim::QuantileSketch slot_load{1e-3, 64.0, 32};
  sim::QuantileSketch lag{1e-6, 64.0, 32};
};

ServiceManager::ServiceManager(const ServeOptions& opt) : opt_(opt) {
  opt_.validate();
  localities_.reserve(opt_.localities);
  for (std::size_t i = 0; i < opt_.localities; ++i) {
    localities_.push_back(std::make_unique<Locality>());
  }
}

ServiceManager::~ServiceManager() = default;

void ServiceManager::attach_fault_schedule(
    const fault::FaultSchedule* schedule) {
  if (offered_ != 0) {
    throw holms::RuntimeError(
        "ServiceManager: attach_fault_schedule() after sessions were "
        "admitted");
  }
  for (std::size_t li = 0; li < localities_.size(); ++li) {
    std::vector<fault::FaultEvent> mine;
    if (schedule != nullptr) {
      for (const fault::FaultEvent& e : schedule->events()) {
        if (e.target == fault::Target::kNode && e.id == li) {
          mine.push_back(e);
        }
      }
    }
    localities_[li]->faults = fault::FaultSchedule::from_trace(std::move(mine));
  }
}

std::size_t ServiceManager::add_fgs_session(streaming::FgsPolicy policy,
                                            const streaming::FgsConfig& cfg,
                                            std::size_t slots) {
  cfg.validate();
  ++offered_;
  if (admitted_ >= opt_.max_sessions) {
    ++rejected_;
    return kRejected;
  }
  const std::size_t id = next_id_++;
  // Load shedding, stage 1: past the watermark every new session is served
  // on the graceful-degradation ladder, trading enhancement-layer quality
  // for base-layer protection before admission control rejects outright.
  const double watermark =
      opt_.degrade_watermark * static_cast<double>(opt_.max_sessions);
  streaming::FgsPolicy effective = policy;
  if (policy != streaming::FgsPolicy::kGracefulDegradation &&
      static_cast<double>(admitted_) >= watermark) {
    effective = streaming::FgsPolicy::kGracefulDegradation;
    ++degraded_;
  }
  Locality& loc = *localities_[id % localities_.size()];
  loc.fgs.push_back(std::make_unique<FgsSession>(
      id, effective, cfg, slots, opt_.seed,
      loc.faults.empty() ? nullptr : &loc.faults, opt_.fault_loss));
  ++admitted_;
  return id;
}

std::size_t ServiceManager::add_mpeg2_session(
    const stream::Mpeg2Config& cfg,
    const traffic::VideoTraceGenerator::Params& video_params,
    std::size_t num_frames, double extra_drain_time) {
  ++offered_;
  if (admitted_ >= opt_.max_sessions) {
    ++rejected_;
    return kRejected;
  }
  const std::size_t id = next_id_++;
  Locality& loc = *localities_[id % localities_.size()];
  loc.mpeg2.push_back(std::make_unique<Mpeg2Session>(
      loc.sim, id, cfg, video_params, num_frames, extra_drain_time,
      opt_.seed));
  ++admitted_;
  return id;
}

double ServiceManager::next_dispatch(Locality& loc, double delay) {
  double when = loc.sim.now() + delay;
  if (opt_.dispatch_quantum_s > 0.0) {
    const double q = opt_.dispatch_quantum_s;
    const double aligned = std::ceil(when / q) * q;
    loc.lag.add(aligned - when);
    when = aligned;
  }
  return when;
}

void ServiceManager::pump_fgs(Locality& loc, FgsSession& s) {
  const std::size_t before = s.fom.slots_done();
  const double d = s.fom.step();
  ++loc.events;
  if (s.fom.slots_done() > before) {
    loc.slot_psnr.add(s.fom.last_psnr_db());
    loc.slot_load.add(s.fom.last_load());
  }
  if (d < 0.0) {
    loc.complete_fgs(s.fom.report());
    return;
  }
  loc.sim.schedule_at(next_dispatch(loc, d),
                      [this, &loc, &s] { pump_fgs(loc, s); });
}

void ServiceManager::pump_mpeg2(Locality& loc, Mpeg2Session& s) {
  const double d = s.fom.step();
  ++loc.events;
  if (d < 0.0) {
    const stream::Mpeg2Report& r = s.fom.report();
    ++loc.completed;
    loc.mpeg2_latency.add(r.mean_frame_latency);
    loc.mpeg2_frames_out += r.frames_out;
    return;
  }
  loc.sim.schedule_at(next_dispatch(loc, d),
                      [this, &loc, &s] { pump_mpeg2(loc, s); });
}

// Wave scheduler: the session-major FGS path.  When a locality's FGS
// sessions share one slot length and nothing observes intermediate time (no
// slicing, no dispatch quantum), their events in the DES degenerate to
// lockstep waves: every live session fires at t = 0, slot_s, 2*slot_s, ...
// in admission order.  Sessions share no state, so rather than visit every
// session once per wave, each session runs all its slots back to back
// through FgsSessionFom::run_slots, kSlotChunk at a time into two stack
// arrays, so memory does not grow with session length.  A locality's
// per-session state is larger than L2 (a 2.5 KB Rng each, 2.5 MB per 1,024
// sessions); session-major order fetches it once, not once per wave.  The
// event count and every session's arithmetic are those of the event-driven
// path.  The slot sketches ignore insertion order; the order-sensitive
// session statistics are added afterwards in the DES completion order,
// completion wave first and then admission index, so the ServeReport
// fingerprint matches bitwise.  MPEG-2 sessions on the same locality stay in
// the DES: they share only the integer event and completion counts with the
// FGS sessions, feed statistics of their own, and no FGS event schedules
// one of theirs, so their events keep their relative order without the FGS
// events between them.
void ServiceManager::run_locality_waves(Locality& loc, double horizon,
                                        double slot_s) {
  // t = 0: the kInit wave.  Zero-slot sessions finish here.
  std::size_t longest = 0;
  for (std::unique_ptr<FgsSession>& s : loc.fgs) {
    s->fom.step();
    ++loc.events;
    longest = std::max(longest, s->fom.slots());
  }
  // The DES executes events with when <= horizon; each wave's timestamp
  // accumulates exactly like the event chain's now() + slot_s.  Waves past
  // the longest session would be empty, so the count stops there.
  std::size_t waves = 0;
  for (double t = 0.0; waves < longest && t <= horizon; t += slot_s) ++waves;

  // (slots run, admission index): a session with n slots completes in wave
  // n - 1, and a zero-slot one in the kInit wave before it.
  std::vector<std::pair<std::size_t, std::size_t>> finished;
  double psnr[streaming::kSlotChunk];
  double load[streaming::kSlotChunk];
  for (std::size_t i = 0; i < loc.fgs.size(); ++i) {
    streaming::FgsSessionFom& fom = loc.fgs[i]->fom;
    std::size_t ran = 0;
    while (ran < waves) {
      const std::size_t n =
          fom.run_slots(std::min(streaming::kSlotChunk, waves - ran), psnr,
                        load);
      if (n == 0) break;
      for (std::size_t j = 0; j < n; ++j) {
        loc.slot_psnr.add(psnr[j]);
        loc.slot_load.add(load[j]);
      }
      ran += n;
    }
    loc.events += ran;
    if (fom.done()) finished.emplace_back(ran, i);
  }
  std::sort(finished.begin(), finished.end());
  for (const auto& [ran, i] : finished) {
    loc.complete_fgs(loc.fgs[i]->fom.report());
  }
}

void ServiceManager::run_locality(Locality& loc, std::size_t index,
                                  double horizon, double slice_s,
                                  const SliceObserver& observer) {
  bool session_major = slice_s <= 0.0 && opt_.dispatch_quantum_s <= 0.0 &&
                       !loc.fgs.empty();
  const double slot_s = session_major ? loc.fgs.front()->fom.slot_s() : 0.0;
  for (const std::unique_ptr<FgsSession>& s : loc.fgs) {
    session_major = session_major && s->fom.slot_s() == slot_s;
  }
  if (session_major) {
    run_locality_waves(loc, horizon, slot_s);
  } else {
    // Arm every FGS session's first step at t=0 in admission order; the
    // kernel's (time, insertion) order then dispatches each wave of aligned
    // slots in admission order.
    for (std::unique_ptr<FgsSession>& s : loc.fgs) {
      FgsSession* p = s.get();
      loc.sim.schedule_at(0.0, [this, &loc, p] { pump_fgs(loc, *p); });
    }
  }
  for (std::unique_ptr<Mpeg2Session>& s : loc.mpeg2) {
    Mpeg2Session* p = s.get();
    loc.sim.schedule_at(0.0, [this, &loc, p] { pump_mpeg2(loc, *p); });
  }
  if (slice_s > 0.0) {
    double t = 0.0;
    while (t < horizon) {
      t = std::min(t + slice_s, horizon);
      loc.sim.run(t);
      if (observer) observer(index, loc.sim.now(), loc.events);
    }
  } else {
    loc.sim.run(horizon);
  }
}

ServeReport ServiceManager::run(double horizon, double slice_s,
                                const SliceObserver& observer) {
  if (ran_) {
    throw holms::RuntimeError("ServiceManager: run() may only be called once");
  }
  if (!(horizon >= 0.0)) {
    throw holms::InvalidArgument("ServiceManager: horizon must be >= 0");
  }
  ran_ = true;

  exec::ThreadPool pool(opt_.threads);
  pool.parallel_for(localities_.size(), [&](std::size_t li) {
    run_locality(*localities_[li], li, horizon, slice_s, observer);
  });

  ServeReport rep;
  rep.sessions_offered = offered_;
  rep.sessions_admitted = admitted_;
  rep.sessions_rejected = rejected_;
  rep.sessions_degraded = degraded_;
  for (const std::unique_ptr<Locality>& lp : localities_) {
    const Locality& loc = *lp;
    rep.sessions_completed += loc.completed;
    rep.events_dispatched += loc.events;
    for (const fault::FaultEvent& e : loc.faults.events()) {
      if (e.time <= horizon) ++rep.faults_in_window;
    }
    rep.session_psnr_db.merge(loc.session_psnr);
    rep.session_energy_j.merge(loc.session_energy);
    rep.session_shed.merge(loc.session_shed);
    rep.mpeg2_frame_latency.merge(loc.mpeg2_latency);
    rep.mpeg2_frames_out += loc.mpeg2_frames_out;
    rep.slot_psnr_db.merge(loc.slot_psnr);
    rep.slot_load.merge(loc.slot_load);
    rep.dispatch_lag_s.merge(loc.lag);
  }
  return rep;
}

}  // namespace holms::serve
