#include "serve/service.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <map>
#include <tuple>
#include <utility>

#include "dvfs/dvfs.hpp"
#include "exec/error.hpp"
#include "exec/rng_stream.hpp"
#include "exec/thread_pool.hpp"
#include "serve/fom.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

namespace holms::serve {

// Both session machines speak the step protocol: the DES steps an MPEG-2
// session event by event, and an FGS session takes its kInit step before
// run_slots runs its slots.  Pin both types to it at compile time.
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

/// One scheduling domain: a private DES kernel that carries its MPEG-2
/// sessions, the FGS sessions that run beside it, its slice of the fault
/// schedule, and its own statistics (merged into the ServeReport in
/// locality-index order).  Sessions are declared after the Simulator so
/// they are destroyed first — their pending events are then discarded,
/// never invoked, by ~Simulator.
struct ServiceManager::Locality {
  /// The FGS sessions of one slot length.  Their slots fall due at times
  /// that follow from the slot length and the dispatch quantum alone, so
  /// they run in lockstep on one list of dispatch times: slot 0 at t = 0,
  /// where the kInit step leaves it, and slot j + 1 at aligned(slot j's
  /// time + slot_s), the times a DES chain of their steps would give them.
  struct Cadence {
    // In admission order until run() sorts them longest first.
    std::vector<std::unique_ptr<FgsSession>> sessions;
    std::vector<double> at{0.0};  // dispatch times computed so far
    std::size_t due = 0;          // slots at[0, due) have run
  };

  sim::Simulator sim;
  fault::FaultSchedule faults;  // kNode events addressed to this locality
  std::map<double, Cadence> fgs;  // FGS sessions by slot length
  std::vector<std::unique_ptr<Mpeg2Session>> mpeg2;

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
  loc.fgs[cfg.slot_s].sessions.push_back(std::make_unique<FgsSession>(
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

double ServiceManager::aligned(double when) const {
  const double q = opt_.dispatch_quantum_s;
  return q > 0.0 ? std::ceil(when / q) * q : when;
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
  const double when = loc.sim.now() + d;
  const double at = aligned(when);
  if (opt_.dispatch_quantum_s > 0.0) loc.lag.add(at - when);
  loc.sim.schedule_at(at, [this, &loc, &s] { pump_mpeg2(loc, s); });
}

// Sessions share no state, so rather than visit every session once per
// dispatch time, each runs its due slots back to back through
// FgsSessionFom::run_slots, kSlotChunk at a time into two stack arrays.  A
// locality's per-session state is larger than L2 (a 2.5 KB Rng each, 2.5 MB
// per 1,024 sessions); session-major order fetches it once per pass, not
// once per slot.  The slot and lag sketches ignore insertion order.
double ServiceManager::run_due_slots(Locality& loc, double t) {
  const bool quantized = opt_.dispatch_quantum_s > 0.0;
  double next = std::numeric_limits<double>::infinity();
  double psnr[streaming::kSlotChunk];
  double load[streaming::kSlotChunk];
  for (auto& [slot_s, c] : loc.fgs) {
    const std::size_t longest = c.sessions.front()->fom.slots();
    // at[due] exists whenever due < longest: it is the next slot's time.
    std::size_t due = c.due;
    while (due < longest && c.at[due] <= t) {
      if (++due == c.at.size() && due < longest) {
        c.at.push_back(aligned(c.at.back() + slot_s));
      }
    }
    if (due < longest) next = std::min(next, c.at[due]);
    const std::size_t from = std::exchange(c.due, due);
    for (const std::unique_ptr<FgsSession>& s : c.sessions) {
      const std::size_t end = std::min(s->fom.slots(), due);
      if (end <= from) break;  // nothing due for it or any shorter session
      loc.events += end - from;
      for (std::size_t j = from; j < end;) {
        const std::size_t n = s->fom.run_slots(
            std::min(streaming::kSlotChunk, end - j), psnr, load);
        for (std::size_t k = 0; k < n; ++k) {
          loc.slot_psnr.add(psnr[k]);
          loc.slot_load.add(load[k]);
        }
        j += n;
      }
      // Every slot but a session's last scheduled the next one.
      if (quantized) {
        for (std::size_t j = from; j < std::min(end, s->fom.slots() - 1); ++j) {
          loc.lag.add(c.at[j + 1] - (c.at[j] + slot_s));
        }
      }
    }
  }
  return next;
}

// One flow at every slicing and quantum: the DES carries the MPEG-2
// sessions, and the FGS sessions run session-major beside it, slice by
// slice.  MPEG-2 and FGS sessions share only the integer event and
// completion counts and the order-insensitive lag sketch, and neither
// schedules the other, so the MPEG-2 events keep the order they had with
// every FGS step a DES event between them.
void ServiceManager::run_locality(Locality& loc, std::size_t index,
                                  double horizon, double slice_s,
                                  const SliceObserver& observer) {
  for (std::unique_ptr<Mpeg2Session>& s : loc.mpeg2) {
    Mpeg2Session* p = s.get();
    loc.sim.schedule_at(0.0, [this, &loc, p] { pump_mpeg2(loc, *p); });
  }
  // t = 0: every kInit step.  Zero-slot sessions finish here; the others
  // leave slot 0 due at t = 0, which is on every quantum grid.  Longest
  // first, a pass stops at the first session with nothing due.
  std::size_t sessions = 0;
  for (auto& [slot_s, c] : loc.fgs) {
    std::sort(c.sessions.begin(), c.sessions.end(),
              [](const auto& a, const auto& b) {
                return std::tuple(b->fom.slots(), a->id) <
                       std::tuple(a->fom.slots(), b->id);
              });
    for (const std::unique_ptr<FgsSession>& s : c.sessions) {
      s->fom.step();
      ++loc.events;
      if (!s->fom.done() && opt_.dispatch_quantum_s > 0.0) loc.lag.add(0.0);
    }
    sessions += c.sessions.size();
  }

  // One slice to the horizon when unsliced.  A slice in which no slot
  // falls due skips the sessions, so an empty slice costs O(1).
  double next_due = 0.0;
  double t = 0.0;
  do {
    t = slice_s > 0.0 ? std::min(t + slice_s, horizon) : horizon;
    if (next_due <= t) next_due = run_due_slots(loc, t);
    loc.sim.run(t);
    if (slice_s > 0.0 && observer) observer(index, loc.sim.now(), loc.events);
  } while (t < horizon);

  // Finished sessions join the order-sensitive session statistics in the
  // DES order of their last steps, (time, insertion).  Zero-slot sessions
  // finish at their kInit step, before any slot at t = 0.  At one time, a
  // session with fewer slots has the longer period (on a quantum grid, more
  // grid points per slot), so its previous step, which scheduled the last,
  // ran earlier; sessions with as many slots share one chain of times,
  // which goes back to the t = 0 slots, scheduled in admission order.  Ids
  // are unique, so the sort never compares the session pointers.
  std::vector<std::tuple<double, std::size_t, std::size_t, FgsSession*>>
      finished;
  finished.reserve(sessions);
  for (const auto& [slot_s, c] : loc.fgs) {
    for (const std::unique_ptr<FgsSession>& s : c.sessions) {
      const std::size_t n = s->fom.slots();
      if (!s->fom.done()) continue;
      finished.emplace_back(n == 0 ? 0.0 : c.at[n - 1], n, s->id, s.get());
    }
  }
  std::sort(finished.begin(), finished.end());
  for (const auto& [at, n, id, s] : finished) {
    const streaming::FgsReport& r = s->fom.report();
    ++loc.completed;
    loc.session_psnr.add(r.mean_psnr_db);
    loc.session_energy.add(r.client_total_energy_j);
    loc.session_shed.add(r.mean_enhancement_shed);
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
  if (!(slice_s >= 0.0) || (slice_s > 0.0 && std::isinf(horizon))) {
    throw holms::InvalidArgument(
        "ServiceManager: slice_s must be >= 0, with a finite horizon if > 0");
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
