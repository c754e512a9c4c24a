#pragma once
// Energy-aware MPEG-4 FGS video streaming (paper §4.1, refs [28][29]).
//
// "a low energy MPEG-4 FGS streaming policy using a client-feedback method
//  is presented, where the client decoding aptitude in each timeslot is
//  communicated to the server, and the server subsequently determines the
//  additional amount of data in the form of enhancement layers on top of the
//  MPEG-4 base layer. ... a dynamic voltage and frequency scaling technique
//  is used to adjust the decoding aptitude of the client ... the notion of a
//  normalized decoding load is introduced ... a video streaming system that
//  maintains this normalized load at unity produces the optimum video
//  quality with no energy waste."
//
// The session advances in timeslots.  Each slot the wireless channel offers
// a capacity, the server picks a send rate (base layer + FGS enhancement
// truncated at any bit position), the client receives and decodes.  Data
// received beyond the client's decoding aptitude is pure communication-
// energy waste; aptitude beyond the received data is compute-energy waste.

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "dvfs/dvfs.hpp"
#include "fault/injector.hpp"
#include "fault/schedule.hpp"
#include "sim/random.hpp"

namespace holms::streaming {

enum class FgsPolicy {
  kNonAdaptive,      // server sends max enhancement; client at max frequency
  kClientFeedback,   // [28]: per-slot aptitude feedback + client DVFS
  kGracefulDegradation,  // kClientFeedback + loss-driven degradation ladder:
                         // under sustained loss the server sheds FGS
                         // enhancement bits first and spends part of the
                         // freed budget on base-layer repetition (FEC
                         // margin), dropping to base-only under severe loss
                         // and recovering as the channel heals
};

struct FgsConfig {
  double slot_s = 0.5;               // feedback timeslot
  double base_layer_bps = 256e3;     // BL must always be decoded
  double max_enhancement_bps = 2.0e6;  // FGS cap on top of BL
  double decode_cycles_per_bit = 180.0;
  double rx_nj_per_bit = 230.0;      // WLAN receive energy (client side)
  double feedback_tx_nj = 4000.0;    // per-slot feedback message cost
  double target_normalized_load = 1.0;
  // Quality model: PSNR grows logarithmically in rate above the base layer.
  double psnr_base_db = 30.0;
  double psnr_gain_db_per_doubling = 2.8;
  // Graceful-degradation ladder (kGracefulDegradation only).  The loss EWMA
  // tracks sustained channel loss; the shed fraction of the enhancement
  // budget grows `loss_shed_gain` times faster than the EWMA; above
  // `base_only_loss_threshold` only the base layer is sent; the base layer
  // is protected with a repetition-FEC margin of loss/(1-loss), capped at
  // `base_fec_cap` extra copies.
  double loss_ewma_alpha = 0.3;
  double loss_shed_gain = 2.0;
  double base_only_loss_threshold = 0.5;
  double base_fec_cap = 1.0;

  /// Throws InvalidArgument unless slot_s and the two divisors
  /// (base_layer_bps, target_normalized_load) are finite and > 0,
  /// loss_ewma_alpha is in [0, 1], and every other field is finite and
  /// >= 0.  A NaN slot length would stall a DES run; a negative one reads
  /// as the step protocol's "finished".
  void validate() const;
};

/// Per-slot packet-loss fraction derived from a shared FaultSchedule (event
/// times in seconds).  While any hard fault (kFail .. kRepair) is active the
/// channel loses `faulty_loss` of the bits in flight; while only transient
/// soft faults (kSoftFail .. kScrub) are pending, `soft_loss` (pass a
/// negative value to reuse `faulty_loss`); otherwise `nominal_loss`.  Hard
/// outages dominate soft corruption when both are active.  Slots must be
/// queried in increasing order (replay cursor).
class SlotLossTrace {
 public:
  SlotLossTrace(const fault::FaultSchedule* schedule, double slot_s,
                double nominal_loss = 0.0, double faulty_loss = 0.3,
                double soft_loss = -1.0);

  /// Loss fraction for slot `slot` (slots queried monotonically).
  double loss_for_slot(std::size_t slot);

  /// Soft faults cleared by scrub events replayed so far.
  std::size_t scrubs_applied() const { return scrubs_applied_; }

 private:
  fault::FaultInjector injector_;
  double slot_s_;
  double nominal_;
  double faulty_;
  double soft_;
  std::size_t active_faults_ = 0;
  std::size_t active_soft_ = 0;
  std::size_t scrubs_applied_ = 0;
};

/// Most consecutive slots of one client that the slot routine stages for
/// one exec::simd::fgs_slots call.  Every FGS loop runs its slots through
/// that routine, k <= kSlotChunk at a time; results do not depend on k.
inline constexpr std::size_t kSlotChunk = 64;

/// Markov-modulated wireless channel capacity per slot (three states).
class ChannelTrace {
 public:
  ChannelTrace(sim::Rng rng, double good_bps = 3.0e6, double mid_bps = 1.2e6,
               double bad_bps = 0.35e6);
  /// Capacities offered in the next out.size() slots, in slot order.  Each
  /// slot takes the Markov step and a polar point from the stream's
  /// uniforms; the lognormal wobbles of up to kSlotChunk slots then run as
  /// one exec::simd polar_lognormal call, on the owned exp and log.  The
  /// stream is one and the same whatever the chunking and the ISA.
  void fill_capacity_bps(std::span<double> out);

 private:
  sim::Rng rng_;
  double rates_[3];
  std::size_t state_ = 0;
};

struct FgsReport {
  double mean_psnr_db = 0.0;
  double min_psnr_db = 0.0;
  double client_rx_energy_j = 0.0;     // communication energy at the client
  double client_cpu_energy_j = 0.0;
  double client_total_energy_j = 0.0;
  double mean_normalized_load = 0.0;
  double wasted_rx_fraction = 0.0;     // received bits never decoded
  std::size_t base_layer_misses = 0;   // slots where BL couldn't be decoded
  std::size_t slots = 0;
  double mean_loss = 0.0;              // mean channel-loss fraction seen
  double mean_enhancement_shed = 0.0;  // mean shed fraction (graceful only)
};

/// Per-slot accumulators for one client.  A detail of the slot routine
/// shared by the session state machine and the ad hoc simulation; results
/// are read through FgsReport, but the struct lives here so FgsSessionFom
/// can embed it without heap indirection.  The four running means update as
/// sim::OnlineStats does, mean += (x - mean) / slots, so they match it bit
/// for bit; FgsReport reads nothing else of those streams.
struct FgsSlotAccum {
  std::size_t slots = 0;
  double mean_psnr = 0.0;
  double mean_load = 0.0;
  double mean_loss = 0.0;
  double mean_shed = 0.0;
  double rx_bits = 0.0;
  double wasted_bits = 0.0;
  double rx_energy_j = 0.0;
  double cpu_energy_j = 0.0;
  double min_psnr = std::numeric_limits<double>::infinity();
  std::size_t base_misses = 0;
  double loss_ewma = 0.0;  // sustained-loss estimate driving the ladder
};

/// Explicit phases of one streaming session, reqh/FOM style.
enum class FgsFomPhase : std::uint8_t {
  kInit,  // one-time policy setup (non-adaptive pins the max DVFS level)
  kSlot,  // one timeslot of adapt -> send -> lose -> decode per step()
  kDone,  // report available
};

/// Resumable, non-blocking state machine for one FGS streaming session.
///
/// Each step() executes exactly one phase transition and returns the
/// simulated delay until the machine must run again — kAgain (0.0) to
/// continue within the same timestamp, cfg.slot_s between slots, or a
/// negative value (kFinished) once the session is done.  The FOM never
/// blocks and holds no thread, so tens of thousands of sessions multiplex
/// onto one locality.  Its slots fall due at fixed times, so a scheduler
/// need not park it between them: serve::ServiceManager takes the kInit
/// step, then runs the slots due by each slice end back to back with
/// run_slots().  The one-shot run_fgs_session() below steps it to the end.
/// Every way of driving it produces bitwise-identical reports.
///
/// Holds references to the client's Processor and ChannelTrace; the FOM must
/// not outlive them and must not move once stepping begins (sessions are
/// heap-pinned by the service layer).  The constructor throws
/// InvalidArgument for a config that FgsConfig::validate rejects.
class FgsSessionFom {
 public:
  static constexpr double kAgain = 0.0;
  static constexpr double kFinished = -1.0;

  FgsSessionFom(FgsPolicy policy, const FgsConfig& cfg,
                dvfs::Processor& client_cpu, ChannelTrace& channel,
                std::size_t slots, SlotLossTrace* loss = nullptr);

  /// Runs one phase transition; see class comment for the return protocol.
  double step();

  /// Runs the next min(k, slots left) slots back to back, after the kInit
  /// step, and returns how many ran (0 once done()).  psnr_out[j] and
  /// load_out[j] receive slot j's PSNR and normalized load.  Throws
  /// RuntimeError before the kInit step, and InvalidArgument, running
  /// nothing, if either span is shorter than the slots it would run.
  /// Bitwise what as many step() calls do (step()'s kSlot phase is
  /// run_slots(1)): the loss cursor and channel draws of up to kSlotChunk
  /// slots go first, then the slot routine runs them.  serve runs each
  /// session's due slots back to back, kSlotChunk per call, session by
  /// session, because a locality's per-session state (Rng, CPU,
  /// accumulators) is larger than L2; it then adds finished sessions to
  /// its statistics in the completion order of a DES of every step
  /// (completion time, slots, admission index).
  std::size_t run_slots(std::size_t k, std::span<double> psnr_out,
                        std::span<double> load_out);

  bool done() const { return phase_ == FgsFomPhase::kDone; }
  FgsFomPhase phase() const { return phase_; }
  std::size_t slots() const { return slots_; }
  std::size_t slots_done() const { return slot_; }

  /// Telemetry of the most recent completed slot, for a caller that steps
  /// slot by slot (run_slots hands out every slot's values instead).
  double last_psnr_db() const { return last_psnr_; }
  double last_load() const { return last_load_; }

  /// Valid once done(); throws RuntimeError before that.
  const FgsReport& report() const;

 private:
  FgsPolicy policy_;
  FgsConfig cfg_;
  dvfs::Processor& cpu_;
  ChannelTrace& channel_;
  SlotLossTrace* loss_;
  std::size_t slots_;
  std::size_t slot_ = 0;
  FgsFomPhase phase_ = FgsFomPhase::kInit;
  FgsSlotAccum accum_;
  double last_psnr_ = 0.0;
  double last_load_ = 0.0;
  FgsReport report_;
};

/// Runs one streaming session for `slots` timeslots.  An optional loss trace
/// injects per-slot channel loss; graceful degradation sheds enhancement
/// before the base layer, every other policy loses bits uniformly.
/// (Thin synchronous driver over FgsSessionFom.)
FgsReport run_fgs_session(FgsPolicy policy, const FgsConfig& cfg,
                          dvfs::Processor& client_cpu, ChannelTrace& channel,
                          std::size_t slots, SlotLossTrace* loss = nullptr);

/// Distributed (ad hoc mode, §4.1) streaming: several peer-to-peer streams
/// share one wireless medium.  Each slot the channel capacity is divided
/// equally among the streams that want to transmit (CSMA-style fair share);
/// each client then applies its own policy against its share.
struct AdhocReport {
  std::vector<FgsReport> per_client;
  double total_client_energy_j = 0.0;
  double mean_psnr_db = 0.0;
  double min_psnr_db = 0.0;
};

/// Throws InvalidArgument for a config that FgsConfig::validate rejects.
AdhocReport run_fgs_adhoc(FgsPolicy policy, const FgsConfig& cfg,
                          std::vector<dvfs::Processor>& clients,
                          ChannelTrace& shared_channel, std::size_t slots,
                          SlotLossTrace* loss = nullptr);

}  // namespace holms::streaming
