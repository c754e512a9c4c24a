#include "streaming/fgs.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "exec/error.hpp"
#include "exec/simd.hpp"

namespace holms::streaming {

SlotLossTrace::SlotLossTrace(const fault::FaultSchedule* schedule,
                             double slot_s, double nominal_loss,
                             double faulty_loss, double soft_loss)
    : injector_(schedule), slot_s_(slot_s), nominal_(nominal_loss),
      faulty_(faulty_loss),
      soft_(soft_loss < 0.0 ? faulty_loss : soft_loss) {
  if (!(slot_s > 0.0)) {
    throw holms::InvalidArgument("SlotLossTrace: slot_s must be > 0");
  }
  if (!(nominal_loss >= 0.0 && nominal_loss <= 1.0) ||
      !(faulty_loss >= 0.0 && faulty_loss <= 1.0) || !(soft_ <= 1.0)) {
    throw holms::InvalidArgument("SlotLossTrace: loss must be in [0, 1]");
  }
}

double SlotLossTrace::loss_for_slot(std::size_t slot) {
  // Apply every event up to the start of this slot; the active hard and
  // soft counts are what's left standing.
  injector_.poll(static_cast<double>(slot) * slot_s_,
                 [this](const fault::FaultEvent& e) {
                   switch (e.kind) {
                     case fault::FaultKind::kFail:
                       ++active_faults_;
                       break;
                     case fault::FaultKind::kRepair:
                       if (active_faults_ > 0) --active_faults_;
                       break;
                     case fault::FaultKind::kSoftFail:
                       ++active_soft_;
                       break;
                     case fault::FaultKind::kScrub:
                       if (active_soft_ > 0) {
                         --active_soft_;
                         ++scrubs_applied_;
                       }
                       break;
                   }
                 });
  if (active_faults_ > 0) return faulty_;
  return active_soft_ > 0 ? soft_ : nominal_;
}

ChannelTrace::ChannelTrace(sim::Rng rng, double good_bps, double mid_bps,
                           double bad_bps)
    : rng_(rng), rates_{good_bps, mid_bps, bad_bps} {}

double ChannelTrace::next_capacity_bps() {
  // Sticky three-state Markov chain: 80% stay, 20% move to a neighbor state
  // (reflecting at the ends) — slot-scale coherence like an indoor channel.
  if (rng_.bernoulli(0.2)) {
    if (state_ == 0) {
      state_ = 1;
    } else if (state_ == 2) {
      state_ = 1;
    } else {
      state_ = rng_.bernoulli(0.5) ? 0 : 2;
    }
  }
  // Small lognormal wobble within the state.
  return rates_[state_] * std::exp(rng_.normal(0.0, 0.08));
}

namespace {

double psnr_at_rate(const FgsConfig& cfg, double decoded_bps) {
  if (decoded_bps < cfg.base_layer_bps) {
    // Base layer incomplete: severe degradation, scaled by coverage.
    const double frac = decoded_bps / cfg.base_layer_bps;
    return cfg.psnr_base_db * std::max(0.3, frac);
  }
  const double ratio = decoded_bps / cfg.base_layer_bps;
  return cfg.psnr_base_db +
         cfg.psnr_gain_db_per_doubling * std::log2(ratio + 1e-12);
}

// Slot staging layout: kSlotFields arrays of k doubles carved out of one
// buffer, in FgsSlotBatch field order (16 inputs then 8 outputs).
constexpr std::size_t kSlotFields = 24;

/// k <= kSlotChunk consecutive slots of one client, in three phases.
/// (A) In slot order: the DVFS level search and set_level, the loss-EWMA
/// recurrence (inputs only, so it can run ahead of the slot arithmetic) and
/// the staging of the kernel inputs.  (B) One exec::simd::fgs_slots call,
/// purely elementwise, so each slot's numbers are bitwise independent of k
/// and of the ISA.  (C) In slot order: the accumulator updates, with each
/// slot's feedback debit just before its received-energy add, so every
/// accumulator receives the same additions in the same order as one slot at
/// a time.  `buf` holds kSlotFields * k doubles; the caller fills the first
/// two arrays, channel capacity and loss, for each slot.  psnr_out[j] and
/// load_out[j] receive slot j's PSNR and normalized load.
void run_slot_chunk(FgsPolicy policy, const FgsConfig& cfg,
                    dvfs::Processor& cpu, FgsSlotAccum& st, std::size_t k,
                    double* buf, double* psnr_out, double* load_out) {
  double* f[kSlotFields];
  for (std::size_t i = 0; i < kSlotFields; ++i) f[i] = buf + i * k;
  exec::simd::FgsSlotBatch b;
  b.n = k;
  b.capacity_bps = f[0];
  b.loss = f[1];
  b.policy_graceful = f[2];
  b.policy_feedback = f[3];
  b.freq_hz = f[4];
  b.total_power_w = f[5];
  b.max_stream_bps = f[6];
  b.base_layer_bps = f[7];
  b.slot_s = f[8];
  b.decode_cycles_per_bit = f[9];
  b.rx_nj_per_bit = f[10];
  b.loss_shed_gain = f[11];
  b.base_only_loss_threshold = f[12];
  b.base_fec_cap = f[13];
  b.max_enhancement_bps = f[14];
  b.loss_ewma = f[15];
  b.shed = f[16];
  b.rx_bits = f[17];
  b.decodable_bits = f[18];
  b.rx_energy_j = f[19];
  b.cpu_decode_energy_j = f[20];
  b.cpu_idle_energy_j = f[21];
  b.load_norm = f[22];
  b.decoded_bps = f[23];

  const double max_stream_bps = cfg.base_layer_bps + cfg.max_enhancement_bps;
  const bool feedback = policy == FgsPolicy::kClientFeedback ||
                        policy == FgsPolicy::kGracefulDegradation;
  double ewma = st.loss_ewma;
  for (std::size_t j = 0; j < k; ++j) {
    // --- client advertises its decoding aptitude ---
    if (feedback) {
      const double expected_bps = std::min(f[0][j], max_stream_bps);
      const double needed_cycles = expected_bps * cfg.slot_s *
                                   cfg.decode_cycles_per_bit /
                                   cfg.target_normalized_load;
      std::size_t lvl = cpu.num_points() - 1;
      for (std::size_t l = 0; l < cpu.num_points(); ++l) {
        if (cpu.point(l).frequency_hz * cfg.slot_s >= needed_cycles) {
          lvl = l;
          break;
        }
      }
      cpu.set_level(lvl);
    }
    f[2][j] = policy == FgsPolicy::kGracefulDegradation ? 1.0 : 0.0;
    f[3][j] = policy == FgsPolicy::kClientFeedback ? 1.0 : 0.0;
    f[4][j] = cpu.current().frequency_hz;
    f[5][j] = cpu.model().total_power(cpu.current());
    f[6][j] = max_stream_bps;
    f[7][j] = cfg.base_layer_bps;
    f[8][j] = cfg.slot_s;
    f[9][j] = cfg.decode_cycles_per_bit;
    f[10][j] = cfg.rx_nj_per_bit;
    f[11][j] = cfg.loss_shed_gain;
    f[12][j] = cfg.base_only_loss_threshold;
    f[13][j] = cfg.base_fec_cap;
    f[14][j] = cfg.max_enhancement_bps;
    f[15][j] = ewma;
    ewma = cfg.loss_ewma_alpha * f[1][j] + (1.0 - cfg.loss_ewma_alpha) * ewma;
  }
  st.loss_ewma = ewma;

  exec::simd::kernels().fgs_slots(b);

  for (std::size_t j = 0; j < k; ++j) {
    st.rx_bits += b.rx_bits[j];
    st.wasted_bits += b.rx_bits[j] - b.decodable_bits[j];  // incl. FEC copies
    if (feedback) st.rx_energy_j += cfg.feedback_tx_nj * 1e-9;  // per slot
    st.rx_energy_j += b.rx_energy_j[j];
    st.cpu_energy_j += b.cpu_decode_energy_j[j];
    st.cpu_energy_j += b.cpu_idle_energy_j[j];
    st.load.add(b.load_norm[j]);
    st.loss.add(b.loss[j]);
    st.shed.add(b.shed[j]);
    const double decoded_bps = b.decoded_bps[j];
    if (decoded_bps < cfg.base_layer_bps) ++st.base_misses;
    const double psnr = psnr_at_rate(cfg, decoded_bps);
    st.psnr.add(psnr);
    st.min_psnr = std::min(st.min_psnr, psnr);
    psnr_out[j] = psnr;
    load_out[j] = b.load_norm[j];
  }
}

FgsReport make_report(const FgsSlotAccum& st, std::size_t slots) {
  FgsReport rep;
  rep.slots = slots;
  rep.mean_psnr_db = st.psnr.mean();
  rep.min_psnr_db = slots ? st.min_psnr : 0.0;
  rep.client_rx_energy_j = st.rx_energy_j;
  rep.client_cpu_energy_j = st.cpu_energy_j;
  rep.client_total_energy_j = st.rx_energy_j + st.cpu_energy_j;
  rep.mean_normalized_load = st.load.count() ? st.load.mean() : 0.0;
  rep.wasted_rx_fraction =
      st.rx_bits > 0.0 ? st.wasted_bits / st.rx_bits : 0.0;
  rep.base_layer_misses = st.base_misses;
  rep.mean_loss = st.loss.count() ? st.loss.mean() : 0.0;
  rep.mean_enhancement_shed = st.shed.count() ? st.shed.mean() : 0.0;
  return rep;
}

}  // namespace

FgsSessionFom::FgsSessionFom(FgsPolicy policy, const FgsConfig& cfg,
                             dvfs::Processor& client_cpu,
                             ChannelTrace& channel, std::size_t slots,
                             SlotLossTrace* loss)
    : policy_(policy), cfg_(cfg), cpu_(client_cpu), channel_(channel),
      loss_(loss), slots_(slots) {}

double FgsSessionFom::step() {
  switch (phase_) {
    case FgsFomPhase::kInit:
      if (policy_ == FgsPolicy::kNonAdaptive) {
        cpu_.set_level(cpu_.num_points() - 1);
      }
      if (slots_ == 0) {
        report_ = make_report(accum_, 0);
        phase_ = FgsFomPhase::kDone;
        return kFinished;
      }
      phase_ = FgsFomPhase::kSlot;
      return kAgain;
    case FgsFomPhase::kSlot: {
      // One slot on stack storage, so the DES per-event path stays
      // allocation-free.
      double buf[kSlotFields];
      buf[1] = loss_ != nullptr ? loss_->loss_for_slot(slot_) : 0.0;
      buf[0] = channel_.next_capacity_bps();
      run_slot_chunk(policy_, cfg_, cpu_, accum_, 1, buf, &last_psnr_,
                     &last_load_);
      ++slot_;
      if (slot_ >= slots_) {
        report_ = make_report(accum_, slots_);
        phase_ = FgsFomPhase::kDone;
        return kFinished;
      }
      return cfg_.slot_s;
    }
    case FgsFomPhase::kDone:
      return kFinished;
  }
  return kFinished;  // unreachable
}

std::size_t FgsSessionFom::run_slots(std::size_t k,
                                     std::span<double> psnr_out,
                                     std::span<double> load_out) {
  if (phase_ == FgsFomPhase::kInit) {
    throw holms::RuntimeError("FgsSessionFom: run_slots() before kInit step");
  }
  if (phase_ == FgsFomPhase::kDone) return 0;
  k = std::min(k, slots_ - slot_);
  if (psnr_out.size() < k || load_out.size() < k) {
    throw holms::InvalidArgument(
        "FgsSessionFom::run_slots: psnr_out and load_out need room for k");
  }
  double buf[kSlotFields * kSlotChunk];
  for (std::size_t ran = 0; ran < k;) {
    const std::size_t n = std::min(kSlotChunk, k - ran);
    for (std::size_t j = 0; j < n; ++j) {
      buf[n + j] = loss_ != nullptr ? loss_->loss_for_slot(slot_ + j) : 0.0;
      buf[j] = channel_.next_capacity_bps();
    }
    run_slot_chunk(policy_, cfg_, cpu_, accum_, n, buf, &psnr_out[ran],
                   &load_out[ran]);
    slot_ += n;
    ran += n;
  }
  if (k > 0) {
    last_psnr_ = psnr_out[k - 1];
    last_load_ = load_out[k - 1];
  }
  if (slot_ >= slots_) {
    report_ = make_report(accum_, slots_);
    phase_ = FgsFomPhase::kDone;
  }
  return k;
}

const FgsReport& FgsSessionFom::report() const {
  if (phase_ != FgsFomPhase::kDone) {
    throw holms::RuntimeError("FgsSessionFom: report() before done()");
  }
  return report_;
}

FgsReport run_fgs_session(FgsPolicy policy, const FgsConfig& cfg,
                          dvfs::Processor& client_cpu, ChannelTrace& channel,
                          std::size_t slots, SlotLossTrace* loss) {
  FgsSessionFom fom(policy, cfg, client_cpu, channel, slots, loss);
  while (!fom.done()) fom.step();
  return fom.report();
}

AdhocReport run_fgs_adhoc(FgsPolicy policy, const FgsConfig& cfg,
                          std::vector<dvfs::Processor>& clients,
                          ChannelTrace& shared_channel, std::size_t slots,
                          SlotLossTrace* loss) {
  AdhocReport rep;
  if (clients.empty()) return rep;
  if (policy == FgsPolicy::kNonAdaptive) {
    for (auto& c : clients) c.set_level(c.num_points() - 1);
  }
  std::vector<FgsSlotAccum> states(clients.size());
  double buf[kSlotFields * kSlotChunk];
  double slot_psnr[kSlotChunk];
  double slot_load[kSlotChunk];
  for (std::size_t s0 = 0; s0 < slots; s0 += kSlotChunk) {
    // Fair medium share: every active stream gets capacity / N each slot
    // (every multimedia host also forwards/receives, §4.2 — here they all
    // contend for the same spectrum).  The chunk's shares and losses are
    // drawn once; the clients share no state, so each then runs the chunk
    // in turn.
    const std::size_t n = std::min(kSlotChunk, slots - s0);
    for (std::size_t j = 0; j < n; ++j) {
      buf[j] = shared_channel.next_capacity_bps() /
               static_cast<double>(clients.size());
      buf[n + j] = loss != nullptr ? loss->loss_for_slot(s0 + j) : 0.0;
    }
    for (std::size_t c = 0; c < clients.size(); ++c) {
      run_slot_chunk(policy, cfg, clients[c], states[c], n, buf, slot_psnr,
                     slot_load);
    }
  }
  rep.min_psnr_db = std::numeric_limits<double>::infinity();
  sim::OnlineStats psnr;
  for (std::size_t c = 0; c < clients.size(); ++c) {
    rep.per_client.push_back(make_report(states[c], slots));
    rep.total_client_energy_j += rep.per_client.back().client_total_energy_j;
    psnr.add(rep.per_client.back().mean_psnr_db);
    rep.min_psnr_db =
        std::min(rep.min_psnr_db, rep.per_client.back().min_psnr_db);
  }
  rep.mean_psnr_db = psnr.mean();
  if (slots == 0) rep.min_psnr_db = 0.0;
  return rep;
}

}  // namespace holms::streaming
