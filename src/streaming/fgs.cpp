#include "streaming/fgs.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "exec/error.hpp"
#include "exec/simd.hpp"
#include "sim/stats.hpp"

namespace holms::streaming {

void FgsConfig::validate() const {
  const auto positive = [](double v) { return std::isfinite(v) && v > 0.0; };
  if (!positive(slot_s)) {
    throw holms::InvalidArgument("FgsConfig: slot_s must be finite and > 0");
  }
  if (!positive(base_layer_bps) || !positive(target_normalized_load)) {
    throw holms::InvalidArgument(
        "FgsConfig: base_layer_bps and target_normalized_load must be "
        "finite and > 0");
  }
  if (!(loss_ewma_alpha >= 0.0 && loss_ewma_alpha <= 1.0)) {
    throw holms::InvalidArgument(
        "FgsConfig: loss_ewma_alpha must be in [0, 1]");
  }
  for (const double v :
       {max_enhancement_bps, decode_cycles_per_bit, rx_nj_per_bit,
        feedback_tx_nj, psnr_base_db, psnr_gain_db_per_doubling,
        loss_shed_gain, base_only_loss_threshold, base_fec_cap}) {
    if (!(std::isfinite(v) && v >= 0.0)) {
      throw holms::InvalidArgument(
          "FgsConfig: rates, energies and gains must be finite and >= 0");
    }
  }
}

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

void ChannelTrace::fill_capacity_bps(std::span<double> out) {
  double y[kSlotChunk], r2[kSlotChunk], rate[kSlotChunk];
  sim::Rng::Uniforms unit(rng_);
  std::size_t state = state_;
  for (std::size_t i = 0; i < out.size(); i += kSlotChunk) {
    const std::size_t n = std::min(kSlotChunk, out.size() - i);
    for (std::size_t j = 0; j < n; ++j) {
      // Sticky three-state Markov chain: 80% stay, 20% move to a neighbor
      // state (reflecting at the ends) — slot-scale coherence like an
      // indoor channel.
      if (unit() < 0.2) state = state != 1 ? 1 : (unit() < 0.5 ? 0 : 2);
      const sim::PolarPoint p = sim::polar_point(unit);
      y[j] = p.y;
      r2[j] = p.r2;
      rate[j] = rates_[state];
    }
    // Small lognormal wobble within the state: exp of a normal(0, 0.08).
    exec::simd::kernels().polar_lognormal(y, r2, rate, n, 0.0, 0.08,
                                          out.data() + i);
  }
  state_ = state;
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
// buffer, in FgsSlotBatch field order (5 per-slot inputs then 8 outputs).
constexpr std::size_t kSlotFields = 13;

/// k <= kSlotChunk consecutive slots of one client, in three phases.
/// (A) In slot order: the DVFS level search and set_level, the loss-EWMA
/// recurrence (inputs only, so it can run ahead of the slot arithmetic) and
/// the staging of the per-slot kernel inputs; the per-session ones travel
/// as scalars.  (B) One exec::simd::fgs_slots call, purely elementwise, so
/// each slot's numbers are bitwise independent of k and of the ISA.  (C) In
/// slot order: the accumulator updates, with each slot's feedback debit just
/// before its received-energy add, so every accumulator receives the same
/// additions in the same order as one slot at a time.  `buf` holds
/// kSlotFields * k doubles; the caller fills the first two arrays, channel
/// capacity and loss, for each slot.  psnr_out[j] and load_out[j] receive
/// slot j's PSNR and normalized load.
void run_slot_chunk(FgsPolicy policy, const FgsConfig& cfg,
                    dvfs::Processor& cpu, FgsSlotAccum& st, std::size_t k,
                    double* buf, double* psnr_out, double* load_out) {
  double* f[kSlotFields];
  for (std::size_t i = 0; i < kSlotFields; ++i) f[i] = buf + i * k;
  const double max_stream_bps = cfg.base_layer_bps + cfg.max_enhancement_bps;
  const bool feedback = policy == FgsPolicy::kClientFeedback ||
                        policy == FgsPolicy::kGracefulDegradation;
  exec::simd::FgsSlotBatch b;
  b.n = k;
  b.policy_graceful = policy == FgsPolicy::kGracefulDegradation;
  b.policy_feedback = policy == FgsPolicy::kClientFeedback;
  b.max_stream_bps = max_stream_bps;
  b.base_layer_bps = cfg.base_layer_bps;
  b.slot_s = cfg.slot_s;
  b.decode_cycles_per_bit = cfg.decode_cycles_per_bit;
  b.rx_nj_per_bit = cfg.rx_nj_per_bit;
  b.loss_shed_gain = cfg.loss_shed_gain;
  b.base_only_loss_threshold = cfg.base_only_loss_threshold;
  b.base_fec_cap = cfg.base_fec_cap;
  b.max_enhancement_bps = cfg.max_enhancement_bps;
  b.capacity_bps = f[0];
  b.loss = f[1];
  b.freq_hz = f[2];
  b.total_power_w = f[3];
  b.loss_ewma = f[4];
  b.shed = f[5];
  b.rx_bits = f[6];
  b.decodable_bits = f[7];
  b.rx_energy_j = f[8];
  b.cpu_decode_energy_j = f[9];
  b.cpu_idle_energy_j = f[10];
  b.load_norm = f[11];
  b.decoded_bps = f[12];

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
    f[2][j] = cpu.current().frequency_hz;
    f[3][j] = cpu.model().total_power(cpu.current());
    f[4][j] = ewma;
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
    const double n = static_cast<double>(++st.slots);
    st.mean_load += (b.load_norm[j] - st.mean_load) / n;
    st.mean_loss += (b.loss[j] - st.mean_loss) / n;
    st.mean_shed += (b.shed[j] - st.mean_shed) / n;
    const double decoded_bps = b.decoded_bps[j];
    if (decoded_bps < cfg.base_layer_bps) ++st.base_misses;
    const double psnr = psnr_at_rate(cfg, decoded_bps);
    st.mean_psnr += (psnr - st.mean_psnr) / n;
    st.min_psnr = std::min(st.min_psnr, psnr);
    psnr_out[j] = psnr;
    load_out[j] = b.load_norm[j];
  }
}

FgsReport make_report(const FgsSlotAccum& st) {
  FgsReport rep;
  rep.slots = st.slots;
  rep.mean_psnr_db = st.mean_psnr;
  rep.min_psnr_db = st.slots ? st.min_psnr : 0.0;
  rep.client_rx_energy_j = st.rx_energy_j;
  rep.client_cpu_energy_j = st.cpu_energy_j;
  rep.client_total_energy_j = st.rx_energy_j + st.cpu_energy_j;
  rep.mean_normalized_load = st.mean_load;
  rep.wasted_rx_fraction =
      st.rx_bits > 0.0 ? st.wasted_bits / st.rx_bits : 0.0;
  rep.base_layer_misses = st.base_misses;
  rep.mean_loss = st.mean_loss;
  rep.mean_enhancement_shed = st.mean_shed;
  return rep;
}

}  // namespace

FgsSessionFom::FgsSessionFom(FgsPolicy policy, const FgsConfig& cfg,
                             dvfs::Processor& client_cpu,
                             ChannelTrace& channel, std::size_t slots,
                             SlotLossTrace* loss)
    : policy_(policy), cfg_(cfg), cpu_(client_cpu), channel_(channel),
      loss_(loss), slots_(slots) {
  cfg_.validate();
}

double FgsSessionFom::step() {
  switch (phase_) {
    case FgsFomPhase::kInit:
      if (policy_ == FgsPolicy::kNonAdaptive) {
        cpu_.set_level(cpu_.num_points() - 1);
      }
      if (slots_ == 0) {
        report_ = make_report(accum_);
        phase_ = FgsFomPhase::kDone;
        return kFinished;
      }
      phase_ = FgsFomPhase::kSlot;
      return kAgain;
    case FgsFomPhase::kSlot:
      run_slots(1, {&last_psnr_, 1}, {&last_load_, 1});
      return done() ? kFinished : cfg_.slot_s;
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
    }
    channel_.fill_capacity_bps(std::span<double>(buf, n));
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
    report_ = make_report(accum_);
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
  cfg.validate();
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
    shared_channel.fill_capacity_bps(std::span<double>(buf, n));
    for (std::size_t j = 0; j < n; ++j) {
      buf[j] /= static_cast<double>(clients.size());
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
    rep.per_client.push_back(make_report(states[c]));
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
