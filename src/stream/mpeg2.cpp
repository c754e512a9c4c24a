#include "stream/mpeg2.hpp"

#include <limits>
#include <utility>

#include "exec/error.hpp"

namespace holms::stream {

Mpeg2SessionFom::Mpeg2SessionFom(sim::Simulator& sim,
                                 traffic::VideoTraceGenerator& video,
                                 std::size_t num_frames,
                                 const Mpeg2Config& cfg,
                                 double extra_drain_time)
    : sim_(sim), cfg_(cfg), frames_(video.generate(num_frames)),
      period_(video.frame_period()),
      horizon_(video.frame_period() * static_cast<double>(num_frames) +
               extra_drain_time) {}

double Mpeg2SessionFom::step() {
  switch (phase_) {
    case Mpeg2FomPhase::kBuild: {
      start_ = sim_.now();
      net_ = std::make_unique<ProcessNetwork>(sim_);
      ProcessNetwork& net = *net_;

      cpu0_ = net.add_cpu(cfg_.policy);
      cpu1_ = cfg_.two_cpus ? net.add_cpu(cfg_.policy) : cpu0_;

      // Source: one token per coded frame, deterministic network arrival
      // rate.  The closures capture `this`; the FOM is pinned (non-movable).
      const std::size_t num_frames = frames_.size();
      const double period = period_;
      auto gap = [this, num_frames, period]() -> double {
        if (next_frame_ >= num_frames) {
          return std::numeric_limits<double>::infinity();  // stop injecting
        }
        return period;
      };
      auto make = [this](std::uint64_t id) {
        Token t;
        t.id = id;
        const auto& f = frames_[next_frame_++];
        t.size_bits = f.size_bits;
        t.work = f.decode_complexity;
        return t;
      };
      receive_ = net.add_source("receive", gap, make);

      const double inv_f = 1.0 / cfg_.cpu_frequency_hz;
      auto stage_time = [inv_f](double cycles_per_bit) {
        return [inv_f, cycles_per_bit](const Token& t) {
          return t.size_bits * cycles_per_bit * inv_f;
        };
      };

      NodeSpec vld_spec;
      vld_spec.name = "VLD";
      vld_spec.cpu = cpu0_;
      vld_spec.priority = 2;
      vld_spec.service_time = stage_time(cfg_.vld_cycles_per_bit);
      vld_ = net.add_worker(std::move(vld_spec));

      NodeSpec idct_spec;
      idct_spec.name = "IDCT";
      idct_spec.cpu = cpu1_;
      idct_spec.priority = 1;
      idct_spec.service_time = stage_time(cfg_.idct_cycles_per_bit);
      const NodeId idct = net.add_worker(std::move(idct_spec));

      NodeSpec mv_spec;
      mv_spec.name = "MV";
      mv_spec.cpu = cpu1_;
      mv_spec.priority = 0;
      mv_spec.service_time = stage_time(cfg_.mv_cycles_per_bit);
      const NodeId mv = net.add_worker(std::move(mv_spec));

      const NodeId display = net.add_sink("display");

      b2_ = net.connect(receive_, vld_, cfg_.b2_capacity, "B2");
      b3_ = net.connect(vld_, idct, cfg_.b3_capacity, "B3");
      b4_ = net.connect(vld_, mv, cfg_.b4_capacity, "B4");
      net.connect(idct, display, cfg_.c_capacity, "C1");
      net.connect(mv, display, cfg_.c_capacity, "C2");

      net.start();
      phase_ = Mpeg2FomPhase::kDrain;
      return horizon_;
    }
    case Mpeg2FomPhase::kDrain: {
      ProcessNetwork& net = *net_;
      net.finish();

      Mpeg2Report r;
      r.mean_b2 = net.buffer(b2_).occupancy().mean();
      r.mean_b3 = net.buffer(b3_).occupancy().mean();
      r.mean_b4 = net.buffer(b4_).occupancy().mean();
      r.mean_frame_latency = net.latency().mean();
      r.jitter = net.mean_jitter();
      r.frames_in = net.node_stats(receive_).firings;
      r.frames_dropped = net.node_stats(receive_).drops;
      r.frames_out = net.tokens_delivered();
      // Rate over the feed window (drain time excluded): equals the nominal
      // frame rate when nothing is dropped or left undecoded.
      const double feed_window =
          period_ * static_cast<double>(frames_.size());
      r.fps_out = feed_window > 0.0
                      ? static_cast<double>(r.frames_out) / feed_window
                      : 0.0;
      const double elapsed = sim_.now() - start_;
      r.cpu0_utilization = net.cpu_utilization(cpu0_, elapsed);
      r.cpu1_utilization =
          cfg_.two_cpus ? net.cpu_utilization(cpu1_, elapsed) : 0.0;
      r.vld_blocked_time = net.node_stats(vld_).blocked_time;
      report_ = r;
      phase_ = Mpeg2FomPhase::kDone;
      return kFinished;
    }
    case Mpeg2FomPhase::kDone:
      return kFinished;
  }
  return kFinished;  // unreachable
}

const Mpeg2Report& Mpeg2SessionFom::report() const {
  if (phase_ != Mpeg2FomPhase::kDone) {
    throw holms::RuntimeError("Mpeg2SessionFom: report() before done()");
  }
  return report_;
}

Mpeg2Report run_mpeg2_decoder(traffic::VideoTraceGenerator& video,
                              std::size_t num_frames, const Mpeg2Config& cfg,
                              double extra_drain_time) {
  sim::Simulator sim;
  Mpeg2SessionFom fom(sim, video, num_frames, cfg, extra_drain_time);
  fom.step();              // build + arm sources
  sim.run(fom.horizon());  // the decode window, driven by the DES kernel
  fom.step();              // close statistics
  return fom.report();
}

}  // namespace holms::stream
