#include "stream/stream_system.hpp"

#include <cmath>

namespace holms::stream {
namespace {

/// Internal event-driven state machine for one stream run.
class StreamRun {
 public:
  StreamRun(sim::Simulator& sim, traffic::ArrivalProcess& source,
            ErrorModel& errors, const StreamConfig& cfg)
      : sim_(sim), source_(source), errors_(errors), cfg_(cfg),
        latency_hist_(0.0, 2.0, 2000) {}

  void start() {
    schedule_next_arrival();
    tx_occ_.update(0.0, 0.0);
    rx_occ_.update(0.0, 0.0);
  }

  StreamQos report(double duration) {
    tx_occ_.finish(sim_.now());
    rx_occ_.finish(sim_.now());
    StreamQos q;
    q.offered = offered_;
    q.delivered = delivered_;
    q.lost_tx_overflow = lost_tx_;
    q.lost_channel = lost_channel_;
    q.lost_rx_overflow = lost_rx_;
    q.retransmissions = retx_;
    q.mean_latency = latency_.mean();
    q.p99_latency = latency_hist_.quantile(0.99);
    q.jitter = gap_dev_.count() ? gap_dev_.mean() : 0.0;
    q.loss_rate = offered_ ? 1.0 - static_cast<double>(delivered_) /
                                       static_cast<double>(offered_)
                           : 0.0;
    q.throughput = duration > 0.0
                       ? static_cast<double>(delivered_) / duration
                       : 0.0;
    q.mean_tx_occupancy = tx_occ_.mean();
    q.mean_rx_occupancy = rx_occ_.mean();
    q.tx_energy_joules = tx_energy_;
    return q;
  }

 private:
  void schedule_next_arrival() {
    sim_.schedule_in(source_.next_interarrival(), [this] {
      on_arrival();
      schedule_next_arrival();
    });
  }

  void on_arrival() {
    ++offered_;
    if (tx_queue_.size() >= cfg_.tx_capacity) {
      ++lost_tx_;
      return;
    }
    Packet p;
    p.id = offered_;
    p.size_bits = cfg_.packet_size_bits;
    p.created_at = sim_.now();
    tx_queue_.push_back(p);
    tx_occ_.update(sim_.now(), static_cast<double>(tx_queue_.size()));
    try_transmit();
  }

  void try_transmit() {
    if (channel_busy_ || tx_queue_.empty()) return;
    channel_busy_ = true;
    const Packet p = tx_queue_.front();
    const double tt = cfg_.link.transmission_time(p.size_bits);
    tx_energy_ += cfg_.tx_energy_per_bit * p.size_bits;
    sim_.schedule_in(tt, [this, p] { on_channel_done(p); });
  }

  void on_channel_done(Packet p) {
    const bool bad = errors_.corrupts(sim_.now());
    if (bad) {
      if (p.retransmissions < cfg_.arq_max_retransmissions) {
        // Stop-and-wait ARQ: NAK arrives after the feedback delay, then the
        // head-of-line packet goes out again.
        ++retx_;
        ++tx_queue_.front().retransmissions;
        sim_.schedule_in(cfg_.ack_delay, [this] {
          channel_busy_ = false;
          try_transmit();
        });
        return;
      }
      ++lost_channel_;
      pop_tx();
      channel_busy_ = false;
      try_transmit();
      return;
    }
    pop_tx();
    channel_busy_ = false;
    deliver(p);
    try_transmit();
  }

  void pop_tx() {
    tx_queue_.pop_front();
    tx_occ_.update(sim_.now(), static_cast<double>(tx_queue_.size()));
  }

  void deliver(const Packet& p) {
    if (rx_queue_.size() >= cfg_.rx_capacity) {
      ++lost_rx_;
      return;
    }
    rx_queue_.push_back(p);
    rx_occ_.update(sim_.now(), static_cast<double>(rx_queue_.size()));
    try_consume();
  }

  void try_consume() {
    if (sink_busy_ || rx_queue_.empty()) return;
    if (cfg_.sink_service_time <= 0.0) {
      while (!rx_queue_.empty()) consume_one();
      return;
    }
    sink_busy_ = true;
    sim_.schedule_in(cfg_.sink_service_time, [this] {
      consume_one();
      sink_busy_ = false;
      try_consume();
    });
  }

  void consume_one() {
    const Packet p = rx_queue_.front();
    rx_queue_.pop_front();
    rx_occ_.update(sim_.now(), static_cast<double>(rx_queue_.size()));
    ++delivered_;
    const double lat = sim_.now() - p.created_at;
    latency_.add(lat);
    latency_hist_.add(lat);
    if (last_departure_ >= 0.0) {
      const double gap = sim_.now() - last_departure_;
      if (last_gap_ >= 0.0) gap_dev_.add(std::abs(gap - last_gap_));
      last_gap_ = gap;
    }
    last_departure_ = sim_.now();
  }

  sim::Simulator& sim_;
  traffic::ArrivalProcess& source_;
  ErrorModel& errors_;
  StreamConfig cfg_;

  std::deque<Packet> tx_queue_;
  std::deque<Packet> rx_queue_;
  bool channel_busy_ = false;
  bool sink_busy_ = false;

  std::uint64_t offered_ = 0, delivered_ = 0;
  std::uint64_t lost_tx_ = 0, lost_channel_ = 0, lost_rx_ = 0, retx_ = 0;
  double tx_energy_ = 0.0;
  sim::OnlineStats latency_;
  sim::Histogram latency_hist_;
  sim::OnlineStats gap_dev_;
  sim::TimeWeightedStats tx_occ_;
  sim::TimeWeightedStats rx_occ_;
  double last_departure_ = -1.0;
  double last_gap_ = -1.0;
};

}  // namespace

StreamQos run_stream(traffic::ArrivalProcess& source, ErrorModel& errors,
                     const StreamConfig& cfg, double duration) {
  sim::Simulator sim;
  StreamRun run(sim, source, errors, cfg);
  run.start();
  sim.run(duration);
  return run.report(duration);
}

StreamTuningResult tune_stream(const StreamConfig& base,
                               const GilbertElliottModel::Params& channel,
                               const StreamTuningOptions& opts) {
  opts.validate();
  StreamTuningResult best;
  double best_goodput = -1.0;
  for (const double rate : opts.source_rates) {
    for (const std::uint32_t arq : opts.arq_budgets) {
      StreamConfig cfg = base;
      cfg.arq_max_retransmissions = arq;
      traffic::CbrSource src(rate);
      GilbertElliottModel err(channel, sim::Rng(opts.seed));
      const StreamQos q = run_stream(src, err, cfg, opts.sim_duration);
      ++best.evaluated;
      if (q.loss_rate > opts.max_loss_rate) continue;
      if (q.mean_latency > opts.max_mean_latency) continue;
      if (opts.energy_budget_j_per_s > 0.0 &&
          q.tx_energy_joules / opts.sim_duration >
              opts.energy_budget_j_per_s) {
        continue;
      }
      if (q.throughput > best_goodput) {
        best_goodput = q.throughput;
        best.source_rate = rate;
        best.arq_budget = arq;
        best.qos = q;
        best.feasible = true;
      }
    }
  }
  return best;
}

}  // namespace holms::stream
