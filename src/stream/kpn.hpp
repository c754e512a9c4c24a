#pragma once
// Process-network execution engine (paper §2.1).
//
// "A natural choice is to use process graphs where each node corresponds to a
//  process in the multimedia application, while each edge represents a
//  communication channel (link) ... through dedicated buffers that behave
//  like finite-length queues."
//
// Semantics: a worker node fires when (a) every input buffer holds a token,
// (b) every output buffer has space, and (c) its mapped CPU is free.  Firing
// consumes one token per input, occupies the CPU for a model-supplied service
// time, then emits one token per output.  Nodes mapped to the same CPU are
// arbitrated by a scheduler process — "Mapping ... onto a platform with a
// single CPU would imply another process, namely the scheduler."
//
// This one engine executes the MPEG-2 decoder of Fig.1(b), the E2 tandem
// queue, and any other process-graph application in HolMS.

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"

namespace holms::stream {

/// A unit of streamed data flowing through the network.
struct Token {
  std::uint64_t id = 0;
  double created_at = 0.0;
  double work = 0.0;       // abstract work carried (e.g. decode seconds)
  double size_bits = 0.0;  // payload size, for communication costing
};

class ProcessNetwork;

/// Scheduling policy for nodes sharing a CPU.
enum class SchedPolicy { kRoundRobin, kFixedPriority };

/// Identifier types (indices into the network's tables).
struct NodeId { std::size_t v = 0; };
struct EdgeId { std::size_t v = 0; };
struct CpuId { std::size_t v = 0; };

/// Bounded FIFO edge with time-weighted occupancy statistics — the B2/B3/B4
/// buffers of Fig.1(b).  Synchronous-dataflow rates: the producer deposits
/// `produce_count` tokens per firing, the consumer withdraws
/// `consume_count` — multi-rate media graphs (48 kHz audio against 30 fps
/// video, §2.1's "particular temporal relationship") express directly.
class Buffer {
 public:
  Buffer(std::string name, std::size_t capacity, std::size_t produce_count,
         std::size_t consume_count)
      : name_(std::move(name)), capacity_(capacity),
        produce_count_(produce_count), consume_count_(consume_count) {}

  std::size_t produce_count() const { return produce_count_; }
  std::size_t consume_count() const { return consume_count_; }

  bool full() const { return q_.size() >= capacity_; }
  bool empty() const { return q_.empty(); }
  std::size_t size() const { return q_.size(); }
  std::size_t capacity() const { return capacity_; }
  const std::string& name() const { return name_; }

  void push(double now, Token t);
  Token pop(double now);

  /// Time-average number of tokens held (the paper's "average length of
  /// these buffers ... reflects their utilization over time").
  const sim::TimeWeightedStats& occupancy() const { return occupancy_; }
  void close_stats(double now) { occupancy_.finish(now); }

 private:
  std::string name_;
  std::size_t capacity_;
  std::size_t produce_count_;
  std::size_t consume_count_;
  std::deque<Token> q_;
  sim::TimeWeightedStats occupancy_;
};

/// Per-node behaviour hooks.
struct NodeSpec {
  std::string name;
  CpuId cpu{};                       // CPU the node is mapped to
  int priority = 0;                  // higher fires first (kFixedPriority)
  /// Service time of one firing, given the (first) input token.
  std::function<double(const Token&)> service_time;
  /// Transforms the consumed input token(s) into the emitted token; defaults
  /// to forwarding the first input.
  std::function<Token(const std::vector<Token>&)> transform;
};

/// Collected per-node statistics.
struct NodeStats {
  std::uint64_t firings = 0;
  double busy_time = 0.0;
  std::uint64_t drops = 0;         // source tokens lost to a full buffer
  double blocked_time = 0.0;       // time spent write-blocked (producer full)
};

/// Process network bound to a Simulator.  Build the graph, then `start()`
/// sources, run the simulator, then `finish()` to close statistics.
class ProcessNetwork {
 public:
  explicit ProcessNetwork(sim::Simulator& sim) : sim_(sim) {}

  CpuId add_cpu(SchedPolicy policy = SchedPolicy::kRoundRobin);
  NodeId add_worker(NodeSpec spec);
  /// Adds a source that injects tokens according to `next_gap` (returning
  /// the time to the next injection) and `make` (building the token).
  NodeId add_source(std::string name,
                    std::function<double()> next_gap,
                    std::function<Token(std::uint64_t)> make);
  /// Adds a sink that swallows tokens and records end-to-end latency.
  NodeId add_sink(std::string name);

  /// Connects two nodes with a bounded FIFO.  SDF rates: the producer
  /// emits `produce` tokens per firing, the consumer needs `consume`
  /// tokens per firing (defaults give plain single-rate semantics).
  EdgeId connect(NodeId from, NodeId to, std::size_t capacity,
                 std::string buffer_name = {}, std::size_t produce = 1,
                 std::size_t consume = 1);

  /// Arms all sources; call before Simulator::run.
  void start();
  /// Closes time-weighted statistics at the current simulation time.
  void finish();

  const Buffer& buffer(EdgeId e) const { return *edges_.at(e.v); }
  const NodeStats& node_stats(NodeId n) const { return nodes_.at(n.v).stats; }
  /// End-to-end latency stats across all sinks.
  const sim::OnlineStats& latency() const { return latency_; }
  /// Inter-departure jitter at sinks (mean absolute deviation of gaps).
  double mean_jitter() const;
  std::uint64_t tokens_delivered() const { return delivered_; }
  double cpu_utilization(CpuId c, double elapsed) const;

 private:
  enum class Kind { kWorker, kSource, kSink };

  struct Node {
    Kind kind = Kind::kWorker;
    NodeSpec spec;
    std::vector<EdgeId> inputs;
    std::vector<EdgeId> outputs;
    NodeStats stats;
    // Write-blocked state: tokens produced but not yet emitted.
    bool blocked = false;
    double blocked_since = 0.0;
    Token pending_emit;
    // Source state:
    std::function<double()> next_gap;
    std::function<Token(std::uint64_t)> make;
  };

  struct Cpu {
    SchedPolicy policy = SchedPolicy::kRoundRobin;
    bool busy = false;
    double busy_time = 0.0;
    std::size_t rr_next = 0;       // round-robin scan position
    std::vector<std::size_t> nodes;  // workers mapped here
  };

  bool can_fire(const Node& n) const;
  void dispatch(std::size_t cpu_idx);
  void fire(std::size_t node_idx);
  void on_state_change();
  void source_emit(std::size_t node_idx);
  void deliver_to_sink(std::size_t node_idx);

  sim::Simulator& sim_;
  std::vector<Node> nodes_;
  std::vector<std::unique_ptr<Buffer>> edges_;
  std::vector<Cpu> cpus_;
  sim::OnlineStats latency_;
  sim::OnlineStats departure_gap_deviation_;
  double last_departure_ = -1.0;
  double last_gap_ = -1.0;
  std::uint64_t next_token_ = 1;
  std::uint64_t delivered_ = 0;
  bool started_ = false;
};

}  // namespace holms::stream
