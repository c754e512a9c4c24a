#pragma once
// Flit-level wormhole NoC simulator (paper §3.2/§3.3, refs [21][22]).
//
// Cycle-driven 2D-mesh network: 5-port routers with finite per-virtual-
// channel input buffers, XY or west-first routing, per-output round-robin
// switch arbitration, and wormhole switching — once a head flit claims an
// (output port, downstream VC) pair the worm holds it until the tail
// passes.  This is exactly the mechanism behind the paper's packet-size
// trade-off: "large packets might prohibitively long block a network link
// causing a degradation in the allowable network throughput."  Virtual
// channels relieve that head-of-line blocking at a buffer-area cost — a
// §3.3-style customization knob.

#include <cstddef>
#include <cstdint>
#include <deque>
#include <unordered_set>
#include <vector>

#include "fault/injector.hpp"
#include "fault/schedule.hpp"
#include "noc/topology.hpp"
#include "sim/random.hpp"
#include "sim/stats.hpp"

#include "exec/error.hpp"

namespace holms::noc {

enum class FlitType : std::uint8_t { kHead, kBody, kTail, kHeadTail };

struct Flit {
  FlitType type = FlitType::kHead;
  std::uint64_t packet = 0;
  TileId src = 0;
  TileId dst = 0;
  std::uint64_t injected_cycle = 0;  // when the packet entered the source queue
};

/// A constant-rate or Bernoulli packet flow between two tiles.
struct Flow {
  TileId src = 0;
  TileId dst = 0;
  double packets_per_cycle = 0.01;  // Bernoulli injection probability
  std::size_t packet_flits = 8;     // including the head flit
};

struct NocStats {
  std::uint64_t packets_injected = 0;
  std::uint64_t packets_delivered = 0;
  std::uint64_t flit_hops = 0;
  double mean_packet_latency = 0.0;   // cycles, source-queue entry -> tail eject
  double p99_packet_latency = 0.0;
  double mean_buffer_occupancy = 0.0; // flits per router input port
  double accepted_flits_per_cycle = 0.0;
  double energy_joules = 0.0;
  /// Energy per delivered *payload* bit (one flit per packet is the header).
  double energy_per_bit_pj = 0.0;
  /// Packets lost to faults: worms purged off failing links/routers, packets
  /// sourced at a dead router, and heads that exceeded the stall-drop budget
  /// (blackholed by a non-fault-tolerant routing function).
  std::uint64_t packets_dropped = 0;
  /// delivered / injected (1.0 when nothing was injected).
  double delivery_ratio = 1.0;
  /// Non-productive head-flit hops taken by kFaultTolerant detours (hops
  /// that did not reduce the Manhattan distance to the destination).
  std::uint64_t reroute_hops = 0;
  /// Fault-schedule events applied so far.
  std::uint64_t faults_applied = 0;
};

/// Routing function used by the routers.
enum class RoutingAlgo {
  kXY,            // deterministic dimension-ordered (deadlock-free)
  kWestFirst,     // partially adaptive turn-model routing (deadlock-free):
                  // all westward hops first, then adapt among the productive
                  // east/north/south outputs by downstream buffer space
  kFaultTolerant, // odd-even turn-model adaptive routing over the *live*
                  // subgraph: per-destination BFS admit tables, filled
                  // after each fault/repair event only as deep as head
                  // flits ask, detour around dead links and routers, possibly
                  // non-minimally (counted as reroute_hops), while the
                  // static odd-even turn prohibitions keep every reachable
                  // configuration deadlock-free (DESIGN.md §5e)
};

/// The cycle-driven mesh network.
class NocSim {
 public:
  struct Config {
    std::size_t buffer_depth = 4;     // flits per virtual channel
    std::size_t virtual_channels = 1; // VCs per input port
    double flit_bits = 32.0;
    EnergyModel energy{};
    RoutingAlgo routing = RoutingAlgo::kXY;
    /// Anti-wedge safety valve, consulted only once faults are armed: a head
    /// flit that fails allocation this many consecutive cycles (its
    /// destination unreachable or its only admissible link dead) has its
    /// whole packet dropped and counted, so a blackhole never wedges the
    /// cycle loop or starves the VCs behind it.
    std::uint32_t head_stall_drop_cycles = 1024;

    /// Contract rule C001; checked on NocSim construction, which also
    /// rejects a VC ring array (tiles x 5 ports x VCs x buffer_depth flits)
    /// too large to address.
    void validate() const;
  };

  NocSim(const Mesh2D& mesh, const Config& cfg, sim::Rng rng);

  void add_flow(const Flow& f);

  /// Advances `cycles` network cycles.
  void run(std::uint64_t cycles);

  NocStats stats() const;
  std::uint64_t now() const { return cycle_; }

  /// Arms fault injection from a shared schedule.  Event times are cycles;
  /// Target::kLink ids are Mesh2D undirected-link ids, Target::kNode /
  /// Target::kTile ids are tile ids (both address the tile's router).
  /// Out-of-range ids throw holms::InvalidArgument.  The schedule must
  /// outlive the simulator.
  void attach_fault_schedule(const fault::FaultSchedule* schedule);

  /// Manual fault control (also used by the schedule replay): fails/repairs
  /// the physical link leaving `t` in direction `d` — both directed channels
  /// — purging in-flight worms on failure.
  void set_link_up(TileId t, Dir d, bool up);
  /// Fails/repairs a tile's router, purging everything buffered in or
  /// allocated into it on failure.
  void set_router_up(TileId t, bool up);

  bool link_up(TileId t, Dir d) const {
    return link_up_.empty() || link_up_[mesh_.link_index(t, d)] != 0;
  }
  bool router_up(TileId t) const {
    return router_up_.empty() || router_up_[t] != 0;
  }

 private:
  // One input virtual channel.  Its flits sit in a fixed ring of
  // cfg_.buffer_depth slots in ring_ (VC k owns ring_[k * buffer_depth ..]):
  // `head` is the front flit's slot, `count` the flits buffered.  count never
  // exceeds buffer_depth: injection checks the depth, and a switch move lands
  // in a downstream VC that one worm owns, after a space check against the
  // pre-move counts, with at most one flit per output port per cycle.
  struct VirtualChannel {
    std::size_t head = 0;
    std::size_t count = 0;
    int out_port = -1;  // output port the resident worm holds (-1 free)
    int out_vc = -1;    // downstream VC the worm was allocated
    std::uint64_t cur_packet = 0;  // packet id of the allocated worm (0 none)
    std::uint32_t head_stall = 0;  // consecutive failed head allocations
  };

  struct Router {
    // Flits buffered across the router's input VCs.  The allocate and
    // switch phases skip a router while it is 0 (no head to route, no flit
    // to move, so no round-robin pointer or stall count can change), which
    // makes a cycle cost follow the routers holding flits, not the mesh.
    std::size_t buffered = 0;
    // Round-robin pointer per output port for switch arbitration.
    std::size_t rr[kNumPorts] = {0, 0, 0, 0, 0};
  };

  struct SourceState {
    std::deque<Flit> queue;       // flits awaiting injection, packet order
    std::size_t inject_vc = 0;    // VC the current packet streams into
    std::size_t remaining = 0;    // flits of the current packet still to go
  };

  // A switch grant: the front flit of input VC `vc` (a vcs_ index) of
  // `router` advances this cycle.
  struct Move {
    TileId router;
    std::size_t vc;
  };

  // Index of tile t's input VC `vc` on `port` into vcs_; the same shape
  // indexes vc_owner_ by output port.
  std::size_t vc_index(TileId t, std::size_t port, std::size_t vc) const {
    return (t * kNumPorts + port) * cfg_.virtual_channels + vc;
  }
  /// Appends `fl` to VC k of router t, which must have space.
  void push_flit(TileId t, std::size_t k, const Flit& fl);
  /// Removes and returns the front flit of VC k of router t.
  Flit pop_flit(TileId t, std::size_t k);

  void inject_phase();
  void allocate_phase();
  void switch_phase();
  /// Output ports (bit per Dir) the routing function admits for a head flit
  /// at `here` bound for `dst` that entered via `in_port`.
  unsigned admitted_ports(TileId here, TileId dst, Dir in_port) const;
  /// Free downstream VC index at neighbor entry port, or -1.
  int free_downstream_vc(TileId router, Dir out) const;
  bool downstream_vc_has_space(TileId router, Dir out, int vc) const;

  // --- fault machinery (inert until armed: link_up_ stays empty) ---
  bool faults_armed() const { return !link_up_.empty(); }
  void arm_faults();
  /// Recomputes live_moves_[t] from the link and router state.
  void refresh_live_moves(TileId t);
  void apply_fault_event(const fault::FaultEvent& e);
  /// Removes every trace of the given packets: VC allocations (via
  /// cur_packet), buffered flits, and source-queue flits; counts them as
  /// dropped.
  void purge_packets(const std::unordered_set<std::uint64_t>& pids);
  /// Output-direction mask of `state` (here * kNumPorts + in_port) in the
  /// current-epoch admit table of `dst`, settled first if it is not final.
  std::uint8_t ft_admit(TileId dst, std::size_t state) const;
  /// Restarts `dst`'s reverse BFS over the (tile, in_port) state graph on
  /// live links honoring the turn model (turn_moves_ & live_moves_) and
  /// stops it at the first level boundary past `target`, where every state
  /// it reached holds its final mask.
  void settle_ft(TileId dst, std::size_t target) const;

  const Mesh2D& mesh_;
  Config cfg_;
  sim::Rng rng_;
  std::vector<Router> routers_;
  std::vector<VirtualChannel> vcs_;  // vcs_[vc_index(t, port, vc)]
  std::vector<Flit> ring_;           // every VC's ring, one flat array
  // vc_owner_[vc_index(t, op, v)]: which of t's input VCs (encoded ip * V +
  // vc_in) owns downstream VC v of output port op; -1 = free.
  std::vector<int> vc_owner_;
  std::size_t buffered_total_ = 0;  // sum of every Router::buffered
  std::vector<Move> moves_;         // switch_phase scratch, reused per cycle
  std::vector<Flow> flows_;
  std::vector<SourceState> source_;
  std::uint64_t cycle_ = 0;
  std::uint64_t next_packet_ = 1;

  // Static per-(tile, port) tables, built at construction.  nbr_[t *
  // kNumPorts + d]: the neighbour in direction d (kNoTile off-mesh and for
  // kLocal).  turn_moves_[t * kNumPorts + in]: the output directions the
  // odd-even turn model admits for a worm that entered t via port `in`
  // (on-mesh, no U-turn).
  static constexpr std::uint32_t kNoTile = 0xffffffffu;
  std::vector<std::uint32_t> nbr_;
  std::vector<std::uint8_t> turn_moves_;
  // live_moves_[t]: output directions whose link is up with the routers at
  // both ends up; every fault/repair event refreshes the tiles it touches.
  std::vector<std::uint8_t> live_moves_;

  const fault::FaultSchedule* fault_schedule_ = nullptr;
  fault::FaultInjector injector_;
  std::vector<std::uint8_t> link_up_;    // per directed link; empty = armed off
  std::vector<std::uint8_t> router_up_;  // per tile; empty = armed off
  // kFaultTolerant admit masks per destination: admit[tile*kNumPorts +
  // in_port] -> 5-bit output-direction mask, valid while epoch == ft_epoch_.
  // Every fault/repair event bumps ft_epoch_, so a table is refilled only
  // for destinations a head flit asks about afterwards, and only as deep as
  // their heads ask: an entry is final once it is nonzero, or once the
  // table is complete.
  struct FtTable {
    std::uint64_t epoch = 0;  // 0 = never computed (ft_epoch_ starts at 1)
    bool complete = false;    // a BFS ran out: every entry is final
    std::vector<std::uint8_t> admit;
  };
  std::uint64_t ft_epoch_ = 1;
  // admitted_ports() is const and hot, so the lazily filled tables are
  // mutable.
  mutable std::vector<FtTable> ft_tables_;  // indexed by destination tile
  // BFS scratch shared by every destination: ft_dist_ is unseen everywhere
  // except at the states ft_queue_ holds from the last settle_ft run.
  mutable std::vector<std::uint32_t> ft_dist_;
  mutable std::vector<std::uint32_t> ft_queue_;

  std::uint64_t injected_ = 0, delivered_ = 0, flit_hops_ = 0;
  std::uint64_t flits_ejected_ = 0;
  std::uint64_t dropped_ = 0, reroute_hops_ = 0, faults_applied_ = 0;
  double energy_pj_ = 0.0;
  sim::OnlineStats latency_;
  sim::Histogram latency_hist_{0.0, 4096.0, 4096};
  double occupancy_accum_ = 0.0;
  std::uint64_t occupancy_samples_ = 0;
};

/// Classic synthetic traffic patterns for network characterization.
enum class TrafficPattern {
  kUniformRandom,   // every source spreads over all destinations
  kTranspose,       // (x, y) -> (y, x)
  kBitComplement,   // tile i -> N-1-i
  kHotspot,         // everyone -> the center tile
};

/// Installs one pattern's flows at `packets_per_cycle` injection per tile.
void add_pattern_flows(NocSim& sim, const Mesh2D& mesh, TrafficPattern p,
                       double packets_per_cycle, std::size_t packet_flits);

/// Replays an application's communication graph under a mapping: one flow
/// per edge whose endpoints landed on distinct tiles, with injection rates
/// proportional to edge volume and normalized so they sum to
/// `aggregate_packets_per_cycle`.
class AppGraph;  // fwd (taskgraph.hpp)
void add_appgraph_flows(NocSim& sim, const class AppGraph& g,
                        const std::vector<TileId>& mapping,
                        double aggregate_packets_per_cycle,
                        std::size_t packet_flits);

/// One point of the latency/throughput characterization curve.
struct SweepPoint {
  double injection_rate = 0.0;  // packets per cycle per tile
  double mean_latency = 0.0;
  double p99_latency = 0.0;
  double accepted_flits_per_cycle = 0.0;
  double delivery_ratio = 0.0;
};

/// Sweeps injection rate for a pattern — the standard NoC evaluation curve
/// ([21][22]): flat latency at low load, knee near saturation, then
/// divergence while accepted throughput flattens.
std::vector<SweepPoint> latency_throughput_sweep(
    const Mesh2D& mesh, TrafficPattern pattern,
    const std::vector<double>& rates, std::uint64_t cycles,
    const NocSim::Config& cfg, std::uint64_t seed);

}  // namespace holms::noc
