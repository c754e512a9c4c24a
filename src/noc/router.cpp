#include "noc/router.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "noc/taskgraph.hpp"

#include "exec/error.hpp"
#include "exec/metrics.hpp"

namespace holms::noc {
namespace {

constexpr std::size_t port_of(Dir d) { return static_cast<std::size_t>(d); }

// An FT BFS distance not reached by the current run.
constexpr std::uint32_t kFtUnseen = 0xffffffffu;

// The input port of the *neighbor* that a flit leaving via `out` lands on.
Dir entry_port(Dir out) {
  switch (out) {
    case Dir::kNorth: return Dir::kSouth;
    case Dir::kSouth: return Dir::kNorth;
    case Dir::kEast: return Dir::kWest;
    case Dir::kWest: return Dir::kEast;
    case Dir::kLocal: return Dir::kLocal;
  }
  return Dir::kLocal;
}

// tiles * kNumPorts * VCs * buffer_depth, the flat VC ring array's length;
// rejects a product above `limit` instead of letting it wrap around.
std::size_t ring_slots(std::size_t tiles, const NocSim::Config& cfg,
                       std::size_t limit) {
  std::size_t n = tiles;
  for (const std::size_t f :
       {kNumPorts, cfg.virtual_channels, cfg.buffer_depth}) {
    if (n != 0 && f > limit / n) {
      throw holms::InvalidArgument(
          "NocSim: tiles x ports x VCs x buffer_depth flits is too large");
    }
    n *= f;
  }
  return n;
}

}  // namespace

void NocSim::Config::validate() const {
  if (buffer_depth == 0 || virtual_channels == 0) {
    throw holms::InvalidArgument("NocSim: need buffer_depth, VCs >= 1");
  }
  if (!(std::isfinite(flit_bits) && flit_bits > 0.0)) {
    throw holms::InvalidArgument("NocSim: flit_bits must be finite and > 0");
  }
  for (const double e :
       {energy.e_router_pj, energy.e_link_pj, energy.e_buffer_pj}) {
    if (!(std::isfinite(e) && e >= 0.0)) {
      throw holms::InvalidArgument(
          "NocSim: energy coefficients must be finite and >= 0");
    }
  }
  if (head_stall_drop_cycles == 0) {
    throw holms::InvalidArgument(
        "NocSim: head_stall_drop_cycles must be >= 1");
  }
}

NocSim::NocSim(const Mesh2D& mesh, const Config& cfg, sim::Rng rng)
    : mesh_(mesh), cfg_(cfg), rng_(rng) {
  cfg_.validate();
  const std::size_t T = mesh_.num_tiles();
  ring_.resize(ring_slots(T, cfg_, ring_.max_size()));
  routers_.resize(T);
  vcs_.resize(T * kNumPorts * cfg_.virtual_channels);
  vc_owner_.assign(vcs_.size(), -1);
  source_.resize(T);
  if (cfg_.routing == RoutingAlgo::kFaultTolerant) {
    ft_tables_.resize(T);
    ft_dist_.assign(T * kNumPorts, kFtUnseen);
  }
  nbr_.assign(T * kNumPorts, kNoTile);
  turn_moves_.assign(T * kNumPorts, 0);
  live_moves_.assign(T, 0);
  constexpr auto bit = [](Dir d) { return 1u << port_of(d); };
  for (TileId t = 0; t < T; ++t) {
    unsigned on_mesh = 0;
    for (std::size_t d = 1; d < kNumPorts; ++d) {
      if (!mesh_.has_neighbor(t, static_cast<Dir>(d))) continue;
      nbr_[t * kNumPorts + d] =
          static_cast<std::uint32_t>(mesh_.neighbor(t, static_cast<Dir>(d)));
      on_mesh |= 1u << d;
    }
    // Odd-even turn model (Chiu): EN/ES turns forbidden in even columns,
    // NW/SW turns forbidden in odd columns.  The prohibited-turn set is
    // static — independent of fault state — which is what keeps every
    // reconfigured admit table deadlock-free (DESIGN.md §5e).
    const bool even_col = mesh_.x_of(t) % 2 == 0;
    for (std::size_t in = 0; in < kNumPorts; ++in) {
      const Dir prev = entry_port(static_cast<Dir>(in));  // previous hop
      unsigned banned = 1u << in;  // no 180° turn back out of the entry port
      if (prev == Dir::kEast && even_col) {
        banned |= bit(Dir::kNorth) | bit(Dir::kSouth);
      }
      if ((prev == Dir::kNorth || prev == Dir::kSouth) && !even_col) {
        banned |= bit(Dir::kWest);
      }
      turn_moves_[t * kNumPorts + in] =
          static_cast<std::uint8_t>(on_mesh & ~banned);
    }
    refresh_live_moves(t);
  }
}

void NocSim::refresh_live_moves(TileId t) {
  std::uint8_t mask = 0;
  for (std::size_t m = 1; m < kNumPorts; ++m) {
    const std::uint32_t nb = nbr_[t * kNumPorts + m];
    if (nb != kNoTile && router_up(t) && router_up(nb) &&
        link_up(t, static_cast<Dir>(m))) {
      mask |= static_cast<std::uint8_t>(1u << m);
    }
  }
  live_moves_[t] = mask;
}

void NocSim::arm_faults() {
  if (!link_up_.empty()) return;
  link_up_.assign(mesh_.num_links(), 1);
  router_up_.assign(mesh_.num_tiles(), 1);
}

void NocSim::attach_fault_schedule(const fault::FaultSchedule* schedule) {
  if (schedule != nullptr) {
    for (const fault::FaultEvent& e : schedule->events()) {
      const bool ok = e.target == fault::Target::kLink
                          ? e.id < mesh_.num_undirected_links()
                          : e.id < mesh_.num_tiles();
      if (!ok) {
        throw holms::InvalidArgument(
            "NocSim::attach_fault_schedule: event id out of range");
      }
    }
    arm_faults();
  }
  fault_schedule_ = schedule;
  injector_.reset(schedule);
}

void NocSim::set_link_up(TileId t, Dir d, bool up) {
  if (d == Dir::kLocal || t >= mesh_.num_tiles() || !mesh_.has_neighbor(t, d)) {
    throw holms::InvalidArgument("NocSim::set_link_up: no such link");
  }
  arm_faults();
  const TileId nb = mesh_.neighbor(t, d);
  const std::uint8_t v = up ? 1 : 0;
  const bool was_up = link_up_[mesh_.link_index(t, d)] != 0;
  link_up_[mesh_.link_index(t, d)] = v;
  link_up_[mesh_.link_index(nb, entry_port(d))] = v;
  refresh_live_moves(t);
  refresh_live_moves(nb);
  if (was_up && !up) {
    // Drop worms currently allocated across either directed channel: their
    // flits straddle (or are about to straddle) a link that no longer exists.
    std::unordered_set<std::uint64_t> doomed;
    auto collect = [&](TileId router, Dir out) {
      for (std::size_t k = vc_index(router, 0, 0);
           k < vc_index(router + 1, 0, 0); ++k) {
        if (vcs_[k].out_port == static_cast<int>(port_of(out)) &&
            vcs_[k].cur_packet != 0) {
          doomed.insert(vcs_[k].cur_packet);
        }
      }
    };
    collect(t, d);
    collect(nb, entry_port(d));
    purge_packets(doomed);
  }
  ++ft_epoch_;  // every FT admit table is stale now
}

void NocSim::set_router_up(TileId t, bool up) {
  if (t >= mesh_.num_tiles()) {
    throw holms::InvalidArgument("NocSim::set_router_up: no such tile");
  }
  arm_faults();
  const bool was_up = router_up_[t] != 0;
  router_up_[t] = up ? 1 : 0;
  refresh_live_moves(t);
  for (std::size_t d = 1; d < kNumPorts; ++d) {
    const std::uint32_t nb = nbr_[t * kNumPorts + d];
    if (nb != kNoTile) refresh_live_moves(nb);
  }
  if (was_up && !up) {
    std::unordered_set<std::uint64_t> doomed;
    const std::size_t depth = cfg_.buffer_depth;
    // Everything buffered in or allocated out of the dead router dies.
    for (std::size_t k = vc_index(t, 0, 0); k < vc_index(t + 1, 0, 0); ++k) {
      const VirtualChannel& vc = vcs_[k];
      if (vc.cur_packet != 0) doomed.insert(vc.cur_packet);
      for (std::size_t i = 0; i < vc.count; ++i) {
        doomed.insert(ring_[k * depth + (vc.head + i) % depth].packet);
      }
    }
    // Plus worms allocated *into* it from the neighbors.
    for (std::size_t op = 1; op < kNumPorts; ++op) {
      const std::uint32_t nb = nbr_[t * kNumPorts + op];
      if (nb == kNoTile) continue;
      const auto nb_out =  // nb's port facing t
          static_cast<int>(port_of(entry_port(static_cast<Dir>(op))));
      for (std::size_t k = vc_index(nb, 0, 0); k < vc_index(nb + 1, 0, 0);
           ++k) {
        if (vcs_[k].out_port == nb_out && vcs_[k].cur_packet != 0) {
          doomed.insert(vcs_[k].cur_packet);
        }
      }
    }
    // Plus packets still queued at the dead tile's source.
    for (const Flit& fl : source_[t].queue) doomed.insert(fl.packet);
    purge_packets(doomed);
  }
  ++ft_epoch_;  // every FT admit table is stale now
}

void NocSim::apply_fault_event(const fault::FaultEvent& e) {
  // Soft faults corrupt payloads, they do not change link/router liveness;
  // the NoC models hard outages only, so a merged schedule's soft events
  // pass through without touching the admit tables or the applied counter.
  if (e.kind == fault::FaultKind::kSoftFail ||
      e.kind == fault::FaultKind::kScrub) {
    return;
  }
  const bool up = e.kind == fault::FaultKind::kRepair;
  if (e.target == fault::Target::kLink) {
    const auto [t, d] = mesh_.undirected_link(e.id);
    set_link_up(t, d, up);
  } else {
    set_router_up(e.id, up);
  }
  ++faults_applied_;
}

void NocSim::purge_packets(const std::unordered_set<std::uint64_t>& pids) {
  if (pids.empty()) return;
  const std::size_t depth = cfg_.buffer_depth;
  for (TileId t = 0; t < mesh_.num_tiles(); ++t) {
    for (std::size_t k = vc_index(t, 0, 0); k < vc_index(t + 1, 0, 0); ++k) {
      VirtualChannel& vc = vcs_[k];
      if (vc.cur_packet != 0 && pids.count(vc.cur_packet)) {
        if (vc.out_port >= 0) {
          vc_owner_[vc_index(t, static_cast<std::size_t>(vc.out_port),
                             static_cast<std::size_t>(vc.out_vc))] = -1;
        }
        vc.out_port = -1;
        vc.out_vc = -1;
        vc.cur_packet = 0;
        vc.head_stall = 0;
      }
      // Compact the ring in place, in flit order: each survivor moves to the
      // next kept slot after the head, which never passes its own slot.
      const std::size_t base = k * depth;
      std::size_t kept = 0;
      for (std::size_t i = 0; i < vc.count; ++i) {
        const Flit fl = ring_[base + (vc.head + i) % depth];
        if (pids.count(fl.packet)) continue;
        ring_[base + (vc.head + kept) % depth] = fl;
        ++kept;
      }
      if (kept != vc.count) {
        routers_[t].buffered -= vc.count - kept;
        buffered_total_ -= vc.count - kept;
        vc.count = kept;
        // The front flit changed: the stall count belonged to the old head.
        vc.head_stall = 0;
      }
    }
  }
  for (SourceState& src : source_) {
    if (src.remaining > 0 && !src.queue.empty() &&
        pids.count(src.queue.front().packet)) {
      src.remaining = 0;  // the packet mid-stream into its VC is gone
    }
    src.queue.erase(std::remove_if(src.queue.begin(), src.queue.end(),
                                   [&](const Flit& fl) {
                                     return pids.count(fl.packet) != 0;
                                   }),
                    src.queue.end());
  }
  dropped_ += pids.size();
}

std::uint8_t NocSim::ft_admit(TileId dst, std::size_t state) const {
  FtTable& t = ft_tables_[dst];
  if (t.epoch != ft_epoch_) {
    exec::count("noc.ft_bfs_on_demand");
    t.epoch = ft_epoch_;
    t.complete = false;
    t.admit.assign(mesh_.num_tiles() * kNumPorts, 0);
    for (std::size_t in = 0; in < kNumPorts; ++in) {
      t.admit[dst * kNumPorts + in] = 1u << port_of(Dir::kLocal);
    }
  }
  // A state the BFS reached holds at least the bit of the move it was
  // reached by, and every reached state is final (settle_ft), so only a
  // zero entry of an incomplete table can still change.
  if (t.admit[state] == 0 && !t.complete) settle_ft(dst, state);
  return t.admit[state];
}

void NocSim::settle_ft(TileId dst, std::size_t target) const {
  // Reverse BFS from the destination over (tile, in_port) states: a state
  // records through which port the worm *entered* the tile, because the
  // turn model constrains the next move by the previous one.  A move is
  // legal when both the static turn mask and the tile's live mask admit it.
  // Popping a state at distance d admits the move into it on every legal
  // predecessor at distance d + 1: exactly the predecessor's shortest moves.
  // So once the queue's front (FIFO: distances never fall) is as far out as
  // `target`, every state discovered so far has its whole mask, and the
  // search stops there.  It always restarts from the destination: a deeper
  // query redoes the shallow levels, which sets the same bits again.
  FtTable& t = ft_tables_[dst];
  std::vector<std::uint32_t>& dist = ft_dist_;
  std::vector<std::uint32_t>& queue = ft_queue_;
  for (const std::uint32_t s : queue) dist[s] = kFtUnseen;
  queue.clear();
  if (router_up(dst)) {
    for (std::size_t in = 0; in < kNumPorts; ++in) {
      dist[dst * kNumPorts + in] = 0;
      queue.push_back(static_cast<std::uint32_t>(dst * kNumPorts + in));
    }
  }
  for (std::size_t qi = 0; qi < queue.size(); ++qi) {
    const std::size_t state = queue[qi];
    if (dist[target] <= dist[state]) return;
    // The tile the worm entered from; kLocal entry states are
    // injection-only and off-mesh ports have no such tile.
    const std::uint32_t t_from = nbr_[state];
    if (t_from == kNoTile) continue;
    const std::size_t move =  // the move that entered via this port
        port_of(entry_port(static_cast<Dir>(state % kNumPorts)));
    if (!((live_moves_[t_from] >> move) & 1u)) continue;
    const std::uint32_t d = dist[state] + 1;
    for (std::size_t s2 = t_from * kNumPorts; s2 < (t_from + 1) * kNumPorts;
         ++s2) {
      if (!((turn_moves_[s2] >> move) & 1u)) continue;
      if (dist[s2] == kFtUnseen) {
        dist[s2] = d;
        queue.push_back(static_cast<std::uint32_t>(s2));
      }
      if (dist[s2] == d) t.admit[s2] |= static_cast<std::uint8_t>(1u << move);
    }
  }
  t.complete = true;
}

void NocSim::add_flow(const Flow& f) {
  if (f.src >= mesh_.num_tiles() || f.dst >= mesh_.num_tiles() ||
      f.src == f.dst || f.packet_flits == 0 ||
      !(f.packets_per_cycle >= 0.0 && f.packets_per_cycle <= 1.0)) {
    throw holms::InvalidArgument("NocSim::add_flow: invalid flow");
  }
  flows_.push_back(f);
}

void NocSim::inject_phase() {
  // Generate new packets into per-tile source queues.
  for (const Flow& f : flows_) {
    if (rng_.bernoulli(f.packets_per_cycle)) {
      ++injected_;
      if (!router_up(f.src)) {
        // The source tile's router is down: the packet is generated by the
        // core but lost at the network interface.  The Bernoulli draw is
        // consumed either way, so the injection sequence of healthy flows
        // matches the fault-free run exactly.
        ++dropped_;
        continue;
      }
      const std::uint64_t pid = next_packet_++;
      for (std::size_t i = 0; i < f.packet_flits; ++i) {
        Flit fl;
        fl.packet = pid;
        fl.src = f.src;
        fl.dst = f.dst;
        fl.injected_cycle = cycle_;
        if (f.packet_flits == 1) {
          fl.type = FlitType::kHeadTail;
        } else if (i == 0) {
          fl.type = FlitType::kHead;
        } else if (i + 1 == f.packet_flits) {
          fl.type = FlitType::kTail;
        } else {
          fl.type = FlitType::kBody;
        }
        source_[f.src].queue.push_back(fl);
      }
    }
  }
  // Move flits into the local input port.  A packet streams into exactly one
  // VC; a new packet only claims an idle, empty VC (atomic VC allocation).
  const std::size_t v = cfg_.virtual_channels;
  for (TileId t = 0; t < mesh_.num_tiles(); ++t) {
    SourceState& src = source_[t];
    if (src.queue.empty()) continue;
    if (!router_up(t)) continue;  // dead NI streams nothing
    const std::size_t local = vc_index(t, port_of(Dir::kLocal), 0);
    for (;;) {
      if (src.queue.empty()) break;
      if (src.remaining == 0) {
        // Find an idle empty VC for the next packet.
        std::size_t chosen = v;
        for (std::size_t i = 0; i < v; ++i) {
          const VirtualChannel& cand =
              vcs_[local + (src.inject_vc + 1 + i) % v];
          if (cand.count == 0 && cand.out_port < 0) {
            chosen = (src.inject_vc + 1 + i) % v;
            break;
          }
        }
        if (chosen == v) break;  // all VCs busy this cycle
        src.inject_vc = chosen;
        // Count the whole packet; flits stream in as space allows.
        src.remaining = 1;
        while (src.remaining < src.queue.size() &&
               src.queue[src.remaining - 1].type != FlitType::kTail &&
               src.queue[src.remaining - 1].type != FlitType::kHeadTail) {
          ++src.remaining;
        }
      }
      const std::size_t k = local + src.inject_vc;
      if (vcs_[k].count >= cfg_.buffer_depth) break;
      push_flit(t, k, src.queue.front());
      src.queue.pop_front();
      --src.remaining;
      energy_pj_ += cfg_.energy.e_buffer_pj * cfg_.flit_bits;
    }
  }
}

unsigned NocSim::admitted_ports(TileId here, TileId dst, Dir in_port) const {
  constexpr auto bit = [](Dir d) { return 1u << port_of(d); };
  if (cfg_.routing == RoutingAlgo::kXY) return bit(mesh_.xy_next(here, dst));
  if (cfg_.routing == RoutingAlgo::kFaultTolerant) {
    return ft_admit(dst, here * kNumPorts + port_of(in_port));
  }
  // West-first turn model: any westward progress must happen before other
  // turns, so while dst is to the west only kWest is admissible; afterwards
  // every productive direction is.
  if (here == dst) return bit(Dir::kLocal);
  const std::size_t hx = mesh_.x_of(here), dx = mesh_.x_of(dst);
  const std::size_t hy = mesh_.y_of(here), dy = mesh_.y_of(dst);
  if (dx < hx) return bit(Dir::kWest);
  return (dx > hx ? bit(Dir::kEast) : 0u) | (dy < hy ? bit(Dir::kNorth) : 0u) |
         (dy > hy ? bit(Dir::kSouth) : 0u);
}

bool NocSim::downstream_vc_has_space(TileId router, Dir out, int vc) const {
  if (out == Dir::kLocal) return true;  // ejection is never blocked
  const std::uint32_t nb = nbr_[router * kNumPorts + port_of(out)];
  return vcs_[vc_index(nb, port_of(entry_port(out)),
                       static_cast<std::size_t>(vc))]
             .count < cfg_.buffer_depth;
}

int NocSim::free_downstream_vc(TileId router, Dir out) const {
  const std::size_t v = cfg_.virtual_channels;
  for (std::size_t i = 0; i < v; ++i) {
    if (vc_owner_[vc_index(router, port_of(out), i)] < 0) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

void NocSim::push_flit(TileId t, std::size_t k, const Flit& fl) {
  VirtualChannel& vc = vcs_[k];
  assert(vc.count < cfg_.buffer_depth && "VC ring overflow");
  std::size_t slot = vc.head + vc.count;
  if (slot >= cfg_.buffer_depth) slot -= cfg_.buffer_depth;
  ring_[k * cfg_.buffer_depth + slot] = fl;
  ++vc.count;
  ++routers_[t].buffered;
  ++buffered_total_;
}

Flit NocSim::pop_flit(TileId t, std::size_t k) {
  VirtualChannel& vc = vcs_[k];
  assert(vc.count > 0 && "pop from an empty VC ring");
  const Flit fl = ring_[k * cfg_.buffer_depth + vc.head];
  if (++vc.head == cfg_.buffer_depth) vc.head = 0;
  --vc.count;
  --routers_[t].buffered;
  --buffered_total_;
  return fl;
}

void NocSim::allocate_phase() {
  const std::size_t v = cfg_.virtual_channels;
  std::unordered_set<std::uint64_t> stall_drops;
  for (TileId t = 0; t < mesh_.num_tiles(); ++t) {
    if (routers_[t].buffered == 0) continue;  // no head flit to route
    for (std::size_t ip = 0; ip < kNumPorts; ++ip) {
      for (std::size_t vi = 0; vi < v; ++vi) {
        const std::size_t k = vc_index(t, ip, vi);
        VirtualChannel& vc = vcs_[k];
        if (vc.out_port >= 0 || vc.count == 0) continue;
        const Flit& head = ring_[k * cfg_.buffer_depth + vc.head];
        if (head.type != FlitType::kHead &&
            head.type != FlitType::kHeadTail) {
          continue;  // mid-worm flits wait for their head's allocation
        }
        // Candidate outputs under the routing function, never onto a dead
        // link or into a dead router; adaptive algorithms prefer one with a
        // free downstream VC that currently has space.
        const unsigned candidates =
            admitted_ports(t, head.dst, static_cast<Dir>(ip)) &
            (live_moves_[t] | 1u << port_of(Dir::kLocal));
        int best_op = -1, best_vc = -1;
        for (std::size_t op = 0; op < kNumPorts; ++op) {
          if (!((candidates >> op) & 1u)) continue;
          const Dir out = static_cast<Dir>(op);
          const int vout = free_downstream_vc(t, out);
          if (vout < 0) continue;
          if (best_op < 0) {
            best_op = static_cast<int>(op);
            best_vc = vout;
          }
          if (cfg_.routing != RoutingAlgo::kXY &&
              downstream_vc_has_space(t, out, vout)) {
            best_op = static_cast<int>(op);
            best_vc = vout;
            break;
          }
        }
        if (best_op < 0) {
          if (faults_armed() && ++vc.head_stall >= cfg_.head_stall_drop_cycles) {
            stall_drops.insert(head.packet);  // blackholed — give up on it
          }
          continue;
        }
        vc.out_port = best_op;
        vc.out_vc = best_vc;
        vc.cur_packet = head.packet;
        vc.head_stall = 0;
        vc_owner_[vc_index(t, static_cast<std::size_t>(best_op),
                           static_cast<std::size_t>(best_vc))] =
            static_cast<int>(ip * v + vi);
      }
    }
  }
  purge_packets(stall_drops);
}

void NocSim::switch_phase() {
  // Two-phase update: decide all moves against the pre-cycle state, then
  // apply, so a flit advances at most one hop per cycle and each output
  // port carries at most one flit per cycle.
  moves_.clear();
  const std::size_t v = cfg_.virtual_channels;
  const std::size_t slots = kNumPorts * v;

  for (TileId t = 0; t < mesh_.num_tiles(); ++t) {
    Router& r = routers_[t];
    if (r.buffered == 0) continue;  // no flit to move
    // Round-robin over the (input port, vc) slots targeting each output: the
    // grant goes to the first ready slot at or after rr[op], else (wrapping
    // around) to the first ready slot.  One pass over the router's VCs finds
    // both for every output port.
    std::size_t after[kNumPorts], first[kNumPorts];
    std::fill(after, after + kNumPorts, slots);
    std::fill(first, first + kNumPorts, slots);
    const std::size_t base = vc_index(t, 0, 0);
    for (std::size_t idx = 0; idx < slots; ++idx) {
      const VirtualChannel& vc = vcs_[base + idx];
      if (vc.out_port < 0 || vc.count == 0) continue;
      const auto op = static_cast<std::size_t>(vc.out_port);
      if (!downstream_vc_has_space(t, static_cast<Dir>(op), vc.out_vc)) {
        continue;
      }
      if (first[op] == slots) first[op] = idx;
      if (after[op] == slots && idx >= r.rr[op]) after[op] = idx;
    }
    for (std::size_t op = 0; op < kNumPorts; ++op) {
      const std::size_t idx = after[op] < slots ? after[op] : first[op];
      if (idx == slots) continue;  // no ready slot for this output
      moves_.push_back(Move{t, base + idx});  // one flit per output per cycle
      r.rr[op] = idx + 1 == slots ? 0 : idx + 1;
    }
  }

  for (const Move& mv : moves_) {
    VirtualChannel& vc = vcs_[mv.vc];
    const Flit fl = pop_flit(mv.router, mv.vc);
    const auto op = static_cast<std::size_t>(vc.out_port);
    const Dir out = static_cast<Dir>(op);
    const int vout = vc.out_vc;
    const bool ends = fl.type == FlitType::kTail ||
                      fl.type == FlitType::kHeadTail;
    energy_pj_ += cfg_.energy.e_router_pj * cfg_.flit_bits;
    if (out == Dir::kLocal) {
      ++flits_ejected_;
      if (ends) {
        ++delivered_;
        const double lat = static_cast<double>(cycle_ - fl.injected_cycle);
        latency_.add(lat);
        latency_hist_.add(lat);
      }
    } else {
      energy_pj_ += cfg_.energy.e_link_pj * cfg_.flit_bits;
      ++flit_hops_;
      const TileId nb = nbr_[mv.router * kNumPorts + op];
      if (cfg_.routing == RoutingAlgo::kFaultTolerant &&
          (fl.type == FlitType::kHead || fl.type == FlitType::kHeadTail) &&
          mesh_.hops(nb, fl.dst) >= mesh_.hops(mv.router, fl.dst)) {
        ++reroute_hops_;  // detour: this hop did not close the distance
      }
      push_flit(nb,
                vc_index(nb, port_of(entry_port(out)),
                         static_cast<std::size_t>(vout)),
                fl);
    }
    if (ends) {
      vc_owner_[vc_index(mv.router, op, static_cast<std::size_t>(vout))] = -1;
      vc.out_port = -1;
      vc.out_vc = -1;
      vc.cur_packet = 0;
    }
  }
}

void NocSim::run(std::uint64_t cycles) {
  for (std::uint64_t c = 0; c < cycles; ++c) {
    if (fault_schedule_ != nullptr) {
      injector_.poll(static_cast<double>(cycle_),
                     [this](const fault::FaultEvent& e) {
                       apply_fault_event(e);
                     });
    }
    inject_phase();
    allocate_phase();
    switch_phase();
    // Sample buffer occupancy once per cycle.
    occupancy_accum_ += static_cast<double>(buffered_total_) /
                        static_cast<double>(routers_.size() * kNumPorts);
    ++occupancy_samples_;
    ++cycle_;
  }
}

NocStats NocSim::stats() const {
  NocStats s;
  s.packets_injected = injected_;
  s.packets_delivered = delivered_;
  s.flit_hops = flit_hops_;
  s.mean_packet_latency = latency_.mean();
  s.p99_packet_latency = latency_hist_.quantile(0.99);
  s.mean_buffer_occupancy =
      occupancy_samples_
          ? occupancy_accum_ / static_cast<double>(occupancy_samples_)
          : 0.0;
  s.accepted_flits_per_cycle =
      cycle_ ? static_cast<double>(flit_hops_) / static_cast<double>(cycle_)
             : 0.0;
  s.energy_joules = energy_pj_ * 1e-12;
  // Payload bits exclude one header flit per delivered packet.
  const double payload_flits =
      static_cast<double>(flits_ejected_) - static_cast<double>(delivered_);
  const double bits_delivered = payload_flits * cfg_.flit_bits;
  s.energy_per_bit_pj = bits_delivered > 0.0 ? energy_pj_ / bits_delivered
                                             : 0.0;
  s.packets_dropped = dropped_;
  s.delivery_ratio =
      injected_ ? static_cast<double>(delivered_) /
                      static_cast<double>(injected_)
                : 1.0;
  s.reroute_hops = reroute_hops_;
  s.faults_applied = faults_applied_;
  return s;
}

void add_pattern_flows(NocSim& sim, const Mesh2D& mesh, TrafficPattern p,
                       double packets_per_cycle, std::size_t packet_flits) {
  const std::size_t n = mesh.num_tiles();
  for (TileId src = 0; src < n; ++src) {
    switch (p) {
      case TrafficPattern::kUniformRandom: {
        // Spread the per-tile rate evenly over all other destinations.
        const double per_dst =
            packets_per_cycle / static_cast<double>(n - 1);
        for (TileId dst = 0; dst < n; ++dst) {
          if (dst == src) continue;
          sim.add_flow(Flow{src, dst, per_dst, packet_flits});
        }
        break;
      }
      case TrafficPattern::kTranspose: {
        const TileId dst = mesh.tile_at(mesh.y_of(src), mesh.x_of(src));
        if (dst != src) {
          sim.add_flow(Flow{src, dst, packets_per_cycle, packet_flits});
        }
        break;
      }
      case TrafficPattern::kBitComplement: {
        const TileId dst = n - 1 - src;
        if (dst != src) {
          sim.add_flow(Flow{src, dst, packets_per_cycle, packet_flits});
        }
        break;
      }
      case TrafficPattern::kHotspot: {
        const TileId dst =
            mesh.tile_at(mesh.width() / 2, mesh.height() / 2);
        if (dst != src) {
          sim.add_flow(Flow{src, dst, packets_per_cycle, packet_flits});
        }
        break;
      }
    }
  }
}

void add_appgraph_flows(NocSim& sim, const AppGraph& g,
                        const std::vector<TileId>& mapping,
                        double aggregate_packets_per_cycle,
                        std::size_t packet_flits) {
  if (mapping.size() != g.num_nodes()) {
    throw holms::InvalidArgument("add_appgraph_flows: mapping size mismatch");
  }
  double routed_volume = 0.0;
  for (const auto& e : g.edges()) {
    // HOLMS_LINT_ALLOW(D006): one-off feasibility sum over the edge list at flow setup
    if (mapping[e.src] != mapping[e.dst]) routed_volume += e.volume_bits;
  }
  if (routed_volume <= 0.0) return;  // everything co-located: no traffic
  for (const auto& e : g.edges()) {
    if (mapping[e.src] == mapping[e.dst]) continue;
    Flow f;
    f.src = mapping[e.src];
    f.dst = mapping[e.dst];
    f.packet_flits = packet_flits;
    f.packets_per_cycle =
        aggregate_packets_per_cycle * e.volume_bits / routed_volume;
    sim.add_flow(f);
  }
}

std::vector<SweepPoint> latency_throughput_sweep(
    const Mesh2D& mesh, TrafficPattern pattern,
    const std::vector<double>& rates, std::uint64_t cycles,
    const NocSim::Config& cfg, std::uint64_t seed) {
  std::vector<SweepPoint> out;
  out.reserve(rates.size());
  for (double rate : rates) {
    NocSim sim(mesh, cfg, sim::Rng(seed));
    add_pattern_flows(sim, mesh, pattern, rate, 8);
    sim.run(cycles);
    const NocStats s = sim.stats();
    SweepPoint pt;
    pt.injection_rate = rate;
    pt.mean_latency = s.mean_packet_latency;
    pt.p99_latency = s.p99_packet_latency;
    pt.accepted_flits_per_cycle = s.accepted_flits_per_cycle;
    pt.delivery_ratio =
        s.packets_injected
            ? static_cast<double>(s.packets_delivered) /
                  static_cast<double>(s.packets_injected)
            : 0.0;
    out.push_back(pt);
  }
  return out;
}

}  // namespace holms::noc
