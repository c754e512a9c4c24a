// HOLMS_LINT_ALLOW_FILE(D006): evaluate_mapping, the constructive placers'
// cheapest_tile and rebuild() walk the edge list (or a core's incident edges)
// in its fixed declaration order — they define the reference answer the
// O(deg) hot path is tested against.  The hot path (swap_step) reduces
// through exec::simd::transfer_delta, and the busiest-link rescan through
// exec::simd's max kernel.
#include "noc/mapping.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "exec/metrics.hpp"
#include "exec/simd.hpp"

#include "exec/error.hpp"

namespace holms::noc {
namespace {

// Metropolis acceptance for an uphill move with scaled delta x = delta/temp.
// exp(-46) < 1e-19 sits below the smallest value Rng::uniform() produces at
// its 53-bit resolution, so a certain rejection skips the draw-and-exp
// entirely — late in a cooling schedule that is almost every uphill move.
bool metropolis_accept(sim::Rng& rng, double x) {
  if (x >= 46.0) return false;
  return rng.uniform() < std::exp(-x);
}

}  // namespace

MappingEval evaluate_mapping(const AppGraph& g, const Mesh2D& mesh,
                             const EnergyModel& energy, const Mapping& m,
                             double link_capacity_bps) {
  if (m.size() != g.num_nodes()) {
    throw holms::InvalidArgument("evaluate_mapping: mapping size mismatch");
  }
  MappingEval ev;
  // Per-thread scratch: the link-load table was the only allocation on this
  // hot path (one vector per evaluation, millions of evaluations per
  // explore); assign() reuses the high-water capacity after the first call.
  thread_local std::vector<double> link_load;
  link_load.assign(mesh.num_links(), 0.0);
  double vol = 0.0, vol_hops = 0.0;
  for (const auto& e : g.edges()) {
    const XyRoute route = mesh.xy_links(m[e.src], m[e.dst]);
    const std::size_t h = route.hops();
    ev.comm_energy_j += energy.transfer_energy(e.volume_bits, h);
    vol += e.volume_bits;
    vol_hops += e.volume_bits * static_cast<double>(h);
    const double bw = e.bandwidth_bps > 0.0 ? e.bandwidth_bps : e.volume_bits;
    route.for_each_link([&](std::uint32_t link) { link_load[link] += bw; });
  }
  ev.volume_weighted_hops = vol > 0.0 ? vol_hops / vol : 0.0;
  ev.max_link_load_bps =
      link_load.empty() ? 0.0
                        : *std::max_element(link_load.begin(), link_load.end());
  ev.bandwidth_feasible = link_capacity_bps <= 0.0 ||
                          ev.max_link_load_bps <= link_capacity_bps;
  return ev;
}

Mapping random_mapping(std::size_t num_cores, const Mesh2D& mesh,
                       sim::Rng& rng) {
  if (num_cores > mesh.num_tiles()) {
    throw holms::InvalidArgument("random_mapping: more cores than tiles");
  }
  std::vector<TileId> tiles(mesh.num_tiles());
  std::iota(tiles.begin(), tiles.end(), 0);
  // Fisher–Yates using our Rng for reproducibility.
  for (std::size_t i = tiles.size(); i > 1; --i) {
    const std::size_t j =
        static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
    std::swap(tiles[i - 1], tiles[j]);
  }
  return Mapping(tiles.begin(), tiles.begin() + static_cast<long>(num_cores));
}

TileId cheapest_tile(const Mesh2D& mesh, const EnergyModel& energy,
                     const std::vector<PlacementPin>& pins,
                     const std::vector<bool>& allowed) {
  TileId best_tile = mesh.num_tiles();
  double best_cost = std::numeric_limits<double>::infinity();
  for (TileId t = 0; t < mesh.num_tiles(); ++t) {
    if (!allowed[t]) continue;
    const std::size_t tx = mesh.x_of(t), ty = mesh.y_of(t);
    double cost = 0.0;
    for (const PlacementPin& p : pins) {
      const std::size_t h = (tx > p.x ? tx - p.x : p.x - tx) +
                            (ty > p.y ? ty - p.y : p.y - ty);
      cost += energy.transfer_energy(p.volume_bits, h);
    }
    if (cost < best_cost) {
      best_cost = cost;
      best_tile = t;
    }
  }
  return best_tile;
}

Mapping greedy_mapping(const AppGraph& g, const Mesh2D& mesh,
                       const EnergyModel& energy) {
  const std::size_t n = g.num_nodes();
  if (n > mesh.num_tiles()) {
    throw holms::InvalidArgument("greedy_mapping: more cores than tiles");
  }
  Mapping m(n, 0);
  std::vector<bool> core_placed(n, false);
  std::vector<bool> tile_free(mesh.num_tiles(), true);
  const IncidenceIndex inc(g);

  // Seed: the highest-traffic core goes to the mesh center.
  std::size_t seed = 0;
  double best_traffic = -1.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double t = g.node_traffic(i);
    if (t > best_traffic) {
      best_traffic = t;
      seed = i;
    }
  }
  const TileId center = mesh.tile_at(mesh.width() / 2, mesh.height() / 2);
  m[seed] = center;
  core_placed[seed] = true;
  tile_free[center] = false;

  // Pins of the core being placed: the already-placed endpoints of its
  // incident edges, with coordinates hoisted so the tile loop does pure
  // integer Manhattan arithmetic instead of re-scanning every edge and
  // re-deriving mesh coordinates per candidate tile.
  std::vector<PlacementPin> pins;
  pins.reserve(g.edges().size());

  for (std::size_t placed = 1; placed < n; ++placed) {
    // Pick the unplaced core most connected to the placed set.
    std::size_t next = n;
    double best_conn = -1.0;
    for (std::size_t i = 0; i < n; ++i) {
      if (core_placed[i]) continue;
      double conn = 0.0;
      for (const std::uint32_t o : inc.of(i)) {
        const auto& e = g.edges()[o >> 1];
        const std::size_t other = (o & 1) ? e.dst : e.src;
        if (core_placed[other]) conn += e.volume_bits;
      }
      if (conn > best_conn) {
        best_conn = conn;
        next = i;
      }
    }
    // Place it on the free tile minimizing incremental energy.
    pins.clear();
    for (const std::uint32_t o : inc.of(next)) {
      const auto& e = g.edges()[o >> 1];
      const std::size_t other = (o & 1) ? e.dst : e.src;
      if (!core_placed[other]) continue;
      const TileId ot = m[other];
      pins.push_back({mesh.x_of(ot), mesh.y_of(ot), e.volume_bits});
    }
    const TileId best_tile = cheapest_tile(mesh, energy, pins, tile_free);
    m[next] = best_tile;
    core_placed[next] = true;
    tile_free[best_tile] = false;
  }
  return m;
}

namespace {

// Builds the tile-content swap sequence a cluster-relocate move denotes: the
// seed core plus its up-to-two heaviest-volume neighbors (volume aggregated
// per neighbor, ties broken by lower core index) translate rigidly by the
// (dx, dy) taking the seed's tile to `target`, clamped at the mesh rim.  All
// sources and destinations come from the *pre-move* placement; a member
// displaced by an earlier swap of the same move simply rides along — the
// move stays a bijection on tile contents, so unwinding the swaps in reverse
// is an exact inverse.  The membership is graph-only (it never looks at the
// mapping), so it is precomputed once per evaluator as a per-core
// {count, n1, n2} row by cluster_neighbor_table() — a cluster move then
// costs only its swap deltas, not an edge-list rescan.
std::vector<std::array<std::size_t, 3>> cluster_neighbor_table(
    const AppGraph& g) {
  // (core, total volume), per core, in first-encounter edge order — the same
  // aggregation order as a per-seed scan of the edge list.
  std::vector<std::vector<std::pair<std::size_t, double>>> nb(g.num_nodes());
  for (const auto& e : g.edges()) {
    if (e.src == e.dst) continue;  // self-loop carries no placement cost
    const auto add = [&](std::size_t core, std::size_t other) {
      auto& v = nb[core];
      const auto it =
          std::find_if(v.begin(), v.end(),
                       [&](const std::pair<std::size_t, double>& p) {
                         return p.first == other;
                       });
      if (it == v.end()) {
        v.emplace_back(other, e.volume_bits);
      } else {
        it->second += e.volume_bits;
      }
    };
    add(e.src, e.dst);
    add(e.dst, e.src);
  }
  std::vector<std::array<std::size_t, 3>> top(g.num_nodes(), {0, 0, 0});
  for (std::size_t c = 0; c < g.num_nodes(); ++c) {
    auto& v = nb[c];
    // Only the two heaviest neighbors ride along: selection, not a full sort.
    const std::size_t k = std::min<std::size_t>(v.size(), 2);
    std::partial_sort(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                      v.end(),
                      [](const std::pair<std::size_t, double>& x,
                         const std::pair<std::size_t, double>& y) {
                        return x.second != y.second ? x.second > y.second
                                                    : x.first < y.first;
                      });
    top[c][0] = k;
    for (std::size_t i = 0; i < k; ++i) top[c][i + 1] = v[i].first;
  }
  return top;
}

void expand_cluster(const Mesh2D& mesh, const Mapping& m,
                    const std::array<std::size_t, 3>& top,
                    std::size_t seed_core, TileId target,
                    std::vector<std::pair<TileId, TileId>>& steps) {
  const auto w = static_cast<std::ptrdiff_t>(mesh.width());
  const auto h = static_cast<std::ptrdiff_t>(mesh.height());
  const TileId seed_tile = m[seed_core];
  const std::ptrdiff_t dx = static_cast<std::ptrdiff_t>(mesh.x_of(target)) -
                            static_cast<std::ptrdiff_t>(mesh.x_of(seed_tile));
  const std::ptrdiff_t dy = static_cast<std::ptrdiff_t>(mesh.y_of(target)) -
                            static_cast<std::ptrdiff_t>(mesh.y_of(seed_tile));
  const std::size_t members = top[0];
  for (std::size_t k = 0; k <= members; ++k) {
    const std::size_t core = k == 0 ? seed_core : top[k];
    const TileId src = m[core];
    const std::ptrdiff_t nx = std::clamp<std::ptrdiff_t>(
        static_cast<std::ptrdiff_t>(mesh.x_of(src)) + dx, 0, w - 1);
    const std::ptrdiff_t ny = std::clamp<std::ptrdiff_t>(
        static_cast<std::ptrdiff_t>(mesh.y_of(src)) + dy, 0, h - 1);
    const TileId dst = mesh.tile_at(static_cast<std::size_t>(nx),
                                    static_cast<std::size_t>(ny));
    if (src != dst) steps.emplace_back(src, dst);
  }
}

// Expands a move descriptor into its tile-content swap sequence, derived
// entirely from the pre-move placement `m`.
void expand_move(const std::vector<std::array<std::size_t, 3>>& cluster_top,
                 const Mesh2D& mesh, const Mapping& m, const MoveDesc& mv,
                 std::vector<std::pair<TileId, TileId>>& steps) {
  steps.clear();
  switch (mv.kind) {
    case SaMove::kSwap:
      if (mv.a != mv.b) steps.emplace_back(mv.a, mv.b);
      break;
    case SaMove::k2OptSegmentReversal:
      for (TileId lo = mv.a, hi = mv.b; lo < hi; ++lo, --hi) {
        steps.emplace_back(lo, hi);
      }
      break;
    case SaMove::kClusterRelocate:
      expand_cluster(mesh, m, cluster_top[mv.core], mv.core, mv.target, steps);
      break;
  }
}

}  // namespace

MoveDesc sample_move(sim::Rng& rng, const SaOptions& opts, std::size_t tiles,
                     std::size_t num_cores) {
  MoveDesc mv;
  const bool mixed =
      opts.w_segment_reversal > 0.0 || opts.w_cluster_relocate > 0.0;
  if (mixed) {
    const double total =
        opts.w_swap + opts.w_segment_reversal + opts.w_cluster_relocate;
    const double u = rng.uniform(0.0, total);
    if (u < opts.w_swap) {
      mv.kind = SaMove::kSwap;
    } else if (u < opts.w_swap + opts.w_segment_reversal) {
      mv.kind = SaMove::k2OptSegmentReversal;
    } else {
      mv.kind = SaMove::kClusterRelocate;
    }
  }
  if (mv.kind == SaMove::kClusterRelocate && num_cores == 0) {
    mv.kind = SaMove::kSwap;  // degenerate graph; keep the draw count fixed
  }
  if (mv.kind == SaMove::kClusterRelocate) {
    mv.core = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(num_cores) - 1));
    mv.target = static_cast<TileId>(
        rng.uniform_int(0, static_cast<std::int64_t>(tiles) - 1));
  } else {
    // One draw over the T^2 pair space picks both tiles.
    const auto pair = static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(tiles * tiles) - 1));
    TileId a = static_cast<TileId>(pair / tiles);
    TileId b = static_cast<TileId>(pair % tiles);
    if (mv.kind == SaMove::k2OptSegmentReversal && a > b) std::swap(a, b);
    mv.a = a;
    mv.b = b;
  }
  return mv;
}

// ---------------------------------------------------------------------------
// SwapEvaluator — O(deg) delta-cost move evaluation for sa_mapping.
// ---------------------------------------------------------------------------

SwapEvaluator::SwapEvaluator(const AppGraph& g, const Mesh2D& mesh,
                             const EnergyModel& energy, Mapping m,
                             double link_capacity_bps,
                             double infeasibility_penalty,
                             const XyRouteTable* shared_routes)
    : g_(g),
      mesh_(mesh),
      energy_(energy),
      capacity_(link_capacity_bps),
      penalty_(infeasibility_penalty),
      routes_(shared_routes != nullptr ? *shared_routes : XyRouteTable(mesh)),
      inc_(g),
      m_(std::move(m)) {
  if (routes_.tiles() != mesh.num_tiles()) {
    throw holms::InvalidArgument(
        "SwapEvaluator: shared route table was built for a different mesh");
  }
  if (m_.size() != g_.num_nodes()) {
    throw holms::InvalidArgument("SwapEvaluator: mapping size mismatch");
  }
  cluster_top_ = cluster_neighbor_table(g_);
  // A move touches the routes of deg(a) + deg(b) edges, each route once per
  // endpoint in the worst case.
  undo_links_.reserve(64);
  rebuild();
}

void SwapEvaluator::rebuild() {
  const std::size_t n = g_.num_nodes();
  occupant_.assign(mesh_.num_tiles(), kEmpty);
  for (std::size_t c = 0; c < n; ++c) occupant_[m_[c]] = c;
  link_load_.assign(mesh_.num_links(), 0.0);
  // Accumulate energy and loads in edge order — the exact summation order of
  // evaluate_mapping, so the initial state is bitwise identical to a full
  // evaluation of the same mapping.
  energy_j_ = 0.0;
  for (const auto& e : g_.edges()) {
    const XyRoute route = routes_.links(m_[e.src], m_[e.dst]);
    energy_j_ += energy_.transfer_energy(e.volume_bits, route.hops());
    const double bw = e.bandwidth_bps > 0.0 ? e.bandwidth_bps : e.volume_bits;
    route.for_each_link([&](std::uint32_t link) { link_load_[link] += bw; });
  }
  max_dirty_ = true;  // the first max_link_load_bps() scans the fresh loads
  move_open_ = false;
}

double SwapEvaluator::max_link_load_bps() {
  if (max_dirty_) {
    // Loads are finite (AppGraph::add_edge rejects non-finite volumes and
    // bandwidths) and never -0, so the lane-max kernel returns exactly
    // std::max_element's value.
    max_load_ = link_load_.empty() ? 0.0
                                   : exec::simd::kernels().max(
                                         link_load_.data(), link_load_.size());
    max_dirty_ = false;
  }
  return max_load_;
}

double SwapEvaluator::cost() {
  double c = energy_j_;
  if (capacity_ > 0.0) {
    const double ml = max_link_load_bps();
    if (ml > capacity_) {
      c *= 1.0 + penalty_ * (ml / capacity_ - 1.0);
    }
  }
  return c;
}

void SwapEvaluator::add_route_load(TileId src, TileId dst, double bw) {
  routes_.links(src, dst).for_each_link([&](std::uint32_t link) {
    double& load = link_load_[link];
    undo_links_.emplace_back(link, load);
    load += bw;
    if (!max_dirty_ && load > max_load_) max_load_ = load;
  });
}

void SwapEvaluator::sub_route_load(TileId src, TileId dst, double bw) {
  routes_.links(src, dst).for_each_link([&](std::uint32_t link) {
    double& load = link_load_[link];
    undo_links_.emplace_back(link, load);
    // Decrementing the busiest link dethrones the cached maximum; rescan
    // lazily on the next cost() instead of per adjustment.
    if (load == max_load_) max_dirty_ = true;
    load -= bw;
  });
}

void SwapEvaluator::begin_move() {
  undo_links_.clear();
  undo_swaps_.clear();
  undo_energy_ = energy_j_;
  undo_max_ = max_load_;
  undo_dirty_ = max_dirty_;
  move_open_ = true;
}

void SwapEvaluator::swap_step(TileId a, TileId b) {
  assert(move_open_ && a != b);
  const std::size_t ca = occupant_[a], cb = occupant_[b];
  undo_swaps_.emplace_back(a, b);

  // Tile of a core after the swap (m_ still holds the pre-swap placement).
  const auto tile_after = [&](std::size_t core) -> TileId {
    if (core == ca) return b;
    if (core == cb) return a;
    return m_[core];
  };
  // Touch each affected edge once: every edge of ca, then edges of cb that
  // do not also touch ca.  Link loads only feed the overload penalty, so an
  // unconstrained run (capacity <= 0, e.g. the E4 energy study) skips their
  // maintenance entirely and a move is pure delta-energy arithmetic.
  const bool track_loads = capacity_ > 0.0;
  // Gather the touched edges' {volume, old hops, new hops} in visit order,
  // then evaluate the whole delta as one exec::simd transfer_delta call
  // (8-lane reduction in that order).  Link loads stay inline: they are
  // integer-free bookkeeping per route hop, not part of the reduction.
  delta_vol_.clear();
  delta_old_hops_.clear();
  delta_new_hops_.clear();
  const auto apply_edge = [&](const AppEdge& e) {
    const TileId os = m_[e.src], od = m_[e.dst];
    const TileId ns = tile_after(e.src), nd = tile_after(e.dst);
    if (os == ns && od == nd) return;  // both endpoints moved in lockstep
    delta_vol_.push_back(e.volume_bits);
    delta_old_hops_.push_back(static_cast<double>(routes_.hops(os, od)));
    delta_new_hops_.push_back(static_cast<double>(routes_.hops(ns, nd)));
    if (track_loads) {
      const double bw =
          e.bandwidth_bps > 0.0 ? e.bandwidth_bps : e.volume_bits;
      sub_route_load(os, od, bw);
      add_route_load(ns, nd, bw);
    }
  };
  if (ca != kEmpty) {
    for (const std::uint32_t o : inc_.of(ca)) apply_edge(g_.edges()[o >> 1]);
  }
  if (cb != kEmpty) {
    for (const std::uint32_t o : inc_.of(cb)) {
      const AppEdge& e = g_.edges()[o >> 1];
      if (ca != kEmpty && (e.src == ca || e.dst == ca)) continue;  // done above
      apply_edge(e);
    }
  }
  energy_j_ += exec::simd::kernels().transfer_delta(
      delta_vol_.data(), delta_old_hops_.data(), delta_new_hops_.data(),
      delta_vol_.size(), energy_.e_router_pj, energy_.e_link_pj);

  // Commit the placement swap.
  if (ca != kEmpty) m_[ca] = b;
  if (cb != kEmpty) m_[cb] = a;
  std::swap(occupant_[a], occupant_[b]);
}

double SwapEvaluator::apply_move(const MoveDesc& mv) {
  assert(!move_open_ && "apply_move before resolving the previous move");
  begin_move();
  if (mv.kind == SaMove::kSwap) {
    // A swap is its own one-step sequence — skip the expansion scratch, it
    // costs a measurable fraction of the O(deg) delta on small graphs.
    if (mv.a != mv.b) swap_step(mv.a, mv.b);
    return cost();
  }
  // Expand fully before executing: cluster sources/destinations must all be
  // derived from the pre-move placement (see expand_cluster).
  expand_move(cluster_top_, mesh_, m_, mv, move_steps_);
  for (const auto& [a, b] : move_steps_) swap_step(a, b);
  return cost();
}

void SwapEvaluator::revert_move() {
  assert(move_open_ && "revert without a pending move");
  move_open_ = false;
  // Restore touched link loads in reverse so repeated touches of one link
  // unwind correctly; everything else comes back from scalar snapshots.
  for (auto it = undo_links_.rbegin(); it != undo_links_.rend(); ++it) {
    link_load_[it->first] = it->second;
  }
  energy_j_ = undo_energy_;
  max_load_ = undo_max_;
  max_dirty_ = undo_dirty_;
  // Unwind the swap sequence in reverse — the exact inverse of the move.
  for (auto it = undo_swaps_.rbegin(); it != undo_swaps_.rend(); ++it) {
    const TileId a = it->first, b = it->second;
    // occupant_ was swapped by the step: the core now on a came from b and
    // vice versa.  Swap back and restore the mapping entries.
    const std::size_t ca = occupant_[a], cb = occupant_[b];
    if (ca != kEmpty) m_[ca] = b;
    if (cb != kEmpty) m_[cb] = a;
    std::swap(occupant_[a], occupant_[b]);
  }
}

Mapping sa_mapping(const AppGraph& g, const Mesh2D& mesh,
                   const EnergyModel& energy, sim::Rng& rng,
                   const SaOptions& opts) {
  // Start from the greedy solution; SA then escapes its local minimum.
  return sa_mapping_from(g, mesh, energy, greedy_mapping(g, mesh, energy),
                         rng, opts);
}

Mapping sa_mapping_from(const AppGraph& g, const Mesh2D& mesh,
                        const EnergyModel& energy, Mapping initial,
                        sim::Rng& rng, const SaOptions& opts) {
  opts.validate();

  // Delta-cost loop: the evaluator keeps per-link loads and the running
  // energy, so a move costs O(deg(a) + deg(b)) route adjustments instead of
  // a full O(edges * hops) re-evaluation.
  SwapEvaluator ev(g, mesh, energy, std::move(initial),
                   opts.link_capacity_bps, opts.infeasibility_penalty,
                   opts.routes);
  double cost = ev.cost();
  double best_cost = cost;
  Mapping best = ev.mapping();
  double temp = opts.initial_temperature * std::max(cost, 1e-12);
  // Accumulated locally and flushed once: the Metropolis loop is the mapper's
  // hot path and must not take the metrics fast-path branch per move.
  std::uint64_t accepted = 0, rejected = 0, reheats = 0;
  std::size_t since_accept = 0;
  const std::size_t n = g.num_nodes();

  const std::size_t tiles = mesh.num_tiles();
  for (std::size_t it = 0; it < opts.iterations; ++it) {
    const MoveDesc mv = sample_move(rng, opts, tiles, n);
    // A move that changes no tile content still costs its draws.
    if (mv.kind == SaMove::kSwap &&
        (mv.a == mv.b || (ev.occupant(mv.a) == SwapEvaluator::kEmpty &&
                          ev.occupant(mv.b) == SwapEvaluator::kEmpty))) {
      continue;
    }
    if (mv.kind == SaMove::k2OptSegmentReversal && mv.a == mv.b) continue;
    const double new_cost = ev.apply_move(mv);
    const double delta = new_cost - cost;
    if (delta <= 0.0 || metropolis_accept(rng, delta / temp)) {
      ++accepted;
      since_accept = 0;
      ev.commit_move();
      cost = new_cost;
      if (cost < best_cost) {
        best_cost = cost;
        best = ev.mapping();
      }
    } else {
      ++rejected;
      ev.revert_move();
      if (opts.reheat_after > 0 && ++since_accept >= opts.reheat_after) {
        temp *= opts.reheat_factor;
        since_accept = 0;
        ++reheats;
      }
    }
    temp *= opts.cooling;
  }
  exec::count("sa.moves_accepted", accepted);
  exec::count("sa.moves_rejected", rejected);
  if (reheats > 0) exec::count("sa.reheats", reheats);
  exec::observe("sa.final_temperature", temp);
  return best;
}

namespace {

struct BbState {
  const AppGraph* graph = nullptr;
  const Mesh2D* mesh = nullptr;
  const EnergyModel* energy = nullptr;
  std::vector<std::size_t> order;      // cores in placement order
  std::vector<TileId> placement;       // placement[k] = tile of order[k]
  std::vector<bool> tile_used;
  Mapping best;
  double best_cost = 0.0;
  double min_edge_energy = 0.0;        // energy of a 1-hop transfer per bit
  std::size_t nodes_expanded = 0;
  std::size_t node_budget = 0;

  // Cost of edges whose both endpoints are among the first `k` placed cores.
  double partial_cost(std::size_t k, TileId candidate) const {
    double cost = 0.0;
    const std::size_t core = order[k];
    for (const auto& e : graph->edges()) {
      const std::size_t other = e.src == core ? e.dst
                                : e.dst == core ? e.src
                                                : graph->num_nodes();
      if (other >= graph->num_nodes()) continue;
      for (std::size_t j = 0; j < k; ++j) {
        if (order[j] == other) {
          cost += energy->transfer_energy(
              e.volume_bits, mesh->hops(candidate, placement[j]));
        }
      }
    }
    return cost;
  }

  // Optimistic bound: every not-yet-bound edge costs at least one hop.
  double remaining_bound(std::size_t k) const {
    double vol = 0.0;
    for (const auto& e : graph->edges()) {
      bool src_placed = false, dst_placed = false;
      for (std::size_t j = 0; j <= k; ++j) {
        if (order[j] == e.src) src_placed = true;
        if (order[j] == e.dst) dst_placed = true;
      }
      if (!(src_placed && dst_placed)) vol += e.volume_bits;
    }
    return vol * min_edge_energy;
  }

  void search(std::size_t k, double cost_so_far) {
    if (node_budget && nodes_expanded >= node_budget) return;
    ++nodes_expanded;
    if (k == order.size()) {
      if (cost_so_far < best_cost) {
        best_cost = cost_so_far;
        for (std::size_t j = 0; j < order.size(); ++j) {
          best[order[j]] = placement[j];
        }
      }
      return;
    }
    for (TileId t = 0; t < mesh->num_tiles(); ++t) {
      if (tile_used[t]) continue;
      const double added = partial_cost(k, t);
      const double lower = cost_so_far + added;
      if (lower + (k + 1 < order.size() ? remaining_bound(k) : 0.0) >=
          best_cost) {
        continue;  // prune
      }
      placement[k] = t;
      tile_used[t] = true;
      search(k + 1, lower);
      tile_used[t] = false;
    }
  }
};

}  // namespace

Mapping bb_mapping(const AppGraph& g, const Mesh2D& mesh,
                   const EnergyModel& energy, std::size_t node_budget) {
  const std::size_t n = g.num_nodes();
  if (n > mesh.num_tiles()) {
    throw holms::InvalidArgument("bb_mapping: more cores than tiles");
  }
  BbState st;
  st.graph = &g;
  st.mesh = &mesh;
  st.energy = &energy;
  st.node_budget = node_budget;
  st.min_edge_energy = energy.bit_energy(1) * 1e-12;
  // Place high-traffic cores first: tight bounds early.
  st.order.resize(n);
  std::iota(st.order.begin(), st.order.end(), 0);
  std::sort(st.order.begin(), st.order.end(),
            [&](std::size_t a, std::size_t b) {
              return g.node_traffic(a) > g.node_traffic(b);
            });
  st.placement.assign(n, 0);
  st.tile_used.assign(mesh.num_tiles(), false);
  // Incumbent: the greedy solution (also the fallback under a budget).
  st.best = greedy_mapping(g, mesh, energy);
  st.best_cost = evaluate_mapping(g, mesh, energy, st.best).comm_energy_j;
  st.search(0, 0.0);
  return st.best;
}

}  // namespace holms::noc
