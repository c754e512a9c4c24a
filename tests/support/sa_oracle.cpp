#include "support/sa_oracle.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <utility>
#include <vector>

namespace holms::test_support {
namespace {

using noc::AppGraph;
using noc::EnergyModel;
using noc::Mapping;
using noc::Mesh2D;
using noc::MoveDesc;
using noc::SaMove;
using noc::SaOptions;
using noc::TileId;

double penalized_cost(const AppGraph& g, const Mesh2D& mesh,
                      const EnergyModel& energy, const Mapping& m,
                      const SaOptions& opts) {
  const noc::MappingEval ev =
      noc::evaluate_mapping(g, mesh, energy, m, opts.link_capacity_bps);
  double cost = ev.comm_energy_j;
  if (opts.link_capacity_bps > 0.0 &&
      ev.max_link_load_bps > opts.link_capacity_bps) {
    const double overload = ev.max_link_load_bps / opts.link_capacity_bps;
    cost *= 1.0 + opts.infeasibility_penalty * (overload - 1.0);
  }
  return cost;
}

// The library's acceptance rule, draw for draw: a scaled uphill delta of 46
// or more is rejected without drawing (exp(-46) is below Rng::uniform()'s
// resolution), so the RNG stream stays in step with noc::sa_mapping.
bool metropolis_accept(sim::Rng& rng, double x) {
  if (x >= 46.0) return false;
  return rng.uniform() < std::exp(-x);
}

// Per core, the <= 2 heaviest-volume neighbours that ride along on a cluster
// relocation as {count, n1, n2}: volume aggregated per neighbour in
// first-encounter edge order, ties broken by the lower core index.
std::vector<std::array<std::size_t, 3>> cluster_neighbor_table(
    const AppGraph& g) {
  std::vector<std::vector<std::pair<std::size_t, double>>> nb(g.num_nodes());
  for (const auto& e : g.edges()) {
    if (e.src == e.dst) continue;
    const auto add = [&](std::size_t core, std::size_t other) {
      auto& v = nb[core];
      const auto it = std::find_if(
          v.begin(), v.end(),
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
    std::sort(v.begin(), v.end(),
              [](const std::pair<std::size_t, double>& x,
                 const std::pair<std::size_t, double>& y) {
                return x.second != y.second ? x.second > y.second
                                            : x.first < y.first;
              });
    const std::size_t k = std::min<std::size_t>(v.size(), 2);
    top[c][0] = k;
    for (std::size_t i = 0; i < k; ++i) top[c][i + 1] = v[i].first;
  }
  return top;
}

// Fills `steps` with the tile-content swap sequence a move denotes, derived
// entirely from the pre-move placement `m` (DESIGN.md §5g).
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
    case SaMove::kClusterRelocate: {
      // Rigid translation taking the seed's tile to the target, each member
      // clamped at the mesh rim.
      const auto w = static_cast<std::ptrdiff_t>(mesh.width());
      const auto h = static_cast<std::ptrdiff_t>(mesh.height());
      const TileId seed_tile = m[mv.core];
      const std::ptrdiff_t dx =
          static_cast<std::ptrdiff_t>(mesh.x_of(mv.target)) -
          static_cast<std::ptrdiff_t>(mesh.x_of(seed_tile));
      const std::ptrdiff_t dy =
          static_cast<std::ptrdiff_t>(mesh.y_of(mv.target)) -
          static_cast<std::ptrdiff_t>(mesh.y_of(seed_tile));
      const auto& top = cluster_top[mv.core];
      for (std::size_t k = 0; k <= top[0]; ++k) {
        const TileId src = m[k == 0 ? mv.core : top[k]];
        const std::ptrdiff_t nx = std::clamp<std::ptrdiff_t>(
            static_cast<std::ptrdiff_t>(mesh.x_of(src)) + dx, 0, w - 1);
        const std::ptrdiff_t ny = std::clamp<std::ptrdiff_t>(
            static_cast<std::ptrdiff_t>(mesh.y_of(src)) + dy, 0, h - 1);
        const TileId dst = mesh.tile_at(static_cast<std::size_t>(nx),
                                        static_cast<std::size_t>(ny));
        if (src != dst) steps.emplace_back(src, dst);
      }
      break;
    }
  }
}

// Exchanges the contents of tiles a and b in the plain placement arrays.
void swap_tiles(Mapping& m, std::vector<std::size_t>& occupant,
                std::size_t empty, TileId a, TileId b) {
  const std::size_t ca = occupant[a], cb = occupant[b];
  if (ca != empty) m[ca] = b;
  if (cb != empty) m[cb] = a;
  std::swap(occupant[a], occupant[b]);
}

}  // namespace

Mapping sa_mapping_full(const AppGraph& g, const Mesh2D& mesh,
                        const EnergyModel& energy, sim::Rng& rng,
                        const SaOptions& opts) {
  opts.validate();
  Mapping m = noc::greedy_mapping(g, mesh, energy);
  const std::size_t n = g.num_nodes();
  std::vector<std::size_t> occupant(mesh.num_tiles(), n);  // n = empty
  for (std::size_t c = 0; c < n; ++c) occupant[m[c]] = c;

  double cost = penalized_cost(g, mesh, energy, m, opts);
  double best_cost = cost;
  Mapping best = m;
  double temp = opts.initial_temperature * std::max(cost, 1e-12);
  std::size_t since_accept = 0;

  const std::size_t tiles = mesh.num_tiles();
  const auto cluster_top = cluster_neighbor_table(g);
  std::vector<std::pair<TileId, TileId>> steps;
  for (std::size_t it = 0; it < opts.iterations; ++it) {
    const MoveDesc mv = noc::sample_move(rng, opts, tiles, n);
    if (mv.kind == SaMove::kSwap &&
        (mv.a == mv.b || (occupant[mv.a] == n && occupant[mv.b] == n))) {
      continue;
    }
    if (mv.kind == SaMove::k2OptSegmentReversal && mv.a == mv.b) continue;
    expand_move(cluster_top, mesh, m, mv, steps);
    for (const auto& [a, b] : steps) swap_tiles(m, occupant, n, a, b);

    const double new_cost = penalized_cost(g, mesh, energy, m, opts);
    const double delta = new_cost - cost;
    if (delta <= 0.0 || metropolis_accept(rng, delta / temp)) {
      since_accept = 0;
      cost = new_cost;
      if (cost < best_cost) {
        best_cost = cost;
        best = m;
      }
    } else {
      for (auto rit = steps.rbegin(); rit != steps.rend(); ++rit) {
        swap_tiles(m, occupant, n, rit->first, rit->second);
      }
      if (opts.reheat_after > 0 && ++since_accept >= opts.reheat_after) {
        temp *= opts.reheat_factor;
        since_accept = 0;
      }
    }
    temp *= opts.cooling;
  }
  return best;
}

}  // namespace holms::test_support
