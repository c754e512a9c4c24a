#pragma once
// Energy-aware IP-to-tile mapping (paper §3.3, ref [20]).
//
// "a recently proposed algorithm for energy-aware mapping of the IPs onto
//  regular NoC architectures shows that more than 50% energy savings are
//  possible, for a complex video/audio application, compared to an ad-hoc
//  implementation."
//
// Three mappers are provided so the claim can be regenerated and ablated
// (experiment E4): the ad-hoc baseline (random placement), a constructive
// greedy placer, and a simulated-annealing optimizer under bandwidth
// constraints (the branch-and-bound of [20] is approximated by SA, which
// reaches the same quality regime on graphs of this size).

#include <array>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "exec/aligned.hpp"
#include "exec/error.hpp"
#include "noc/taskgraph.hpp"
#include "noc/topology.hpp"
#include "sim/random.hpp"

namespace holms::noc {

/// mapping[core] = tile; injective (one core per tile at most).
using Mapping = std::vector<TileId>;

struct MappingEval {
  double comm_energy_j = 0.0;     // per application iteration
  double volume_weighted_hops = 0.0;
  double max_link_load_bps = 0.0; // busiest directed mesh link (XY routing)
  bool bandwidth_feasible = true; // all links within capacity
};

/// Evaluates a mapping: bit-energy over XY routes plus per-link bandwidth
/// accumulation.  `link_capacity_bps <= 0` disables feasibility checking.
MappingEval evaluate_mapping(const AppGraph& g, const Mesh2D& mesh,
                             const EnergyModel& energy, const Mapping& m,
                             double link_capacity_bps = 0.0);

/// Ad-hoc baseline: uniformly random injective placement.
Mapping random_mapping(std::size_t num_cores, const Mesh2D& mesh,
                       sim::Rng& rng);

/// Constructive greedy: highest-traffic core at the mesh center, then each
/// next core (by connectivity to the placed set) on the free tile minimizing
/// incremental communication energy.
Mapping greedy_mapping(const AppGraph& g, const Mesh2D& mesh,
                       const EnergyModel& energy);

/// SA move kinds (DESIGN.md §5g).  Every kind decomposes into a sequence of
/// tile-content swaps derived from the pre-move placement, so one undo
/// mechanism (unwind the swaps in reverse) reverts any of them bitwise.
enum class SaMove : std::uint8_t {
  kSwap,                 // exchange the contents of two tiles (default)
  k2OptSegmentReversal,  // reverse the occupant sequence of tiles [a, b]
  kClusterRelocate,      // translate a core + its heaviest neighbors rigidly
};

/// One sampled SA move.  Field meaning depends on `kind`: kSwap uses (a, b)
/// as the two tiles; k2OptSegmentReversal uses [a, b] (a <= b) as the tile
/// range to reverse; kClusterRelocate moves `core`'s cluster so that `core`
/// lands on (or is clamped toward) tile `target`.
struct MoveDesc {
  SaMove kind = SaMove::kSwap;
  TileId a = 0;
  TileId b = 0;
  std::size_t core = 0;
  TileId target = 0;
};

struct SaOptions {
  std::size_t iterations = 20000;
  double initial_temperature = 1.0;  // relative to initial cost
  double cooling = 0.9995;
  double link_capacity_bps = 0.0;    // 0 = unconstrained
  double infeasibility_penalty = 2.0;  // cost multiplier per violation ratio

  /// Move-mix weights (DESIGN.md §5g).  With the default swap-only mix each
  /// move is one draw over the T^2 tile-pair space and no selector draw;
  /// any nonzero non-swap weight adds one selector draw per move (see
  /// sample_move).  Weights are relative, not normalized.
  double w_swap = 1.0;
  double w_segment_reversal = 0.0;
  double w_cluster_relocate = 0.0;

  /// Temperature reheating: after `reheat_after` consecutive rejected moves
  /// the temperature is multiplied by `reheat_factor` (a cheap restart that
  /// costs no RNG draws, so enabling it never perturbs the move stream).
  /// 0 disables reheating.
  std::size_t reheat_after = 0;
  double reheat_factor = 8.0;

  /// Optional precomputed route table for the target mesh, shared read-only
  /// across concurrent SA runs.  The table is O(tiles^2 * mean_hops) — ~90 MB
  /// at 32x32 — so the explorers build exactly one and hand it to every
  /// restart / island instead of letting each SwapEvaluator rebuild its own.
  /// nullptr = the evaluator builds (and owns) a private table.
  const XyRouteTable* routes = nullptr;

  /// Contract rule C001; called by sa_mapping.
  void validate() const {
    if (iterations == 0) {
      throw holms::InvalidArgument("SaOptions: iterations must be >= 1");
    }
    if (!(initial_temperature > 0.0)) {
      throw holms::InvalidArgument(
          "SaOptions: initial_temperature must be > 0");
    }
    if (!(cooling > 0.0 && cooling <= 1.0)) {
      throw holms::InvalidArgument("SaOptions: cooling must be in (0, 1]");
    }
    if (!(link_capacity_bps >= 0.0)) {
      throw holms::InvalidArgument(
          "SaOptions: link_capacity_bps must be >= 0");
    }
    if (!(infeasibility_penalty >= 0.0)) {
      throw holms::InvalidArgument(
          "SaOptions: infeasibility_penalty must be >= 0");
    }
    if (!(w_swap >= 0.0 && w_segment_reversal >= 0.0 &&
          w_cluster_relocate >= 0.0) ||
        !(w_swap + w_segment_reversal + w_cluster_relocate > 0.0)) {
      throw holms::InvalidArgument(
          "SaOptions: move weights must be >= 0 with a positive sum");
    }
    if (!(reheat_factor >= 1.0)) {
      throw holms::InvalidArgument("SaOptions: reheat_factor must be >= 1");
    }
  }
};

/// Draws the next SA move from the configured mix: a swap-only mix skips the
/// selector draw entirely (one T^2 pair draw per move), mixed runs draw one
/// selector then the kind-specific indices.  Public so that a reference SA
/// loop can consume the identical RNG stream.
MoveDesc sample_move(sim::Rng& rng, const SaOptions& opts, std::size_t tiles,
                     std::size_t num_cores);

/// Incremental (delta-cost) mapping evaluator: the state behind sa_mapping's
/// O(deg(a) + deg(b)) swap moves.  Maintains the per-link load table, the
/// running communication energy and the busiest-link load for a mapping, and
/// updates all three by touching only the edges incident to the two swapped
/// tiles (routes come from a precomputed XyRouteTable).  apply_move snapshots
/// every value it mutates, so revert_move restores the pre-move state
/// *bitwise* — rejected moves (the vast majority, late in an SA schedule)
/// leave no floating-point residue.  Accepted moves accumulate one rounding
/// step each; the equivalence suite in tests/test_hotpath.cpp pins the drift
/// against full re-evaluation to < 1e-9 over 10k+ move sequences.
class SwapEvaluator {
 public:
  /// Marker for "no core on this tile" in occupant().
  static constexpr std::size_t kEmpty = static_cast<std::size_t>(-1);

  /// `shared_routes` (optional) is a caller-owned XyRouteTable for `mesh`,
  /// shared read-only across evaluators; nullptr builds a private table.
  /// Throws holms::InvalidArgument when the table's tile count mismatches.
  SwapEvaluator(const AppGraph& g, const Mesh2D& mesh,
                const EnergyModel& energy, Mapping m,
                double link_capacity_bps = 0.0,
                double infeasibility_penalty = 2.0,
                const XyRouteTable* shared_routes = nullptr);

  /// Current penalized cost: comm energy, scaled by
  /// 1 + infeasibility_penalty * (max link load / capacity - 1) when the
  /// busiest link exceeds a positive capacity.
  double cost();
  double comm_energy_j() const { return energy_j_; }
  /// Load of the busiest directed link (lazily rescanned after a decrement
  /// dethroned the previous maximum).  Loads are maintained across moves
  /// only under a bandwidth constraint (link_capacity_bps > 0) — they only
  /// feed the overload penalty, so unconstrained runs skip the bookkeeping;
  /// there this reflects the mapping the evaluator was constructed with.
  double max_link_load_bps();

  const Mapping& mapping() const { return m_; }
  std::size_t occupant(TileId t) const { return occupant_[t]; }

  /// Applies a move descriptor (swap / segment reversal / cluster
  /// relocation) as one transaction and returns the new penalized cost.
  /// Every move is executed as the tile-content swap sequence derived from
  /// the pre-move placement, each swap O((deg(a)+deg(b)) * mean_hops)
  /// link-load adjustments, so a k-swap move costs k swap updates and
  /// reverts bitwise like a single swap (DESIGN.md §5g).  A swap of tiles
  /// a and b exchanges their contents (core<->core or core<->empty).
  double apply_move(const MoveDesc& mv);

  /// Restores the exact pre-apply state (bitwise) of the pending move.
  /// Only valid once per move.
  void revert_move();

  /// Accepts the pending move: discards the undo log.  Every apply_move
  /// must be resolved by exactly one commit_move or revert_move.
  void commit_move() { move_open_ = false; }

 private:
  // Computes every cached quantity from the mapping in edge order.
  void rebuild();
  void begin_move();
  void swap_step(TileId a, TileId b);
  void add_route_load(TileId src, TileId dst, double bw);
  void sub_route_load(TileId src, TileId dst, double bw);

  const AppGraph& g_;
  const Mesh2D& mesh_;
  const EnergyModel& energy_;
  double capacity_;
  double penalty_;

  std::optional<XyRouteTable> owned_routes_;  // absent when sharing
  const XyRouteTable* routes_;                // table in use (owned or shared)
  // Incident-occurrence CSR: for each core, the edges touching it, encoded
  // as edge_index * 2 + (1 if the core is the edge's src endpoint).
  std::vector<std::uint32_t> inc_offsets_;
  std::vector<std::uint32_t> inc_edges_;

  Mapping m_;
  std::vector<std::size_t> occupant_;  // tile -> core, kEmpty if free
  std::vector<double> link_load_;
  double energy_j_ = 0.0;
  double max_load_ = 0.0;
  bool max_dirty_ = false;

  // Undo log of the pending move: touched link loads (unwound in reverse),
  // scalar snapshots, and the executed tile-swap sequence (unwound in
  // reverse — the exact inverse of any multi-swap transaction).
  std::vector<std::pair<std::uint32_t, double>> undo_links_;
  double undo_energy_ = 0.0;
  double undo_max_ = 0.0;
  bool undo_dirty_ = false;
  std::vector<std::pair<TileId, TileId>> undo_swaps_;
  std::vector<std::pair<TileId, TileId>> move_steps_;  // expand_move scratch
  // swap_step gather scratch for the exec::simd transfer_delta kernel: the
  // touched edges' {volume, old hops, new hops}, in visit order.
  exec::aligned_vector<double> delta_vol_;
  exec::aligned_vector<double> delta_old_hops_;
  exec::aligned_vector<double> delta_new_hops_;
  // Per-core {count, n1, n2}: the <=2 heaviest-volume neighbors that ride
  // along on a cluster relocation.  Graph-only, so built once at
  // construction instead of rescanning the edge list on every cluster move.
  std::vector<std::array<std::size_t, 3>> cluster_top_;
  bool move_open_ = false;
};

/// Simulated-annealing energy-aware mapping (moves from the SaOptions mix,
/// Metropolis accept, costs from the incremental SwapEvaluator).  Starts
/// from the greedy seed; equivalent to sa_mapping_from(greedy_mapping(...)).
/// The full-evaluation reference loop the tests and bench_micro compare it
/// against lives in tests/support/sa_oracle.hpp, outside the library.
Mapping sa_mapping(const AppGraph& g, const Mesh2D& mesh,
                   const EnergyModel& energy, sim::Rng& rng,
                   const SaOptions& opts = {});

/// SA refinement from a caller-supplied initial placement — the island
/// explorer's incumbent-seeded local search (DESIGN.md §5l).  Same Metropolis
/// loop and RNG draw sequence as sa_mapping(), only the starting point (which
/// costs no draws) differs.
Mapping sa_mapping_from(const AppGraph& g, const Mesh2D& mesh,
                        const EnergyModel& energy, Mapping initial,
                        sim::Rng& rng, const SaOptions& opts = {});

/// Exact branch-and-bound mapping — the actual algorithm of [20].  Explores
/// core placements in traffic order, pruning any partial placement whose
/// cost plus an optimistic single-hop bound on the unplaced edges already
/// exceeds the incumbent.  Exponential worst case: intended for graphs of
/// up to ~10 cores (optimality reference for the heuristics).
/// `node_budget` caps the search (0 = unlimited); returns the incumbent.
Mapping bb_mapping(const AppGraph& g, const Mesh2D& mesh,
                   const EnergyModel& energy,
                   std::size_t node_budget = 0);

}  // namespace holms::noc
