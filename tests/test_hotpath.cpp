// Equivalence suites for the hot-path kernels: the incremental SA move
// evaluator (swap / 2-opt / cluster moves) vs full re-evaluation, the list
// scheduler's per-task dependency lists vs a full-scan oracle, the CSR
// stationary solvers against pinned reference digests — bitwise identical
// across thread counts — and the slab/small-buffer event pool plus its
// cross-candidate EventPoolCache recycling.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/evaluator.hpp"
#include "core/explorer.hpp"
#include "exec/aligned.hpp"
#include "exec/metrics.hpp"
#include "exec/simd.hpp"
#include "exec/thread_pool.hpp"
#include "markov/chain.hpp"
#include "markov/sparse.hpp"
#include "noc/mapping.hpp"
#include "noc/scheduling.hpp"
#include "noc/taskgraph.hpp"
#include "noc/topology.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "support/chains.hpp"
#include "support/power_oracle.hpp"
#include "support/sa_oracle.hpp"
#include "support/sched_oracle.hpp"
#include "support/xy_route.hpp"

namespace {

using namespace holms;
using test_support::banded_chain;
using test_support::bits_digest;
using test_support::tandem_chain;

// ---------------------------------------------------------------------------
// Incremental SA move evaluation.
// ---------------------------------------------------------------------------

double full_penalized_cost(const noc::AppGraph& g, const noc::Mesh2D& mesh,
                           const noc::EnergyModel& em, const noc::Mapping& m,
                           double capacity, double penalty) {
  const noc::MappingEval ev = noc::evaluate_mapping(g, mesh, em, m, capacity);
  double c = ev.comm_energy_j;
  if (capacity > 0.0 && ev.max_link_load_bps > capacity) {
    c *= 1.0 + penalty * (ev.max_link_load_bps / capacity - 1.0);
  }
  return c;
}

// Drives >= 10k random swaps through a SwapEvaluator (random commit/revert
// mix) and checks (a) every revert restores the cost bitwise, and (b) the
// incrementally-maintained cost tracks a from-scratch evaluation to 1e-9.
void drive_and_compare(const noc::AppGraph& g, const noc::Mesh2D& mesh,
                       double capacity, std::uint64_t seed) {
  const noc::EnergyModel em;
  const double penalty = 2.0;
  sim::Rng rng(seed);
  noc::Mapping m0 = noc::greedy_mapping(g, mesh, em);
  noc::SwapEvaluator ev(g, mesh, em, m0, capacity, penalty);

  ASSERT_DOUBLE_EQ(ev.cost(),
                   full_penalized_cost(g, mesh, em, m0, capacity, penalty));

  const auto tiles = static_cast<std::int64_t>(mesh.num_tiles());
  constexpr std::size_t kMoves = 12000;
  for (std::size_t i = 0; i < kMoves; ++i) {
    const auto a = static_cast<noc::TileId>(rng.uniform_int(0, tiles - 1));
    const auto b = static_cast<noc::TileId>(rng.uniform_int(0, tiles - 1));
    if (a == b) continue;
    noc::MoveDesc swap;
    swap.a = a;
    swap.b = b;
    const double before = ev.cost();
    ev.apply_move(swap);
    if (rng.bernoulli(0.5)) {
      ev.commit_move();
    } else {
      ev.revert_move();
      // Rejected moves must leave zero floating-point residue.
      ASSERT_EQ(ev.cost(), before) << "revert not bitwise at move " << i;
    }
    if (i % 500 == 0) {
      const double full = full_penalized_cost(g, mesh, em, ev.mapping(),
                                              capacity, penalty);
      ASSERT_NEAR(ev.cost(), full, 1e-9 * std::max(1.0, std::abs(full)))
          << "incremental cost drifted at move " << i;
    }
  }
  // Final check after the full sequence.
  const double full =
      full_penalized_cost(g, mesh, em, ev.mapping(), capacity, penalty);
  EXPECT_NEAR(ev.cost(), full, 1e-9 * std::max(1.0, std::abs(full)));
}

TEST(SwapEvaluator, TracksFullCostMmsGraph) {
  drive_and_compare(noc::mms_graph(), noc::Mesh2D(4, 4), 0.0, 11);
  drive_and_compare(noc::mms_graph(), noc::Mesh2D(4, 4), 2e9, 12);
}

TEST(SwapEvaluator, TracksFullCostSurveillanceGraph) {
  const auto g = noc::video_surveillance_graph();
  const noc::Mesh2D mesh(4, 4);
  drive_and_compare(g, mesh, 0.0, 21);
  drive_and_compare(g, mesh, 1e9, 22);
}

TEST(SwapEvaluator, TracksFullCostRandomGraphRectangularMesh) {
  sim::Rng grng(33);
  const auto g = noc::random_graph(12, grng, 1e6);
  // Non-square mesh with empty tiles: exercises core<->empty swaps and any
  // x/y confusion in the route table.
  const noc::Mesh2D mesh(5, 3);
  drive_and_compare(g, mesh, 0.0, 31);
  drive_and_compare(g, mesh, 5e5, 32);
}

TEST(XyRouteTable, MatchesMeshRoutes) {
  // 1x6 and 6x1 leave one leg empty on every route and 6x1 has width-1
  // columns; 2x2 is the smallest mesh with both legs and both stride signs;
  // 32x32 is the largest mesh the explorers map onto.
  const std::pair<std::size_t, std::size_t> kMeshes[] = {
      {4, 4}, {5, 3}, {1, 6}, {6, 1}, {2, 2}, {32, 32}};
  std::vector<std::uint32_t> expected, from_table, from_mesh;
  for (const auto& [w, h] : kMeshes) {
    const noc::Mesh2D mesh(w, h);
    const noc::XyRouteTable table(mesh);
    ASSERT_EQ(table.tiles(), mesh.num_tiles());
    for (noc::TileId s = 0; s < mesh.num_tiles(); ++s) {
      for (noc::TileId d = 0; d < mesh.num_tiles(); ++d) {
        ASSERT_EQ(table.hops(s, d), mesh.hops(s, d));
        ASSERT_EQ(table.links(s, d).hops(), mesh.hops(s, d));
        // Reference: walk the route hop by hop with xy_next.
        const auto route = test_support::xy_route(mesh, s, d);
        expected.clear();
        for (std::size_t i = 0; i + 1 < route.size(); ++i) {
          const noc::Dir dir = mesh.xy_next(route[i], d);
          expected.push_back(
              static_cast<std::uint32_t>(mesh.link_index(route[i], dir)));
        }
        from_table.clear();
        table.links(s, d).for_each_link(
            [&](std::uint32_t l) { from_table.push_back(l); });
        from_mesh.clear();
        mesh.xy_links(s, d).for_each_link(
            [&](std::uint32_t l) { from_mesh.push_back(l); });
        ASSERT_EQ(from_table, expected)
            << w << "x" << h << " " << s << "->" << d;
        ASSERT_EQ(from_mesh, expected)
            << w << "x" << h << " " << s << "->" << d;
      }
    }
  }
}

TEST(XyRouteTable, SuppliedTableMatchesOwnAndIsCheckedAgainstMesh) {
  // SaOptions::routes hands the evaluator a caller-built table: the run must
  // equal one whose evaluator builds its own, and a table built for another
  // tile count must be rejected.
  sim::Rng grng(33);
  const noc::AppGraph g = noc::random_graph(20, grng, 1e6);
  const noc::Mesh2D mesh(5, 5);
  const noc::EnergyModel em;
  noc::SaOptions opts;
  opts.iterations = 3000;
  sim::Rng r1(7), r2(7), r3(7);
  const noc::Mapping own = noc::sa_mapping(g, mesh, em, r1, opts);
  const noc::XyRouteTable table(mesh);
  opts.routes = &table;
  EXPECT_EQ(noc::sa_mapping(g, mesh, em, r2, opts), own);
  const noc::XyRouteTable other(noc::Mesh2D(4, 4));
  opts.routes = &other;
  EXPECT_THROW(noc::sa_mapping(g, mesh, em, r3, opts), holms::InvalidArgument);
}

// ---------------------------------------------------------------------------
// SA move-set: swap / 2-opt segment reversal / cluster relocation (PR 5).
// ---------------------------------------------------------------------------

// Drives sampled moves of every kind through apply_move with a random
// commit/revert mix: reverts must restore the cost bitwise, and the
// incremental cost must track full re-evaluation to 1e-9.
void drive_moves_and_compare(const noc::AppGraph& g, const noc::Mesh2D& mesh,
                             double capacity, std::uint64_t seed) {
  const noc::EnergyModel em;
  const double penalty = 2.0;
  sim::Rng rng(seed);
  noc::SaOptions mix;
  mix.w_swap = 0.5;
  mix.w_segment_reversal = 0.3;
  mix.w_cluster_relocate = 0.2;
  noc::Mapping m0 = noc::greedy_mapping(g, mesh, em);
  noc::SwapEvaluator ev(g, mesh, em, m0, capacity, penalty);
  const std::size_t cores = ev.mapping().size();

  bool saw[3] = {false, false, false};
  constexpr std::size_t kMoves = 5000;
  for (std::size_t i = 0; i < kMoves; ++i) {
    const noc::MoveDesc mv =
        noc::sample_move(rng, mix, mesh.num_tiles(), cores);
    if (mv.kind != noc::SaMove::kClusterRelocate && mv.a == mv.b) continue;
    saw[static_cast<std::size_t>(mv.kind)] = true;
    const double before = ev.cost();
    ev.apply_move(mv);
    if (rng.bernoulli(0.5)) {
      ev.commit_move();
    } else {
      ev.revert_move();
      ASSERT_EQ(ev.cost(), before) << "revert not bitwise at move " << i;
    }
    if (i % 250 == 0) {
      // The mapping must stay an injective placement through every move.
      noc::Mapping sorted = ev.mapping();
      std::sort(sorted.begin(), sorted.end());
      ASSERT_TRUE(std::adjacent_find(sorted.begin(), sorted.end()) ==
                  sorted.end())
          << "mapping lost injectivity at move " << i;
      const double full = full_penalized_cost(g, mesh, em, ev.mapping(),
                                              capacity, penalty);
      ASSERT_NEAR(ev.cost(), full, 1e-9 * std::max(1.0, std::abs(full)))
          << "incremental cost drifted at move " << i;
    }
  }
  EXPECT_TRUE(saw[0] && saw[1] && saw[2]);  // every kind exercised
  const double full =
      full_penalized_cost(g, mesh, em, ev.mapping(), capacity, penalty);
  EXPECT_NEAR(ev.cost(), full, 1e-9 * std::max(1.0, std::abs(full)));
}

TEST(SaMoves, AllKindsTrackFullCostAndRevertBitwise) {
  drive_moves_and_compare(noc::mms_graph(), noc::Mesh2D(4, 4), 0.0, 41);
  drive_moves_and_compare(noc::mms_graph(), noc::Mesh2D(4, 4), 2e9, 42);
}

TEST(SaMoves, AllKindsTrackFullCostOnRectangularMeshWithEmptyTiles) {
  sim::Rng grng(33);
  const auto g = noc::random_graph(12, grng, 1e6);
  drive_moves_and_compare(g, noc::Mesh2D(5, 3), 0.0, 51);
  drive_moves_and_compare(g, noc::Mesh2D(5, 3), 5e5, 52);
}

TEST(SaMoves, SwapOnlyMixPreservesLegacyDrawSequence) {
  // The default (swap-only) mix must consume exactly the legacy RNG stream:
  // one T^2 pair draw per move, no selector draw.
  const noc::SaOptions def;
  const std::size_t tiles = 16;
  sim::Rng a(123), b(123);
  for (int i = 0; i < 200; ++i) {
    const noc::MoveDesc mv = noc::sample_move(a, def, tiles, 9);
    EXPECT_EQ(mv.kind, noc::SaMove::kSwap);
    const auto pair = static_cast<std::size_t>(
        b.uniform_int(0, static_cast<std::int64_t>(tiles * tiles) - 1));
    EXPECT_EQ(mv.a, static_cast<noc::TileId>(pair / tiles));
    EXPECT_EQ(mv.b, static_cast<noc::TileId>(pair % tiles));
  }
  EXPECT_EQ(a.bits(), b.bits());  // identical draw counts
}

TEST(SaMoves, MixedMoveSaMatchesFullEvalOracleQuality) {
  const auto g = noc::mms_graph();
  const noc::Mesh2D mesh(4, 4);
  const noc::EnergyModel em;
  noc::SaOptions opts;
  opts.iterations = 4000;
  opts.w_swap = 0.6;
  opts.w_segment_reversal = 0.2;
  opts.w_cluster_relocate = 0.2;
  opts.reheat_after = 1500;
  sim::Rng r1(7);
  const auto inc = noc::sa_mapping(g, mesh, em, r1, opts);
  sim::Rng r2(7);
  const auto full = test_support::sa_mapping_full(g, mesh, em, r2, opts);
  const double ci = noc::evaluate_mapping(g, mesh, em, inc).comm_energy_j;
  const double cf = noc::evaluate_mapping(g, mesh, em, full).comm_energy_j;
  // Both paths consume the shared sample_move stream; trajectories agree
  // except where an accept flips inside the ~1e-12 incremental/full gap.
  EXPECT_NEAR(ci, cf, 0.05 * cf);
}

TEST(SaMoves, ReheatingKeepsMappingValidAndCompetitive) {
  const auto g = noc::mms_graph();
  const noc::Mesh2D mesh(4, 4);
  const noc::EnergyModel em;
  noc::SaOptions opts;
  opts.iterations = 6000;
  opts.reheat_after = 400;
  opts.reheat_factor = 16.0;
  sim::Rng rng(13);
  const auto m = noc::sa_mapping(g, mesh, em, rng, opts);
  noc::Mapping sorted = m;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_TRUE(std::adjacent_find(sorted.begin(), sorted.end()) ==
              sorted.end());
  const double sa = noc::evaluate_mapping(g, mesh, em, m).comm_energy_j;
  const double greedy =
      noc::evaluate_mapping(g, mesh, em, noc::greedy_mapping(g, mesh, em))
          .comm_energy_j;
  EXPECT_LE(sa, greedy * 1.05);  // reheating must not wreck the anneal
}

TEST(SaMoves, ValidateRejectsBadMoveOptions) {
  noc::SaOptions o;
  o.w_swap = -1.0;
  EXPECT_THROW(o.validate(), holms::InvalidArgument);
  o = noc::SaOptions{};
  o.w_swap = 0.0;  // zero-sum mix
  EXPECT_THROW(o.validate(), holms::InvalidArgument);
  o = noc::SaOptions{};
  o.reheat_factor = 0.5;
  EXPECT_THROW(o.validate(), holms::InvalidArgument);
  o = noc::SaOptions{};
  o.w_swap = 0.0;
  o.w_cluster_relocate = 1.0;  // non-swap-only mixes are legal
  EXPECT_NO_THROW(o.validate());
}

TEST(SaMapping, FullEvalOracleReachesSameQuality) {
  const auto g = noc::mms_graph();
  const noc::Mesh2D mesh(4, 4);
  const noc::EnergyModel em;
  noc::SaOptions opts;
  opts.iterations = 4000;
  sim::Rng r1(7);
  const auto inc = noc::sa_mapping(g, mesh, em, r1, opts);
  sim::Rng r2(7);
  const auto full = test_support::sa_mapping_full(g, mesh, em, r2, opts);
  const double ci = noc::evaluate_mapping(g, mesh, em, inc).comm_energy_j;
  const double cf = noc::evaluate_mapping(g, mesh, em, full).comm_energy_j;
  // Same seed, same RNG draw sequence: the two loops walk the same move
  // trajectory except where an accept decision flips inside the ~1e-12
  // incremental/full gap.  Quality must be indistinguishable.
  EXPECT_NEAR(ci, cf, 0.02 * cf);
}

TEST(SaMapping, PinnedDigestsOfLibraryAndFullEvalOracle) {
  // Reference digests from the library's incremental loop and its former
  // in-library full-evaluation loop, which the oracle reproduces: swap-only
  // and mixed moves with reheating, under a link capacity at 0.6x greedy's
  // busiest link so the overload penalty is live.  The SA path's exec::simd
  // kernels are transfer_delta, whose lane order is fixed, and the
  // busiest-link max, which is exact on the finite link loads, so the
  // digests hold under every HOLMS_SIMD / HOLMS_THREADS setting.
  sim::Rng grng(33);
  const noc::AppGraph rg20 = noc::random_graph(20, grng, 1e6);
  const noc::AppGraph vs = noc::video_surveillance_graph();
  struct Pin {
    const noc::AppGraph* graph;
    std::size_t side;
    bool mixed;
    std::uint64_t library;
    std::uint64_t oracle;
  };
  const noc::EnergyModel em;
  for (const Pin& pin :
       {Pin{&rg20, 5, false, 0x1795b967ddae3189ull, 0x1795b967ddae3189ull},
        Pin{&rg20, 5, true, 0x78f62fc16375ca01ull, 0x0c063ce7ef828ad4ull},
        Pin{&vs, 4, false, 0xfcc4969f6b4ae831ull, 0x02bf474ed71bb869ull},
        Pin{&vs, 4, true, 0x4b0d76b8cd8c5fa9ull, 0x7530ed391db76a54ull}}) {
    const noc::Mesh2D mesh(pin.side, pin.side);
    noc::SaOptions opts;
    opts.iterations = 3000;
    opts.initial_temperature = 0.02;
    opts.link_capacity_bps =
        0.6 * noc::evaluate_mapping(*pin.graph, mesh, em,
                                    noc::greedy_mapping(*pin.graph, mesh, em))
                  .max_link_load_bps;
    if (pin.mixed) {
      opts.w_swap = 0.6;
      opts.w_segment_reversal = 0.2;
      opts.w_cluster_relocate = 0.2;
      opts.reheat_after = 300;
    }
    sim::Rng r1(7);
    EXPECT_EQ(core::mapping_digest(
                  noc::sa_mapping(*pin.graph, mesh, em, r1, opts)),
              pin.library)
        << pin.side << "x" << pin.side << " mixed=" << pin.mixed;
    sim::Rng r2(7);
    EXPECT_EQ(core::mapping_digest(test_support::sa_mapping_full(
                  *pin.graph, mesh, em, r2, opts)),
              pin.oracle)
        << pin.side << "x" << pin.side << " mixed=" << pin.mixed;
  }
}

// ---------------------------------------------------------------------------
// List scheduling: per-task dependency lists vs the full-scan oracle.
// ---------------------------------------------------------------------------

void expect_same_schedule(const noc::ScheduleResult& lib,
                          const noc::ScheduleResult& ref,
                          const std::string& what) {
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  ASSERT_EQ(lib.placement.size(), ref.placement.size()) << what;
  for (std::size_t i = 0; i < lib.placement.size(); ++i) {
    const noc::TaskPlacement& a = lib.placement[i];
    const noc::TaskPlacement& b = ref.placement[i];
    EXPECT_EQ(bits(a.start), bits(b.start)) << what << " task " << i;
    EXPECT_EQ(bits(a.finish), bits(b.finish)) << what << " task " << i;
    EXPECT_EQ(a.dvs_level, b.dvs_level) << what << " task " << i;
  }
  EXPECT_EQ(bits(lib.makespan_s), bits(ref.makespan_s)) << what;
  EXPECT_EQ(lib.deadline_met, ref.deadline_met) << what;
  EXPECT_EQ(bits(lib.compute_energy_j), bits(ref.compute_energy_j)) << what;
  EXPECT_EQ(bits(lib.comm_energy_j), bits(ref.comm_energy_j)) << what;
  EXPECT_EQ(bits(lib.idle_energy_j), bits(ref.idle_energy_j)) << what;
  EXPECT_EQ(bits(lib.total_energy_j), bits(ref.total_energy_j)) << what;
}

TEST(Scheduling, DependencyListsMatchFullScanOracle) {
  // Seeded random_graph DAGs (edges only run forward, so each is a valid
  // SchedProblem) on 2x2..5x5 meshes, so tasks share tiles.  About a quarter
  // of the tasks take zero cycles: a zero-cycle task ties its successor's
  // priority, the unstable sort may order the successor first, and the
  // successor then waits for a second pass.  Deadlines below, at and above
  // the EDF makespan drive both slack policies through their repair and
  // descent loops.
  sim::Rng rng(2024);
  for (int trial = 0; trial < 30; ++trial) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(8, 60));
    const noc::AppGraph g = noc::random_graph(n, rng, 4e5);
    const auto side = static_cast<std::size_t>(rng.uniform_int(2, 5));
    noc::SchedProblem p;
    p.mesh = noc::Mesh2D(side, side);
    for (std::size_t i = 0; i < n; ++i) {
      const bool idle = rng.bernoulli(0.25);
      p.tasks.push_back(
          {"t" + std::to_string(i), idle ? 0.0 : g.node(i).compute_cycles});
      p.tile_of.push_back(static_cast<noc::TileId>(
          rng.uniform_int(0, static_cast<std::int64_t>(side * side) - 1)));
    }
    for (const noc::AppEdge& e : g.edges()) {
      p.deps.push_back({e.src, e.dst, e.volume_bits});
    }
    const double edf = test_support::schedule_edf_full_scan(p).makespan_s;
    for (const double slack : {0.9, 1.0, 1.5, 3.0}) {
      p.deadline_s = edf * slack;
      const std::string what =
          "trial " + std::to_string(trial) + " slack " + std::to_string(slack);
      expect_same_schedule(noc::schedule_edf(p),
                           test_support::schedule_edf_full_scan(p),
                           what + " edf");
      for (const noc::SlackPolicy policy :
           {noc::SlackPolicy::kProportional,
            noc::SlackPolicy::kGreedyLongest}) {
        expect_same_schedule(
            noc::schedule_energy_aware(p, policy),
            test_support::schedule_energy_aware_full_scan(p, policy),
            what + " eas policy " +
                std::to_string(static_cast<int>(policy)));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Sparse stationary solvers.
// ---------------------------------------------------------------------------

markov::Dtmc birth_death_chain(std::size_t n) {
  markov::Dtmc d(n);
  for (std::size_t i = 0; i < n; ++i) {
    double stay = 0.2;
    if (i + 1 < n) d.set(i, i + 1, 0.5); else stay += 0.5;
    if (i > 0) d.set(i, i - 1, 0.3); else stay += 0.3;
    d.set(i, i, stay);
  }
  return d;
}

// Chains above power iteration's sharding floors: the design_farm32
// tandem's shape at 92 levels (n = 8464, ~33,500 nonzeros, every column at
// most 4 entries, so its sweeps run in slices) and a band of long columns
// (17 entries, per-column dots).
struct ShardedChain {
  const char* name;
  markov::Dtmc chain;
};

std::vector<ShardedChain> sharded_chains() {
  std::vector<ShardedChain> chains;
  chains.push_back(
      {"tandem92", tandem_chain(92, 1.0, 1.12, 1.17).uniformized()});
  chains.push_back({"banded2048x8", banded_chain(2048, 8)});
  return chains;
}

// d's power solve, checked to have swept on the shard grid: a solve below
// the floors runs inline and would prove nothing about the executor.
markov::SolveResult sharded_power_solve(const markov::Dtmc& d,
                                        const markov::SolveOptions& opts) {
  exec::MetricsRegistry reg;
  const exec::ScopedMetricsSink sink(reg);
  markov::SolveResult r = d.steady_state(opts);
  EXPECT_EQ(reg.counter("markov.sharded_solves").value(), 1u)
      << "the chain no longer clears the sharding floors";
  return r;
}

TEST(SparseSolve, MatchesPinnedReferenceDigests) {
  // Reference values from the dense-storage chains (row-major O(n^2)
  // transient sweep, CSR built by scanning a dense matrix): the sparse-row
  // chains must reproduce every iterate bit for bit.  Only the last block's
  // power solves clear power iteration's sharding floors; every other solve
  // here sweeps inline.  The Gauss–Seidel pins are the symmetric sweep's.
  // All reduce through exec::simd's fixed lane order, so the digests hold
  // under every HOLMS_SIMD / HOLMS_THREADS setting.
  const markov::Dtmc d = birth_death_chain(128);
  struct Pin {
    markov::SteadyStateMethod method;
    std::size_t iterations;
    std::uint64_t digest;
  };
  for (const Pin& pin :
       {Pin{markov::SteadyStateMethod::kPowerIteration, 1701,
            0x862ad74bd622d6d7ull},
        Pin{markov::SteadyStateMethod::kGaussSeidel, 356,
            0x34a7a5bc13ca74f3ull}}) {
    markov::SolveOptions opts;
    opts.method = pin.method;
    const auto r = d.steady_state(opts);
    ASSERT_TRUE(r.converged);
    EXPECT_EQ(r.iterations, pin.iterations);
    EXPECT_EQ(bits_digest(r.distribution), pin.digest)
        << "method " << static_cast<int>(pin.method);
  }

  const markov::Ctmc q = tandem_chain(6, 1.0, 1.5, 1.2);
  std::vector<double> empty(q.size(), 0.0);
  empty[0] = 1.0;
  const auto pt = q.transient(empty, 3.0);
  EXPECT_EQ(pt[0], 0x1.a0f15a767c0b2p-3);
  EXPECT_EQ(bits_digest(pt), 0x864511e7b7efbec3ull);

  // design_farm32's tandem (n = 1296, 5,041 nonzeros) and a band of 9-entry
  // columns (n = 1500, 13,480 nonzeros).  Both sit below the 32,768-nonzero
  // sharding floor, so every thread count sweeps them inline; their power
  // pins were first printed when both ran sharded, which changes no bit.
  const markov::Ctmc tandem = tandem_chain(36, 1.0, 1.12, 1.17);
  const markov::Dtmc banded = banded_chain(1500, 4);
  struct ShardedPin {
    const char* chain;
    markov::SteadyStateMethod method;
    std::size_t iterations;
    std::uint64_t digest;
  };
  for (const ShardedPin& pin :
       {ShardedPin{"tandem", markov::SteadyStateMethod::kPowerIteration,
                   6076, 0x5b3ade1389dd293aull},
        ShardedPin{"tandem", markov::SteadyStateMethod::kGaussSeidel, 1371,
                   0x67957425451bc34cull},
        ShardedPin{"banded", markov::SteadyStateMethod::kPowerIteration,
                   10410, 0x1f75965e547e5602ull},
        ShardedPin{"banded", markov::SteadyStateMethod::kGaussSeidel, 1329,
                   0xbe76bae942c6bf5aull}}) {
    const bool is_tandem = std::string(pin.chain) == "tandem";
    markov::SolveOptions opts;
    opts.method = pin.method;
    if (is_tandem) opts.tolerance = 1e-10;
    for (const std::size_t t : {std::size_t{1}, std::size_t{4}}) {
      opts.threads = t;
      const auto r = is_tandem ? tandem.steady_state(opts)
                               : banded.steady_state(opts);
      ASSERT_TRUE(r.converged) << pin.chain;
      EXPECT_EQ(r.iterations, pin.iterations)
          << pin.chain << " method " << static_cast<int>(pin.method)
          << " threads " << t;
      EXPECT_EQ(bits_digest(r.distribution), pin.digest)
          << pin.chain << " method " << static_cast<int>(pin.method)
          << " threads " << t;
    }
  }

  // Power solves that do run on an executor: both chains clear the sharding
  // floors, which sharded_power_solve checks.  ThreadInvariance.* compares
  // the sharded path only with itself; these pins also catch an executor
  // bug that gives the same wrong answer at every thread count.  A fixed
  // 400 sweeps, short of convergence, keeps them quick.  Pinned while the
  // shards still ran on a static team, shard s always on member s mod T.
  const std::vector<ShardedChain> chains = sharded_chains();
  const std::uint64_t sharded_digests[] = {0xf80f7662af142742ull,
                                           0x1e074aed2437ceebull};
  ASSERT_EQ(chains.size(), std::size(sharded_digests));
  for (std::size_t c = 0; c < chains.size(); ++c) {
    markov::SolveOptions opts;
    opts.max_iterations = 400;
    for (const std::size_t t :
         {std::size_t{1}, std::size_t{4}, std::size_t{7},
          holms::exec::env_threads(2)}) {
      opts.threads = t;
      const auto r = sharded_power_solve(chains[c].chain, opts);
      EXPECT_FALSE(r.converged) << chains[c].name;
      EXPECT_EQ(r.iterations, 400u) << chains[c].name;
      EXPECT_EQ(bits_digest(r.distribution), sharded_digests[c])
          << chains[c].name << " threads " << t;
    }
  }
}

// Default solves (power iteration) against kDirect, the banded GTH
// elimination.
TEST(SparseSolve, PowerIterationMatchesDirectGth) {
  markov::SolveOptions direct;
  direct.method = markov::SteadyStateMethod::kDirect;
  // Tridiagonal CTMC, solved through its uniformized DTMC.
  const std::size_t n = 96;
  markov::Ctmc q(n);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    q.set_rate(i, i + 1, 3.0);
    q.set_rate(i + 1, i, 4.0);
  }
  const auto r = q.steady_state({});
  ASSERT_TRUE(r.converged);
  const auto exact = q.steady_state(direct);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(r.distribution[i], exact.distribution[i], 1e-8);
  }
  // Fully dense DTMC (every transition 1/n): nothing to skip, same answer.
  markov::Dtmc dense(n);
  for (std::size_t row = 0; row < n; ++row)
    for (std::size_t c = 0; c < n; ++c)
      dense.set(row, c, 1.0 / static_cast<double>(n));
  const auto rd = dense.steady_state({});
  ASSERT_TRUE(rd.converged);
  const auto dense_exact = dense.steady_state(direct);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(rd.distribution[i], 1.0 / static_cast<double>(n), 1e-12);
    EXPECT_NEAR(rd.distribution[i], dense_exact.distribution[i], 1e-12);
  }
}

// ---------------------------------------------------------------------------
// Thread-count invariance: the sharded solvers and explore() must be a
// function of the problem alone, never of the worker count.
// ---------------------------------------------------------------------------

TEST(ThreadInvariance, SparseSolvesBitwiseAcrossThreadCounts) {
  // Gauss–Seidel is serial and ignores `threads`; its iterates are pinned
  // by SparseSolve.MatchesPinnedReferenceDigests.
  for (const ShardedChain& c : sharded_chains()) {
    markov::SolveOptions opts;
    opts.max_iterations = 400;
    opts.threads = 1;
    const auto base = sharded_power_solve(c.chain, opts);
    // env_threads folds the CI HOLMS_THREADS matrix into the sweep, so the
    // two ctest runs exercise different pool sizes against the same oracle.
    for (const std::size_t t :
         {std::size_t{2}, std::size_t{4}, std::size_t{7},
          holms::exec::env_threads(2)}) {
      opts.threads = t;
      const auto r = sharded_power_solve(c.chain, opts);
      EXPECT_EQ(base.iterations, r.iterations) << c.name;
      EXPECT_EQ(base.converged, r.converged) << c.name;
      EXPECT_EQ(bits_digest(base.distribution), bits_digest(r.distribution))
          << c.name << " threads=" << t;
    }
  }
}

TEST(ThreadInvariance, ShardedPowerIterationMatchesSerialScatterBitwise) {
  // The sharded sliced plan reproduces the serial per-column accumulation
  // order exactly — engaging the shards must not change a bit.
  for (const ShardedChain& c : sharded_chains()) {
    markov::SolveOptions opts;
    opts.max_iterations = 400;
    opts.threads = 4;
    const auto a = test_support::unsharded_power_iteration(c.chain, opts);
    const auto b = sharded_power_solve(c.chain, opts);
    EXPECT_EQ(a.iterations, b.iterations) << c.name;
    EXPECT_EQ(a.converged, b.converged) << c.name;
    EXPECT_EQ(bits_digest(a.distribution), bits_digest(b.distribution))
        << c.name;
  }
}

TEST(ThreadInvariance, ExploreBitwiseAcrossThreadCounts) {
  core::Application app;
  sim::Rng grng(3);
  app.graph = noc::random_graph(12, grng, 5e5);
  app.qos.period_s = 0.05;
  const core::Platform plat = core::Platform::homogeneous(4, 4);
  core::ExploreOptions opts;
  opts.restarts = 2;
  opts.sa.iterations = 1200;

  opts.threads = 1;
  sim::Rng r1(5);
  const core::ExploreResult base = core::explore(app, plat, r1, opts);
  ASSERT_TRUE(base.found_feasible);
  ASSERT_GT(base.evaluated, 0u);
  for (const std::size_t t :
       {std::size_t{2}, std::size_t{4}, std::size_t{7},
        holms::exec::env_threads(2)}) {
    opts.threads = t;
    sim::Rng rt(5);
    const core::ExploreResult r = core::explore(app, plat, rt, opts);
    EXPECT_EQ(base.found_feasible, r.found_feasible);
    EXPECT_EQ(base.evaluated, r.evaluated);
    EXPECT_EQ(base.best.mapping, r.best.mapping) << "threads=" << t;
    EXPECT_EQ(base.best.eval.total_energy_j, r.best.eval.total_energy_j);
    EXPECT_EQ(base.best.eval.schedule.makespan_s,
              r.best.eval.schedule.makespan_s);
  }
}

TEST(CsrMatrix, TransposeRoundTrip) {
  const std::vector<markov::SparseRow> rows = {
      {{1, 2.0}}, {{0, -1.5}, {3, 4.0}}, {{2, 7.0}}};
  const markov::CsrMatrix csr(4, rows);
  EXPECT_EQ(csr.rows(), 3u);
  EXPECT_EQ(csr.nnz(), 4u);
  EXPECT_NEAR(csr.density(), 4.0 / 12.0, 1e-15);
  const auto t = csr.transposed();
  EXPECT_EQ(t.rows(), 4u);
  EXPECT_EQ(t.cols(), 3u);
  const auto tt = t.transposed();
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const auto cols = tt.row_cols(r);
    const auto vals = tt.row_vals(r);
    ASSERT_EQ(cols.size(), rows[r].size());
    for (std::size_t k = 0; k < cols.size(); ++k) {
      EXPECT_EQ(cols[k], rows[r][k].col);
      EXPECT_EQ(vals[k], rows[r][k].value);
    }
  }
}

TEST(CsrMatrix, DropsExactZerosAndRejectsMalformedRows) {
  const std::vector<markov::SparseRow> rows = {{{0, 0.0}, {1, 0.5}},
                                               {{0, -0.0}}};
  const markov::CsrMatrix csr(2, rows);
  EXPECT_EQ(csr.nnz(), 1u);
  ASSERT_EQ(csr.row_cols(0).size(), 1u);
  EXPECT_EQ(csr.row_cols(0)[0], 1u);
  EXPECT_TRUE(csr.row_cols(1).empty());

  const std::vector<markov::SparseRow> unsorted = {{{1, 1.0}, {0, 1.0}}};
  EXPECT_THROW(markov::CsrMatrix(2, unsorted), holms::InvalidArgument);
  const std::vector<markov::SparseRow> duplicate = {{{1, 1.0}, {1, 1.0}}};
  EXPECT_THROW(markov::CsrMatrix(2, duplicate), holms::InvalidArgument);
  const std::vector<markov::SparseRow> wide = {{{2, 1.0}}};
  EXPECT_THROW(markov::CsrMatrix(2, wide), holms::InvalidArgument);
}

// ---------------------------------------------------------------------------
// Event-pool simulator kernel.
// ---------------------------------------------------------------------------

TEST(EventPool, DeterministicTraceWithBatchesAndCancels) {
  sim::Simulator s;
  std::vector<std::pair<double, int>> trace;
  const auto mark = [&](int tag) { trace.emplace_back(s.now(), tag); };

  s.schedule_at(2.0, [&] { mark(1); });
  const auto victim = s.schedule_at(2.0, [&] { mark(99); });
  s.schedule_at(2.0, [&] { mark(2); });
  s.schedule_at(1.0, [&] {
    mark(0);
    s.cancel(victim);                      // cancels into the future batch
    s.schedule_at(2.0, [&] { mark(3); });  // joins the t=2 cohort (later seq)
    s.schedule_in(0.0, [&] { mark(4); });  // same-timestamp follow-up at t=1
  });
  const std::size_t n = s.run();
  EXPECT_EQ(n, 5u);
  const std::vector<std::pair<double, int>> expected = {
      {1.0, 0}, {1.0, 4}, {2.0, 1}, {2.0, 2}, {2.0, 3}};
  EXPECT_EQ(trace, expected);
}

TEST(EventPool, CancelWithinSameTimestampBatch) {
  sim::Simulator s;
  int ran = 0;
  sim::EventId later{};
  s.schedule_at(1.0, [&] {
    ++ran;
    s.cancel(later);  // target was scheduled at the same timestamp
  });
  later = s.schedule_at(1.0, [&] { ran += 100; });
  s.run();
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(s.pending(), 0u);
}

TEST(EventPool, StopMidBatchLeavesTailPending) {
  sim::Simulator s;
  std::vector<int> ran;
  s.schedule_at(1.0, [&] { ran.push_back(1); });
  s.schedule_at(1.0, [&] {
    ran.push_back(2);
    s.stop();
  });
  s.schedule_at(1.0, [&] { ran.push_back(3); });
  const std::size_t first = s.run();
  EXPECT_EQ(first, 2u);
  EXPECT_EQ(s.pending(), 1u);
  // Resume: the re-queued tail runs, still at t=1, in original order.
  const std::size_t second = s.run();
  EXPECT_EQ(second, 1u);
  EXPECT_EQ(ran, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), 1.0);
}

TEST(EventPool, LargeCapturesFallBackToHeap) {
  sim::Simulator s;
  std::array<double, 32> payload{};  // 256 bytes: well past the inline buffer
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<double>(i) * 0.5;
  }
  double sum = 0.0;
  s.schedule_at(1.0, [payload, &sum] {
    for (const double v : payload) sum += v;
  });
  s.run();
  EXPECT_NEAR(sum, 0.5 * (31.0 * 32.0 / 2.0), 1e-12);
}

TEST(EventPool, DestructorReleasesUnrunCallbacks) {
  const auto token = std::make_shared<int>(42);
  {
    sim::Simulator s;
    s.schedule_at(1.0, [token] { (void)*token; });         // inline capture
    std::array<std::shared_ptr<int>, 16> many;
    many.fill(token);
    s.schedule_at(2.0, [many] { (void)many; });            // heap fallback
    const auto cancelled = s.schedule_at(3.0, [token] { (void)*token; });
    s.cancel(cancelled);
    EXPECT_GT(token.use_count(), 1);
  }
  // All three never ran; their captures must still have been destroyed.
  EXPECT_EQ(token.use_count(), 1);
}

TEST(EventPool, SlotsAreRecycledAcrossManyEvents) {
  sim::Simulator s;
  std::size_t count = 0;
  struct Chain {
    sim::Simulator& sim;
    std::size_t& count;
    std::size_t remaining;
    void operator()() const {
      ++count;
      if (remaining > 0) sim.schedule_in(1.0, Chain{sim, count, remaining - 1});
    }
  };
  s.schedule_in(1.0, Chain{s, count, 9999});
  s.run();
  EXPECT_EQ(count, 10000u);
  EXPECT_EQ(s.executed(), 10000u);
  // One live event at a time: the pool never needs more than one slab.
  EXPECT_EQ(s.queue_high_water(), 1u);
}

// ---------------------------------------------------------------------------
// EventPoolCache: slab-arena recycling across simulator fleets (PR 5).
// ---------------------------------------------------------------------------

TEST(EventPoolCache, RecyclesSlabsAcrossSimulators) {
  sim::EventPoolCache cache;
  EXPECT_EQ(cache.slabs_cached(), 0u);
  {
    sim::Simulator s(&cache);
    int n = 0;
    // 600 concurrent live events: forces >= 3 slabs of 256 slots.
    for (int i = 0; i < 600; ++i) {
      s.schedule_at(1.0 + i, [&n] { ++n; });
    }
    s.run();
    EXPECT_EQ(n, 600);
  }
  const std::size_t parked = cache.slabs_cached();
  EXPECT_GE(parked, 3u);
  EXPECT_EQ(cache.high_water(), parked);
  {
    sim::Simulator s2(&cache);
    // The second simulator adopts the parked arena wholesale.
    EXPECT_EQ(cache.slabs_cached(), 0u);
    int n = 0;
    for (int i = 0; i < 600; ++i) {
      s2.schedule_at(1.0 + i, [&n] { ++n; });
    }
    s2.run();
    EXPECT_EQ(n, 600);
  }
  // Same workload, recycled slots: the arena comes back unchanged.
  EXPECT_EQ(cache.slabs_cached(), parked);
  EXPECT_EQ(cache.high_water(), parked);
}

TEST(EventPoolCache, KeepsLargestArena) {
  sim::EventPoolCache cache;
  {
    sim::Simulator big(&cache);
    int n = 0;
    for (int i = 0; i < 600; ++i) big.schedule_at(1.0 + i, [&n] { ++n; });
    big.run();
  }
  const std::size_t parked = cache.slabs_cached();
  ASSERT_GE(parked, 3u);
  {
    // A small run adopts the big arena and returns it intact: parking the
    // larger-of arenas means the cache never shrinks below its high water.
    sim::Simulator small(&cache);
    int n = 0;
    small.schedule_at(1.0, [&n] { ++n; });
    small.run();
  }
  EXPECT_EQ(cache.slabs_cached(), parked);
  EXPECT_EQ(cache.high_water(), parked);
}

std::vector<std::pair<double, int>> batch_cancel_trace(sim::Simulator& s) {
  std::vector<std::pair<double, int>> trace;
  const auto mark = [&](int tag) { trace.emplace_back(s.now(), tag); };
  s.schedule_at(2.0, [&] { mark(1); });
  const auto victim = s.schedule_at(2.0, [&] { mark(99); });
  s.schedule_at(2.0, [&] { mark(2); });
  s.schedule_at(1.0, [&] {
    mark(0);
    s.cancel(victim);
    s.schedule_at(2.0, [&] { mark(3); });
    s.schedule_in(0.0, [&] { mark(4); });
  });
  s.run();
  return trace;
}

TEST(EventPoolCache, RecycledArenaProducesIdenticalTrace) {
  sim::EventPoolCache cache;
  std::vector<std::pair<double, int>> fresh, recycled;
  {
    sim::Simulator s(&cache);
    fresh = batch_cancel_trace(s);
  }
  {
    sim::Simulator s(&cache);  // runs entirely on recycled slots
    recycled = batch_cancel_trace(s);
  }
  const std::vector<std::pair<double, int>> expected = {
      {1.0, 0}, {1.0, 4}, {2.0, 1}, {2.0, 2}, {2.0, 3}};
  EXPECT_EQ(fresh, expected);
  EXPECT_EQ(recycled, expected);
}

TEST(EventPoolCache, ThisThreadReturnsPerThreadSingleton) {
  sim::EventPoolCache& a = sim::EventPoolCache::this_thread();
  sim::EventPoolCache& b = sim::EventPoolCache::this_thread();
  EXPECT_EQ(&a, &b);
}

// ---- exec::simd: scalar-vs-native bitwise equivalence ----------------------
//
// The lane model's contract (DESIGN.md §5i): every kernel produces the SAME
// BITS on every ISA because all backends emulate the identical 8-lane
// assignment and the identical reduction tree.  Under HOLMS_SIMD=off the
// native table below aliases the scalar one and these tests compare it to
// itself — still meaningful as a determinism smoke, and the CI matrix runs
// both settings.

namespace simd = holms::exec::simd;

TEST(Simd, ElementwiseAndReductionKernelsBitwiseIdentical) {
  const simd::Kernels& s = simd::kernels_for(simd::Isa::kScalar);
  const simd::Kernels& v = simd::kernels_for(simd::best_isa());
  sim::Rng rng(42);
  // Sizes straddle the 8-lane boundary: every tail length, plus bulk.
  for (std::size_t n :
       {std::size_t{0}, std::size_t{1}, std::size_t{7}, std::size_t{8},
        std::size_t{9}, std::size_t{15}, std::size_t{16}, std::size_t{333},
        std::size_t{4096}}) {
    std::vector<double> a(n), b(n);
    for (double& x : a) x = rng.uniform(-2.0, 2.0);
    for (double& x : b) x = rng.uniform(-2.0, 2.0);
    EXPECT_EQ(s.sum(a.data(), n), v.sum(a.data(), n)) << "sum n=" << n;
    EXPECT_EQ(s.sum_abs_diff(a.data(), b.data(), n),
              v.sum_abs_diff(a.data(), b.data(), n))
        << "sum_abs_diff n=" << n;
    std::vector<double> c = a, d = a;
    s.div_all(c.data(), n, 3.7);
    v.div_all(d.data(), n, 3.7);
    EXPECT_EQ(c, d) << "div_all n=" << n;
  }
}

// Random CSR with strictly-ascending sources per column (the transposed()
// invariant the run-detection fast load relies on), mixing contiguous runs
// with scattered entries.
struct TestCsr {
  std::vector<std::size_t> offsets{0};
  std::vector<std::uint32_t> srcs;
  std::vector<double> vals;
};

TestCsr random_csr(sim::Rng& rng, std::size_t ncols) {
  TestCsr m;
  for (std::size_t c = 0; c < ncols; ++c) {
    if (ncols > 20 && rng.uniform_int(0, 2) == 0) {
      const auto start =
          static_cast<std::uint32_t>(rng.uniform_int(0, ncols - 17));
      for (std::uint32_t k = 0; k < 16; ++k) {
        m.srcs.push_back(start + k);
        m.vals.push_back(rng.uniform());
      }
    } else {
      std::vector<std::uint32_t> pick;
      const std::size_t deg = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(
                                 std::min<std::size_t>(ncols, 24)) - 1));
      for (std::size_t k = 0; k < deg; ++k) {
        pick.push_back(static_cast<std::uint32_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(ncols) - 1)));
      }
      std::sort(pick.begin(), pick.end());
      pick.erase(std::unique(pick.begin(), pick.end()), pick.end());
      for (const std::uint32_t p : pick) {
        m.srcs.push_back(p);
        m.vals.push_back(rng.uniform());
      }
    }
    m.offsets.push_back(m.srcs.size());
  }
  return m;
}

// Test-local Gauss–Seidel oracle: the in-place sequential sweep, each
// column reduced in the canonical 8-lane order of exec/simd.hpp,
// independently of the kernels.
double lane_dot(const TestCsr& m, const std::vector<double>& x, std::size_t b,
                std::size_t e) {
  double l[8] = {};
  std::size_t i = b;
  for (; i + 8 <= e; i += 8) {
    for (std::size_t k = 0; k < 8; ++k) l[k] += m.vals[i + k] * x[m.srcs[i + k]];
  }
  double r = ((l[0] + l[4]) + (l[2] + l[6])) + ((l[1] + l[5]) + (l[3] + l[7]));
  for (; i < e; ++i) r += m.vals[i] * x[m.srcs[i]];
  return r;
}

void reference_gs_sweep(const TestCsr& m, const std::vector<double>& denom,
                        std::vector<double>& x, bool backward) {
  const std::size_t n = x.size();
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t c = backward ? n - 1 - i : i;
    x[c] = lane_dot(m, x, m.offsets[c], m.offsets[c + 1]) / denom[c];
  }
}

// `m` without its diagonal entries, as Gauss–Seidel's sweeps read it.
TestCsr off_diagonal(const TestCsr& m) {
  TestCsr g;
  for (std::size_t c = 0; c + 1 < m.offsets.size(); ++c) {
    for (std::size_t i = m.offsets[c]; i < m.offsets[c + 1]; ++i) {
      if (m.srcs[i] == c) continue;
      g.srcs.push_back(m.srcs[i]);
      g.vals.push_back(m.vals[i]);
    }
    g.offsets.push_back(g.srcs.size());
  }
  return g;
}

// The columns of `m` as the transpose markov::plan_sweep takes (one CSR row
// per column).  Values must be nonzero: CsrMatrix drops exact zeros.
markov::CsrMatrix as_transpose(const TestCsr& m) {
  std::vector<markov::SparseRow> rows(m.offsets.size() - 1);
  for (std::size_t c = 0; c < rows.size(); ++c) {
    for (std::size_t i = m.offsets[c]; i < m.offsets[c + 1]; ++i) {
      rows[c].push_back({m.srcs[i], m.vals[i]});
    }
  }
  return markov::CsrMatrix(rows.size(), rows);
}

// Every compiled-in table; kernels_for gives the scalar one for an ISA this
// host lacks, which then runs twice.
std::vector<const simd::Kernels*> every_table() {
  return {&simd::kernels_for(simd::Isa::kScalar),
          &simd::kernels_for(simd::Isa::kAvx2),
          &simd::kernels_for(simd::Isa::kNeon)};
}

bool same_bits(std::span<const double> a, std::span<const double> b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(a[i]) !=
        std::bit_cast<std::uint64_t>(b[i])) {
      return false;
    }
  }
  return true;
}

// The Gauss–Seidel sweeps of `pt` (in `steps` order, true = backward) from
// x by the plans on table k, over the two-half buffer whose unwritten half
// starts as NaN: a column that read a value before its step wrote it would
// turn NaN.
std::vector<double> planned_gs(const simd::Kernels& k,
                               const markov::CsrMatrix& pt,
                               const std::vector<double>& denom,
                               const std::vector<double>& x,
                               const std::vector<bool>& steps) {
  const std::size_t n = x.size();
  std::vector<double> buf(2 * n, std::nan(""));
  std::size_t at = 0;  // the half holding the current iterate
  if (steps[0]) at = n;
  std::copy(x.begin(), x.end(), buf.begin() + static_cast<std::ptrdiff_t>(at));
  for (const bool backward : steps) {
    EXPECT_EQ(at, backward ? n : 0) << "a backward sweep reads [n, 2n)";
    const markov::SlicedSweep plan = markov::plan_sweep(
        pt, backward ? markov::Sweep::kBackward : markov::Sweep::kForward,
        denom.data(), n);
    k.sweep(plan.view(), 0, plan.steps.size(), buf.data(), buf.data());
    at = n - at;
  }
  return {buf.begin() + static_cast<std::ptrdiff_t>(at),
          buf.begin() + static_cast<std::ptrdiff_t>(at + n)};
}

TEST(Simd, SpmvAndGaussSeidelKernelsBitwiseIdentical) {
  const simd::Kernels& s = simd::kernels_for(simd::Isa::kScalar);
  const simd::Kernels& v = simd::kernels_for(simd::best_isa());
  sim::Rng rng(7);
  for (int trial = 0; trial < 25; ++trial) {
    const std::size_t n = 1 + static_cast<std::size_t>(rng.uniform_int(0, 199));
    const TestCsr m = random_csr(rng, n);
    std::vector<double> x(n), pi(n);
    for (double& e : x) e = rng.uniform();
    for (double& e : pi) e = rng.uniform();

    std::vector<double> o1(n), o2(n), o3(n);
    s.spmv_cols(m.offsets.data(), m.srcs.data(), m.vals.data(), x.data(),
                o1.data(), 0, n);
    v.spmv_cols(m.offsets.data(), m.srcs.data(), m.vals.data(), x.data(),
                o2.data(), 0, n);
    EXPECT_EQ(o1, o2) << "spmv trial " << trial;
    // Column sharding is a pure work split: any cut reproduces full-range.
    const std::size_t mid = n / 2;
    v.spmv_cols(m.offsets.data(), m.srcs.data(), m.vals.data(), x.data(),
                o3.data(), 0, mid);
    v.spmv_cols(m.offsets.data(), m.srcs.data(), m.vals.data(), x.data(),
                o3.data(), mid, n);
    EXPECT_EQ(o1, o3) << "sharded spmv trial " << trial;

    // Gauss–Seidel: each direction alone, then a symmetric iteration (a
    // forward sweep, then a backward one over its result), by the sliced
    // plans of these long and short columns against the in-place oracle.
    const markov::CsrMatrix pt = as_transpose(m);
    const TestCsr g = off_diagonal(m);
    std::vector<double> denom(n);
    for (double& e : denom) e = 1.0 - rng.uniform(0.0, 0.9);
    using Steps = std::vector<bool>;  // `backward` per sweep, in order
    for (const Steps& steps : {Steps{false}, Steps{true}, Steps{false, true}}) {
      std::vector<double> want = pi;
      for (const bool backward : steps) {
        reference_gs_sweep(g, denom, want, backward);
      }
      for (const simd::Kernels* k : {&s, &v}) {
        EXPECT_EQ(planned_gs(*k, pt, denom, pi, steps), want)
            << k->name << " gs trial " << trial << " sweeps " << steps.size()
            << " first backward " << steps[0];
      }
    }
  }
}

// Columns for the sliced plans, in blocks of 8: mostly 0-7 entries, so
// they go 8 to a slice, with some 8-20-entry columns mixed in.  A block is
// either random, or "shifted": entry j of column 8b + k is base_j + k, so a
// plan that starts at the block reads each row as 8 consecutive sources —
// unless one middle lane's source is moved by one, which leaves the row
// contiguous only at its endpoints.  Values are nonzero, of either sign.
TestCsr random_short_csr(sim::Rng& rng, std::size_t n, bool with_long) {
  TestCsr m;
  const auto value = [&] {
    const double v = rng.uniform(0.05, 2.0);
    return rng.uniform_int(0, 1) == 0 ? v : -v;
  };
  std::vector<std::uint32_t> pick;
  for (std::size_t b = 0; b < n; b += 8) {
    const std::size_t width = std::min<std::size_t>(8, n - b);
    const std::size_t len = static_cast<std::size_t>(rng.uniform_int(1, 7));
    const bool shifted = width == 8 && n >= 128 && rng.uniform_int(0, 1) == 0;
    std::vector<std::uint32_t> bases;
    for (std::size_t j = 0; j < len && shifted; ++j) {
      const auto lo = j == 0 ? 0u : bases.back() + 10;
      const auto room = static_cast<std::int64_t>(n - 8) - lo;
      if (room < 0) break;
      bases.push_back(static_cast<std::uint32_t>(
          lo + rng.uniform_int(0, std::min<std::int64_t>(room, 20))));
    }
    const std::size_t moved_lane =
        static_cast<std::size_t>(rng.uniform_int(1, 6));
    const bool move = rng.uniform_int(0, 1) == 0;
    for (std::size_t k = 0; k < width; ++k) {
      pick.clear();
      if (with_long && rng.uniform_int(0, 9) == 0) {
        const auto deg = static_cast<std::size_t>(rng.uniform_int(8, 20));
        while (pick.size() < std::min(deg, n)) {
          pick.push_back(static_cast<std::uint32_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(n) - 1)));
          std::sort(pick.begin(), pick.end());
          pick.erase(std::unique(pick.begin(), pick.end()), pick.end());
        }
      } else if (shifted) {
        for (std::size_t j = 0; j < bases.size(); ++j) {
          const bool moved = move && k == moved_lane && j == 0;
          pick.push_back(bases[j] + static_cast<std::uint32_t>(k) +
                         (moved ? 1u : 0u));
        }
      } else {
        const std::size_t deg = static_cast<std::size_t>(
            rng.uniform_int(0, std::min<std::int64_t>(7, n)));
        for (std::size_t j = 0; j < deg; ++j) {
          pick.push_back(static_cast<std::uint32_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(n) - 1)));
        }
        std::sort(pick.begin(), pick.end());
        pick.erase(std::unique(pick.begin(), pick.end()), pick.end());
      }
      for (const std::uint32_t p : pick) {
        m.srcs.push_back(p);
        m.vals.push_back(value());
      }
      m.offsets.push_back(m.srcs.size());
    }
  }
  return m;
}

// True when the plan's steps write their columns in sweep order; false
// for a dependency-level plan.
bool in_sweep_order(const markov::SlicedSweep& plan, bool backward) {
  std::vector<std::int64_t> cols;
  for (const simd::SweepStep& st : plan.steps) {
    // A slice's lanes, or a run's long columns.
    for (std::uint32_t k = 0; k < std::max(st.lanes, st.rows); ++k) {
      const std::uint32_t col =
          st.lanes > 0 ? (k < st.lanes ? st.col[k] : st.col[0])
                       : plan.long_cols[st.row + k].col;
      cols.push_back(backward ? -std::int64_t{col} : col);
    }
  }
  return std::is_sorted(cols.begin(), cols.end());
}

TEST(Simd, SlicedSweepPlansMatchColumnKernelsBitwise) {
  // On every compiled table, a power (kJacobi) plan reproduces spmv_cols
  // and each Gauss–Seidel plan the in-place sequential sweep, bit for bit.
  // x holds negatives, ±0 and, in most trials, an inf or a NaN that padded
  // lanes must not multiply.  Sizes leave n % 8 != 0 in most trials.
  const simd::Kernels& s = simd::kernels_for(simd::Isa::kScalar);
  sim::Rng rng(2026);
  int level_plans[2] = {0, 0};
  int scattered_rows = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t n =
        1 + static_cast<std::size_t>(rng.uniform_int(0, trial < 10 ? 30 : 299));
    const TestCsr m = random_short_csr(rng, n, trial % 3 != 0);
    const markov::CsrMatrix pt = as_transpose(m);
    std::vector<double> x(n);
    for (double& e : x) {
      const std::int64_t kind = rng.uniform_int(0, 9);
      e = kind == 0 ? 0.0 : kind == 1 ? -0.0 : rng.uniform(-1.0, 1.0);
    }
    if (trial % 4 != 3) {
      const double odd[] = {HUGE_VAL, -HUGE_VAL, std::nan("")};
      x[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(n) - 1))] =
          odd[trial % 3];
    }

    std::vector<double> want(n);
    s.spmv_cols(pt.offsets_data(), pt.cols_data(), pt.vals_data(), x.data(),
                want.data(), 0, n);
    for (const std::size_t cut : {n, std::size_t{16}, std::size_t{40}}) {
      const markov::SlicedSweep plan =
          markov::plan_sweep(pt, markov::Sweep::kJacobi, nullptr, cut);
      ASSERT_EQ(plan.cuts.size(), (n + cut - 1) / cut + 1);
      for (const std::uint32_t b : plan.base) {
        scattered_rows += b == simd::kScattered ? 1 : 0;
      }
      for (const simd::Kernels* k : every_table()) {
        std::vector<double> out(n, std::nan(""));
        for (std::size_t c = 0; c + 1 < plan.cuts.size(); ++c) {
          k->sweep(plan.view(), plan.cuts[c], plan.cuts[c + 1], x.data(),
                   out.data());
        }
        EXPECT_TRUE(same_bits(out, want))
            << k->name << " power trial " << trial << " cut " << cut;
      }
    }

    const TestCsr g = off_diagonal(m);
    std::vector<double> denom(n);
    for (double& e : denom) e = rng.uniform(0.1, 1.0);
    using Steps = std::vector<bool>;
    for (const Steps& steps : {Steps{false}, Steps{true}, Steps{false, true}}) {
      std::vector<double> gs_want = x;
      for (const bool backward : steps) {
        reference_gs_sweep(g, denom, gs_want, backward);
      }
      for (const simd::Kernels* k : every_table()) {
        EXPECT_TRUE(same_bits(planned_gs(*k, pt, denom, x, steps), gs_want))
            << k->name << " gs trial " << trial << " sweeps " << steps.size()
            << " first backward " << steps[0];
      }
    }
    for (const bool backward : {false, true}) {
      const markov::SlicedSweep plan = markov::plan_sweep(
          pt, backward ? markov::Sweep::kBackward : markov::Sweep::kForward,
          denom.data(), n);
      level_plans[backward] += in_sweep_order(plan, backward) ? 0 : 1;
    }
  }
  // The random columns read new values from their own slice in most
  // trials, so both directions ran dependency-level plans, whose columns
  // read old values of columns an earlier level already updated.
  EXPECT_GT(level_plans[0], 10);
  EXPECT_GT(level_plans[1], 10);
  EXPECT_GT(scattered_rows, 100);
}

TEST(Simd, TransferDeltaKernelBitwiseIdentical) {
  const simd::Kernels& s = simd::kernels_for(simd::Isa::kScalar);
  const simd::Kernels& v = simd::kernels_for(simd::best_isa());
  sim::Rng rng(11);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(0, 40));
    std::vector<double> vol(n), oh(n), nh(n);
    for (double& e : vol) e = rng.uniform(0.0, 1e6);
    for (double& e : oh) e = static_cast<double>(rng.uniform_int(0, 13));
    for (double& e : nh) e = static_cast<double>(rng.uniform_int(0, 13));
    EXPECT_EQ(
        s.transfer_delta(vol.data(), oh.data(), nh.data(), n, 0.98, 1.74),
        v.transfer_delta(vol.data(), oh.data(), nh.data(), n, 0.98, 1.74))
        << "trial " << trial;
  }
}

TEST(Simd, MaxKernelMatchesStdMaxElement) {
  // Every compiled-in table (and the dispatched one) against
  // std::max_element, bitwise, for n = 1..70: both block packs, the trailing
  // 8-block and every tail length.  The maximum is planted at each index in
  // turn — so in every lane and in the tail — alone and tied with a second
  // index, over entries with many ties, all-negative ones included.
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  sim::Rng rng(5);
  for (const simd::Kernels* k :
       {&simd::kernels_for(simd::Isa::kScalar),
        &simd::kernels_for(simd::best_isa()), &simd::kernels()}) {
    EXPECT_EQ(bits(k->max(nullptr, 0)), bits(-HUGE_VAL)) << k->name;
    for (std::size_t n = 1; n <= 70; ++n) {
      for (const double shift : {0.0, -10.0}) {  // mixed signs, all negative
        std::vector<double> x(n);
        for (double& e : x) {
          e = shift + 0.5 * static_cast<double>(rng.uniform_int(-6, 6));
        }
        for (std::size_t at = 0; at < n; ++at) {
          std::vector<double> y = x;
          y[at] = shift + 3.5;
          for (const bool tie : {false, true}) {
            if (tie) y[(at * 7 + 3) % n] = shift + 3.5;
            const double want = *std::max_element(y.begin(), y.end());
            ASSERT_EQ(bits(k->max(y.data(), n)), bits(want))
                << k->name << " n=" << n << " at=" << at << " tie=" << tie
                << " shift=" << shift;
          }
        }
      }
    }
  }
}

// Each policy runs every batch length n = 1..37 (the 8-lane body and every
// tail length), with the per-session scalars drawn afresh for each trial.
TEST(Simd, FgsSlotKernelBitwiseIdenticalAcrossPolicies) {
  const simd::Kernels& s = simd::kernels_for(simd::Isa::kScalar);
  const simd::Kernels& v = simd::kernels_for(simd::best_isa());
  sim::Rng rng(13);
  for (int policy = 0; policy < 3; ++policy) {
    for (std::size_t n = 1; n <= 37; ++n) {
      auto mk = [&](double lo, double hi) {
        std::vector<double> r(n);
        for (double& e : r) e = rng.uniform(lo, hi);
        return r;
      };
      auto cap = mk(1e5, 8e6), loss = mk(0.0, 0.6), fr = mk(1e8, 1e9);
      auto pw = mk(0.3, 2.0), ew = mk(0.0, 0.9);
      simd::FgsSlotBatch in{};
      in.n = n;
      in.policy_graceful = policy == 0;
      in.policy_feedback = policy == 1;
      in.max_stream_bps = rng.uniform(1e6, 6e6);
      in.base_layer_bps = rng.uniform(2e5, 1e6);
      in.slot_s = rng.uniform(0.01, 0.1);
      in.decode_cycles_per_bit = rng.uniform(0.5, 3.0);
      in.rx_nj_per_bit = rng.uniform(1.0, 20.0);
      in.loss_shed_gain = rng.uniform(0.5, 3.0);
      in.base_only_loss_threshold = rng.uniform(0.3, 0.7);
      in.base_fec_cap = rng.uniform(0.1, 0.8);
      in.max_enhancement_bps = rng.uniform(1e5, 4e6);
      in.capacity_bps = cap.data();
      in.loss = loss.data();
      in.freq_hz = fr.data();
      in.total_power_w = pw.data();
      in.loss_ewma = ew.data();
      std::array<std::vector<double>, 8> out_s, out_v;
      for (auto& o : out_s) o.assign(n, 0.0);
      for (auto& o : out_v) o.assign(n, 0.0);
      auto bind = [&](std::array<std::vector<double>, 8>& o) {
        simd::FgsSlotBatch t = in;
        t.shed = o[0].data();
        t.rx_bits = o[1].data();
        t.decodable_bits = o[2].data();
        t.rx_energy_j = o[3].data();
        t.cpu_decode_energy_j = o[4].data();
        t.cpu_idle_energy_j = o[5].data();
        t.load_norm = o[6].data();
        t.decoded_bps = o[7].data();
        return t;
      };
      s.fgs_slots(bind(out_s));
      v.fgs_slots(bind(out_v));
      for (std::size_t f = 0; f < out_s.size(); ++f) {
        EXPECT_EQ(out_s[f], out_v[f])
            << "field " << f << " policy " << policy << " n " << n;
      }
    }
  }
}

TEST(Simd, DispatchExposesScalarFallbackAndNames) {
  EXPECT_TRUE(simd::isa_available(simd::Isa::kScalar));
  const simd::Kernels& k = simd::kernels();  // resolves HOLMS_SIMD once
  EXPECT_NE(k.name, nullptr);
  // kernels_for never fails: unavailable ISAs fall back to scalar.
  for (const simd::Isa isa :
       {simd::Isa::kScalar, simd::Isa::kAvx2, simd::Isa::kNeon}) {
    const simd::Kernels& t = simd::kernels_for(isa);
    EXPECT_NE(t.sum, nullptr);
    if (!simd::isa_available(isa)) {
      EXPECT_EQ(t.isa, simd::Isa::kScalar);
    }
  }
}

TEST(Simd, AlignedHelpersReturnCacheLineAlignedStorage) {
  holms::exec::aligned_vector<double> v(100, 1.0);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) %
                holms::exec::kCacheLineBytes,
            0u);
  auto arr = holms::exec::make_aligned_array<double>(37);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(arr.get()) %
                holms::exec::kCacheLineBytes,
            0u);
  for (std::size_t i = 0; i < 37; ++i) {
    EXPECT_EQ(arr[i], 0.0);  // value-initialized
  }
}

}  // namespace
