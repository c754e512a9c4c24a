// Equivalence suites for the hot-path kernels: the incremental SA move
// evaluator (swap / 2-opt / cluster moves) vs full re-evaluation, the CSR
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
#include <string>
#include <utility>
#include <vector>

#include "core/evaluator.hpp"
#include "core/explorer.hpp"
#include "exec/aligned.hpp"
#include "exec/simd.hpp"
#include "exec/thread_pool.hpp"
#include "markov/chain.hpp"
#include "markov/sparse.hpp"
#include "noc/mapping.hpp"
#include "noc/taskgraph.hpp"
#include "noc/topology.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "support/sa_oracle.hpp"

namespace {

using namespace holms;

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
  for (const auto& dims : {std::pair<std::size_t, std::size_t>{4, 4},
                           std::pair<std::size_t, std::size_t>{5, 3}}) {
    const noc::Mesh2D mesh(dims.first, dims.second);
    const noc::XyRouteTable table(mesh);
    for (noc::TileId s = 0; s < mesh.num_tiles(); ++s) {
      for (noc::TileId d = 0; d < mesh.num_tiles(); ++d) {
        ASSERT_EQ(table.hops(s, d), mesh.hops(s, d));
        const auto route = mesh.xy_route(s, d);
        const auto links = table.links(s, d);
        ASSERT_EQ(links.size(), route.size() - 1);
        for (std::size_t i = 0; i + 1 < route.size(); ++i) {
          const noc::Dir dir = mesh.xy_next(route[i], d);
          ASSERT_EQ(links[i], mesh.link_index(route[i], dir));
        }
      }
    }
  }
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
  // busiest link so the overload penalty is live.  The SA path's only
  // exec::simd kernel is transfer_delta, whose lane order is fixed, so the
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

// FNV-1a over the bit patterns of a distribution: a one-word fingerprint of
// every state's exact bits.
std::uint64_t bits_digest(const std::vector<double>& v) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const double x : v) {
    const auto bits = std::bit_cast<std::uint64_t>(x);
    for (int b = 0; b < 8; ++b) {
      h ^= (bits >> (8 * b)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  }
  return h;
}

// Two-station tandem queue, `levels` jobs per station: arrivals at lambda,
// station-1 service moves a job downstream at mu1, station 2 serves at mu2.
markov::Ctmc tandem_chain(std::size_t levels, double lambda, double mu1,
                          double mu2) {
  markov::Ctmc q(levels * levels);
  auto index = [&](std::size_t i, std::size_t j) { return i * levels + j; };
  for (std::size_t i = 0; i < levels; ++i) {
    for (std::size_t j = 0; j < levels; ++j) {
      const std::size_t s = index(i, j);
      if (i + 1 < levels) q.set_rate(s, index(i + 1, j), lambda);
      if (i > 0 && j + 1 < levels) q.set_rate(s, index(i - 1, j + 1), mu1);
      if (j > 0) q.set_rate(s, index(i, j - 1), mu2);
    }
  }
  return q;
}

TEST(SparseSolve, MatchesPinnedReferenceDigests) {
  // Reference values from the dense-storage chains (row-major O(n^2)
  // transient sweep, CSR built by scanning a dense matrix): the sparse-row
  // chains must reproduce every iterate bit for bit.  The solves stay below
  // the sharding floors and reduce through exec::simd's fixed lane order, so
  // the digests hold under every HOLMS_SIMD / HOLMS_THREADS setting.
  const markov::Dtmc d = birth_death_chain(128);
  struct Pin {
    markov::SteadyStateMethod method;
    std::size_t iterations;
    std::uint64_t digest;
  };
  for (const Pin& pin :
       {Pin{markov::SteadyStateMethod::kPowerIteration, 1701,
            0x862ad74bd622d6d7ull},
        Pin{markov::SteadyStateMethod::kGaussSeidel, 635,
            0x3606e98d035eb9b1ull}}) {
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
}

TEST(SparseSolve, IterativeSolvesMatchDirectLU) {
  markov::SolveOptions lu;
  lu.method = markov::SteadyStateMethod::kDirectLU;
  // Tridiagonal CTMC, solved through its uniformized DTMC.
  const std::size_t n = 96;
  markov::Ctmc q(n);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    q.set_rate(i, i + 1, 3.0);
    q.set_rate(i + 1, i, 4.0);
  }
  const auto r = q.steady_state({});
  ASSERT_TRUE(r.converged);
  const auto exact = q.steady_state(lu);
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
  const auto dense_exact = dense.steady_state(lu);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(rd.distribution[i], 1.0 / static_cast<double>(n), 1e-12);
    EXPECT_NEAR(rd.distribution[i], dense_exact.distribution[i], 1e-12);
  }
}

// ---------------------------------------------------------------------------
// Thread-count invariance: the sharded solvers and explore() must be a
// function of the problem alone, never of the worker count.
// ---------------------------------------------------------------------------

// Banded chain: each state talks to its `band` neighbors on each side, so
// nnz ~ n * (2*band + 1) — big and sparse enough to clear the sharding
// floors without being trivial.  Forward drift (0.3 up vs 0.2 down) keeps
// the spectral gap bounded away from 1 so the iterative solvers converge.
markov::Dtmc banded_chain(std::size_t n, std::size_t band) {
  markov::Dtmc d(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t lo = i > band ? i - band : 0;
    const std::size_t hi = std::min(n - 1, i + band);
    double off = 0.0;
    for (std::size_t j = lo; j <= hi; ++j) {
      if (j == i) continue;
      const double side = j > i ? 0.3 : 0.2;
      const std::size_t count = j > i ? hi - i : i - lo;
      const double w = side / static_cast<double>(count);
      d.set(i, j, w);
      off += w;
    }
    d.set(i, i, 1.0 - off);
  }
  return d;
}

TEST(ThreadInvariance, SparseSolvesBitwiseAcrossThreadCounts) {
  const std::size_t n = 1500;
  const markov::Dtmc d = banded_chain(n, 4);
  for (const auto method : {markov::SteadyStateMethod::kPowerIteration,
                            markov::SteadyStateMethod::kGaussSeidel}) {
    markov::SolveOptions opts;
    opts.method = method;
    opts.parallel_min_states = 256;
    opts.parallel_min_nnz = 1024;
    opts.max_iterations = 3000;

    opts.threads = 1;
    const auto base = d.steady_state(opts);
    // env_threads folds the CI HOLMS_THREADS matrix into the sweep, so the
    // two ctest runs exercise different pool sizes against the same oracle.
    for (const std::size_t t :
         {std::size_t{2}, std::size_t{4}, std::size_t{7},
          holms::exec::env_threads(2)}) {
      opts.threads = t;
      const auto r = d.steady_state(opts);
      EXPECT_EQ(base.iterations, r.iterations);
      EXPECT_EQ(base.converged, r.converged);
      ASSERT_EQ(base.distribution.size(), r.distribution.size());
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(base.distribution[i], r.distribution[i])
            << "threads=" << t << " state " << i;
      }
    }
  }
}

TEST(ThreadInvariance, ShardedPowerIterationMatchesSerialScatterBitwise) {
  // The gather-form sharded kernel reproduces the serial scatter per-column
  // accumulation order exactly — engaging the shards must not change a bit.
  const markov::Dtmc d = banded_chain(1500, 4);
  markov::SolveOptions serial;
  serial.max_iterations = 2000;
  serial.parallel_min_states = static_cast<std::size_t>(1) << 30;  // off
  markov::SolveOptions sharded = serial;
  sharded.parallel_min_states = 256;
  sharded.parallel_min_nnz = 1024;
  sharded.threads = 4;
  const auto a = d.steady_state(serial);
  const auto b = d.steady_state(sharded);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.converged, b.converged);
  ASSERT_EQ(a.distribution.size(), b.distribution.size());
  for (std::size_t i = 0; i < a.distribution.size(); ++i) {
    ASSERT_EQ(a.distribution[i], b.distribution[i]) << "state " << i;
  }
}

TEST(ThreadInvariance, HybridGaussSeidelConvergesToSerialFixpoint) {
  // The block-hybrid GS takes a different (but deterministic) iterate path
  // than serial GS; both must land on the same stationary distribution.
  const markov::Dtmc d = banded_chain(1500, 4);
  markov::SolveOptions serial;
  serial.method = markov::SteadyStateMethod::kGaussSeidel;
  serial.parallel_min_states = static_cast<std::size_t>(1) << 30;  // off
  markov::SolveOptions hybrid = serial;
  hybrid.parallel_min_states = 256;
  hybrid.parallel_min_nnz = 1024;
  hybrid.threads = 4;
  const auto a = d.steady_state(serial);
  const auto b = d.steady_state(hybrid);
  ASSERT_TRUE(a.converged);
  ASSERT_TRUE(b.converged);
  for (std::size_t i = 0; i < a.distribution.size(); ++i) {
    EXPECT_NEAR(a.distribution[i], b.distribution[i], 1e-8) << "state " << i;
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

TEST(Simd, SpmvAndGaussSeidelKernelsBitwiseIdentical) {
  const simd::Kernels& s = simd::kernels_for(simd::Isa::kScalar);
  const simd::Kernels& v = simd::kernels_for(simd::best_isa());
  sim::Rng rng(7);
  for (int trial = 0; trial < 25; ++trial) {
    const std::size_t n = 1 + static_cast<std::size_t>(rng.uniform_int(0, 199));
    const TestCsr m = random_csr(rng, n);
    std::vector<double> x(n), pi(n), diag(n);
    for (double& e : x) e = rng.uniform();
    for (double& e : pi) e = rng.uniform();
    for (double& e : diag) e = rng.uniform(0.0, 0.9);

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

    std::vector<double> g1 = pi, g2 = pi;
    s.gs_cols(m.offsets.data(), m.srcs.data(), m.vals.data(), diag.data(),
              pi.data(), g1.data(), 0, n);
    v.gs_cols(m.offsets.data(), m.srcs.data(), m.vals.data(), diag.data(),
              pi.data(), g2.data(), 0, n);
    EXPECT_EQ(g1, g2) << "gs trial " << trial;
  }
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

TEST(Simd, FgsSlotKernelBitwiseIdenticalAcrossPolicies) {
  const simd::Kernels& s = simd::kernels_for(simd::Isa::kScalar);
  const simd::Kernels& v = simd::kernels_for(simd::best_isa());
  sim::Rng rng(13);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 1 + static_cast<std::size_t>(rng.uniform_int(0, 36));
    auto mk = [&](double lo, double hi) {
      std::vector<double> r(n);
      for (double& e : r) e = rng.uniform(lo, hi);
      return r;
    };
    auto cap = mk(1e5, 8e6), loss = mk(0.0, 0.6), fr = mk(1e8, 1e9);
    auto pw = mk(0.3, 2.0), ms = mk(1e6, 6e6), bl = mk(2e5, 1e6);
    auto sl = mk(0.01, 0.1), dc = mk(0.5, 3.0), nj = mk(1.0, 20.0);
    auto g = mk(0.5, 3.0), th = mk(0.3, 0.7), fc = mk(0.1, 0.8);
    auto me = mk(1e5, 4e6), ew = mk(0.0, 0.9);
    std::vector<double> pg(n), pf(n);
    for (std::size_t i = 0; i < n; ++i) {
      const std::int64_t p = rng.uniform_int(0, 2);  // all three policies
      pg[i] = p == 0 ? 1.0 : 0.0;
      pf[i] = p == 1 ? 1.0 : 0.0;
    }
    std::array<std::vector<double>, 8> out_s, out_v;
    for (auto& o : out_s) o.assign(n, 0.0);
    for (auto& o : out_v) o.assign(n, 0.0);
    auto bind = [&](std::array<std::vector<double>, 8>& o) {
      simd::FgsSlotBatch t{};
      t.n = n;
      t.capacity_bps = cap.data();
      t.loss = loss.data();
      t.policy_graceful = pg.data();
      t.policy_feedback = pf.data();
      t.freq_hz = fr.data();
      t.total_power_w = pw.data();
      t.max_stream_bps = ms.data();
      t.base_layer_bps = bl.data();
      t.slot_s = sl.data();
      t.decode_cycles_per_bit = dc.data();
      t.rx_nj_per_bit = nj.data();
      t.loss_shed_gain = g.data();
      t.base_only_loss_threshold = th.data();
      t.base_fec_cap = fc.data();
      t.max_enhancement_bps = me.data();
      t.loss_ewma = ew.data();
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
    const simd::FgsSlotBatch ts = bind(out_s);
    s.fgs_slots(ts);
    const simd::FgsSlotBatch tv = bind(out_v);
    v.fgs_slots(tv);
    for (std::size_t f = 0; f < out_s.size(); ++f) {
      EXPECT_EQ(out_s[f], out_v[f]) << "field " << f << " trial " << trial;
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
