#pragma once
// Full-evaluation simulated-annealing reference for noc::sa_mapping.
//
// The library's SA loop prices each move incrementally (noc::SwapEvaluator,
// O(deg) per move).  This reference prices every move with a from-scratch
// noc::evaluate_mapping — O(edges * hops) — and keeps its own copy of the
// move expansion, so it shares no cost or move-execution code with the
// library.  It draws moves through the public noc::sample_move and applies
// the same Metropolis rule, so for one seed both loops consume the same RNG
// stream and walk the same trajectory, except where an accept decision
// flips inside the ~1e-12 gap between incremental and full costs.
//
// Test and benchmark support only (holms_test_support): the equivalence
// tests compare against it and bench_micro measures the incremental
// speedup over it.

#include "noc/mapping.hpp"
#include "noc/taskgraph.hpp"
#include "noc/topology.hpp"
#include "sim/random.hpp"

namespace holms::test_support {

/// SA from the greedy seed with a full evaluate_mapping per move; the same
/// contract and RNG consumption as noc::sa_mapping(g, mesh, energy, rng,
/// opts).  Validates `opts` (holms::InvalidArgument).
noc::Mapping sa_mapping_full(const noc::AppGraph& g, const noc::Mesh2D& mesh,
                             const noc::EnergyModel& energy, sim::Rng& rng,
                             const noc::SaOptions& opts = {});

}  // namespace holms::test_support
