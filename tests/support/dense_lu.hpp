#pragma once
// Dense partial-pivot LU reference for the exact Markov solves.
//
// The library used to solve the direct steady state (pi A = 0) and the
// absorbing-chain systems ((I - Q) x = b) by Gaussian elimination with
// partial pivoting on a dense matrix.  markov::GthFactors replaced both;
// this is that code, unchanged, kept as the oracle the ExactSolve tests
// compare the banded GTH elimination against.  It is O(n^3): keep the
// chains it sees to a few thousand states.
//
// Test support only (holms_test_support).

#include <vector>

#include "markov/chain.hpp"

namespace holms::test_support {

/// The direct steady state as the LU code computed it: solve_direct on the
/// dense P - I of a Dtmc, or on the dense generator Q of a Ctmc.
std::vector<double> lu_steady_state(const markov::Dtmc& d);
std::vector<double> lu_steady_state(const markov::Ctmc& c);

/// markov::absorbing_analysis as the LU code computed it.
markov::AbsorbingResult lu_absorbing_analysis(
    const markov::Dtmc& chain, const std::vector<bool>& absorbing);

}  // namespace holms::test_support
