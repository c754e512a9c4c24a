#pragma once
// Unsharded power iteration: the reference the sharded power solve must
// match bit for bit.
//
// markov::sparse_power_iteration splits each sweep into fixed 256-column
// shards once a chain reaches 1024 states and 32768 nonzeros.  This is the
// same iteration with every sweep one spmv_cols call over all columns, the
// same L1 delta and the same final normalization, whatever the chain's size.
//
// Test support only (holms_test_support).

#include "markov/chain.hpp"

namespace holms::test_support {

/// d's stationary distribution by power iteration, every sweep unsharded
/// and serial; opts.method and opts.threads are ignored.
markov::SolveResult unsharded_power_iteration(const markov::Dtmc& d,
                                              const markov::SolveOptions& opts);

}  // namespace holms::test_support
