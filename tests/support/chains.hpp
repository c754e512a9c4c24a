#pragma once
// Markov chains shared by the solver tests and bench_micro, which size them
// below or above the sharding floors of markov/sparse.hpp, plus a one-word
// fingerprint of a distribution's exact bits.

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "markov/chain.hpp"

namespace holms::test_support {

// Banded chain: each state talks to its `band` neighbors on each side, so
// nnz ~ n * (2*band + 1): a band of 4 or more gives long columns (8+
// entries), and e.g. (2048, 8) clears the sharding floors.  Forward drift
// (0.3 up vs 0.2 down) keeps the spectral gap bounded away from 1 so the
// iterative solvers converge.
inline markov::Dtmc banded_chain(std::size_t n, std::size_t band) {
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

// Two-station tandem queue, `levels` jobs per station: arrivals at lambda,
// station-1 service moves a job downstream at mu1, station 2 serves at mu2.
// perfbench's design_farm32 solves this shape at 36 levels (n = 1296).
// `reversed` numbers the states from the last one down: the same chain in
// the opposite sweep order.
inline markov::Ctmc tandem_chain(std::size_t levels, double lambda, double mu1,
                                 double mu2, bool reversed = false) {
  const std::size_t n = levels * levels;
  markov::Ctmc q(n);
  auto index = [&](std::size_t i, std::size_t j) {
    const std::size_t s = i * levels + j;
    return reversed ? n - 1 - s : s;
  };
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

// FNV-1a over the bit patterns of a distribution: a one-word fingerprint of
// every state's exact bits.
inline std::uint64_t bits_digest(const std::vector<double>& v) {
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

}  // namespace holms::test_support
