// Unit tests for the analytical engine (holms::markov) — paper §2.2.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "exec/error.hpp"
#include "markov/chain.hpp"
#include "markov/jackson.hpp"
#include "markov/queueing.hpp"
#include "sim/random.hpp"
#include "support/chains.hpp"
#include "support/dense_lu.hpp"

namespace {

using holms::markov::Ctmc;
using holms::markov::Dtmc;
using holms::markov::ProducerConsumerModel;
using holms::markov::SolveOptions;
using holms::markov::SolveResult;
using holms::markov::SteadyStateMethod;

SolveOptions method(SteadyStateMethod m) {
  SolveOptions o;
  o.method = m;
  return o;
}

// Two-state chain with known stationary distribution p/(p+q), q/(p+q).
Dtmc two_state(double p, double q) {
  Dtmc d(2);
  d.set(0, 0, 1.0 - p);
  d.set(0, 1, p);
  d.set(1, 0, q);
  d.set(1, 1, 1.0 - q);
  return d;
}

class DtmcSolvers
    : public ::testing::TestWithParam<SteadyStateMethod> {};

TEST_P(DtmcSolvers, TwoStateAnalytic) {
  const Dtmc d = two_state(0.3, 0.1);
  const SolveResult r = d.steady_state(method(GetParam()));
  ASSERT_TRUE(r.converged);
  EXPECT_NEAR(r.distribution[0], 0.25, 1e-8);
  EXPECT_NEAR(r.distribution[1], 0.75, 1e-8);
}

TEST_P(DtmcSolvers, DistributionSumsToOne) {
  Dtmc d(4);
  // Ring with self-loops.
  for (std::size_t i = 0; i < 4; ++i) {
    d.set(i, i, 0.5);
    d.set(i, (i + 1) % 4, 0.5);
  }
  const SolveResult r = d.steady_state(method(GetParam()));
  double sum = 0.0;
  for (double x : r.distribution) {
    EXPECT_GE(x, 0.0);
    sum += x;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
  for (double x : r.distribution) EXPECT_NEAR(x, 0.25, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(AllMethods, DtmcSolvers,
                         ::testing::Values(SteadyStateMethod::kPowerIteration,
                                           SteadyStateMethod::kGaussSeidel,
                                           SteadyStateMethod::kDirect));

TEST(Dtmc, IsStochasticDetectsBadRows) {
  Dtmc d = two_state(0.3, 0.1);
  EXPECT_TRUE(d.is_stochastic());
  d.set(0, 1, 0.9);  // row 0 now sums to 1.6
  EXPECT_FALSE(d.is_stochastic());
}

TEST(Dtmc, TransientConvergesToSteadyState) {
  const Dtmc d = two_state(0.3, 0.1);
  const std::vector<double> init{1.0, 0.0};
  const auto pi100 = d.transient(init, 200);
  EXPECT_NEAR(pi100[0], 0.25, 1e-6);
  EXPECT_NEAR(pi100[1], 0.75, 1e-6);
}

TEST(Dtmc, TransientOneStepIsMatrixRow) {
  const Dtmc d = two_state(0.3, 0.1);
  const auto pi = d.transient(std::vector<double>{1.0, 0.0}, 1);
  EXPECT_NEAR(pi[0], 0.7, 1e-12);
  EXPECT_NEAR(pi[1], 0.3, 1e-12);
}

TEST(Ctmc, TwoStateSteadyState) {
  // Rates 0->1 = 2, 1->0 = 6: pi = (0.75, 0.25).
  Ctmc c(2);
  c.set_rate(0, 1, 2.0);
  c.set_rate(1, 0, 6.0);
  for (auto m : {SteadyStateMethod::kPowerIteration,
                 SteadyStateMethod::kGaussSeidel,
                 SteadyStateMethod::kDirect}) {
    const SolveResult r = c.steady_state(method(m));
    EXPECT_NEAR(r.distribution[0], 0.75, 1e-7) << static_cast<int>(m);
    EXPECT_NEAR(r.distribution[1], 0.25, 1e-7) << static_cast<int>(m);
  }
}

TEST(Ctmc, ExitRateIsRowSum) {
  Ctmc c(3);
  c.set_rate(0, 1, 2.0);
  c.set_rate(0, 2, 3.0);
  EXPECT_DOUBLE_EQ(c.exit_rate(0), 5.0);
  EXPECT_DOUBLE_EQ(c.exit_rate(1), 0.0);
}

TEST(Ctmc, TransientMatchesAnalyticTwoState) {
  // For rates a=1 (0->1), b=3 (1->0): p1(t) = a/(a+b) (1 - e^{-(a+b)t}).
  Ctmc c(2);
  c.set_rate(0, 1, 1.0);
  c.set_rate(1, 0, 3.0);
  const std::vector<double> init{1.0, 0.0};
  for (double t : {0.1, 0.5, 2.0}) {
    const auto pi = c.transient(init, t);
    const double expected = 0.25 * (1.0 - std::exp(-4.0 * t));
    EXPECT_NEAR(pi[1], expected, 1e-6) << "t=" << t;
  }
}

TEST(Ctmc, TransientAtZeroIsInitial) {
  Ctmc c(2);
  c.set_rate(0, 1, 1.0);
  c.set_rate(1, 0, 1.0);
  const auto pi = c.transient(std::vector<double>{0.3, 0.7}, 0.0);
  EXPECT_DOUBLE_EQ(pi[0], 0.3);
  EXPECT_DOUBLE_EQ(pi[1], 0.7);
}

TEST(Ctmc, UniformizedChainIsStochastic) {
  Ctmc c(3);
  c.set_rate(0, 1, 1.0);
  c.set_rate(1, 2, 2.0);
  c.set_rate(2, 0, 0.5);
  EXPECT_TRUE(c.uniformized().is_stochastic());
}

TEST(ExpectedReward, ComputesWeightedSum) {
  const std::vector<double> pi{0.25, 0.75};
  const double r = holms::markov::expected_reward(
      pi, [](std::size_t i) { return i == 0 ? 4.0 : 8.0; });
  EXPECT_DOUBLE_EQ(r, 7.0);
}

// ---------- absorbing chains ----------

TEST(Absorbing, GamblersRuinStepCount) {
  // States 0..4, p = 0.5 random walk, 0 and 4 absorbing.
  // Expected steps from i: i * (4 - i).
  holms::markov::Dtmc d(5);
  d.set(0, 0, 1.0);
  d.set(4, 4, 1.0);
  for (std::size_t i = 1; i <= 3; ++i) {
    d.set(i, i - 1, 0.5);
    d.set(i, i + 1, 0.5);
  }
  const std::vector<bool> abs_flags{true, false, false, false, true};
  const auto r = holms::markov::absorbing_analysis(d, abs_flags);
  EXPECT_DOUBLE_EQ(r.expected_steps[0], 0.0);
  EXPECT_NEAR(r.expected_steps[1], 3.0, 1e-9);
  EXPECT_NEAR(r.expected_steps[2], 4.0, 1e-9);
  EXPECT_NEAR(r.expected_steps[3], 3.0, 1e-9);
}

TEST(Absorbing, RuinProbabilities) {
  holms::markov::Dtmc d(5);
  d.set(0, 0, 1.0);
  d.set(4, 4, 1.0);
  for (std::size_t i = 1; i <= 3; ++i) {
    d.set(i, i - 1, 0.5);
    d.set(i, i + 1, 0.5);
  }
  const auto r = holms::markov::absorbing_analysis(
      d, {true, false, false, false, true});
  ASSERT_EQ(r.absorbing_states.size(), 2u);
  // Fair walk: P(hit 4 from i) = i/4.
  for (std::size_t i = 0; i <= 4; ++i) {
    const double p_hi = r.absorption_probability[i][1];
    const double p_lo = r.absorption_probability[i][0];
    EXPECT_NEAR(p_hi, static_cast<double>(i) / 4.0, 1e-9);
    EXPECT_NEAR(p_lo + p_hi, 1.0, 1e-9);
  }
}

TEST(Absorbing, RejectsNoAbsorbingState) {
  const holms::markov::Dtmc d = two_state(0.3, 0.1);
  EXPECT_THROW(holms::markov::absorbing_analysis(d, {false, false}),
               std::invalid_argument);
}

TEST(Absorbing, RejectsUnreachableAbsorption) {
  holms::markov::Dtmc d(3);
  d.set(0, 0, 1.0);  // absorbing
  d.set(1, 2, 1.0);  // 1 <-> 2 closed class, never reaches 0
  d.set(2, 1, 1.0);
  EXPECT_THROW(
      holms::markov::absorbing_analysis(d, {true, false, false}),
      std::runtime_error);
}

// ---------- exact solves: banded GTH against the dense LU oracle ----------

double l1_distance(const std::vector<double>& a, const std::vector<double>& b) {
  EXPECT_EQ(a.size(), b.size());
  double d = 0.0;
  for (std::size_t i = 0; i < a.size() && i < b.size(); ++i) {
    d += std::abs(a[i] - b[i]);
  }
  return d;
}

// ||pi (P - I)||_1.
double residual(const Dtmc& d, const std::vector<double>& pi) {
  return l1_distance(d.transient(pi, 1), pi);
}

// ||pi Q||_1.
double residual(const Ctmc& c, const std::vector<double>& pi) {
  std::vector<double> flow(c.size(), 0.0);
  for (std::size_t i = 0; i < c.size(); ++i) {
    flow[i] -= pi[i] * c.exit_rate(i);
    for (std::size_t j = 0; j < c.size(); ++j) {
      if (j != i) flow[j] += pi[i] * c.rate(i, j);
    }
  }
  return l1_distance(flow, std::vector<double>(c.size(), 0.0));
}

template <typename Chain>
std::vector<double> direct(const Chain& chain) {
  const SolveResult r = chain.steady_state(method(SteadyStateMethod::kDirect));
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.iterations, 0u);
  return r.distribution;
}

// The exact solve agrees with the dense LU oracle and balances the chain.
template <typename Chain>
void expect_exact(const Chain& chain, const char* name) {
  const std::vector<double> pi = direct(chain);
  EXPECT_LE(l1_distance(pi, holms::test_support::lu_steady_state(chain)),
            1e-12)
      << name;
  EXPECT_LE(residual(chain, pi), 1e-13) << name;
}

// Dense random DTMC (every entry positive), as RandomChain builds them.
Dtmc random_dense_dtmc(std::uint64_t seed) {
  holms::sim::Rng rng(seed);
  const std::size_t n = 3 + seed % 6;
  Dtmc d(n);
  for (std::size_t r = 0; r < n; ++r) {
    std::vector<double> row(n);
    double sum = 0.0;
    for (double& x : row) sum += x = rng.uniform(0.01, 1.0);
    for (std::size_t c = 0; c < n; ++c) d.set(r, c, row[c] / sum);
  }
  return d;
}

// Dense random CTMC, as RandomCtmc builds them.
Ctmc random_dense_ctmc(std::uint64_t seed) {
  holms::sim::Rng rng(seed);
  const std::size_t n = 4 + seed % 4;
  Ctmc c(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j) c.set_rate(i, j, rng.uniform(0.1, 3.0));
    }
  }
  return c;
}

Ctmc producer_consumer(double prod, double cons, std::size_t cap) {
  ProducerConsumerModel m;
  m.producer_rate = prod;
  m.consumer_rate = cons;
  m.buffer_capacity = cap;
  return m.to_ctmc();
}

TEST(ExactSolve, SmallChainsMatchDenseLu) {
  expect_exact(two_state(0.3, 0.1), "two-state");
  Dtmc ring(4);
  for (std::size_t i = 0; i < 4; ++i) {
    ring.set(i, i, 0.5);
    ring.set(i, (i + 1) % 4, 0.5);
  }
  expect_exact(ring, "ring");
  Dtmc periodic(2);
  periodic.set(0, 1, 1.0);
  periodic.set(1, 0, 1.0);
  expect_exact(periodic, "periodic");
  Ctmc c(2);
  c.set_rate(0, 1, 2.0);
  c.set_rate(1, 0, 6.0);
  expect_exact(c, "ctmc two-state");
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    expect_exact(random_dense_dtmc(seed), "random dense dtmc");
  }
  for (std::uint64_t seed = 41; seed <= 46; ++seed) {
    expect_exact(random_dense_ctmc(seed), "random dense ctmc");
  }
}

TEST(ExactSolve, QueueingChainsMatchDenseLu) {
  // The producer-consumer chains bench_sec22_analysis solves directly.
  expect_exact(producer_consumer(40.0, 50.0, 4), "pc 40/50/4");
  expect_exact(producer_consumer(80.0, 50.0, 8), "pc 80/50/8");
  expect_exact(producer_consumer(120.0, 100.0, 32), "pc 120/100/32");
  expect_exact(producer_consumer(95.0, 100.0, 100), "pc 95/100/100");
  // test_hotpath's tridiagonal CTMC and fully dense DTMC.
  const std::size_t n = 96;
  Ctmc tri(n);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    tri.set_rate(i, i + 1, 3.0);
    tri.set_rate(i + 1, i, 4.0);
  }
  expect_exact(tri, "tridiagonal");
  Dtmc dense(n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      dense.set(r, c, 1.0 / static_cast<double>(n));
    }
  }
  expect_exact(dense, "dense");
}

TEST(ExactSolve, TandemAndBandedChainsMatchDenseLu) {
  using holms::test_support::banded_chain;
  using holms::test_support::tandem_chain;
  expect_exact(tandem_chain(32, 1.0, 1.12, 1.17), "tandem 32 (n = 1024)");
  expect_exact(tandem_chain(36, 1.0, 1.12, 1.17), "tandem 36 (n = 1296)");
  expect_exact(banded_chain(1500, 4), "banded 1500");
}

TEST(ExactSolve, IterativeSolvesMatchDirect) {
  // The tolerance bounds the change per iteration, not the error: at 1e-10
  // both iterative methods must still land within 1e-7 (L1) of the exact
  // solve, on chains of 1,296 and 1,500 states too.  A
  // forward-only Gauss–Seidel sweep stalls on the even-level tandems and a
  // backward-only one on the reversed tandem.
  using holms::test_support::banded_chain;
  using holms::test_support::tandem_chain;
  auto check = [](const auto& chain, const std::string& name) {
    const std::vector<double> exact = direct(chain);
    for (const SteadyStateMethod m :
         {SteadyStateMethod::kPowerIteration, SteadyStateMethod::kGaussSeidel}) {
      SolveOptions o = method(m);
      o.tolerance = 1e-10;
      const SolveResult r = chain.steady_state(o);
      const std::string what =
          name + " method " + std::to_string(static_cast<int>(m));
      EXPECT_TRUE(r.converged) << what;
      EXPECT_LE(l1_distance(r.distribution, exact), 1e-7) << what;
    }
  };
  for (const std::size_t levels : {8, 24, 31, 32, 33, 36}) {
    check(tandem_chain(levels, 1.0, 1.12, 1.17),
          "tandem " + std::to_string(levels));
  }
  check(tandem_chain(36, 1.0, 1.12, 1.17, true), "tandem 36 reversed");
  Ctmc ring(10);
  for (std::size_t i = 0; i < 10; ++i) {
    ring.set_rate(i, (i + 1) % 10, 1.0 + 0.25 * static_cast<double>(i));
    ring.set_rate((i + 1) % 10, i, 0.5);
  }
  check(ring, "ring 10");
  check(banded_chain(1500, 4), "banded 1500");
}

TEST(ExactSolve, StoredZerosDoNotWidenTheBand) {
  // A tridiagonal chain whose rows also store explicit zeros to far states
  // solves in its narrow band, bit for bit like the chain without them.
  const std::size_t n = 50;
  Dtmc plain(n), padded(n);
  for (Dtmc* d : {&plain, &padded}) {
    for (std::size_t i = 0; i < n; ++i) {
      if (d == &padded) d->set(i, n - 1 - i, 0.0);
      if (i + 1 < n) d->set(i, i + 1, 0.3);
      if (i > 0) d->set(i, i - 1, 0.2);
      d->set(i, i, 1.0 - (i + 1 < n ? 0.3 : 0.0) - (i > 0 ? 0.2 : 0.0));
    }
  }
  EXPECT_EQ(direct(padded), direct(plain));
  expect_exact(padded, "padded tridiagonal");
}

TEST(ExactSolve, UnichainsSolveLikeTheDenseLu) {
  // 0 -> 1, 1 <-> 2: state 0 is transient.
  Dtmc d(3);
  d.set(0, 1, 1.0);
  d.set(1, 2, 1.0);
  d.set(2, 1, 1.0);
  EXPECT_EQ(direct(d), (std::vector<double>{0.0, 0.5, 0.5}));
  // Rates 0 -> 1 and 2 -> 1: state 1 absorbs everything.
  Ctmc c(3);
  c.set_rate(0, 1, 2.0);
  c.set_rate(2, 1, 5.0);
  EXPECT_EQ(direct(c), (std::vector<double>{0.0, 1.0, 0.0}));
}

// A seeded random unichain: a closed class on a random subset of the
// states, transient states that each lead into the class (so they stay
// transient) and wander anywhere else.
Dtmc random_unichain(std::uint64_t seed) {
  holms::sim::Rng rng(seed);
  const std::size_t n = 4 + seed % 9;
  std::vector<bool> closed(n);
  bool any = false;
  for (std::size_t i = 0; i < n; ++i) any |= closed[i] = rng.bernoulli(0.5);
  if (!any) closed[n - 1] = true;
  Dtmc d(n);
  for (std::size_t r = 0; r < n; ++r) {
    std::vector<double> row(n, 0.0);
    double sum = 0.0;
    for (std::size_t c = 0; c < n; ++c) {
      if (closed[r] && !closed[c]) continue;
      if (closed[c] || rng.bernoulli(0.6)) sum += row[c] = rng.uniform(0.05, 1.0);
    }
    for (std::size_t c = 0; c < n; ++c) {
      if (row[c] > 0.0) d.set(r, c, row[c] / sum);
    }
  }
  return d;
}

TEST(ExactSolve, RandomUnichainsMatchDenseLu) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const Dtmc d = random_unichain(seed);
    const std::vector<double> pi = direct(d);
    EXPECT_LE(l1_distance(pi, holms::test_support::lu_steady_state(d)), 1e-12)
        << "seed " << seed;
    EXPECT_LE(residual(d, pi), 1e-13) << "seed " << seed;
  }
}

TEST(ExactSolve, TwoClosedClassesThrow) {
  Dtmc d(3);
  d.set(0, 0, 1.0);
  d.set(1, 1, 1.0);
  d.set(2, 0, 0.5);
  d.set(2, 1, 0.5);
  EXPECT_THROW(d.steady_state(method(SteadyStateMethod::kDirect)),
               holms::RuntimeError);
  Ctmc c(4);
  c.set_rate(0, 1, 1.0);
  c.set_rate(1, 0, 1.0);
  c.set_rate(3, 2, 1.0);
  EXPECT_THROW(c.steady_state(method(SteadyStateMethod::kDirect)),
               holms::RuntimeError);
}

// Gambler's ruin on 0..n-1 with up-probability p; 0 and n-1 absorb.
Dtmc gamblers_ruin(std::size_t n, double p) {
  Dtmc d(n);
  d.set(0, 0, 1.0);
  d.set(n - 1, n - 1, 1.0);
  for (std::size_t i = 1; i + 1 < n; ++i) {
    d.set(i, i - 1, 1.0 - p);
    d.set(i, i + 1, p);
  }
  return d;
}

// A seeded random absorbing chain: random absorbing flags (at least one),
// and every transient state steps to a random state, to the previous
// transient state or, for the first, to an absorbing state, so each one
// reaches absorption.
std::pair<Dtmc, std::vector<bool>> random_absorbing(std::uint64_t seed) {
  holms::sim::Rng rng(seed);
  const std::size_t n = 3 + seed % 10;
  std::vector<bool> absorbing(n);
  std::vector<std::size_t> abs_states, transient;
  for (std::size_t i = 0; i < n; ++i) {
    absorbing[i] = rng.bernoulli(0.3);
    (absorbing[i] ? abs_states : transient).push_back(i);
  }
  if (abs_states.empty()) {
    absorbing[0] = true;
    abs_states.push_back(0);
    transient.erase(transient.begin());
  }
  Dtmc d(n);
  for (const std::size_t a : abs_states) d.set(a, a, 1.0);
  for (std::size_t k = 0; k < transient.size(); ++k) {
    std::vector<double> row(n, 0.0);
    const std::size_t exit = k == 0 ? abs_states[0] : transient[k - 1];
    row[exit] = rng.uniform(0.05, 1.0);
    double sum = row[exit];
    for (std::size_t c = 0; c < n; ++c) {
      if (c != exit && rng.bernoulli(0.5)) sum += row[c] = rng.uniform(0.0, 1.0);
    }
    for (std::size_t c = 0; c < n; ++c) {
      if (row[c] > 0.0) d.set(transient[k], c, row[c] / sum);
    }
  }
  return {d, absorbing};
}

void expect_absorbing_matches_lu(const Dtmc& d,
                                 const std::vector<bool>& absorbing,
                                 const std::string& name) {
  const auto r = holms::markov::absorbing_analysis(d, absorbing);
  const auto ref = holms::test_support::lu_absorbing_analysis(d, absorbing);
  ASSERT_EQ(r.absorbing_states, ref.absorbing_states) << name;
  for (std::size_t s = 0; s < d.size(); ++s) {
    EXPECT_LE(std::abs(r.expected_steps[s] - ref.expected_steps[s]),
              1e-12 * ref.expected_steps[s])
        << name << " state " << s;
    for (std::size_t k = 0; k < r.absorbing_states.size(); ++k) {
      EXPECT_NEAR(r.absorption_probability[s][k],
                  ref.absorption_probability[s][k], 1e-12)
          << name << " state " << s << " target " << k;
    }
  }
}

TEST(ExactSolve, AbsorbingAnalysisMatchesDenseLu) {
  for (const double p : {0.5, 0.3, 0.8}) {
    std::vector<bool> ends(40, false);
    ends.front() = ends.back() = true;
    expect_absorbing_matches_lu(gamblers_ruin(40, p), ends, "gambler's ruin");
  }
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    const auto [d, absorbing] = random_absorbing(seed);
    expect_absorbing_matches_lu(d, absorbing,
                                "random seed " + std::to_string(seed));
  }
}

// ---------- queueing formulas ----------

TEST(Mm1, LittlesLawHolds) {
  const auto m = holms::markov::mm1(2.0, 5.0);
  EXPECT_NEAR(m.mean_queue_length, m.throughput * m.mean_waiting_time, 1e-12);
  EXPECT_NEAR(m.utilization, 0.4, 1e-12);
  EXPECT_NEAR(m.mean_queue_length, 0.4 / 0.6, 1e-12);
}

TEST(Mm1, RejectsUnstable) {
  EXPECT_THROW(holms::markov::mm1(5.0, 5.0), std::invalid_argument);
  EXPECT_THROW(holms::markov::mm1(6.0, 5.0), std::invalid_argument);
}

TEST(Mm1k, DistributionIsGeometricTruncated) {
  const auto pi = holms::markov::mm1k_distribution(1.0, 2.0, 3);
  ASSERT_EQ(pi.size(), 4u);
  double sum = 0.0;
  for (double x : pi) sum += x;
  EXPECT_NEAR(sum, 1.0, 1e-12);
  EXPECT_NEAR(pi[1] / pi[0], 0.5, 1e-12);
  EXPECT_NEAR(pi[3] / pi[2], 0.5, 1e-12);
}

TEST(Mm1k, EqualRatesIsUniform) {
  const auto pi = holms::markov::mm1k_distribution(2.0, 2.0, 4);
  for (double x : pi) EXPECT_NEAR(x, 0.2, 1e-9);
}

TEST(Mm1k, ConvergesToMm1ForLargeK) {
  const auto finite = holms::markov::mm1k(1.0, 2.0, 200);
  const auto infinite = holms::markov::mm1(1.0, 2.0);
  EXPECT_NEAR(finite.mean_queue_length, infinite.mean_queue_length, 1e-6);
  EXPECT_NEAR(finite.blocking_probability, 0.0, 1e-12);
}

TEST(Mm1k, BlockingReducesThroughput) {
  const auto m = holms::markov::mm1k(4.0, 2.0, 2);  // heavily overloaded
  EXPECT_GT(m.blocking_probability, 0.3);
  EXPECT_NEAR(m.throughput, 4.0 * (1.0 - m.blocking_probability), 1e-12);
  EXPECT_LT(m.throughput, 2.0 + 1e-9);  // can't exceed service rate
}

TEST(Md1, LessWaitingThanMm1AtSameLoad) {
  const auto md = holms::markov::md1(1.0, 0.5);
  const auto mm = holms::markov::mm1(1.0, 2.0);
  EXPECT_LT(md.mean_queue_length, mm.mean_queue_length);
  EXPECT_NEAR(md.utilization, mm.utilization, 1e-12);
}

TEST(Md1, PollaczekKhinchineValue) {
  // rho = 0.5: L = 0.5 + 0.25/(2*0.5) = 0.75.
  const auto m = holms::markov::md1(1.0, 0.5);
  EXPECT_NEAR(m.mean_queue_length, 0.75, 1e-12);
}

TEST(BirthDeath, MatchesMm1kDistribution) {
  const double lambda = 1.3, mu = 2.0;
  const std::size_t k = 5;
  std::vector<double> birth(k + 1, lambda), death(k + 1, mu);
  const auto bd = holms::markov::birth_death_steady_state(birth, death);
  const auto ref = holms::markov::mm1k_distribution(lambda, mu, k);
  ASSERT_EQ(bd.size(), ref.size());
  for (std::size_t i = 0; i <= k; ++i) EXPECT_NEAR(bd[i], ref[i], 1e-9);
}

TEST(BirthDeath, RejectsZeroDeathRate) {
  std::vector<double> birth{1.0, 1.0}, death{1.0, 0.0};
  EXPECT_THROW(holms::markov::birth_death_steady_state(birth, death),
               std::invalid_argument);
}

// ---------- Jackson networks ----------

TEST(Jackson, TandemReducesToIndependentMm1) {
  const auto net = holms::markov::tandem_network({5.0, 4.0, 6.0}, 2.0);
  const auto sol = net.solve();
  ASSERT_TRUE(sol.stable);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(sol.effective_arrival_rate[i], 2.0, 1e-9);
  }
  const auto ref0 = holms::markov::mm1(2.0, 5.0);
  EXPECT_NEAR(sol.station[0].mean_queue_length, ref0.mean_queue_length,
              1e-9);
  // Sojourn time = sum of per-station W (Little on the whole network).
  double w = 0.0;
  for (const auto& s : sol.station) w += s.mean_waiting_time;
  EXPECT_NEAR(sol.mean_sojourn_time, w, 1e-9);
}

TEST(Jackson, FeedbackLoopAmplifiesLoad) {
  // One station, external rate 1, feedback p = 0.5: lambda = 1/(1-0.5) = 2.
  holms::markov::JacksonNetwork net(
      {holms::markov::JacksonStation{5.0, 1.0}});
  net.set_routing(0, 0, 0.5);
  const auto sol = net.solve();
  ASSERT_TRUE(sol.stable);
  EXPECT_NEAR(sol.effective_arrival_rate[0], 2.0, 1e-9);
  EXPECT_NEAR(sol.throughput, 1.0, 1e-12);
}

TEST(Jackson, SplitRouting) {
  // Station 0 splits 70/30 to stations 1 and 2.
  holms::markov::JacksonNetwork net({{10.0, 4.0}, {10.0, 0.0}, {10.0, 0.0}});
  net.set_routing(0, 1, 0.7);
  net.set_routing(0, 2, 0.3);
  const auto sol = net.solve();
  EXPECT_NEAR(sol.effective_arrival_rate[1], 2.8, 1e-9);
  EXPECT_NEAR(sol.effective_arrival_rate[2], 1.2, 1e-9);
}

TEST(Jackson, DetectsInstability) {
  const auto net = holms::markov::tandem_network({5.0, 1.5}, 2.0);
  const auto sol = net.solve();
  EXPECT_FALSE(sol.stable);  // station 1 has rho > 1
}

TEST(Jackson, RejectsBadRouting) {
  holms::markov::JacksonNetwork net({{1.0, 1.0}, {1.0, 0.0}});
  net.set_routing(0, 0, 0.6);
  net.set_routing(0, 1, 0.6);  // row sums to 1.2
  EXPECT_THROW(net.solve(), std::invalid_argument);
  EXPECT_THROW(net.set_routing(0, 5, 0.1), std::invalid_argument);
  EXPECT_THROW(holms::markov::JacksonNetwork({}), std::invalid_argument);
}

TEST(Jackson, MatchesDecoderPipelineIntuition) {
  // The MPEG-2 chain as a queueing network: receive -> VLD -> IDCT with a
  // 20% VLD reprocess loop; the bottleneck station carries the longest
  // queue.
  holms::markov::JacksonNetwork net(
      {{100.0, 30.0},    // receive
       {45.0, 0.0},      // VLD (bottleneck with feedback)
       {80.0, 0.0}});    // IDCT
  net.set_routing(0, 1, 1.0);
  net.set_routing(1, 1, 0.2);   // reprocessing feedback
  net.set_routing(1, 2, 0.8);
  const auto sol = net.solve();
  ASSERT_TRUE(sol.stable);
  EXPECT_NEAR(sol.effective_arrival_rate[1], 30.0 / 0.8, 1e-6);
  EXPECT_GT(sol.station[1].mean_queue_length,
            sol.station[0].mean_queue_length);
  EXPECT_GT(sol.station[1].mean_queue_length,
            sol.station[2].mean_queue_length);
}

TEST(Jackson, NearlyClosedFeedbackIsExact) {
  // 0 -> 1 always, 1 -> 0 with probability p: both stations carry
  // 1 / (1 - p).  Iterating lambda = lambda0 + lambda R needs O(1 / (1 - p))
  // sweeps per digit here, so this is where an inexact solve gives up.
  for (const double p : {0.9999, 0.99999}) {
    holms::markov::JacksonNetwork net({{1e6, 1.0}, {1e6, 0.0}});
    net.set_routing(0, 1, 1.0);
    net.set_routing(1, 0, p);
    const auto sol = net.solve();
    const double expected = 1.0 / (1.0 - p);
    for (const double lambda : sol.effective_arrival_rate) {
      EXPECT_NEAR(lambda / expected, 1.0, 1e-9) << "p = " << p;
    }
    EXPECT_TRUE(sol.stable);
  }
}

TEST(Jackson, UnreachedClosedStationCarriesNoLoad) {
  // Station 1 feeds itself forever, but no job ever arrives there.
  holms::markov::JacksonNetwork net({{5.0, 1.0}, {5.0, 0.0}});
  net.set_routing(1, 1, 1.0);
  const auto sol = net.solve();
  EXPECT_EQ(sol.effective_arrival_rate,
            (std::vector<double>{1.0, 0.0}));
  EXPECT_TRUE(sol.stable);
  EXPECT_EQ(sol.station[1].mean_queue_length, 0.0);
}

TEST(ProducerConsumer, BalancedPipelineIsSymmetric) {
  ProducerConsumerModel m;
  m.producer_rate = 2.0;
  m.consumer_rate = 2.0;
  m.buffer_capacity = 4;
  const auto r = m.analyze();
  EXPECT_NEAR(r.producer_blocked, r.consumer_idle, 1e-6);
  EXPECT_NEAR(r.mean_occupancy, 2.0, 1e-6);  // uniform over 0..4
}

TEST(ProducerConsumer, FastConsumerStarves) {
  ProducerConsumerModel m;
  m.producer_rate = 1.0;
  m.consumer_rate = 10.0;
  m.buffer_capacity = 4;
  const auto r = m.analyze();
  EXPECT_GT(r.consumer_idle, 0.8);
  EXPECT_LT(r.producer_blocked, 0.01);
  // Throughput limited by the producer.
  EXPECT_NEAR(r.throughput, 1.0, 0.01);
}

TEST(ProducerConsumer, SlowConsumerBlocksProducer) {
  ProducerConsumerModel m;
  m.producer_rate = 10.0;
  m.consumer_rate = 1.0;
  m.buffer_capacity = 4;
  const auto r = m.analyze();
  EXPECT_GT(r.producer_blocked, 0.8);
  EXPECT_NEAR(r.throughput, 1.0, 0.02);  // limited by the consumer
}

TEST(ProducerConsumer, BiggerBufferRaisesThroughput) {
  ProducerConsumerModel a, b;
  a.producer_rate = b.producer_rate = 2.0;
  a.consumer_rate = b.consumer_rate = 2.0;
  a.buffer_capacity = 1;
  b.buffer_capacity = 16;
  EXPECT_LT(a.analyze().throughput, b.analyze().throughput);
}

}  // namespace
