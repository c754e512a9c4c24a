// Unit tests for the DES kernel, RNG and statistics substrate (holms::sim).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <string_view>
#include <vector>

#if defined(__GLIBC__)
#include <gnu/libc-version.h>
#endif

#include "exec/error.hpp"
#include "exec/rng_stream.hpp"
#include "exec/simd.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"
#include "support/std_rng.hpp"

namespace {

using holms::sim::Histogram;
using holms::sim::OnlineStats;
using holms::sim::QuantileSketch;
using holms::sim::Rng;
using holms::sim::Simulator;
using holms::sim::TimeWeightedStats;
using holms::test_support::StdRng;

// A draw's result as one word, so doubles compare by bit pattern.
std::uint64_t as_word(double x) { return std::bit_cast<std::uint64_t>(x); }
std::uint64_t as_word(std::uint64_t x) { return x; }
std::uint64_t as_word(std::int64_t x) { return static_cast<std::uint64_t>(x); }
std::uint64_t as_word(bool x) { return x ? 1 : 0; }

// ---------- Simulator ----------

TEST(Simulator, ExecutesInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(3.0, [&] { order.push_back(3); });
  sim.schedule_at(1.0, [&] { order.push_back(1); });
  sim.schedule_at(2.0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

TEST(Simulator, SimultaneousEventsKeepInsertionOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(1.0, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Simulator, RunUntilHorizonStopsAndAdvancesClock) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(1.0, [&] { ++fired; });
  sim.schedule_at(5.0, [&] { ++fired; });
  const std::size_t n = sim.run(2.0);
  EXPECT_EQ(n, 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
  sim.run(10.0);
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, EventsCanScheduleMoreEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) sim.schedule_in(1.0, recurse);
  };
  sim.schedule_in(1.0, recurse);
  sim.run();
  EXPECT_EQ(depth, 5);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
}

TEST(Simulator, RejectsNaNAndPastEventTimes) {
  Simulator sim;
  int fired = 0;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // A NaN horizon is rejected before anything runs (it would bound nothing).
  sim.schedule_at(5.0, [&] { ++fired; });
  EXPECT_THROW(sim.run(nan), holms::InvalidArgument);
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
  EXPECT_THROW(sim.schedule_at(nan, [&] { ++fired; }), holms::InvalidArgument);
  EXPECT_THROW(sim.schedule_in(nan, [&] { ++fired; }), holms::InvalidArgument);
  EXPECT_THROW(sim.schedule_at(4.0, [&] { ++fired; }), holms::InvalidArgument);
  EXPECT_THROW(sim.schedule_in(-1.0, [&] { ++fired; }),
               holms::InvalidArgument);
  // Nothing was queued (a queued NaN event would stall run() forever); the
  // empty queue lets the clock advance to the horizon.
  EXPECT_EQ(sim.run(10.0), 0u);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.now(), 10.0);
}

// ---------- Rng ----------

TEST(Rng, DeterministicFromSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.bits(), b.bits());
}

TEST(Rng, ForkDecouplesStreams) {
  Rng a(123);
  Rng child = a.fork();
  // Child's draws do not perturb parent determinism.
  Rng reference(123);
  (void)reference.bits();  // the fork consumed one parent draw
  for (int i = 0; i < 10; ++i) (void)child.bits();
  EXPECT_EQ(a.bits(), reference.bits());
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Rng rng(7);
  OnlineStats s;
  for (int i = 0; i < 200000; ++i) s.add(rng.exponential(4.0));
  EXPECT_NEAR(s.mean(), 0.25, 0.005);
}

TEST(Rng, ParetoMeanMatchesFormula) {
  Rng rng(7);
  OnlineStats s;
  const double alpha = 2.5, xm = 1.0;
  for (int i = 0; i < 200000; ++i) s.add(rng.pareto(alpha, xm));
  EXPECT_NEAR(s.mean(), alpha * xm / (alpha - 1.0), 0.03);
}

TEST(Rng, ParetoSupportsLowerBound) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) EXPECT_GE(rng.pareto(1.5, 2.0), 2.0);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(11);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 100000.0, 0.3, 0.01);
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(13);
  bool lo = false, hi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.uniform_int(2, 5);
    EXPECT_GE(v, 2);
    EXPECT_LE(v, 5);
    lo = lo || v == 2;
    hi = hi || v == 5;
  }
  EXPECT_TRUE(lo);
  EXPECT_TRUE(hi);
}

TEST(Rng, LognormalMeanMatchesFormula) {
  Rng rng(21);
  OnlineStats s;
  const double mu = 0.5, sigma = 0.4;
  for (int i = 0; i < 200000; ++i) s.add(rng.lognormal(mu, sigma));
  EXPECT_NEAR(s.mean(), std::exp(mu + sigma * sigma / 2.0), 0.02);
}

// ---------- Rng determinism contract ----------

// Digest of the first `count` draws of one method: every result's bit
// pattern folded through splitmix64.
template <typename Draw>
std::uint64_t draw_digest(std::uint64_t seed, Draw draw, int count) {
  Rng rng(seed);
  std::uint64_t h = 0;
  for (int i = 0; i < count; ++i) {
    h = holms::exec::splitmix64(h ^ as_word(draw(rng)));
  }
  return h;
}

// The golden digests define HolMS's random streams on every toolchain: each
// method, fixed parameters, two seeds (1 and Rng's default seed), the first
// 10^6 draws (10^5 forks: each one seeds a whole child engine).
TEST(Rng, GoldenDigestsPinEveryStream) {
  const std::uint64_t seeds[2] = {1, 0x9e3779b97f4a7c15ULL};
  auto expect_pins = [&](const char* method, auto draw,
                         const std::uint64_t (&pins)[2], int count = 1000000) {
    for (int k = 0; k < 2; ++k) {
      const std::uint64_t got = draw_digest(seeds[k], draw, count);
      EXPECT_EQ(got, pins[k]) << method << " at seed " << seeds[k] << ": 0x"
                              << std::hex << got;
    }
  };
  expect_pins("bits", [](Rng& r) { return r.bits(); },
              {0xd641c78974eee4c6ULL, 0x5b3a58e41f3635eeULL});
  expect_pins("uniform()", [](Rng& r) { return r.uniform(); },
              {0x4406964dda7b827cULL, 0xf097e3561e8efe64ULL});
  expect_pins("uniform(-2.5, 7)", [](Rng& r) { return r.uniform(-2.5, 7.0); },
              {0x5aa101ba4f13ca17ULL, 0x7df2db41f15baaedULL});
  expect_pins("uniform_int(-5, 1000003)",
              [](Rng& r) { return r.uniform_int(-5, 1000003); },
              {0x8ec5739855b52dccULL, 0x4eb2891bd31e78a6ULL});
  expect_pins("bernoulli(0.3)", [](Rng& r) { return r.bernoulli(0.3); },
              {0x4f41af50cbc27f56ULL, 0x48b71d707368d442ULL});
  expect_pins("exponential(3.5)", [](Rng& r) { return r.exponential(3.5); },
              {0x318d3d57846c913bULL, 0xbddf8d49ab6cecc9ULL});
  expect_pins("normal(0, 0.08)", [](Rng& r) { return r.normal(0.0, 0.08); },
              {0xc103fdc366098a2aULL, 0xb4836023d1322686ULL});
  expect_pins("lognormal(0.3, 1.2)",
              [](Rng& r) { return r.lognormal(0.3, 1.2); },
              {0xebc7e887e64f73f7ULL, 0x2a173f99b9626fcaULL});
  expect_pins("pareto(1.5, 2)", [](Rng& r) { return r.pareto(1.5, 2.0); },
              {0x2b8d165109a53c86ULL, 0xaa80997588d54eb0ULL});
  expect_pins("fork().bits()", [](Rng& r) { return r.fork().bits(); },
              {0xcf6223c7fcfc3d6cULL, 0x1ce6734ffd962b97ULL}, 100000);
}

// ---------- libm dependence ----------

// n evenly spaced points of [lo, hi].
std::vector<double> grid(double lo, double hi, int n) {
  std::vector<double> x(n);
  for (int i = 0; i < n; ++i) {
    x[i] = lo + (hi - lo) * static_cast<double>(i) / (n - 1);
  }
  return x;
}

std::uint64_t digest(std::span<const double> y) {
  std::uint64_t h = 0;
  for (const double v : y) h = holms::exec::splitmix64(h ^ as_word(v));
  return h;
}

// Digest of fn over n evenly spaced points of [lo, hi].
template <typename Fn>
std::uint64_t libm_digest(Fn fn, double lo, double hi, int n) {
  std::vector<double> y = grid(lo, hi, n);
  for (double& v : y) v = fn(v);
  return digest(y);
}

// glibc 2.36's log over 2^20 points of [2^-20, 1] and exp over 2^20 points
// of [-16, 16]; the owned exp and log of exec::simd reproduce both.
constexpr std::uint64_t kLogGridPin = 0x1333b6619a300260ULL;
constexpr std::uint64_t kExpGridPin = 0xf8fc018225775074ULL;

// The draws and the slot models call std::log, exp, log2 and pow, which
// glibc does not promise to round correctly, so the Rng digests above and
// every fingerprint built on them hold for glibc 2.36's libm.  These pins
// name that dependence: another libm fails here first, by function.
TEST(Libm, PinnedDigests) {
  auto expect_pin = [](const char* what, std::uint64_t got,
                       std::uint64_t pin) {
    EXPECT_EQ(got, pin) << what << ": 0x" << std::hex << got;
  };
  // log on (0, 1]: exponential's 1 - u and the polar normal's r2.
  expect_pin("log (0, 1]",
             libm_digest([](double x) { return std::log(x); }, 0x1p-20, 1.0,
                         1 << 20),
             kLogGridPin);
  // exp over [-16, 16]: the channel's 0.08-sigma wobble and lognormal's
  // sigma * z + mu.
  expect_pin("exp [-16, 16]",
             libm_digest([](double x) { return std::exp(x); }, -16.0, 16.0,
                         1 << 20),
             kExpGridPin);
  // log2 over [1, 16]: FGS PSNR rate ratios (decoded / base layer).
  expect_pin("log2 [1, 16]",
             libm_digest([](double x) { return std::log2(x + 1e-12); }, 1.0,
                         16.0, 1 << 20),
             0x2e7583bb41b9d055ULL);
  // pow as pareto uses it: u^(1 / alpha), u in (0, 1].
  std::uint64_t pareto = 0;
  for (const double alpha : {1.2, 1.5, 1.9}) {
    pareto = holms::exec::splitmix64(
        pareto ^ libm_digest(
                     [alpha](double u) { return std::pow(u, 1.0 / alpha); },
                     0x1p-20, 1.0, 1 << 18));
  }
  expect_pin("pow pareto", pareto, 0xbe783ec7ec6059f4ULL);
  // pow as the Hosking autocovariance uses it: k^(2H) at integer lags.
  std::uint64_t hosking = 0;
  for (const double hurst : {0.55, 0.7, 0.85}) {
    hosking = holms::exec::splitmix64(
        hosking ^ libm_digest(
                      [hurst](double k) { return std::pow(k, 2.0 * hurst); },
                      0.0, 16384.0, 16385));
  }
  expect_pin("pow hosking", hosking, 0x47e0087f586c4f2cULL);
}

// ---------- owned exp and log (exec::simd) ----------

using holms::exec::simd::Isa;

const Isa kIsas[] = {Isa::kScalar, Isa::kAvx2, Isa::kNeon};

// Every available kernel table's exp and log reproduce the glibc pins of
// Libm.PinnedDigests on the same grids, on any host and any libm.
TEST(OwnedLibm, ReproducesPinnedDigests) {
  const std::vector<double> lx = grid(0x1p-20, 1.0, 1 << 20);
  const std::vector<double> ex = grid(-16.0, 16.0, 1 << 20);
  std::vector<double> y(lx.size());
  for (const Isa isa : kIsas) {
    if (!holms::exec::simd::isa_available(isa)) continue;
    const auto& k = holms::exec::simd::kernels_for(isa);
    k.log(lx.data(), y.data(), y.size());
    EXPECT_EQ(digest(y), kLogGridPin) << k.name << " log: 0x" << std::hex
                                      << digest(y);
    k.exp(ex.data(), y.data(), y.size());
    EXPECT_EQ(digest(y), kExpGridPin) << k.name << " exp: 0x" << std::hex
                                      << digest(y);
  }
}

// The owned functions replicate __ieee754_exp_fma and __ieee754_log_fma,
// which glibc 2.36 runs where the CPU has FMA and AVX2; elsewhere std::exp
// and std::log are another algorithm and there is nothing to compare.
bool host_runs_glibc_236_fma() {
#if defined(__GLIBC__) && defined(__x86_64__)
  return std::string_view(gnu_get_libc_version()) == "2.36" &&
         __builtin_cpu_supports("fma") && __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

// Against std::exp and std::log, bit for bit, through every available
// table: 10 batches of 2^20 inputs per function.  Batch kinds cycle over the
// inputs the draws meet (polar r2 values, the channel's exp arguments), the
// edges of each path (the band near 1 and +-1 ulp around its ends, 2^-54 and
// 512 for exp), random bit patterns, and the special values (+-0,
// subnormals, 1, |x| >= 512, +-inf, NaN), planted in every batch at lanes
// that vary so both the 8-lane blocks and the tails take them.
TEST(OwnedLibm, MatchesGlibcBitwise) {
  if (!host_runs_glibc_236_fma()) {
    GTEST_SKIP() << "std::exp and std::log are glibc 2.36's FMA variants "
                    "only on glibc 2.36 with FMA and AVX2";
  }
  const double inf = HUGE_VAL, nan = std::numeric_limits<double>::quiet_NaN();
  const double specials[] = {0.0,  -0.0,     0x1p-1074, -0x1p-1074,
                             0x1.fffffffffffffp-1023,   0x1p-1022,
                             1.0,  -1.0,     inf,       -inf,
                             nan,  -nan,     512.0,     -512.0,
                             709.78, -745.2, 1024.0,    -1100.0,
                             0x1p-55, -0x1p-54, 0x1.ep-1, 0x1.109p0};
  const double band_edges[] = {0x1.ep-1, 0x1.109p0, 1.0};
  constexpr std::size_t kBatch = std::size_t{1} << 20;
  std::vector<double> x(kBatch), got(kBatch);
  Rng rng(2036);
  for (const bool is_log : {true, false}) {
    std::size_t checked = 0, mismatches = 0;
    for (int batch = 0; batch < 10; ++batch) {
      for (std::size_t i = 0; i < kBatch; ++i) {
        const std::uint64_t w = rng.bits();
        const double u = holms::sim::unit_double(w);
        switch (batch % 5) {
          case 0:  // random bit patterns: every sign, exponent and payload
            x[i] = std::bit_cast<double>(w);
            break;
          case 1:  // what the draws meet
            if (is_log) {
              x[i] = holms::sim::polar_point([&] { return rng.uniform(); }).r2;
            } else {
              x[i] = rng.normal(0.0, 0.08);
            }
            break;
          case 2:  // the band near 1 and +-1 ulp around its ends (log), or
                   // the edges of exp's main path
            if (is_log) {
              const double e = band_edges[w % 3];
              x[i] = (w >> 2) % 4 == 0 ? std::nextafter(e, 0.0)
                     : (w >> 2) % 4 == 1 ? std::nextafter(e, 2.0)
                                          : 0x1.ep-1 + u * 0x1.2p-3;
            } else {
              const double e = (w & 1) ? 0x1p-54 : 512.0;
              const double v = (w >> 1) % 3 == 0 ? std::nextafter(e, 0.0)
                               : (w >> 1) % 3 == 1 ? std::nextafter(e, inf)
                                                    : e * (0.5 + u);
              x[i] = (w >> 3) & 1 ? -v : v;
            }
            break;
          case 3:  // positive normals (log), or exp's whole finite range
            x[i] = is_log ? std::bit_cast<double>(
                                (w & 0x7fefffffffffffffULL) | (1ULL << 52))
                          : -760.0 + 1480.0 * u;
            break;
          default:  // subnormals and tiny magnitudes
            x[i] = std::bit_cast<double>(w & 0x801fffffffffffffULL);
            break;
        }
      }
      for (std::size_t j = 0; j < std::size(specials); ++j) {
        x[(j * 977 + static_cast<std::size_t>(batch) * 13) % kBatch] =
            specials[j];
      }
      for (const Isa isa : kIsas) {
        if (!holms::exec::simd::isa_available(isa)) continue;
        const auto& k = holms::exec::simd::kernels_for(isa);
        (is_log ? k.log : k.exp)(x.data(), got.data(), kBatch);
        for (std::size_t i = 0; i < kBatch; ++i) {
          const double want = is_log ? std::log(x[i]) : std::exp(x[i]);
          ++checked;
          if (as_word(got[i]) != as_word(want)) {
            if (++mismatches <= 5) {
              ADD_FAILURE() << k.name << (is_log ? " log(" : " exp(")
                            << std::hexfloat << x[i] << ") = " << got[i]
                            << ", glibc " << want;
            }
          }
        }
      }
    }
    EXPECT_EQ(mismatches, 0u) << "of " << checked;
    EXPECT_GE(checked, 10'000'000u);
  }
}

// ---------- Rng's chunked reader ----------

// MT19937-64's tempering, as Rng::bits applies it.
std::uint64_t temper(std::uint64_t z) {
  z ^= (z >> 29) & 0x5555555555555555ULL;
  z ^= (z << 17) & 0x71d67fffeda60000ULL;
  z ^= (z << 37) & 0xfff7eee000000000ULL;
  return z ^ (z >> 43);
}

// A reader started at every offset of a 312-word block (so at every offset
// within its conversion batches, and at the block's end) hands out
// unit_double(bits()) word for word across 3+ twists, and leaves the Rng
// where as many bits() calls would.  A second reader, and bits() between
// readers, continue the same stream.  The unit_doubles kernel behind it
// matches on every available table.
TEST(Rng, BulkUniformsMatchBits) {
  for (int start = 0; start <= 312; ++start) {
    Rng a(77), b(77);
    for (int i = 0; i < start; ++i) {
      a.bits();
      b.bits();
    }
    const int lengths[3] = {1000, 17, 1};
    for (const int n : lengths) {
      {
        Rng::Uniforms unit(a);
        for (int i = 0; i < n; ++i) {
          const double want = holms::sim::unit_double(b.bits());
          const double got = unit();
          if (as_word(got) != as_word(want)) {
            FAIL() << "start " << start << ", draw " << i << " of " << n;
          }
        }
      }
      ASSERT_EQ(a.bits(), b.bits()) << "start " << start << ", after " << n;
    }
  }
  std::vector<std::uint64_t> words(1000);
  Rng w(5);
  for (auto& v : words) v = w.bits();
  words[3] = 0;
  words[4] = ~std::uint64_t{0};
  std::vector<double> got(words.size());
  for (const Isa isa : kIsas) {
    if (!holms::exec::simd::isa_available(isa)) continue;
    const auto& k = holms::exec::simd::kernels_for(isa);
    for (const std::size_t n : {std::size_t{1000}, std::size_t{13}}) {
      k.unit_doubles(words.data(), got.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(as_word(got[i]),
                  as_word(holms::sim::unit_double(temper(words[i]))))
            << k.name << " word " << i;
      }
    }
  }
}

// ---------- Rng against the std oracle ----------

// The oracle is libstdc++ 12, whose algorithms sim::Rng reproduces; other
// standard libraries may draw differently, so there the comparisons skip and
// the golden digests alone pin the streams.
#if defined(__GLIBCXX__) && _GLIBCXX_RELEASE == 12
constexpr bool kStdOracle = true;
#else
constexpr bool kStdOracle = false;
#endif
constexpr const char* kNoStdOracle =
    "the std oracle needs libstdc++ 12, whose algorithms sim::Rng "
    "reproduces; the golden digests still pin the streams here";

// A URBG that returns one scripted word, to drive std::generate_canonical.
struct ScriptedWord {
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }
  result_type operator()() const { return word; }
  result_type word;
};

// unit_double at the words where rounding decides: 0, 1, 2^53 +- 1, 2^63
// and the top of the range.  2^64 - 1024 and above round up to 1 and take
// the clamp to 1 - 2^-53, which a real stream reaches with probability
// about 2^-54; 2^64 - 1025 rounds down to the same value.
TEST(RngOracle, UnitDoubleMatchesGenerateCanonicalOnEdgeWords) {
  if (!kStdOracle) GTEST_SKIP() << kNoStdOracle;
  constexpr std::uint64_t kTop = ~std::uint64_t{0};
  for (const std::uint64_t word :
       {std::uint64_t{0}, std::uint64_t{1}, (std::uint64_t{1} << 53) - 1,
        (std::uint64_t{1} << 53) + 1, std::uint64_t{1} << 63, kTop - 1024,
        kTop - 1023, kTop}) {
    ScriptedWord g{word};
    EXPECT_EQ(as_word(holms::sim::unit_double(word)),
              as_word(std::generate_canonical<double, 53>(g)))
        << "word 0x" << std::hex << word;
  }
  EXPECT_EQ(holms::sim::unit_double(kTop), 0x1.fffffffffffffp-1);
  EXPECT_EQ(holms::sim::unit_double(kTop - 1024), 0x1.fffffffffffffp-1);
  EXPECT_EQ(holms::sim::unit_double(std::uint64_t{1} << 63), 0.5);
}

// sim::Rng owns its engine and draw code, written to reproduce libstdc++
// 12's std::mt19937_64 and distributions.  This sweep checks that bit for
// bit against test_support::StdRng: interleaved draws on one stream, over
// parameter grids that include the edge cases (uniform_int ranges of 1, a
// power of two, just above 2^63 and the full int64 range; lo == hi;
// bernoulli at 0 and 1; stddev 0).  12.5 million rounds of 8 draws, so every
// method is checked more than 10^7 times.
TEST(RngOracle, EveryDrawMatchesLibstdcxxBitwise) {
  if (!kStdOracle) GTEST_SKIP() << kNoStdOracle;
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  const struct {
    std::int64_t lo, hi;
  } int_ranges[] = {{-7, -7},        // range 1
                    {-1024, 1023},   // a power of two
                    {kMin, 1},       // 2^63 + 2 values: ~1/2 rejected
                    {kMin, kMax},    // the full range
                    {-5, 1000003}};
  const struct {
    double a, b;
  } reals[] = {{0.0, 1.0}, {-2.5, 7.0}, {3.0, 3.0}};
  const double bernoulli_p[] = {0.0, 1.0, 0.3};
  const double rates[] = {3.5, 0.25};
  const struct {
    double mean, stddev;
  } normals[] = {{0.0, 0.08}, {-1.5, 2.0}, {4.0, 0.0}};
  const struct {
    double mu, sigma;
  } lognormals[] = {{0.3, 1.2}, {-0.5, 0.0}};

  std::uint64_t draws = 0, mismatches = 0;
  auto same = [&](auto ours, auto ref, const char* method, int round) {
    ++draws;
    if (as_word(ours) == as_word(ref)) return;
    if (++mismatches <= 5) {
      ADD_FAILURE() << method << " differs at round " << round;
    }
  };
  constexpr int kRoundsPerSeed = 2500000;
  for (const std::uint64_t seed :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{7001},
        std::uint64_t{0x9e3779b97f4a7c15ULL}, ~std::uint64_t{0}}) {
    Rng ours(seed);
    StdRng ref(seed);
    for (int i = 0; i < kRoundsPerSeed; ++i) {
      same(ours.bits(), ref.bits(), "bits", i);
      const auto& u = reals[i % 3];
      same(ours.uniform(u.a, u.b), ref.uniform(u.a, u.b), "uniform", i);
      const auto& r = int_ranges[i % 5];
      same(ours.uniform_int(r.lo, r.hi), ref.uniform_int(r.lo, r.hi),
           "uniform_int", i);
      same(ours.bernoulli(bernoulli_p[i % 3]),
           ref.bernoulli(bernoulli_p[i % 3]), "bernoulli", i);
      same(ours.exponential(rates[i % 2]), ref.exponential(rates[i % 2]),
           "exponential", i);
      const auto& n = normals[i % 3];
      same(ours.normal(n.mean, n.stddev), ref.normal(n.mean, n.stddev),
           "normal", i);
      const auto& l = lognormals[i % 2];
      same(ours.lognormal(l.mu, l.sigma), ref.lognormal(l.mu, l.sigma),
           "lognormal", i);
      same(ours.pareto(1.5, 2.0), ref.pareto(1.5, 2.0), "pareto", i);
      if (i % 4096 == 0) {  // fork seeds a child engine from one parent word
        Rng child = ours.fork();
        StdRng ref_child = ref.fork();
        same(child.bits(), ref_child.bits(), "fork", i);
        same(child.normal(0.0, 1.0), ref_child.normal(0.0, 1.0), "fork", i);
      }
    }
  }
  EXPECT_EQ(mismatches, 0u);
  EXPECT_GE(draws, 100000000u);
}

// ---------- OnlineStats ----------

TEST(OnlineStats, KnownValues) {
  OnlineStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // unbiased
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(OnlineStats, EmptyIsZero) {
  OnlineStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(OnlineStats, MergeEqualsSequential) {
  Rng rng(5);
  OnlineStats all, a, b;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal(3.0, 2.0);
    all.add(x);
    (i < 400 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(OnlineStats, MergeWithEmpty) {
  OnlineStats a, b;
  a.add(1.0);
  a.add(3.0);
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
  b.merge(a);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

// ---------- TimeWeightedStats ----------

TEST(TimeWeightedStats, PiecewiseConstantMean) {
  TimeWeightedStats s;
  s.update(0.0, 1.0);  // 1 for [0,2)
  s.update(2.0, 3.0);  // 3 for [2,3)
  s.finish(3.0);
  EXPECT_NEAR(s.mean(), (1.0 * 2 + 3.0 * 1) / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.max(), 3.0);
  EXPECT_DOUBLE_EQ(s.time_observed(), 3.0);
}

TEST(TimeWeightedStats, ZeroSpanReturnsCurrent) {
  TimeWeightedStats s;
  s.update(1.0, 7.0);
  EXPECT_DOUBLE_EQ(s.mean(), 7.0);
}

// ---------- Histogram ----------

TEST(Histogram, QuantilesOfUniformFill) {
  Histogram h(0.0, 10.0, 100);
  for (int i = 0; i < 10000; ++i) h.add(i % 100 * 0.1 + 0.05);
  EXPECT_NEAR(h.quantile(0.5), 5.0, 0.2);
  EXPECT_NEAR(h.quantile(0.99), 9.9, 0.2);
  EXPECT_EQ(h.total(), 10000u);
}

TEST(Histogram, OutOfRangeGoesToEdgeBins) {
  Histogram h(0.0, 1.0, 10);
  h.add(-5.0);
  h.add(42.0);
  EXPECT_EQ(h.bin_count(0), 1u);
  EXPECT_EQ(h.bin_count(9), 1u);
}

// NaN counts in the underflow bin, as in QuantileSketch; before, its bin
// index came from an undefined NaN-to-integer conversion.
TEST(Histogram, NanGoesToBinZero) {
  Histogram h(0.0, 1.0, 10);
  h.add(std::numeric_limits<double>::quiet_NaN());
  h.add(0.55);
  h.add(-HUGE_VAL);
  h.add(HUGE_VAL);
  EXPECT_EQ(h.bin_count(0), 2u);
  EXPECT_EQ(h.bin_count(5), 1u);
  EXPECT_EQ(h.bin_count(9), 1u);
  EXPECT_EQ(h.total(), 4u);
}

TEST(Histogram, TailFraction) {
  Histogram h(0.0, 10.0, 10);
  for (int i = 0; i < 10; ++i) h.add(i + 0.5);
  EXPECT_NEAR(h.tail_fraction(8.0), 0.2, 1e-12);
}

TEST(Histogram, RejectsDegenerateRange) {
  EXPECT_THROW(Histogram(1.0, 1.0, 4), std::invalid_argument);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
}

// ---------- QuantileSketch ----------

TEST(QuantileSketch, QuantilesOfUniformFillWithinOneSubBucket) {
  QuantileSketch s(1.0, 2048.0, 32);
  for (int i = 1; i <= 1000; ++i) s.add(static_cast<double>(i));
  EXPECT_EQ(s.count(), 1000u);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 1000.0);
  // Relative error is bounded by one sub-bucket width (~1/32).
  EXPECT_NEAR(s.p50(), 500.0, 500.0 / 32 + 1.0);
  EXPECT_NEAR(s.p99(), 990.0, 990.0 / 32 + 1.0);
  EXPECT_NEAR(s.p999(), 999.0, 999.0 / 32 + 1.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 1000.0);
}

TEST(QuantileSketch, OrderInsensitive) {
  QuantileSketch asc(1e-3, 64.0, 16), desc(1e-3, 64.0, 16);
  Rng rng(5);
  std::vector<double> xs;
  for (int i = 0; i < 5000; ++i) xs.push_back(rng.exponential(1.0));
  for (double x : xs) asc.add(x);
  for (auto it = xs.rbegin(); it != xs.rend(); ++it) desc.add(*it);
  EXPECT_EQ(asc.fingerprint(), desc.fingerprint());
  EXPECT_DOUBLE_EQ(asc.p99(), desc.p99());
  EXPECT_DOUBLE_EQ(asc.p999(), desc.p999());
}

TEST(QuantileSketch, MergeMatchesSingleStream) {
  QuantileSketch whole(1.0, 1024.0, 32);
  QuantileSketch a(1.0, 1024.0, 32), b(1.0, 1024.0, 32);
  Rng rng(9);
  for (int i = 0; i < 4000; ++i) {
    const double x = rng.uniform(0.5, 900.0);
    whole.add(x);
    (i % 2 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_EQ(a.fingerprint(), whole.fingerprint());
  EXPECT_DOUBLE_EQ(a.p50(), whole.p50());
  EXPECT_DOUBLE_EQ(a.p99(), whole.p99());
  EXPECT_DOUBLE_EQ(a.min(), whole.min());
  EXPECT_DOUBLE_EQ(a.max(), whole.max());
}

TEST(QuantileSketch, OutOfRangeSaturatesEdgeBuckets) {
  QuantileSketch s(1.0, 100.0, 8);
  s.add(0.25);   // below min_value -> underflow bucket
  s.add(1e9);    // above max_value -> overflow bucket
  EXPECT_EQ(s.count(), 2u);
  EXPECT_DOUBLE_EQ(s.min(), 0.25);
  EXPECT_DOUBLE_EQ(s.max(), 1e9);
  // Quantiles clamp to the exact observed extremes, so no mass escapes.
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 0.25);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 1e9);
}

TEST(QuantileSketch, EmptySketchReportsZero) {
  const QuantileSketch s(1.0, 100.0, 8);
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.p50(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 0.0);
  EXPECT_DOUBLE_EQ(s.max(), 0.0);
}

TEST(QuantileSketch, ValidatesLayout) {
  EXPECT_THROW(QuantileSketch(0.0, 10.0), holms::InvalidArgument);
  EXPECT_THROW(QuantileSketch(1.0, 1.5), holms::InvalidArgument);
  EXPECT_THROW(QuantileSketch(1.0, 10.0, 0), holms::InvalidArgument);
  QuantileSketch a(1.0, 100.0, 8);
  QuantileSketch b(1.0, 100.0, 16);
  EXPECT_THROW(a.merge(b), holms::InvalidArgument);
  // Layouts where some finite x below max_value gives x / min_value = +inf.
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(QuantileSketch(std::numeric_limits<double>::min(),
                              std::numeric_limits<double>::max()),
               holms::InvalidArgument);
  EXPECT_THROW(QuantileSketch(0x1p-1074, 0x1p100), holms::InvalidArgument);
  EXPECT_THROW(QuantileSketch(1e-3, inf), holms::InvalidArgument);
  // The widest ratios that stay finite still construct, and bucket.
  QuantileSketch wide(1.0, 0x1p1023, 4);
  wide.add(std::nextafter(0x1p1023, 0.0));
  EXPECT_EQ(wide.count(), 1u);
  QuantileSketch unbounded(1.0, inf, 4);
  unbounded.add(std::numeric_limits<double>::max());
  unbounded.add(inf);
  EXPECT_EQ(unbounded.count(), 2u);
}

// Which bucket each input lands in, pinned per layout: every input goes into
// its own one-sample sketch, and the sketches' fingerprints (layout, count
// and the one occupied bucket) fold into one digest in input order.  The
// inputs are every bucket edge min * 2^k * (1 + j/sub) with both of its
// nextafter neighbours, the range ends, the non-finite and non-positive
// values, and 10^5 seeded log-uniform values.  The layouts are serve's three
// slot/lag sketches, bench_serve's latency sketch, one whose minimum and
// sub-bucket count are not powers of two, and an unbounded one.
TEST(QuantileSketch, BucketChoiceIsPinned) {
  struct Layout {
    double min_value;
    double max_value;
    std::size_t sub_buckets;
    std::uint64_t digest;
  };
  const double inf = std::numeric_limits<double>::infinity();
  const Layout layouts[] = {
      {1.0, 128.0, 32, 0xe10a0089175872abull},
      {1e-3, 64.0, 32, 0x9c7f37ce32ec7890ull},
      {1e-6, 64.0, 32, 0xa82aec2dd5af896cull},
      {1e-3, 1e4, 32, 0xc538295538dc749bull},
      {0.7, 100.0, 10, 0x2fd12869c34cd732ull},
      {1.0, inf, 4, 0xd3ef78272b5e9eedull},
  };
  for (const Layout& l : layouts) {
    std::vector<double> xs;
    const auto sub = static_cast<double>(l.sub_buckets);
    int octaves = 0;
    for (double hi = l.min_value; hi < l.max_value; hi *= 2.0) ++octaves;
    for (int k = 0; k < octaves; ++k) {
      for (std::size_t j = 0; j < l.sub_buckets; ++j) {
        const double edge = std::ldexp(l.min_value, k) *
                            (1.0 + static_cast<double>(j) / sub);
        xs.insert(xs.end(), {std::nextafter(edge, 0.0), edge,
                             std::nextafter(edge, inf)});
      }
    }
    xs.insert(xs.end(),
              {l.min_value, std::nextafter(l.max_value, 0.0), l.max_value, 0.0,
               -0.0, -1.0, std::numeric_limits<double>::quiet_NaN(), inf, -inf,
               std::numeric_limits<double>::denorm_min()});
    // Log-uniform over two octaves either side of the range, libm-free: a
    // uniform mantissa in [1, 2) scaled by a uniform power of two.
    Rng rng(4242);
    for (int i = 0; i < 100000; ++i) {
      const auto e = static_cast<int>(rng.uniform_int(-2, octaves + 1));
      xs.push_back(l.min_value * std::ldexp(1.0 + rng.uniform(), e));
    }
    const QuantileSketch empty(l.min_value, l.max_value, l.sub_buckets);
    std::uint64_t digest = 0;
    for (const double x : xs) {
      QuantileSketch one = empty;
      one.add(x);
      digest = holms::exec::splitmix64(digest ^ one.fingerprint());
    }
    EXPECT_EQ(digest, l.digest)
        << "layout (" << l.min_value << ", " << l.max_value << ", "
        << l.sub_buckets << ") digest 0x" << std::hex << digest;
  }
}

// ---------- batch means & autocorrelation ----------

TEST(BatchMeans, ShrinksWithSampleSize) {
  Rng rng(3);
  std::vector<double> small, large;
  for (int i = 0; i < 400; ++i) small.push_back(rng.normal(0, 1));
  for (int i = 0; i < 40000; ++i) large.push_back(rng.normal(0, 1));
  const double hw_small = holms::sim::batch_means_half_width(small);
  const double hw_large = holms::sim::batch_means_half_width(large);
  EXPECT_GT(hw_small, hw_large);
  EXPECT_GT(hw_large, 0.0);
}

TEST(Autocorrelation, IidIsNearZeroAtLag) {
  Rng rng(17);
  std::vector<double> xs;
  for (int i = 0; i < 20000; ++i) xs.push_back(rng.normal(0, 1));
  EXPECT_NEAR(holms::sim::autocorrelation(xs, 5), 0.0, 0.03);
  EXPECT_NEAR(holms::sim::autocorrelation(xs, 0), 1.0, 1e-12);
}

TEST(Autocorrelation, Ar1HasGeometricDecay) {
  Rng rng(19);
  std::vector<double> xs{0.0};
  const double phi = 0.8;
  for (int i = 0; i < 50000; ++i) {
    xs.push_back(phi * xs.back() + rng.normal(0, 1));
  }
  const double r1 = holms::sim::autocorrelation(xs, 1);
  const double r2 = holms::sim::autocorrelation(xs, 2);
  EXPECT_NEAR(r1, phi, 0.03);
  EXPECT_NEAR(r2, phi * phi, 0.04);
}

}  // namespace
