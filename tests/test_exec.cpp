// Tests for the holms::exec layer: deterministic thread pool, shard team,
// counter-based RNG streams, metrics registry — and the two contracts the
// parallel explorer must keep: thread-count invariance and cache
// transparency.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/evaluator.hpp"
#include "core/explorer.hpp"
#include "exec/metrics.hpp"
#include "exec/rng_stream.hpp"
#include "exec/thread_pool.hpp"
#include "noc/taskgraph.hpp"

namespace {

using holms::sim::Rng;
using namespace holms::core;
using namespace holms::exec;

// ---------- thread pool ----------

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(8);
  EXPECT_EQ(pool.size(), 8u);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(hits.size(),
                    [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ReusableAcrossManyLoops) {
  ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    std::atomic<std::uint64_t> sum{0};
    pool.parallel_for(100, [&](std::size_t i) { sum.fetch_add(i); });
    EXPECT_EQ(sum.load(), 4950u);
  }
}

TEST(ThreadPool, SerialPoolRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  std::vector<int> order;
  pool.parallel_for(5, [&](std::size_t i) {
    order.push_back(static_cast<int>(i));  // safe: inline, single thread
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ThreadPool, PropagatesBodyException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(64,
                                 [&](std::size_t i) {
                                   if (i == 13) {
                                     throw std::runtime_error("boom");
                                   }
                                 }),
               std::runtime_error);
  // Pool must still be usable after an exception.
  std::atomic<int> n{0};
  pool.parallel_for(16, [&](std::size_t) { n.fetch_add(1); });
  EXPECT_EQ(n.load(), 16);
}

TEST(ThreadPool, ParallelTransformPreservesIndexOrder) {
  ThreadPool pool(8);
  const auto out = parallel_transform<std::size_t>(
      &pool, 257, [](std::size_t i) { return i * i; });
  ASSERT_EQ(out.size(), 257u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

TEST(ThreadPool, ResolveThreadsZeroMeansHardware) {
  EXPECT_GE(resolve_threads(0), 1u);
  EXPECT_EQ(resolve_threads(3), 3u);
}

TEST(ThreadPool, EnvThreadsAcceptsOnlyAPlainPositiveDecimal) {
  // Only parses the variable: no pool is built for any value here.  The
  // caller's HOLMS_THREADS (the CI matrix sets it) is restored afterwards.
  const char* outer = std::getenv("HOLMS_THREADS");
  const bool was_set = outer != nullptr;
  const std::string saved = was_set ? outer : "";
  ASSERT_EQ(unsetenv("HOLMS_THREADS"), 0);
  EXPECT_EQ(env_threads(3), 3u);
  const std::pair<const char*, std::size_t> cases[] = {
      {"4", 4},
      {"007", 7},
      {"", 3},
      {"0", 3},
      {"-1", 3},  // strtoul would wrap this to 2^64 - 1
      {"+4", 3},
      {" 4", 3},
      {"4 ", 3},
      {"4x", 3},
      {"x", 3},
      {"18446744073709551616", 3},  // 2^64: out of range
      {"99999999999999999999999", 3},
  };
  for (const auto& [text, want] : cases) {
    ASSERT_EQ(setenv("HOLMS_THREADS", text, 1), 0);
    EXPECT_EQ(env_threads(3), want) << "HOLMS_THREADS='" << text << "'";
  }
  if (was_set) {
    setenv("HOLMS_THREADS", saved.c_str(), 1);
  } else {
    unsetenv("HOLMS_THREADS");
  }
}

// ---------- shard team ----------

// Longer than any waiter's spin bound, so the members are parked after it.
void let_members_park() {
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
}

TEST(ShardTeam, RunsEachShardOnceOnItsFixedMember) {
  ShardTeam team(4);
  ASSERT_EQ(team.size(), 4u);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> owner(4);  // member -> thread, from shard m
  // Fewer shards than members, as many, more, and not a multiple.
  for (const std::size_t shards : {1u, 3u, 4u, 8u, 11u, 4u, 1u}) {
    std::vector<std::atomic<int>> hits(shards);
    std::vector<std::thread::id> ran_on(shards);
    team.run(shards, [&](std::size_t s) {
      hits[s].fetch_add(1);
      ran_on[s] = std::this_thread::get_id();  // each slot written once
    });
    for (std::size_t s = 0; s < shards; ++s) {
      EXPECT_EQ(hits[s].load(), 1) << "shards " << shards << " shard " << s;
      const std::size_t m = s % team.size();
      if (s < team.size() && owner[m] == std::thread::id{}) owner[m] = ran_on[s];
      EXPECT_EQ(ran_on[s], owner[m]) << "shards " << shards << " shard " << s;
    }
  }
  EXPECT_EQ(owner[0], caller);
  EXPECT_EQ(std::set<std::thread::id>(owner.begin(), owner.end()).size(), 4u);
}

TEST(ShardTeam, BackToBackRunsWithAlternatingShardCountsComplete) {
  // A lost wakeup would hang here: 10^5 hand-offs with no pause between
  // them, the shard count flipping between fewer and more than the team.
  ShardTeam team(4);
  std::atomic<std::uint64_t> total{0};
  std::uint64_t expected = 0;
  for (int run = 0; run < 100000; ++run) {
    const std::size_t shards = run % 2 == 0 ? 3 : 6;
    team.run(shards, [&](std::size_t s) { total.fetch_add(s + 1); });
    expected += shards * (shards + 1) / 2;
  }
  EXPECT_EQ(total.load(), expected);
}

TEST(ShardTeam, RunCompletesAfterMembersParked) {
  ShardTeam team(3);
  for (int round = 0; round < 3; ++round) {
    let_members_park();
    std::atomic<int> n{0};
    team.run(7, [&](std::size_t) { n.fetch_add(1); });
    EXPECT_EQ(n.load(), 7);
  }
}

TEST(ShardTeam, DestroysWhileMembersParked) {
  { ShardTeam never_ran(4); }
  ShardTeam team(4);
  std::atomic<int> n{0};
  team.run(4, [&](std::size_t) { n.fetch_add(1); });
  EXPECT_EQ(n.load(), 4);
  let_members_park();
  // team's destructor runs here, with every member parked.
}

TEST(ShardTeam, SizeOneRunsInlineOnCaller) {
  ShardTeam team(1);
  EXPECT_EQ(team.size(), 1u);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<int> order;
  team.run(5, [&](std::size_t s) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(static_cast<int>(s));  // safe: inline, single thread
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ShardTeam, PropagatesLowestShardExceptionAndStaysUsable) {
  ShardTeam team(4);
  std::vector<std::atomic<int>> hits(16);
  try {
    team.run(16, [&](std::size_t s) {
      hits[s].fetch_add(1);
      if (s == 13 || s == 6) throw std::runtime_error(std::to_string(s));
    });
    ADD_FAILURE() << "run() swallowed the exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "6");
  }
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);  // every shard ran
  std::atomic<int> n{0};
  team.run(16, [&](std::size_t) { n.fetch_add(1); });
  EXPECT_EQ(n.load(), 16);
}

// ---------- counter-based RNG streams ----------

TEST(RngStream, DeterministicAndDistinct) {
  EXPECT_EQ(stream_seed(42, 7), stream_seed(42, 7));
  std::set<std::uint64_t> seeds;
  for (std::uint64_t i = 0; i < 1000; ++i) seeds.insert(stream_seed(42, i));
  EXPECT_EQ(seeds.size(), 1000u);  // no collisions across indices
  EXPECT_NE(stream_seed(1, 0), stream_seed(2, 0));  // base matters
}

TEST(RngStream, SubstreamSeedIsNestedStreamSeed) {
  // The hierarchical derivation the island explorer relies on: substreams
  // are exactly nested stream_seed calls, so (base, island, epoch, slot)
  // addresses one stream no matter who re-derives it (e.g. after a resume).
  EXPECT_EQ(substream_seed(42, 3, 9), stream_seed(stream_seed(42, 3), 9));
  EXPECT_EQ(substream_seed(42, 3, 9, 2),
            stream_seed(substream_seed(42, 3, 9), 2));
}

TEST(RngStream, SubstreamsDistinctAcrossAxes) {
  std::set<std::uint64_t> seeds;
  for (std::uint64_t i = 0; i < 8; ++i) {
    for (std::uint64_t e = 0; e < 8; ++e) {
      for (std::uint64_t s = 0; s < 8; ++s) {
        seeds.insert(substream_seed(42, i, e, s));
      }
    }
  }
  EXPECT_EQ(seeds.size(), 8u * 8u * 8u);  // no collisions across the lattice
  // Swapping axes addresses different streams.
  EXPECT_NE(substream_seed(42, 1, 2, 3), substream_seed(42, 3, 2, 1));
  EXPECT_NE(substream_seed(42, 1, 2), substream_seed(42, 2, 1));
}

// ---------- explorer determinism (acceptance criterion) ----------

Application exploration_app(std::uint64_t seed, std::size_t tasks) {
  Application app;
  Rng rng(seed);
  app.graph = holms::noc::random_graph(tasks, rng, 5e5);
  app.qos.period_s = 0.05;
  return app;
}

void expect_identical(const ExploreResult& a, const ExploreResult& b) {
  EXPECT_EQ(a.found_feasible, b.found_feasible);
  EXPECT_EQ(a.evaluated, b.evaluated);
  // Bitwise double comparison is deliberate: the parallel path must produce
  // the exact serial result, not merely a close one.
  EXPECT_EQ(a.best.eval.total_energy_j, b.best.eval.total_energy_j);
  EXPECT_EQ(a.best.eval.schedule.makespan_s, b.best.eval.schedule.makespan_s);
  EXPECT_EQ(a.best.mapping, b.best.mapping);
  EXPECT_EQ(a.best.use_dvs, b.best.use_dvs);
  ASSERT_EQ(a.pareto.size(), b.pareto.size());
  for (std::size_t i = 0; i < a.pareto.size(); ++i) {
    EXPECT_EQ(a.pareto[i].mapping, b.pareto[i].mapping);
    EXPECT_EQ(a.pareto[i].use_dvs, b.pareto[i].use_dvs);
    EXPECT_EQ(a.pareto[i].eval.total_energy_j,
              b.pareto[i].eval.total_energy_j);
    EXPECT_EQ(a.pareto[i].eval.schedule.makespan_s,
              b.pareto[i].eval.schedule.makespan_s);
  }
}

TEST(ExplorerDeterminism, OneThreadAndEightThreadsBitwiseIdentical) {
  const Application app = exploration_app(3, 12);
  const Platform plat = Platform::homogeneous(4, 4);
  ExploreOptions opts;
  opts.restarts = 2;
  opts.sa.iterations = 2000;

  opts.threads = 1;
  Rng r1(5);
  const ExploreResult serial = explore(app, plat, r1, opts);
  ASSERT_TRUE(serial.found_feasible);

  opts.threads = 8;
  Rng r8(5);
  const ExploreResult parallel = explore(app, plat, r8, opts);

  expect_identical(serial, parallel);
  // The caller's RNG must also be left in the same state (exactly one draw).
  EXPECT_EQ(r1.bits(), r8.bits());
}

TEST(ExplorerDeterminism, SynthesisThreadCountInvariant) {
  const Application app = exploration_app(7, 10);
  SynthesisOptions opts;
  opts.explore.restarts = 1;
  opts.explore.sa.iterations = 800;
  opts.cost_budget = 30.0;

  opts.threads = 1;
  Rng r1(21);
  const SynthesisResult serial = synthesize_platform(app, 4, 4, r1, opts);

  opts.threads = 8;
  Rng r8(21);
  const SynthesisResult parallel = synthesize_platform(app, 4, 4, r8, opts);

  EXPECT_EQ(serial.found_feasible, parallel.found_feasible);
  ASSERT_EQ(serial.trace.size(), parallel.trace.size());
  for (std::size_t i = 0; i < serial.trace.size(); ++i) {
    EXPECT_EQ(serial.trace[i].tile, parallel.trace[i].tile);
    EXPECT_EQ(serial.trace[i].to, parallel.trace[i].to);
    EXPECT_EQ(serial.trace[i].energy_j, parallel.trace[i].energy_j);
  }
  expect_identical(serial.design, parallel.design);
}

// A reported candidate's evaluation must be exactly what a direct, uncached
// evaluate_design returns.
void expect_direct_evaluation(const Application& app, const Platform& plat,
                              const DesignCandidate& c) {
  const Evaluation direct = evaluate_design(app, plat, c.mapping, c.use_dvs);
  EXPECT_EQ(c.eval.total_energy_j, direct.total_energy_j);
  EXPECT_EQ(c.eval.schedule.makespan_s, direct.schedule.makespan_s);
  EXPECT_EQ(c.eval.comm.comm_energy_j, direct.comm.comm_energy_j);
  EXPECT_EQ(c.eval.comm.max_link_load_bps, direct.comm.max_link_load_bps);
  EXPECT_EQ(c.eval.average_power_w, direct.average_power_w);
  EXPECT_EQ(c.eval.platform_cost, direct.platform_cost);
  EXPECT_EQ(c.eval.feasible, direct.feasible);
}

TEST(ExplorerDeterminism, EvaluationCacheNeverChangesResults) {
  const Application app = exploration_app(11, 12);
  const Platform plat = Platform::homogeneous(4, 4);
  ExploreOptions opts;
  opts.restarts = 2;
  opts.sa.iterations = 1500;
  EvalCache cache;
  opts.cache = &cache;

  Rng cold_rng(9);
  const ExploreResult cold = explore(app, plat, cold_rng, opts);
  ASSERT_TRUE(cold.found_feasible);
  EXPECT_EQ(cache.hits() + cache.misses(), cold.evaluated);  // all cached
  expect_direct_evaluation(app, plat, cold.best);
  for (const DesignCandidate& c : cold.pareto) {
    expect_direct_evaluation(app, plat, c);
  }

  const std::uint64_t cold_hits = cache.hits();
  const std::uint64_t cold_misses = cache.misses();
  Rng warm_rng(9);
  const ExploreResult warm = explore(app, plat, warm_rng, opts);
  expect_identical(cold, warm);  // fully cached re-run: same answer
  EXPECT_GT(cache.hits(), 0u);
  EXPECT_EQ(cache.hits() - cold_hits, warm.evaluated);  // every job hit
  EXPECT_EQ(cache.misses(), cold_misses);
  EXPECT_EQ(cache.size(), cache.misses());
}

TEST(EvalCache, FingerprintsSeparatePlatformsAndApps) {
  const Platform p1 = Platform::homogeneous(4, 4, gpp_tile());
  Platform p2 = p1;
  p2.tiles[3] = asic_tile();
  EXPECT_NE(platform_fingerprint(p1), platform_fingerprint(p2));
  EXPECT_EQ(platform_fingerprint(p1), platform_fingerprint(p1));

  const Application a1 = exploration_app(1, 8);
  Application a2 = a1;
  a2.qos.period_s *= 2.0;
  EXPECT_NE(app_fingerprint(a1), app_fingerprint(a2));
}

// ---------- metrics ----------

TEST(Metrics, NoSinkMeansNoop) {
  MetricsRegistry::set_global(nullptr);
  count("should.not.crash");
  observe("nor.this", 1.0);
  { ScopedTimer t("nor.timers"); }
  SUCCEED();
}

TEST(Metrics, CountersAndHistogramsAggregate) {
  MetricsRegistry reg;
  ScopedMetricsSink sink(reg);
  count("widgets", 3);
  count("widgets", 2);
  observe("latency", 0.5);
  observe("latency", 1.5);
  EXPECT_EQ(reg.counter("widgets").value(), 5u);
  EXPECT_EQ(reg.histogram("latency").count(), 2u);
  EXPECT_DOUBLE_EQ(reg.histogram("latency").sum(), 2.0);
  EXPECT_DOUBLE_EQ(reg.histogram("latency").min(), 0.5);
  EXPECT_DOUBLE_EQ(reg.histogram("latency").max(), 1.5);

  const std::string json = reg.dump_json();
  EXPECT_NE(json.find("\"widgets\":5"), std::string::npos);
  EXPECT_NE(json.find("\"latency\""), std::string::npos);
  EXPECT_NE(json.find("\"mean\":1"), std::string::npos);
}

TEST(Metrics, ScopedSinkRestoresPrevious) {
  MetricsRegistry outer;
  ScopedMetricsSink outer_sink(outer);
  {
    MetricsRegistry inner;
    ScopedMetricsSink inner_sink(inner);
    count("x");
    EXPECT_EQ(inner.counter("x").value(), 1u);
  }
  count("x");
  EXPECT_EQ(outer.counter("x").value(), 1u);
}

TEST(Metrics, ThreadSafeUnderPoolLoad) {
  MetricsRegistry reg;
  ScopedMetricsSink sink(reg);
  ThreadPool pool(8);
  pool.parallel_for(2000, [&](std::size_t i) {
    count("pool.events");
    observe("pool.index", static_cast<double>(i));
  });
  EXPECT_EQ(reg.counter("pool.events").value(), 2000u);
  EXPECT_EQ(reg.histogram("pool.index").count(), 2000u);
  EXPECT_DOUBLE_EQ(reg.histogram("pool.index").max(), 1999.0);
}

TEST(Metrics, ExplorerReportsCandidatesAndCacheTraffic) {
  MetricsRegistry reg;
  ScopedMetricsSink sink(reg);
  const Application app = exploration_app(2, 8);
  const Platform plat = Platform::homogeneous(3, 3);
  Rng rng(4);
  ExploreOptions opts;
  opts.restarts = 1;
  opts.sa.iterations = 500;
  const ExploreResult res = explore(app, plat, rng, opts);
  EXPECT_EQ(reg.counter("explore.candidates").value(), res.evaluated);
  EXPECT_EQ(reg.counter("explore.restarts").value(), 1u);
  EXPECT_GT(reg.counter("explore.cache_misses").value(), 0u);
  EXPECT_GT(reg.counter("sa.moves_accepted").value() +
                reg.counter("sa.moves_rejected").value(),
            0u);
  EXPECT_EQ(reg.histogram("explore.seconds").count(), 1u);
}

}  // namespace
