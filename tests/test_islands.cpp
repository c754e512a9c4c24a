// Island-model exploration (core/islands.hpp): option contracts, thread- and
// scheduling-invariance of the fingerprints, and checkpoint/resume identity
// (DESIGN.md §5l).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/explorer.hpp"
#include "core/islands.hpp"
#include "core/platform.hpp"
#include "exec/error.hpp"
#include "exec/rng_stream.hpp"
#include "noc/taskgraph.hpp"

namespace {

using holms::sim::Rng;
using namespace holms::core;

Application island_app() {
  Application app;
  app.name = "island";
  Rng rng(11);
  app.graph = holms::noc::random_graph(14, rng, 6e5);
  app.qos.period_s = 0.05;
  return app;
}

IslandOptions small_opts(std::size_t islands, std::size_t epochs) {
  IslandOptions opts;
  opts.islands = islands;
  opts.epochs = epochs;
  opts.sa.iterations = 400;
  return opts;
}

std::uint64_t run_fingerprint(const Application& app, const Platform& plat,
                              IslandOptions opts, std::uint64_t seed = 42) {
  Rng rng(seed);
  IslandExplorer ex(app, plat, rng, std::move(opts));
  while (ex.step()) {
  }
  return ex.result_fingerprint();
}

// ---- option contracts (C001): every dead or invalid knob throws typed ------

TEST(IslandOptions, ZeroIslandsThrowsInvalidArgument) {
  IslandOptions opts = small_opts(0, 2);
  EXPECT_THROW(opts.validate(), holms::InvalidArgument);
}

TEST(IslandOptions, ZeroEpochsThrowsInvalidArgument) {
  IslandOptions opts = small_opts(2, 2);
  opts.epochs = 0;
  EXPECT_THROW(opts.validate(), holms::InvalidArgument);
}

TEST(IslandOptions, ZeroMigrationIntervalThrowsInvalidArgument) {
  IslandOptions opts = small_opts(2, 2);
  opts.migration_interval = 0;
  EXPECT_THROW(opts.validate(), holms::InvalidArgument);
}

TEST(IslandOptions, NoGenerationJobsIsDeadConfig) {
  IslandOptions opts = small_opts(2, 2);
  opts.sa_runs_per_epoch = 0;
  opts.probes_per_epoch = 0;
  EXPECT_THROW(opts.validate(), holms::InvalidArgument);
}

TEST(IslandOptions, CheckpointEveryWithoutPathIsDeadConfig) {
  IslandOptions opts = small_opts(2, 2);
  opts.checkpoint_every = 1;
  opts.checkpoint_path.clear();
  EXPECT_THROW(opts.validate(), holms::InvalidArgument);
}

TEST(IslandOptions, NestedSaKnobsAreValidated) {
  IslandOptions opts = small_opts(2, 2);
  opts.sa.iterations = 0;
  EXPECT_THROW(opts.validate(), holms::InvalidArgument);
}

TEST(IslandOptions, FaultScenarioContractMirrorsExplore) {
  IslandOptions opts = small_opts(2, 2);
  FaultScenario fs;
  fs.replicas = 0;
  opts.faults = &fs;
  EXPECT_THROW(opts.validate(), holms::InvalidArgument);
}

TEST(ExploreOptions, SloFloorWithoutWindowIsDeadConfig) {
  ExploreOptions opts;
  FaultScenario fs;
  fs.min_slo_fraction = 0.5;
  fs.slo_window = 0;  // the floor can never apply
  opts.faults = &fs;
  EXPECT_THROW(opts.validate(), holms::InvalidArgument);
}

TEST(ExploreOptions, SloWindowWithoutDurationIsDeadConfig) {
  ExploreOptions opts;
  FaultScenario fs;
  fs.slo_window = 8;
  fs.ambient.duration_s = 0.0;  // no periods, so no windows to score
  opts.faults = &fs;
  EXPECT_THROW(opts.validate(), holms::InvalidArgument);
}

// ---- search behaviour ------------------------------------------------------

TEST(Islands, FindsFeasibleDesignAndTrajectoryIsMonotone) {
  const Application app = island_app();
  const Platform plat = Platform::homogeneous(4, 4);
  Rng rng(42);
  IslandExplorer ex(app, plat, rng, small_opts(2, 3));
  while (ex.step()) {
  }
  const ExploreResult res = ex.result();
  EXPECT_TRUE(res.found_feasible);
  EXPECT_FALSE(res.pareto.empty());
  EXPECT_EQ(ex.epoch(), 3u);
  ASSERT_EQ(ex.trajectory().size(), 3u);
  for (std::size_t i = 1; i < ex.trajectory().size(); ++i) {
    EXPECT_LE(ex.trajectory()[i].second, ex.trajectory()[i - 1].second);
    EXPECT_GT(ex.trajectory()[i].first, ex.trajectory()[i - 1].first);
  }
}

TEST(Islands, ExploreIslandsWrapperMatchesManualLoop) {
  const Application app = island_app();
  const Platform plat = Platform::homogeneous(4, 4);
  Rng r1(42), r2(42);
  IslandExplorer ex(app, plat, r1, small_opts(2, 3));
  while (ex.step()) {
  }
  const ExploreResult manual = ex.result();
  const ExploreResult wrapped = explore_islands(app, plat, r2,
                                                small_opts(2, 3));
  EXPECT_EQ(manual.evaluated, wrapped.evaluated);
  EXPECT_EQ(manual.found_feasible, wrapped.found_feasible);
  EXPECT_EQ(manual.best.mapping, wrapped.best.mapping);
  EXPECT_EQ(manual.best.eval.total_energy_j, wrapped.best.eval.total_energy_j);
}

// The core determinism claim: for each island count, the fingerprint is
// bitwise invariant to the worker-thread count (1 / 2 / 4 / 7), and the
// consumption of the caller's RNG does not depend on either knob.
TEST(Islands, FingerprintInvariantToThreadCount) {
  const Application app = island_app();
  const Platform plat = Platform::homogeneous(4, 4);
  for (const std::size_t islands : {1u, 2u, 4u}) {
    std::uint64_t reference = 0;
    for (const std::size_t threads : {1u, 2u, 4u, 7u}) {
      IslandOptions opts = small_opts(islands, 2);
      opts.threads = threads;
      const std::uint64_t fp = run_fingerprint(app, plat, opts);
      if (threads == 1) {
        reference = fp;
      } else {
        EXPECT_EQ(fp, reference)
            << "islands=" << islands << " threads=" << threads;
      }
    }
  }
}

TEST(Islands, FingerprintDistinguishesIslandCounts) {
  const Application app = island_app();
  const Platform plat = Platform::homogeneous(4, 4);
  const std::uint64_t k1 = run_fingerprint(app, plat, small_opts(1, 2));
  const std::uint64_t k2 = run_fingerprint(app, plat, small_opts(2, 2));
  const std::uint64_t k4 = run_fingerprint(app, plat, small_opts(4, 2));
  EXPECT_NE(k1, k2);
  EXPECT_NE(k2, k4);
}

TEST(Islands, ConsumesExactlyOneRngDraw) {
  const Application app = island_app();
  const Platform plat = Platform::homogeneous(4, 4);
  Rng a(9), b(9);
  IslandExplorer ex(app, plat, a, small_opts(2, 2));
  (void)b.bits();
  EXPECT_EQ(a.bits(), b.bits());
}

// ---- checkpoint / resume ---------------------------------------------------

TEST(Islands, ResumeReproducesUninterruptedRunBitwise) {
  const Application app = island_app();
  const Platform plat = Platform::homogeneous(4, 4);
  const IslandOptions opts = small_opts(2, 4);

  Rng full_rng(42);
  IslandExplorer full(app, plat, full_rng, opts);
  full.step(4);
  const ExploreResult want = full.result();

  Rng part_rng(42);
  IslandExplorer part(app, plat, part_rng, opts);
  part.step(2);
  const std::vector<std::uint8_t> blob = part.checkpoint();

  IslandExplorer resumed = IslandExplorer::resume(app, plat, opts, blob);
  EXPECT_EQ(resumed.epoch(), 2u);
  resumed.step(2);

  EXPECT_EQ(resumed.result_fingerprint(), full.result_fingerprint());
  const ExploreResult got = resumed.result();
  EXPECT_EQ(got.evaluated, want.evaluated);
  EXPECT_EQ(got.best.mapping, want.best.mapping);
  EXPECT_EQ(got.best.use_dvs, want.best.use_dvs);
  EXPECT_EQ(got.best.eval.total_energy_j, want.best.eval.total_energy_j);
  ASSERT_EQ(got.pareto.size(), want.pareto.size());
  for (std::size_t i = 0; i < got.pareto.size(); ++i) {
    EXPECT_EQ(got.pareto[i].mapping, want.pareto[i].mapping);
    EXPECT_EQ(got.pareto[i].use_dvs, want.pareto[i].use_dvs);
    EXPECT_EQ(got.pareto[i].eval.total_energy_j,
              want.pareto[i].eval.total_energy_j);
  }
}

TEST(Islands, ResumeWithDifferentThreadCountIsStillBitwise) {
  const Application app = island_app();
  const Platform plat = Platform::homogeneous(4, 4);
  IslandOptions opts = small_opts(2, 4);

  Rng full_rng(42);
  IslandExplorer full(app, plat, full_rng, opts);
  full.step(4);

  opts.threads = 4;
  Rng part_rng(42);
  IslandExplorer part(app, plat, part_rng, opts);
  part.step(2);
  const std::vector<std::uint8_t> blob = part.checkpoint();

  IslandOptions resume_opts = small_opts(2, 4);
  resume_opts.threads = 7;  // thread knobs may differ across a resume
  IslandExplorer resumed =
      IslandExplorer::resume(app, plat, resume_opts, blob);
  resumed.step(2);
  EXPECT_EQ(resumed.result_fingerprint(), full.result_fingerprint());
}

TEST(Islands, CorruptingAnyByteThrowsRuntimeError) {
  const Application app = island_app();
  const Platform plat = Platform::homogeneous(4, 4);
  const IslandOptions opts = small_opts(2, 2);
  Rng rng(42);
  IslandExplorer ex(app, plat, rng, opts);
  ex.step(1);
  const std::vector<std::uint8_t> blob = ex.checkpoint();

  // Flip one byte at a spread of positions — header, body, trailing digest.
  for (const std::size_t pos :
       {std::size_t{0}, std::size_t{9}, blob.size() / 2, blob.size() - 1}) {
    std::vector<std::uint8_t> bad = blob;
    bad[pos] ^= 0x40;
    EXPECT_THROW(IslandExplorer::resume(app, plat, opts, bad),
                 holms::RuntimeError)
        << "flipped byte " << pos;
  }
  // Truncation is corruption too.
  std::vector<std::uint8_t> truncated(blob.begin(), blob.end() - 8);
  EXPECT_THROW(IslandExplorer::resume(app, plat, opts, truncated),
               holms::RuntimeError);
}

// ---- checkpoint re-seal mutator --------------------------------------------
//
// A field edit alone only trips the trailing digest.  reseal() recomputes
// it (fold chain from the "ckpdig" seed over every word before it), so an
// edited blob reaches the field validators behind the integrity check.

std::vector<std::uint64_t> to_words(const std::vector<std::uint8_t>& bytes) {
  std::vector<std::uint64_t> words(bytes.size() / 8, 0);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    words[i / 8] |= static_cast<std::uint64_t>(bytes[i]) << (8 * (i % 8));
  }
  return words;
}

std::vector<std::uint8_t> to_bytes(const std::vector<std::uint64_t>& words) {
  std::vector<std::uint8_t> bytes;
  for (const std::uint64_t w : words) {
    for (std::size_t k = 0; k < 8; ++k) {
      bytes.push_back(static_cast<std::uint8_t>(w >> (8 * k)));
    }
  }
  return bytes;
}

void reseal(std::vector<std::uint64_t>& words) {
  std::uint64_t digest = 0x636b70646967ULL;
  for (std::size_t i = 0; i + 1 < words.size(); ++i) {
    digest = holms::exec::splitmix64(
        digest ^ holms::exec::splitmix64(words[i]));
  }
  words.back() = digest;
}

// Word offsets of the version-2 layout's length fields: header words 0-9,
// the island count at 10, then per island an incumbent mapping (size word +
// one tile per core), has_best and an optional candidate (mapping, use_dvs,
// three scores), then found_feasible and an optional best, the front count
// and the trajectory count.
struct CheckpointLayout {
  std::size_t island_count = 10;
  std::size_t first_tile = 12;  // island 0's incumbent, core 0
  std::size_t front_count = 0;
  std::size_t trajectory_count = 0;
};

CheckpointLayout walk_checkpoint(const std::vector<std::uint64_t>& w,
                                 std::size_t nodes) {
  const std::size_t candidate_words = 1 + nodes + 4;
  CheckpointLayout at;
  std::size_t pos = at.island_count + 1;
  for (std::uint64_t i = 0; i < w[at.island_count]; ++i) {
    pos += 1 + nodes;
    if (w[pos++] != 0) pos += candidate_words;
  }
  if (w[pos++] != 0) pos += candidate_words;
  at.front_count = pos;
  pos += 1 + w[pos] * candidate_words;
  at.trajectory_count = pos;
  return at;
}

TEST(Islands, ResealedMalformedFieldsThrowRuntimeError) {
  const Application app = island_app();
  const Platform plat = Platform::homogeneous(4, 4);
  const IslandOptions opts = small_opts(2, 2);
  Rng rng(42);
  IslandExplorer ex(app, plat, rng, opts);
  ex.step(1);
  const std::vector<std::uint64_t> words = to_words(ex.checkpoint());
  const std::size_t nodes = app.graph.num_nodes();
  const CheckpointLayout at = walk_checkpoint(words, nodes);
  ASSERT_EQ(words[at.first_tile - 1], nodes);
  ASSERT_EQ(words[at.trajectory_count], 1u);  // one epoch recorded
  ASSERT_EQ(at.trajectory_count + 3, words.size() - 1);

  // Re-sealing the unedited blob must leave it resumable, so every case
  // below fails on its field, not on the digest.
  std::vector<std::uint64_t> same = words;
  reseal(same);
  ASSERT_EQ(same, words);
  EXPECT_NO_THROW(IslandExplorer::resume(app, plat, opts, to_bytes(same)));

  struct Case {
    const char* what;
    std::size_t word;
    std::uint64_t value;
  };
  const std::uint64_t two40 = std::uint64_t{1} << 40;
  const std::uint64_t two62 = std::uint64_t{1} << 62;
  for (const Case& c :
       {Case{"version 1", 1, 1},
        Case{"island count + 1", at.island_count, words[at.island_count] + 1},
        Case{"island count - 1", at.island_count, words[at.island_count] - 1},
        Case{"front count 2^40", at.front_count, two40},
        Case{"front count 2^62", at.front_count, two62},
        Case{"trajectory count 2^40", at.trajectory_count, two40},
        Case{"tile outside the mesh", at.first_tile, plat.mesh.num_tiles()}}) {
    std::vector<std::uint64_t> bad = words;
    bad[c.word] = c.value;
    reseal(bad);
    try {
      IslandExplorer::resume(app, plat, opts, to_bytes(bad));
      ADD_FAILURE() << c.what << ": resumed without error";
    } catch (const holms::RuntimeError& e) {
      EXPECT_EQ(std::string(e.what()).find("digest"), std::string::npos)
          << c.what << ": " << e.what();
    }
  }
}

TEST(Islands, ResumeRejectsMismatchedPlatformOptionsAndScenario) {
  const Application app = island_app();
  const Platform plat = Platform::homogeneous(4, 4);
  const IslandOptions opts = small_opts(2, 2);
  Rng rng(42);
  IslandExplorer ex(app, plat, rng, opts);
  ex.step(1);
  const std::vector<std::uint8_t> blob = ex.checkpoint();

  const Platform other_plat = Platform::homogeneous(4, 4, asip_tile());
  EXPECT_THROW(IslandExplorer::resume(app, other_plat, opts, blob),
               holms::RuntimeError);

  Application other_app = island_app();
  other_app.qos.period_s = 0.07;
  EXPECT_THROW(IslandExplorer::resume(other_app, plat, opts, blob),
               holms::RuntimeError);

  IslandOptions other_opts = small_opts(2, 2);
  other_opts.sa.iterations = 401;
  EXPECT_THROW(IslandExplorer::resume(app, plat, other_opts, blob),
               holms::RuntimeError);

  IslandOptions fault_opts = small_opts(2, 2);
  FaultScenario fs;
  fault_opts.faults = &fs;
  EXPECT_THROW(IslandExplorer::resume(app, plat, fault_opts, blob),
               holms::RuntimeError);
}

TEST(Islands, SaveAndResumeFromFileRoundTrips) {
  const Application app = island_app();
  const Platform plat = Platform::homogeneous(4, 4);
  const IslandOptions opts = small_opts(2, 3);
  const std::string path = testing::TempDir() + "holms_island_test.ckpt";

  Rng full_rng(42);
  IslandExplorer full(app, plat, full_rng, opts);
  full.step(3);

  Rng part_rng(42);
  IslandExplorer part(app, plat, part_rng, opts);
  part.step(1);
  part.save_checkpoint(path);

  IslandExplorer resumed =
      IslandExplorer::resume_from_file(app, plat, opts, path);
  resumed.step(2);
  EXPECT_EQ(resumed.result_fingerprint(), full.result_fingerprint());

  EXPECT_THROW(IslandExplorer::resume_from_file(app, plat, opts,
                                                path + ".does-not-exist"),
               holms::RuntimeError);
}

TEST(Islands, PeriodicCheckpointsAreWrittenAtEpochBarriers) {
  const Application app = island_app();
  const Platform plat = Platform::homogeneous(4, 4);
  IslandOptions opts = small_opts(2, 4);
  opts.checkpoint_every = 2;
  opts.checkpoint_path = testing::TempDir() + "holms_island_periodic.ckpt";

  Rng full_rng(42);
  IslandExplorer full(app, plat, full_rng, small_opts(2, 4));
  full.step(4);

  Rng rng(42);
  IslandExplorer ex(app, plat, rng, opts);
  ex.step(2);  // epoch 2 barrier writes the blob

  IslandExplorer resumed = IslandExplorer::resume_from_file(
      app, plat, small_opts(2, 4), opts.checkpoint_path);
  EXPECT_EQ(resumed.epoch(), 2u);
  resumed.step(2);
  EXPECT_EQ(resumed.result_fingerprint(), full.result_fingerprint());
}

TEST(Islands, FaultScenarioRunsSurviveCheckpointRoundTrip) {
  const Application app = island_app();
  const Platform plat = Platform::homogeneous(4, 4);
  FaultScenario fs;
  fs.replicas = 2;
  fs.ambient.duration_s = 2.0;
  fs.ambient.tile_mtbf_s = 4.0;
  IslandOptions opts = small_opts(2, 3);
  opts.faults = &fs;

  Rng full_rng(42);
  IslandExplorer full(app, plat, full_rng, opts);
  full.step(3);

  Rng part_rng(42);
  IslandExplorer part(app, plat, part_rng, opts);
  part.step(1);
  const std::vector<std::uint8_t> blob = part.checkpoint();
  IslandExplorer resumed = IslandExplorer::resume(app, plat, opts, blob);
  resumed.step(2);
  EXPECT_EQ(resumed.result_fingerprint(), full.result_fingerprint());
}

}  // namespace
