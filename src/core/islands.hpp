#pragma once
// Island-model parallel exploration (DESIGN.md §5l).
//
// explore() scales to a handful of SA restarts; the surveillance-farm sweeps
// (32x32 meshes, ~200-task graphs) want sustained search with *diversity* —
// independent populations that occasionally exchange their champions.  The
// island model does exactly that: K islands each run their own SA
// refinements and random probes on private counter-derived RNG streams, all
// pricing both scheduler variants of every mapping through the explorer's
// one sharded EvalCache, and at epoch barriers the ring migration hands
// every island its left neighbour's best design.
//
// Determinism contract (the whole point of the design):
//  * every generation job draws its stream from
//    substream_seed(base, island, epoch, slot) — nothing depends on which
//    thread ran it or when;
//  * all merges (island bests, global best, Pareto front) happen serially in
//    island/slot/scheduler order after each parallel phase;
//  * emigrants are chosen by the canonical candidate_precedes order
//    (feasible first, then energy, then (mapping digest, use_dvs)).
// Hence the result — and result_fingerprint() — is bitwise invariant to
// thread count and island scheduling.
//
// Checkpoint/resume in the copy-machine idiom: checkpoint() serializes the
// full search state (incumbents, bests, front, trajectory) plus fingerprints
// of everything the search depends on (app, platform, options, fault
// scenario, RNG stream base) into a versioned little-endian blob with a
// trailing digest.  resume() validates digest, version, fingerprints and
// length fields (any mismatch or corruption → holms::RuntimeError) and
// reconstructs an explorer whose continued run is bitwise identical to the
// uninterrupted one — RNG streams are re-derived from (base, island, epoch,
// slot), so no engine state is ever serialized.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/explorer.hpp"

namespace holms::exec {
class ThreadPool;
}

namespace holms::core {

struct IslandOptions {
  std::size_t islands = 4;
  /// Default epoch budget: step() keeps returning true while epoch() is
  /// below this.  Callers may step past it; the budget is advisory.
  std::size_t epochs = 8;
  /// Migrate every N epochs (ring topology, best-of-island emigrants).
  std::size_t migration_interval = 1;
  /// Per island per epoch: SA refinements of the incumbent, then random
  /// probes.  Their sum is the island's generation jobs per epoch.
  std::size_t sa_runs_per_epoch = 1;
  std::size_t probes_per_epoch = 1;
  noc::SaOptions sa{};
  std::size_t threads = 1;          // 0 = hardware concurrency, 1 = serial
  const FaultScenario* faults = nullptr;  // robustness-aware DSE (optional)
  /// Periodic checkpointing: every `checkpoint_every` epochs the state blob
  /// is written to `checkpoint_path` (0 disables; step() performs the write
  /// at the epoch barrier, after migration).
  std::string checkpoint_path;
  std::size_t checkpoint_every = 0;

  /// Contract rule C001; called by the IslandExplorer constructor.
  void validate() const {
    sa.validate();
    if (islands == 0) {
      throw holms::InvalidArgument("IslandOptions: islands must be >= 1");
    }
    if (epochs == 0) {
      throw holms::InvalidArgument("IslandOptions: epochs must be >= 1");
    }
    if (migration_interval == 0) {
      throw holms::InvalidArgument(
          "IslandOptions: migration_interval must be >= 1");
    }
    // Dead-config rejection (C001): an epoch that generates nothing spins
    // the loop forever without searching.
    if (sa_runs_per_epoch + probes_per_epoch == 0) {
      throw holms::InvalidArgument(
          "IslandOptions: sa_runs_per_epoch + probes_per_epoch must be >= 1 "
          "— an epoch with no generation jobs searches nothing");
    }
    if (checkpoint_every > 0 && checkpoint_path.empty()) {
      throw holms::InvalidArgument(
          "IslandOptions: checkpoint_every > 0 requires a non-empty "
          "checkpoint_path — periodic checkpoints with nowhere to go are a "
          "dead config");
    }
    if (faults != nullptr) {
      // Mirror the ExploreOptions fault-scenario contract.
      ExploreOptions probe;
      probe.faults = faults;
      probe.validate();
    }
  }
};

/// K-island parallel design-space explorer with deterministic ring migration
/// and fingerprinted checkpoint/resume.  See the header comment for the
/// determinism contract; DESIGN.md §5l for the full argument.
class IslandExplorer {
 public:
  /// Consumes exactly one draw from `rng` (the base of every island's
  /// substream) regardless of islands, epochs or thread count — the same
  /// contract as explore().
  IslandExplorer(const Application& app, const Platform& platform,
                 sim::Rng& rng, IslandOptions opts);

  // Out-of-line so the owned pool destructs where ThreadPool is a complete
  // type; movable so resume() can return by value.
  IslandExplorer(IslandExplorer&&) noexcept;
  ~IslandExplorer();

  /// Runs `epochs` more epochs (generation → pricing → fault scoring →
  /// serial merge → migration → optional periodic checkpoint).  Returns
  /// true while epoch() remains below the options' epoch budget, so
  /// `while (ex.step()) {}` runs exactly opts.epochs epochs.
  bool step(std::size_t epochs = 1);

  /// Epochs completed so far.
  std::size_t epoch() const { return epoch_; }

  /// Snapshot of the search result so far, in the explore() shape (Pareto
  /// front sorted by energy).
  ExploreResult result() const;

  /// Order-sensitive 64-bit digest of result() plus epoch/evaluated — the
  /// value the resume-identity gates compare.  Equal fingerprints mean the
  /// candidate sets are bitwise identical with ~2^-64 slack.
  std::uint64_t result_fingerprint() const;

  /// (cumulative pricing evaluations, best feasible energy so far) recorded
  /// after every epoch — the convergence trajectory the island-scaling
  /// bench plots.  Energy is +inf until a feasible design is found.
  const std::vector<std::pair<std::uint64_t, double>>& trajectory() const {
    return trajectory_;
  }

  /// Serializes the full search state to the versioned checkpoint blob.
  std::vector<std::uint8_t> checkpoint() const;
  /// checkpoint() to a file; throws holms::RuntimeError on I/O failure.
  void save_checkpoint(const std::string& path) const;

  /// Reconstructs an explorer from a checkpoint blob.  Validates the blob
  /// digest, the format version (2) and the app/platform/options/fault
  /// fingerprints, and bounds every length field by the words left in the
  /// blob before sizing anything from it — corruption, a malformed field
  /// or any mismatch throws holms::RuntimeError.  The resumed explorer's
  /// continued run is bitwise identical to the uninterrupted one; `opts`
  /// may differ in the thread and checkpoint knobs only.
  static IslandExplorer resume(const Application& app,
                               const Platform& platform, IslandOptions opts,
                               const std::vector<std::uint8_t>& blob);
  static IslandExplorer resume_from_file(const Application& app,
                                         const Platform& platform,
                                         IslandOptions opts,
                                         const std::string& path);

 private:
  struct Island {
    noc::Mapping incumbent;      // SA refinement seed for the next epoch
    bool has_best = false;
    DesignCandidate best;        // canonical-order best seen by this island
  };

  IslandExplorer(const Application& app, const Platform& platform,
                 IslandOptions opts, std::uint64_t stream_base, bool resumed);

  void run_epoch();
  void migrate();
  std::uint64_t options_digest() const;
  std::uint64_t fault_fingerprint() const;

  const Application& app_;
  const Platform& platform_;
  IslandOptions opts_;
  std::uint64_t stream_base_ = 0;
  std::uint64_t app_fp_ = 0;
  std::uint64_t platform_fp_ = 0;

  /// SaOptions actually used per refinement: opts_.sa with the platform's
  /// link capacity.
  noc::SaOptions sa_base_{};

  std::vector<Island> islands_;
  ParetoAccumulator acc_;
  std::size_t epoch_ = 0;
  std::uint64_t evaluated_ = 0;
  std::vector<std::pair<std::uint64_t, double>> trajectory_;

  // Execution plumbing (never serialized; resume re-creates it).  Every
  // candidate is priced through the explorer's own cache, on the explorer's
  // own pool (a size-1 pool runs every loop inline).
  std::unique_ptr<EvalCache> cache_;
  std::unique_ptr<exec::ThreadPool> pool_;
};

/// Convenience wrapper: run opts.epochs epochs and return the result —
/// the island-model analogue of explore().
ExploreResult explore_islands(const Application& app, const Platform& platform,
                              sim::Rng& rng, const IslandOptions& opts = {});

}  // namespace holms::core
