#include "core/islands.hpp"

#include <algorithm>
#include <bit>
#include <fstream>
#include <iterator>
#include <limits>
#include <utility>

#include "exec/metrics.hpp"
#include "exec/rng_stream.hpp"
#include "exec/thread_pool.hpp"

namespace holms::core {
namespace {

constexpr std::uint64_t kMagic = 0x484f4c4d53434b50ULL;    // "HOLMSCKP"
constexpr std::uint64_t kVersion = 2;
constexpr std::uint64_t kDigestSeed = 0x636b70646967ULL;   // "ckpdig"
constexpr std::uint64_t kInitStream = 0x696e6974ULL;       // "init"

// Streaming 64-bit hash: order-sensitive fold of one value into the state
// (same construction as the evaluator fingerprints).
std::uint64_t fold(std::uint64_t h, std::uint64_t v) {
  return exec::splitmix64(h ^ exec::splitmix64(v));
}

std::uint64_t fold(std::uint64_t h, double d) {
  return fold(h, std::bit_cast<std::uint64_t>(d));
}

std::uint64_t fold_candidate(std::uint64_t h, const DesignCandidate& c) {
  h = fold(h, mapping_digest(c.mapping));
  h = fold(h, static_cast<std::uint64_t>(c.use_dvs));
  h = fold(h, c.eval.total_energy_j);
  h = fold(h, c.eval.schedule.makespan_s);
  h = fold(h, static_cast<std::uint64_t>(c.eval.feasible));
  h = fold(h, c.availability);
  h = fold(h, c.slo_fraction);
  h = fold(h, c.worst_window_availability);
  return h;
}

/// Checkpoint payload builder: 64-bit little-endian words; doubles are
/// bit_cast so the round trip is exact.
struct WordWriter {
  std::vector<std::uint64_t> words;

  void u64(std::uint64_t v) { words.push_back(v); }
  void f64(double d) { u64(std::bit_cast<std::uint64_t>(d)); }
  void mapping(const noc::Mapping& m) {
    u64(m.size());
    for (const std::size_t tile : m) u64(tile);
  }
  /// A candidate's search-state fields.  The Evaluation is deliberately not
  /// serialized: resume re-prices the mapping through the (deterministic)
  /// evaluator, which is both smaller and immune to stale-eval corruption.
  void candidate(const DesignCandidate& c) {
    mapping(c.mapping);
    u64(static_cast<std::uint64_t>(c.use_dvs));
    f64(c.availability);
    f64(c.slo_fraction);
    f64(c.worst_window_availability);
  }
};

struct WordReader {
  explicit WordReader(const std::vector<std::uint64_t>& w) : words(w) {}

  std::uint64_t u64() {
    if (pos >= words.size()) {
      throw holms::RuntimeError("island checkpoint: truncated blob");
    }
    return words[pos++];
  }
  double f64() { return std::bit_cast<double>(u64()); }
  /// A length field.  Every element takes at least one word, so a count
  /// above the words left is malformed: rejected before anything is sized
  /// from it.
  std::size_t count() {
    const std::uint64_t n = u64();
    if (n > words.size() - pos) {
      throw holms::RuntimeError(
          "island checkpoint: length field exceeds the blob");
    }
    return static_cast<std::size_t>(n);
  }
  noc::Mapping mapping(std::size_t expected_nodes, std::size_t num_tiles) {
    const std::uint64_t n = u64();
    if (n != expected_nodes) {
      throw holms::RuntimeError(
          "island checkpoint: mapping size does not match the application");
    }
    noc::Mapping m(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      const std::uint64_t tile = u64();
      if (tile >= num_tiles) {
        throw holms::RuntimeError(
            "island checkpoint: mapping references a tile outside the mesh");
      }
      m[i] = static_cast<noc::TileId>(tile);
    }
    return m;
  }
  DesignCandidate candidate(std::size_t expected_nodes,
                            std::size_t num_tiles) {
    DesignCandidate c;
    c.mapping = mapping(expected_nodes, num_tiles);
    c.use_dvs = u64() != 0;
    c.availability = f64();
    c.slo_fraction = f64();
    c.worst_window_availability = f64();
    return c;
  }

  const std::vector<std::uint64_t>& words;
  std::size_t pos = 0;
};

std::vector<std::uint8_t> words_to_bytes(
    const std::vector<std::uint64_t>& words) {
  std::vector<std::uint8_t> bytes;
  bytes.reserve(words.size() * 8);
  for (const std::uint64_t w : words) {
    for (std::size_t k = 0; k < 8; ++k) {
      bytes.push_back(static_cast<std::uint8_t>((w >> (8 * k)) & 0xff));
    }
  }
  return bytes;
}

std::vector<std::uint64_t> bytes_to_words(
    const std::vector<std::uint8_t>& bytes) {
  if (bytes.empty() || bytes.size() % 8 != 0) {
    throw holms::RuntimeError(
        "island checkpoint: blob size is not a whole number of words");
  }
  std::vector<std::uint64_t> words(bytes.size() / 8, 0);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    words[i / 8] |= static_cast<std::uint64_t>(bytes[i]) << (8 * (i % 8));
  }
  return words;
}

}  // namespace

IslandExplorer::IslandExplorer(const Application& app,
                               const Platform& platform, sim::Rng& rng,
                               IslandOptions opts)
    : IslandExplorer(app, platform, std::move(opts), rng.bits(),
                     /*resumed=*/false) {}

IslandExplorer::IslandExplorer(IslandExplorer&&) noexcept = default;
IslandExplorer::~IslandExplorer() = default;

IslandExplorer::IslandExplorer(const Application& app,
                               const Platform& platform, IslandOptions opts,
                               std::uint64_t stream_base, bool resumed)
    : app_(app), platform_(platform), opts_(std::move(opts)),
      stream_base_(stream_base) {
  opts_.validate();
  app_fp_ = app_fingerprint(app_);
  platform_fp_ = platform_fingerprint(platform_);

  cache_ = std::make_unique<EvalCache>();
  pool_ = std::make_unique<exec::ThreadPool>(opts_.threads);

  sa_base_ = opts_.sa;
  sa_base_.link_capacity_bps = platform_.link_bandwidth_bps;

  if (!resumed) {
    islands_.resize(opts_.islands);
    // Island 0 starts from the deterministic greedy seed (the strongest
    // known start); the rest start from random mappings on their own
    // streams so the populations diverge immediately.
    islands_[0].incumbent = noc::greedy_mapping(app_.graph, platform_.mesh,
                                                platform_.noc_energy);
    for (std::size_t i = 1; i < opts_.islands; ++i) {
      sim::Rng stream(exec::substream_seed(stream_base_, i, kInitStream));
      islands_[i].incumbent =
          noc::random_mapping(app_.graph.num_nodes(), platform_.mesh, stream);
    }
  }
}

bool IslandExplorer::step(std::size_t epochs) {
  for (std::size_t k = 0; k < epochs; ++k) run_epoch();
  return epoch_ < opts_.epochs;
}

void IslandExplorer::run_epoch() {
  exec::ScopedTimer timer("islands.epoch_seconds");
  const std::size_t K = opts_.islands;
  const std::size_t gen_per_island =
      opts_.sa_runs_per_epoch + opts_.probes_per_epoch;
  const std::size_t e = epoch_;

  // Generation: island i, slot s draws its private stream from
  // (base, island, epoch, slot) — identical work regardless of which pool
  // thread runs it.  Incumbents are read-only during the epoch.
  const std::size_t total_gen = K * gen_per_island;
  const std::vector<noc::Mapping> gen =
      exec::parallel_transform<noc::Mapping>(
          *pool_, total_gen, [&](std::size_t idx) {
            const std::size_t i = idx / gen_per_island;
            const std::size_t s = idx % gen_per_island;
            sim::Rng stream(exec::substream_seed(stream_base_, i, e, s));
            if (s < opts_.sa_runs_per_epoch) {
              return noc::sa_mapping_from(app_.graph, platform_.mesh,
                                          platform_.noc_energy,
                                          islands_[i].incumbent, stream,
                                          sa_base_);
            }
            return noc::random_mapping(app_.graph.num_nodes(), platform_.mesh,
                                       stream);
          });

  // Pricing: every generated mapping times both scheduler variants (DVS,
  // then EDF), through the cache.  Job order is island-major (island, slot,
  // scheduler).
  constexpr std::size_t scheds = 2;
  const std::size_t total_jobs = total_gen * scheds;
  const std::vector<Evaluation> evals = exec::parallel_transform<Evaluation>(
      *pool_, total_jobs, [&](std::size_t j) {
        return cache_->evaluate(app_, app_fp_, platform_, platform_fp_,
                                gen[j / scheds], j % scheds == 0);
      });
  exec::count("explore.candidates", total_jobs);

  std::vector<DesignCandidate> cands(total_jobs);
  for (std::size_t j = 0; j < total_jobs; ++j) {
    cands[j].mapping = gen[j / scheds];
    cands[j].use_dvs = (j % scheds) == 0;
    cands[j].eval = evals[j];
  }
  if (opts_.faults != nullptr) {
    score_fault_robustness(app_, platform_, *opts_.faults, *pool_, cands);
  }
  evaluated_ += total_jobs;

  // Serial merge in island/slot/scheduler order: global best + front via the
  // shared accumulator, per-island bests via the canonical order.  The
  // winning island then exploits its own best as next epoch's incumbent.
  for (std::size_t i = 0; i < K; ++i) {
    Island& isl = islands_[i];
    const std::size_t begin = i * gen_per_island * scheds;
    for (std::size_t j = begin; j < begin + gen_per_island * scheds; ++j) {
      const DesignCandidate& c = cands[j];
      acc_.merge(c);
      if (c.eval.feasible &&
          (!isl.has_best || candidate_precedes(c, isl.best))) {
        isl.best = c;
        isl.has_best = true;
      }
    }
    if (isl.has_best) isl.incumbent = isl.best.mapping;
  }

  ++epoch_;
  exec::count("islands.epochs");
  trajectory_.emplace_back(
      evaluated_, acc_.found_feasible
                      ? acc_.best_energy
                      : std::numeric_limits<double>::infinity());

  if (epoch_ % opts_.migration_interval == 0) migrate();
  if (opts_.checkpoint_every > 0 && epoch_ % opts_.checkpoint_every == 0) {
    save_checkpoint(opts_.checkpoint_path);
  }
}

void IslandExplorer::migrate() {
  const std::size_t K = islands_.size();
  if (K < 2) return;
  // Snapshot all emigrants first so the exchange is simultaneous (island i's
  // gift is its best *before* this migration, not after receiving one).
  std::vector<const DesignCandidate*> emigrants(K, nullptr);
  for (std::size_t i = 0; i < K; ++i) {
    if (islands_[i].has_best) emigrants[i] = &islands_[i].best;
  }
  std::size_t accepted = 0;
  std::vector<noc::Mapping> incoming(K);
  std::vector<bool> take(K, false);
  for (std::size_t i = 0; i < K; ++i) {
    const DesignCandidate* em = emigrants[(i + K - 1) % K];
    if (em == nullptr) continue;
    // Migration reseeds the receiver's *refinement*, never its bookkeeping:
    // the emigrant only replaces the incumbent when it canonically precedes
    // the island's own best, so a weaker neighbour can't dilute a leader.
    if (!islands_[i].has_best || candidate_precedes(*em, islands_[i].best)) {
      incoming[i] = em->mapping;
      take[i] = true;
      ++accepted;
    }
  }
  for (std::size_t i = 0; i < K; ++i) {
    if (take[i]) islands_[i].incumbent = std::move(incoming[i]);
  }
  exec::count("islands.migrations_accepted", accepted);
}

ExploreResult IslandExplorer::result() const {
  ExploreResult out;
  out.best = acc_.best;
  out.found_feasible = acc_.found_feasible;
  out.pareto = acc_.front;
  out.evaluated = static_cast<std::size_t>(evaluated_);
  std::sort(out.pareto.begin(), out.pareto.end(),
            [](const DesignCandidate& a, const DesignCandidate& b) {
              return a.eval.total_energy_j < b.eval.total_energy_j;
            });
  return out;
}

std::uint64_t IslandExplorer::result_fingerprint() const {
  const ExploreResult r = result();
  std::uint64_t h = 0x69736c616e646670ULL;  // "islandfp"
  h = fold(h, static_cast<std::uint64_t>(epoch_));
  h = fold(h, evaluated_);
  h = fold(h, static_cast<std::uint64_t>(r.found_feasible));
  if (r.found_feasible) h = fold_candidate(h, r.best);
  h = fold(h, static_cast<std::uint64_t>(r.pareto.size()));
  for (const DesignCandidate& c : r.pareto) h = fold_candidate(h, c);
  for (const auto& [evals, energy] : trajectory_) {
    h = fold(h, evals);
    h = fold(h, energy);
  }
  return h;
}

std::uint64_t IslandExplorer::options_digest() const {
  // Every knob that shapes the search trajectory — and none that may
  // legitimately differ across a resume (threads, checkpoint plumbing, the
  // advisory epoch budget).
  std::uint64_t h = 0x69736c6f707473ULL;  // "islopts"
  h = fold(h, static_cast<std::uint64_t>(opts_.islands));
  h = fold(h, static_cast<std::uint64_t>(opts_.migration_interval));
  h = fold(h, static_cast<std::uint64_t>(opts_.sa_runs_per_epoch));
  h = fold(h, static_cast<std::uint64_t>(opts_.probes_per_epoch));
  h = fold(h, static_cast<std::uint64_t>(opts_.sa.iterations));
  h = fold(h, opts_.sa.initial_temperature);
  h = fold(h, opts_.sa.cooling);
  h = fold(h, opts_.sa.infeasibility_penalty);
  h = fold(h, opts_.sa.w_swap);
  h = fold(h, opts_.sa.w_segment_reversal);
  h = fold(h, opts_.sa.w_cluster_relocate);
  h = fold(h, static_cast<std::uint64_t>(opts_.sa.reheat_after));
  h = fold(h, opts_.sa.reheat_factor);
  return h;
}

std::uint64_t IslandExplorer::fault_fingerprint() const {
  if (opts_.faults == nullptr) return 0;
  const FaultScenario& fs = *opts_.faults;
  std::uint64_t h = 0x69736c666c74ULL;  // "islflt"
  h = fold(h, static_cast<std::uint64_t>(fs.replicas));
  h = fold(h, static_cast<std::uint64_t>(fs.policy));
  h = fold(h, fs.min_availability);
  h = fold(h, static_cast<std::uint64_t>(fs.slo_window));
  h = fold(h, fs.slo_target);
  h = fold(h, fs.min_slo_fraction);
  h = fold(h, fs.ambient.duration_s);
  h = fold(h, fs.ambient.tile_mtbf_s);
  h = fold(h, fs.ambient.tile_mttr_s);
  h = fold(h, fs.ambient.activity_low);
  h = fold(h, fs.ambient.activity_high);
  h = fold(h, fs.ambient.activity_switch_prob);
  h = fold(h, fs.ambient.seed);
  h = fold(h, fs.schedule != nullptr ? fs.schedule->fingerprint() : 0);
  return h;
}

std::vector<std::uint8_t> IslandExplorer::checkpoint() const {
  WordWriter w;
  w.u64(kMagic);
  w.u64(kVersion);  // low 32 bits version, high 32 reserved flags (0)
  w.u64(app_fp_);
  w.u64(platform_fp_);
  w.u64(options_digest());
  w.u64(fault_fingerprint());
  w.u64(stream_base_);
  w.u64(static_cast<std::uint64_t>(epoch_));
  w.u64(evaluated_);
  // Cache generation: informational — how much memoized state the resumed
  // process will be rebuilding (its own cache starts empty).
  w.u64(cache_->inserts());
  w.u64(static_cast<std::uint64_t>(islands_.size()));
  for (const Island& isl : islands_) {
    w.mapping(isl.incumbent);
    w.u64(static_cast<std::uint64_t>(isl.has_best));
    if (isl.has_best) w.candidate(isl.best);
  }
  w.u64(static_cast<std::uint64_t>(acc_.found_feasible));
  if (acc_.found_feasible) w.candidate(acc_.best);
  // The front is serialized in *internal* (insertion) order, not energy
  // order: future merges compare against it in that order, so restoring it
  // verbatim keeps the continued run bitwise identical.
  w.u64(static_cast<std::uint64_t>(acc_.front.size()));
  for (const DesignCandidate& c : acc_.front) w.candidate(c);
  w.u64(static_cast<std::uint64_t>(trajectory_.size()));
  for (const auto& [evals, energy] : trajectory_) {
    w.u64(evals);
    w.f64(energy);
  }
  std::uint64_t digest = kDigestSeed;
  for (const std::uint64_t word : w.words) digest = fold(digest, word);
  w.u64(digest);
  return words_to_bytes(w.words);
}

void IslandExplorer::save_checkpoint(const std::string& path) const {
  const std::vector<std::uint8_t> blob = checkpoint();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw holms::RuntimeError("island checkpoint: cannot open '" + path +
                              "' for writing");
  }
  out.write(reinterpret_cast<const char*>(blob.data()),
            static_cast<std::streamsize>(blob.size()));
  if (!out) {
    throw holms::RuntimeError("island checkpoint: short write to '" + path +
                              "'");
  }
}

IslandExplorer IslandExplorer::resume(const Application& app,
                                      const Platform& platform,
                                      IslandOptions opts,
                                      const std::vector<std::uint8_t>& blob) {
  const std::vector<std::uint64_t> words = bytes_to_words(blob);
  if (words.size() < 12) {
    throw holms::RuntimeError("island checkpoint: blob too small");
  }
  // Whole-blob integrity first: the trailing word is a fold chain over every
  // word before it, so any single flipped byte anywhere is caught here.
  std::uint64_t digest = kDigestSeed;
  for (std::size_t i = 0; i + 1 < words.size(); ++i) {
    digest = fold(digest, words[i]);
  }
  if (digest != words.back()) {
    throw holms::RuntimeError(
        "island checkpoint: digest mismatch — blob is corrupt");
  }

  WordReader r(words);
  if (r.u64() != kMagic) {
    throw holms::RuntimeError("island checkpoint: bad magic");
  }
  if (r.u64() != kVersion) {
    throw holms::RuntimeError("island checkpoint: unsupported version");
  }
  const std::uint64_t app_fp = r.u64();
  const std::uint64_t platform_fp = r.u64();
  const std::uint64_t opts_digest = r.u64();
  const std::uint64_t fault_fp = r.u64();
  const std::uint64_t stream_base = r.u64();

  IslandExplorer ex(app, platform, std::move(opts), stream_base,
                    /*resumed=*/true);
  if (app_fp != ex.app_fp_) {
    throw holms::RuntimeError(
        "island checkpoint: application fingerprint mismatch");
  }
  if (platform_fp != ex.platform_fp_) {
    throw holms::RuntimeError(
        "island checkpoint: platform fingerprint mismatch");
  }
  if (opts_digest != ex.options_digest()) {
    throw holms::RuntimeError(
        "island checkpoint: options digest mismatch — search knobs differ "
        "from the checkpointing run");
  }
  if (fault_fp != ex.fault_fingerprint()) {
    throw holms::RuntimeError(
        "island checkpoint: fault-scenario fingerprint mismatch");
  }

  ex.epoch_ = static_cast<std::size_t>(r.u64());
  ex.evaluated_ = r.u64();
  r.u64();  // cache generation: informational only
  const std::size_t num_islands = r.count();
  if (num_islands != ex.opts_.islands) {
    throw holms::RuntimeError(
        "island checkpoint: island count mismatch");
  }

  const std::size_t nodes = app.graph.num_nodes();
  const std::size_t tiles = platform.mesh.num_tiles();
  // Re-price a stored candidate: the evaluator is deterministic, so the
  // Evaluation comes back bitwise identical to the one the checkpointing
  // process held; the stored fault scores then re-apply the same floors.
  const auto reprice = [&](DesignCandidate& c) {
    c.eval = ex.cache_->evaluate(app, ex.app_fp_, platform, ex.platform_fp_,
                                 c.mapping, c.use_dvs);
    if (ex.opts_.faults != nullptr) {
      const FaultScenario& fs = *ex.opts_.faults;
      if (c.availability < fs.min_availability) c.eval.feasible = false;
      if (fs.slo_window > 0 && c.slo_fraction < fs.min_slo_fraction) {
        c.eval.feasible = false;
      }
    }
  };

  ex.islands_.resize(num_islands);
  for (Island& isl : ex.islands_) {
    isl.incumbent = r.mapping(nodes, tiles);
    isl.has_best = r.u64() != 0;
    if (isl.has_best) {
      isl.best = r.candidate(nodes, tiles);
      reprice(isl.best);
    }
  }
  ex.acc_.found_feasible = r.u64() != 0;
  if (ex.acc_.found_feasible) {
    ex.acc_.best = r.candidate(nodes, tiles);
    reprice(ex.acc_.best);
    ex.acc_.best_energy = ex.acc_.best.eval.total_energy_j;
  }
  ex.acc_.front.resize(r.count());
  for (DesignCandidate& c : ex.acc_.front) {
    c = r.candidate(nodes, tiles);
    reprice(c);
  }
  ex.trajectory_.resize(r.count());
  for (auto& [evals, energy] : ex.trajectory_) {
    evals = r.u64();
    energy = r.f64();
  }
  exec::count("islands.resumes");
  return ex;
}

IslandExplorer IslandExplorer::resume_from_file(const Application& app,
                                                const Platform& platform,
                                                IslandOptions opts,
                                                const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw holms::RuntimeError("island checkpoint: cannot open '" + path +
                              "' for reading");
  }
  std::vector<std::uint8_t> blob{std::istreambuf_iterator<char>(in),
                                 std::istreambuf_iterator<char>()};
  return resume(app, platform, std::move(opts), blob);
}

ExploreResult explore_islands(const Application& app, const Platform& platform,
                              sim::Rng& rng, const IslandOptions& opts) {
  IslandExplorer ex(app, platform, rng, opts);
  while (ex.step()) {
  }
  return ex.result();
}

}  // namespace holms::core
