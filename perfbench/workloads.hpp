#pragma once
// The benchmark's workloads: fixed, seeded batches of work over the public
// HolMS APIs (see perfbench/NOTES.md for what each one stresses and why).
//
// A workload is driven in iterations.  Each iteration runs setup() (build
// the inputs of one pass from the seed; timed as set-up) and then pass()
// (the timed phase).  Both are deterministic functions of the seed, so every
// pass of a run — and every run with the same seed — must produce identical
// simulated outputs and fingerprints.

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct PassOutput {
  /// Simulated outputs and per-layer counts of the pass, by metric name.
  std::map<std::string, double> values;
  /// Named correctness checks of the pass (true = passed).
  std::vector<std::pair<std::string, bool>> checks;
  /// Digests that must repeat exactly for a given seed.
  std::map<std::string, std::uint64_t> fingerprints;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the next pass's inputs; may record per-layer set-up values.
  virtual void setup(PassOutput& out) = 0;
  /// Runs one pass over the inputs of the preceding setup().
  virtual void pass(PassOutput& out) = 0;
};

/// `threads` caps every pool the workload asks the library for; unknown
/// names return nullptr.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        std::size_t threads);

}  // namespace perfbench
