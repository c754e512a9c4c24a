#pragma once
// The unified evaluator of the holistic methodology (paper §2):
//
// "Simply speaking, designing a multimedia system consists of mapping the
//  target application, onto a given implementation architecture, while
//  satisfying a prescribed set of design constraints (e.g. power,
//  performance, cost, etc.)."
//
// Given an Application (task graph + period + QoS requirements) and a
// Platform, an Evaluation prices one candidate mapping: schedule (EDF or
// energy-aware DVS), communication energy over the NoC, and QoS verdicts.
//
// HOLMS_LINT_ALLOW_FILE(D005): the EvalCache shards below are guarded by
// short-critical-section mutexes shared by explorer worker threads; this is
// memoization plumbing on the exploration path, never on the serve/session
// path, and converting it to the FOM discipline would buy nothing.

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/platform.hpp"
#include "noc/mapping.hpp"
#include "noc/scheduling.hpp"
#include "noc/taskgraph.hpp"

namespace holms::core {

/// QoS requirements the design must satisfy (paper §2: latency, jitter,
/// loss; here the schedulable subset — end-to-end deadline and power cap).
struct QosRequirement {
  double period_s = 0.04;        // application iteration period == deadline
  double max_power_w = 0.0;      // 0 = unconstrained average power
  double max_cost = 0.0;         // 0 = unconstrained platform cost (§1)
};

/// A multimedia application: communicating tasks plus its QoS contract.
struct Application {
  noc::AppGraph graph;
  QosRequirement qos{};
  std::string name = "app";
};

struct Evaluation {
  noc::MappingEval comm;
  noc::ScheduleResult schedule;
  double total_energy_j = 0.0;   // per period
  double average_power_w = 0.0;
  double platform_cost = 0.0;    // sum of unit costs of the tiles in use
  bool deadline_met = false;
  bool power_met = false;
  bool cost_met = false;
  bool feasible = false;         // all constraints and bandwidth
};

/// Builds the scheduling problem a mapping induces on a platform
/// (tile speedups shrink task cycles; memory tiles execute nothing).
noc::SchedProblem make_sched_problem(const Application& app,
                                     const Platform& platform,
                                     const noc::Mapping& mapping);

/// Prices one mapping.  `use_dvs` selects the energy-aware scheduler.
///
/// Thread-safety: pure function of its arguments — it reads the app,
/// platform and mapping through const references, touches no global or
/// static state, and allocates all working state locally (the same holds
/// transitively for noc::evaluate_mapping and both schedulers).  Concurrent
/// calls on shared inputs are safe, which is what lets the explorer price
/// candidates on a holms::exec::ThreadPool.
Evaluation evaluate_design(const Application& app, const Platform& platform,
                           const noc::Mapping& mapping, bool use_dvs);

/// Order-independent 64-bit fingerprints used as evaluation-cache keys.
/// Two platforms (or applications) with equal fingerprints are treated as
/// interchangeable by the cache; the fingerprint folds every field that
/// evaluate_design reads, so differing inputs collide only with ~2^-64
/// probability (mappings, by contrast, are compared exactly).
std::uint64_t platform_fingerprint(const Platform& platform);
std::uint64_t app_fingerprint(const Application& app);

/// Sharded memoization cache for evaluate_design: SA restarts and the
/// synthesis loop revisit identical (mapping, scheduler, platform) triples
/// — most prominently the greedy seed mapping, re-priced once per upgrade
/// trial — and re-pricing means re-running the list scheduler.  Keys are
/// (app fingerprint, platform fingerprint, scheduler flag, exact mapping);
/// the mapping is compared element-wise, so a cache hit returns a value
/// bitwise-identical to a fresh evaluation.  kShards shards, each with its
/// own mutex so concurrent explorer threads rarely contend.
class EvalCache {
 public:
  /// Returns the cached evaluation or computes, stores and returns it.
  Evaluation evaluate(const Application& app, std::uint64_t app_fp,
                      const Platform& platform, std::uint64_t platform_fp,
                      const noc::Mapping& mapping, bool use_dvs);

  std::uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  std::uint64_t misses() const {
    return misses_.load(std::memory_order_relaxed);
  }
  /// Entries actually added (misses minus same-key compute races).  Also the
  /// cache "generation" the island checkpoints record: it only grows, so a
  /// resumed process can tell how much memoized state it is rebuilding.
  std::uint64_t inserts() const {
    return inserts_.load(std::memory_order_relaxed);
  }
  std::size_t size() const;

 private:
  struct Key {
    std::uint64_t app_fp = 0;
    std::uint64_t platform_fp = 0;
    bool use_dvs = false;
    noc::Mapping mapping;
    bool operator==(const Key& o) const {
      return app_fp == o.app_fp && platform_fp == o.platform_fp &&
             use_dvs == o.use_dvs && mapping == o.mapping;
    }
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const;
  };
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<Key, Evaluation, KeyHash> map;
  };
  static constexpr std::size_t kShards = 16;

  Shard& shard_for(std::size_t key_hash) {
    return shards_[key_hash % kShards];
  }

  std::array<Shard, kShards> shards_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> inserts_{0};
};

/// Several applications time-sharing one platform (§1: resources "shared
/// across multiple multimedia applications").  Partitioned-scheduling
/// admission: each application is scheduled in isolation at its own period,
/// then per-tile utilizations are summed across applications; the shared
/// design is schedulable when every tile stays below the utilization bound
/// and every per-app deadline held in isolation.
struct MultiAppEvaluation {
  std::vector<Evaluation> per_app;
  std::vector<double> tile_utilization;  // summed across applications
  double max_tile_utilization = 0.0;
  double total_power_w = 0.0;            // sum of per-app average powers
  bool schedulable = false;
  bool feasible = false;                 // schedulable + all per-app QoS
};

/// Thread-safety: pure function of its arguments, like evaluate_design —
/// safe to call concurrently on shared inputs.
MultiAppEvaluation evaluate_multi_design(
    const std::vector<Application>& apps, const Platform& platform,
    const std::vector<noc::Mapping>& mappings, bool use_dvs,
    double utilization_bound = 1.0);

}  // namespace holms::core
