// holms_perfbench: runs one benchmark workload for a fixed time and writes a
// JSON result file.  perfbench/run.py builds this program, runs it and turns
// the file into the benchmark's metrics.
//
//   holms_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   --out <result.json> [--spans <spans.jsonl>]
//
// Iteration 0 is a warm-up.  Then iterations repeat until --seconds have
// passed (and at least kMinTimed have run).  With --trace 1 the timed
// iterations alternate untraced / traced, so the tracing overhead is
// measured inside one process.  Every iteration's checks count toward
// attempted / failed.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "exec/metrics.hpp"
#include "exec/simd.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using perfbench::PassOutput;
using perfbench::Span;
using perfbench::Tracer;

constexpr std::size_t kMinTimed = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string out;
  std::string spans;
};

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--out") {
      a.out = v;
    } else if (k == "--spans") {
      a.spans = v;
    } else {
      return false;
    }
  }
  return !a.workload.empty() && !a.out.empty() && a.seconds > 0.0;
}

double since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Peak resident memory of this process image in MB (VmHWM).  Unlike the
/// rusage high-water mark it does not carry over the launcher's footprint
/// from before exec.
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) throw std::runtime_error("cannot read /proc/self/status");
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtod(line + 6, nullptr);
    }
  }
  std::fclose(f);
  if (!(kb > 0.0)) throw std::runtime_error("no VmHWM in /proc/self/status");
  return kb / 1024.0;
}

double mean(const std::vector<double>& xs) {
  double s = 0.0;
  for (const double x : xs) s += x;
  return xs.empty() ? 0.0 : s / static_cast<double>(xs.size());
}

struct CheckTally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// Counter value per traced iteration.
double per_pass(holms::exec::MetricsRegistry& reg, const char* name,
                std::size_t traced) {
  return traced == 0 ? 0.0
                     : static_cast<double>(reg.counter(name).value()) /
                           static_cast<double>(traced);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// The per-layer metrics of a traced run (names as in BENCHMARK.json).
std::map<std::string, double> per_layer_metrics(
    const perfbench::LayerBreakdown& b, const perfbench::LayerBreakdown& setup,
    const std::map<std::string, double>& values,
    holms::exec::MetricsRegistry& reg, std::size_t traced,
    double untraced_wall_s) {
  const auto total = [](const perfbench::LayerBreakdown& x, const char* n) {
    const auto it = x.total_s.find(n);
    return it == x.total_s.end() ? 0.0 : it->second;
  };
  const auto value = [&](const char* n) {
    const auto it = values.find(n);
    return it == values.end() ? 0.0 : it->second;
  };
  const auto count = [&](const char* n) { return per_pass(reg, n, traced); };

  std::map<std::string, double> m;
  m["markov.build_s"] = total(b, "markov.Ctmc.set_rate");
  m["markov.steady_s"] = total(b, "markov.Ctmc.steady_state");
  m["markov.steady_iterations"] = value("markov.steady_iterations");
  m["markov.transient_s"] = total(b, "markov.Ctmc.transient");
  m["markov.states"] = value("markov.states");
  m["markov.unconverged"] = value("markov.unconverged");

  const double explore_s = total(b, "core.IslandExplorer") +
                           total(b, "core.IslandExplorer.step") +
                           total(b, "core.IslandExplorer.result");
  m["core.explore_s"] = explore_s;
  m["core.candidates"] = value("core.candidates");
  m["core.candidates_per_s"] = ratio(value("core.candidates"), explore_s);
  const double hits = count("explore.cache_hits");
  m["core.cache_hit_rate"] = ratio(hits, hits + count("explore.cache_misses"));
  // Replays skipped by the (schedule, mapping, dvs) dedupe over replays
  // needed; explore.fault_replicas counts only the replays actually run.
  const double reused = count("explore.fault_replays_reused");
  m["core.fault_replays_reused_ratio"] =
      ratio(reused, reused + count("explore.fault_replicas"));
  m["core.migrations_accepted"] = count("islands.migrations_accepted");
  const double accepted = count("sa.moves_accepted");
  m["noc.sa_accept_ratio"] =
      ratio(accepted, accepted + count("sa.moves_rejected"));

  const double sim_s = total(b, "noc.NocSim.run");
  m["noc.sim_s"] = sim_s;
  m["noc.us_per_cycle"] = ratio(sim_s * 1e6, value("noc.cycles"));
  m["noc.flit_hops_per_s"] = ratio(value("noc.flit_hops"), sim_s);
  m["noc.faults_applied"] = value("noc.faults_applied");
  m["noc.ft_bfs_on_demand"] = count("noc.ft_bfs_on_demand");
  m["noc.reroute_hops"] = value("noc.reroute_hops");
  m["noc.packets_dropped"] = value("noc.packets_dropped");

  m["noc.route_table_s"] = total(setup, "noc.XyRouteTable");
  m["fault.schedule_s"] = total(setup, "fault.FaultSchedule.bursts");
  m["fault.events"] = value("fault.events");
  m["fault.crew_queue_max_depth"] = value("fault.crew_queue_max_depth");
  m["serve.admit_s"] = total(setup, "serve.ServiceManager.admit");

  const double run_s = total(b, "serve.ServiceManager.run");
  m["serve.run_s"] = run_s;
  m["serve.fom_steps"] = value("serve.fom_steps");
  m["serve.fom_steps_per_s"] = ratio(value("serve.fom_steps"), run_s);
  m["serve.sessions_degraded"] = value("serve.sessions_degraded");
  m["serve.faults_in_window"] = value("serve.faults_in_window");
  m["sim.events_executed"] = count("sim.events_executed");
  m["sim.queue_high_water"] =
      reg.histogram("sim.queue_high_water").count() > 0
          ? reg.histogram("sim.queue_high_water").max()
          : 0.0;
  m["streaming.slots"] = value("streaming.slots");
  m["stream.mpeg2_frames_out"] = value("stream.mpeg2_frames_out");
  m["sim.des_s"] = total(b, "sim.Simulator.run");

  // Self time of every layer the benchmark calls into, plus "other" (the
  // benchmark's own code between calls); they add up to trace.wall_s.
  for (const char* layer :
       {"markov", "core", "noc", "fault", "serve", "sim", "other"}) {
    const auto it = b.self_s.find(layer);
    const double self = it == b.self_s.end() ? 0.0 : it->second;
    m[std::string(layer) + ".self_s"] = self;
    m[std::string(layer) + ".share"] = ratio(self, b.wall_s);
  }
  m["trace.wall_s"] = b.wall_s;
  m["trace.untraced_wall_s"] = untraced_wall_s;
  m["trace.overhead_s"] = b.wall_s - untraced_wall_s;

  for (const char* out :
       {"design_energy_j", "design_slo_fraction", "noc_delivery_ratio",
        "noc_p99_latency_cycles", "slot_psnr_p1_db", "session_energy_j",
        "mpeg2_frame_latency_s"}) {
    m[out] = value(out);
  }
  return m;
}

void write_number_list(std::FILE* f, const char* key,
                       const std::vector<double>& xs) {
  std::fprintf(f, "  \"%s\": [", key);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    std::fprintf(f, "%s%.9g", i ? ", " : "", xs[i]);
  }
  std::fprintf(f, "],\n");
}

void write_number_map(std::FILE* f, const char* key,
                      const std::map<std::string, double>& m, bool last) {
  std::fprintf(f, "  \"%s\": {", key);
  bool first = true;
  for (const auto& [k, v] : m) {
    std::fprintf(f, "%s\n    \"%s\": %.17g", first ? "" : ",", k.c_str(), v);
    first = false;
  }
  std::fprintf(f, "\n  }%s\n", last ? "" : ",");
}

int run(const Args& args) {
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  const std::size_t threads = std::min<std::size_t>(hw, 4);
  auto wl = perfbench::make_workload(args.workload, args.seed, threads);
  if (!wl) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  Tracer& tracer = Tracer::instance();
  holms::exec::MetricsRegistry registry;
  std::vector<double> setup_s, pass_s, traced_pass_s;
  std::vector<std::uint32_t> traced_iterations;
  std::map<std::string, CheckTally> checks;
  std::map<std::string, double> values0;
  std::map<std::string, std::uint64_t> fingerprints0;

  std::chrono::steady_clock::time_point timed_start;
  for (std::uint32_t it = 0;; ++it) {
    if (it == 1) timed_start = std::chrono::steady_clock::now();
    if (it > 0 && since(timed_start) >= args.seconds &&
        pass_s.size() >= kMinTimed &&
        (!args.trace || traced_iterations.size() >= kMinTimed)) {
      break;
    }
    const bool traced = args.trace && it > 0 && it % 2 == 0;
    tracer.set_enabled(traced);
    tracer.set_pass(it);
    std::unique_ptr<holms::exec::ScopedMetricsSink> sink;
    if (traced) {
      sink = std::make_unique<holms::exec::ScopedMetricsSink>(registry);
    }

    PassOutput out;
    auto t0 = std::chrono::steady_clock::now();
    {
      Span span("bench.setup");
      wl->setup(out);
    }
    const double setup = since(t0);
    t0 = std::chrono::steady_clock::now();
    {
      Span span("bench.pass");
      wl->pass(out);
    }
    const double wall = since(t0);
    sink.reset();
    tracer.set_enabled(false);

    if (it > 0) {
      setup_s.push_back(setup);
      if (traced) {
        traced_pass_s.push_back(wall);
        traced_iterations.push_back(it);
      } else {
        pass_s.push_back(wall);
      }
    }

    // Every pass of a seed must reproduce the warm-up's outputs bitwise.
    if (it == 0) {
      values0 = out.values;
      fingerprints0 = out.fingerprints;
    }
    out.checks.emplace_back("outputs_repeat", out.values == values0);
    for (const auto& [name, fp] : out.fingerprints) {
      out.checks.emplace_back("fingerprint_repeats." + name,
                              fingerprints0.count(name) != 0 &&
                                  fingerprints0.at(name) == fp);
    }
    for (const auto& [name, ok] : out.checks) {
      CheckTally& c = checks[name];
      ++c.attempted;
      if (!ok) {
        ++c.failed;
        std::fprintf(stderr, "check failed: %s (iteration %u)\n",
                     name.c_str(), it);
      }
    }
  }

  if (!args.spans.empty() && args.trace &&
      !tracer.write_jsonl(args.spans)) {
    std::fprintf(stderr, "cannot write %s\n", args.spans.c_str());
    return 1;
  }

  std::FILE* f = std::fopen(args.out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", args.out.c_str());
    return 1;
  }
  std::uint64_t attempted = 0, failed = 0;
  for (const auto& [name, c] : checks) {
    attempted += c.attempted;
    failed += c.failed;
  }
#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
  std::fprintf(f, "{\n  \"workload\": \"%s\",\n  \"seed\": %llu,\n",
               args.workload.c_str(),
               static_cast<unsigned long long>(args.seed));
  std::fprintf(f,
               "  \"host\": {\"hardware_threads\": %zu, \"threads\": %zu, "
               "\"simd_isa\": \"%s\", \"compiler\": \"%s\", "
               "\"build_type\": \"%s\", \"ndebug\": %s},\n",
               hw, threads, holms::exec::simd::kernels().name, __VERSION__,
               HOLMS_PERFBENCH_BUILD_TYPE, ndebug ? "true" : "false");
  write_number_list(f, "setup_s", setup_s);
  write_number_list(f, "pass_s", pass_s);
  write_number_list(f, "traced_pass_s", traced_pass_s);
  std::fprintf(f, "  \"peak_rss_mb\": %.6f,\n", peak_rss_mb());
  std::fprintf(f, "  \"attempted\": %llu,\n  \"failed\": %llu,\n",
               static_cast<unsigned long long>(attempted),
               static_cast<unsigned long long>(failed));
  std::fprintf(f, "  \"checks\": {");
  bool first = true;
  for (const auto& [name, c] : checks) {
    std::fprintf(f, "%s\n    \"%s\": {\"attempted\": %llu, \"failed\": %llu}",
                 first ? "" : ",", name.c_str(),
                 static_cast<unsigned long long>(c.attempted),
                 static_cast<unsigned long long>(c.failed));
    first = false;
  }
  std::fprintf(f, "\n  },\n  \"fingerprints\": {");
  first = true;
  for (const auto& [name, fp] : fingerprints0) {
    std::fprintf(f, "%s\n    \"%s\": \"%016llx\"", first ? "" : ",",
                 name.c_str(), static_cast<unsigned long long>(fp));
    first = false;
  }
  std::fprintf(f, "\n  },\n");
  std::map<std::string, double> layers;
  if (args.trace) {
    const auto b = perfbench::breakdown(tracer.spans(), traced_iterations,
                                        "bench.pass");
    const auto s = perfbench::breakdown(tracer.spans(), traced_iterations,
                                        "bench.setup");
    layers = per_layer_metrics(b, s, values0, registry,
                               traced_iterations.size(), mean(pass_s));
  }
  write_number_map(f, "values", values0, false);
  write_number_map(f, "per_layer", layers, true);
  std::fprintf(f, "}\n");
  if (std::fclose(f) != 0) return 1;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: holms_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> --out <file> [--spans <file>]\n");
    return 2;
  }
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "holms_perfbench: %s\n", e.what());
    return 1;
  }
}
