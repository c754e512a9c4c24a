// E2 — §2.2: analytical steady-state evaluation matches simulation on the
// producer-consumer stream model at a fraction of the runtime.
//
// "the advantage of having available analytical tools that can quickly
//  derive power/performance estimates becomes evident."
#include <chrono>
#include <cstdio>
#include <functional>

#include "bench_util.hpp"
#include "markov/queueing.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"

using Clock = std::chrono::steady_clock;

namespace {

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

struct SimResult {
  double mean_occupancy = 0.0;
  double throughput = 0.0;
  double ms = 0.0;
};

// DES reference for the producer-consumer chain.
SimResult simulate(double prod, double cons, std::size_t cap,
                   double horizon, std::uint64_t seed) {
  holms::sim::Simulator sim;
  holms::sim::Rng rng(seed);
  std::size_t occupancy = 0;
  holms::sim::TimeWeightedStats occ;
  std::uint64_t consumed = 0;
  bool busy = false;
  std::function<void()> arrive;
  std::function<void()> consume = [&] {
    if (busy || occupancy == 0) return;
    busy = true;
    sim.schedule_in(rng.exponential(cons), [&] {
      --occupancy;
      occ.update(sim.now(), static_cast<double>(occupancy));
      ++consumed;
      busy = false;
      consume();
    });
  };
  arrive = [&] {
    if (occupancy < cap) {
      ++occupancy;
      occ.update(sim.now(), static_cast<double>(occupancy));
      consume();
    }
    sim.schedule_in(rng.exponential(prod), arrive);
  };
  const auto t0 = Clock::now();
  sim.schedule_in(rng.exponential(prod), arrive);
  sim.run(horizon);
  occ.finish(sim.now());
  SimResult r;
  r.mean_occupancy = occ.mean();
  r.throughput = static_cast<double>(consumed) / sim.now();
  r.ms = ms_since(t0);
  return r;
}

}  // namespace

int main() {
  holms::bench::BenchReport report("sec22_analysis");
  holms::bench::title("E2", "Analytical vs simulated steady state (Fig.1 "
                            "producer-consumer)");
  std::printf("%-22s %10s %10s %10s %10s %9s %9s %8s\n", "case (p/c/cap)",
              "occ(sim)", "occ(ana)", "thr(sim)", "thr(ana)", "sim-ms",
              "ana-ms", "speedup");
  struct Case {
    double prod, cons;
    std::size_t cap;
  };
  const Case cases[] = {
      {40.0, 50.0, 4},  {40.0, 50.0, 16}, {50.0, 50.0, 8},
      {80.0, 50.0, 8},  {20.0, 60.0, 4},  {120.0, 100.0, 32},
  };
  for (const auto& c : cases) {
    const SimResult s = simulate(c.prod, c.cons, c.cap, 3000.0, 7);
    const auto t0 = Clock::now();
    holms::markov::ProducerConsumerModel m;
    m.producer_rate = c.prod;
    m.consumer_rate = c.cons;
    m.buffer_capacity = c.cap;
    holms::markov::SolveOptions opts;
    opts.method = holms::markov::SteadyStateMethod::kDirect;
    const auto a = m.analyze(opts);
    const double ana_ms = ms_since(t0);
    char label[64];
    std::snprintf(label, sizeof label, "%.0f/%.0f/%zu", c.prod, c.cons,
                  c.cap);
    std::printf("%-22s %10.3f %10.3f %10.2f %10.2f %9.2f %9.4f %8.0fx\n",
                label, s.mean_occupancy, a.mean_occupancy, s.throughput,
                a.throughput, s.ms, ana_ms,
                ana_ms > 0.0 ? s.ms / ana_ms : 0.0);
  }

  holms::bench::rule();
  holms::bench::note("solver ablation on a 101-state birth-death chain:");
  std::printf("%-18s %12s %12s\n", "method", "iterations", "ms");
  holms::markov::ProducerConsumerModel big;
  big.producer_rate = 95.0;
  big.consumer_rate = 100.0;
  big.buffer_capacity = 100;
  const auto chain = big.to_ctmc();
  using SM = holms::markov::SteadyStateMethod;
  const struct {
    const char* name;
    SM m;
  } methods[] = {{"power-iteration", SM::kPowerIteration},
                 {"gauss-seidel", SM::kGaussSeidel},
                 {"direct-GTH", SM::kDirect}};
  for (const auto& meth : methods) {
    holms::markov::SolveOptions o;
    o.method = meth.m;
    const auto t0 = Clock::now();
    const auto r = chain.steady_state(o);
    std::printf("%-18s %12zu %12.3f\n", meth.name, r.iterations,
                ms_since(t0));
  }
  holms::bench::note(
      "expected shape: occupancy/throughput agree within a few percent; the "
      "analytical solve is orders of magnitude faster than the simulation.");
  return 0;
}
