#pragma once
// Dynamic voltage and frequency scaling (paper §4, ref [24]).
//
// "The computation energy is usually a strong function of the CPU clock
//  frequency of the multimedia system, which may be varied by using methods
//  such as dynamic voltage and frequency scaling."
//
// Power model: P(f, V) = Ceff * V^2 * f + P_leak(V).  The default operating
// points mimic an XScale-class embedded CPU (the testbed of [28]) — the
// substitution documented in DESIGN.md §2.

#include <cstddef>
#include <span>
#include <vector>

namespace holms::dvfs {

/// One voltage/frequency pair the processor can run at.
struct OperatingPoint {
  double frequency_hz = 0.0;
  double voltage = 0.0;
};

/// Switched-capacitance power model shared by all DVFS users.
struct PowerModel {
  double ceff_farad = 1.2e-9;       // effective switched capacitance
  double leak_per_volt = 5e-3;      // P_leak = leak_per_volt * V (watts)

  double dynamic_power(const OperatingPoint& op) const {
    return ceff_farad * op.voltage * op.voltage * op.frequency_hz;
  }
  double total_power(const OperatingPoint& op) const {
    return dynamic_power(op) + leak_per_volt * op.voltage;
  }
  /// Energy to execute `cycles` at the given point (active energy only).
  double energy_for_cycles(double cycles, const OperatingPoint& op) const {
    return total_power(op) * cycles / op.frequency_hz;
  }
};

/// XScale-like operating points: 150..1000 MHz, 0.75..1.5 V.
std::vector<OperatingPoint> xscale_points();

/// A DVFS-capable processor: a sorted ladder of operating points plus a
/// power model, with energy/time accounting helpers.
class Processor {
 public:
  Processor(std::vector<OperatingPoint> points, PowerModel model);

  std::size_t num_points() const { return points_.size(); }
  const OperatingPoint& point(std::size_t i) const { return points_.at(i); }
  const OperatingPoint& current() const { return points_[level_]; }
  std::size_t level() const { return level_; }
  void set_level(std::size_t level);
  const PowerModel& model() const { return model_; }

  double energy_for_cycles(double cycles) const {
    return model_.energy_for_cycles(cycles, current());
  }

  /// Lowest-power level that still finishes `cycles` within `deadline`
  /// seconds; returns num_points() if even the fastest level misses.
  std::size_t min_level_for(double cycles, double deadline) const;

  /// Energy saved by running `cycles` with deadline `deadline` at the minimal
  /// feasible level instead of flat-out (the canonical DVS win).
  double slack_energy_saving(double cycles, double deadline) const;

 private:
  std::vector<OperatingPoint> points_;  // ascending frequency
  PowerModel model_;
  std::size_t level_ = 0;
};

/// Feedback governor driving utilization toward a target (the client-side
/// mechanism of energy-aware FGS streaming, §4.1): each control period it
/// observes the achieved utilization (busy / period) and steps the ladder.
class LoadTrackingGovernor {
 public:
  LoadTrackingGovernor(Processor& cpu, double target_utilization = 0.9,
                       double deadband = 0.08);

  /// Reports one control period's utilization; adjusts the level and returns
  /// the (possibly new) level.
  std::size_t observe(double utilization);

  double target() const { return target_; }

 private:
  Processor& cpu_;
  double target_;
  double deadband_;
};

}  // namespace holms::dvfs
