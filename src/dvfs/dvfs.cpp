#include "dvfs/dvfs.hpp"

#include <algorithm>
#include <stdexcept>

#include "exec/error.hpp"

namespace holms::dvfs {

std::vector<OperatingPoint> xscale_points() {
  return {
      {150e6, 0.75}, {250e6, 0.85}, {400e6, 1.0},
      {600e6, 1.15}, {800e6, 1.3},  {1000e6, 1.5},
  };
}

Processor::Processor(std::vector<OperatingPoint> points, PowerModel model)
    : points_(std::move(points)), model_(model) {
  if (points_.empty()) {
    throw holms::InvalidArgument("Processor: need >= 1 operating point");
  }
  // Ladders usually arrive ascending (serve builds one per session from
  // xscale_points()); only an unordered one pays for the sort.
  const auto below = [](const OperatingPoint& a, const OperatingPoint& b) {
    return a.frequency_hz < b.frequency_hz;
  };
  if (std::adjacent_find(points_.begin(), points_.end(),
                         [&](const OperatingPoint& a, const OperatingPoint& b) {
                           return !below(a, b);
                         }) != points_.end()) {
    std::sort(points_.begin(), points_.end(), below);
  }
  for (const auto& p : points_) {
    if (!(p.frequency_hz > 0.0) || !(p.voltage > 0.0)) {
      throw holms::InvalidArgument("Processor: invalid operating point");
    }
  }
  level_ = points_.size() - 1;  // boot at full speed
}

void Processor::set_level(std::size_t level) {
  if (level >= points_.size()) {
    throw holms::OutOfRange("Processor::set_level");
  }
  level_ = level;
}

std::size_t Processor::min_level_for(double cycles, double deadline) const {
  if (!(deadline > 0.0)) return points_.size();
  for (std::size_t i = 0; i < points_.size(); ++i) {
    if (cycles / points_[i].frequency_hz <= deadline) return i;
  }
  return points_.size();
}

double Processor::slack_energy_saving(double cycles, double deadline) const {
  const std::size_t lvl = min_level_for(cycles, deadline);
  const double e_max =
      model_.energy_for_cycles(cycles, points_.back());
  if (lvl >= points_.size()) return 0.0;  // infeasible: no saving possible
  const double e_min = model_.energy_for_cycles(cycles, points_[lvl]);
  return e_max - e_min;
}

LoadTrackingGovernor::LoadTrackingGovernor(Processor& cpu,
                                           double target_utilization,
                                           double deadband)
    : cpu_(cpu), target_(target_utilization), deadband_(deadband) {
  if (!(target_utilization > 0.0 && target_utilization <= 1.0)) {
    throw holms::InvalidArgument("LoadTrackingGovernor: bad target");
  }
}

std::size_t LoadTrackingGovernor::observe(double utilization) {
  const std::size_t lvl = cpu_.level();
  if (utilization > target_ + deadband_ && lvl + 1 < cpu_.num_points()) {
    cpu_.set_level(lvl + 1);
  } else if (utilization < target_ - deadband_ && lvl > 0) {
    // Only step down if the lower level could still carry the observed load:
    // load scales with f_current / f_lower.
    const double scaled = utilization * cpu_.point(lvl).frequency_hz /
                          cpu_.point(lvl - 1).frequency_hz;
    if (scaled <= 1.0) cpu_.set_level(lvl - 1);
  }
  return cpu_.level();
}

}  // namespace holms::dvfs
