#include "support/sched_oracle.hpp"

#include <algorithm>
#include <numeric>
#include <vector>

#include "exec/error.hpp"

namespace holms::test_support {
namespace {

using noc::ScheduleResult;
using noc::SchedDep;
using noc::SchedProblem;
using noc::SlackPolicy;
using noc::TileId;

// Longest-path-to-sink priority (in seconds at the given per-task times).
std::vector<double> critical_lengths(const SchedProblem& p,
                                     const std::vector<double>& exec_time) {
  const std::size_t n = p.tasks.size();
  std::vector<double> cl(n, 0.0);
  // Process in reverse topological order; tasks are required to be listed in
  // topological order (factories guarantee it; validated here).
  for (std::size_t i = n; i-- > 0;) {
    cl[i] = exec_time[i];
    for (const auto& d : p.deps) {
      if (d.src == i) {
        if (d.dst <= i) {
          throw holms::InvalidArgument(
              "SchedProblem: tasks must be topologically ordered");
        }
        cl[i] = std::max(cl[i], exec_time[i] + cl[d.dst]);
      }
    }
  }
  return cl;
}

double comm_delay(const SchedProblem& p, const SchedDep& d) {
  const TileId a = p.tile_of[d.src], b = p.tile_of[d.dst];
  if (a == b) return 0.0;
  const std::size_t h = p.mesh.hops(a, b);
  return d.volume_bits / p.link_bandwidth_bps +
         static_cast<double>(h) * p.hop_latency_s;
}

ScheduleResult list_schedule(const SchedProblem& p,
                             const std::vector<std::size_t>& level_of) {
  const std::size_t n = p.tasks.size();
  ScheduleResult r;
  r.placement.resize(n);
  std::vector<double> exec(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto& op = p.points.at(level_of[i]);
    exec[i] = p.tasks[i].cycles / op.frequency_hz;
    r.placement[i].dvs_level = level_of[i];
  }
  const std::vector<double> prio = critical_lengths(p, exec);

  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return prio[a] > prio[b];
  });

  std::vector<double> tile_free(p.mesh.num_tiles(), 0.0);
  std::vector<bool> scheduled(n, false);
  std::size_t done = 0;
  while (done < n) {
    bool progressed = false;
    for (std::size_t idx : order) {
      if (scheduled[idx]) continue;
      // All predecessors scheduled?
      double ready = 0.0;
      bool ok = true;
      for (const auto& d : p.deps) {
        if (d.dst != idx) continue;
        if (!scheduled[d.src]) {
          ok = false;
          break;
        }
        ready = std::max(ready, r.placement[d.src].finish + comm_delay(p, d));
      }
      if (!ok) continue;
      const TileId tile = p.tile_of[idx];
      const double start = std::max(ready, tile_free[tile]);
      r.placement[idx].start = start;
      r.placement[idx].finish = start + exec[idx];
      tile_free[tile] = r.placement[idx].finish;
      scheduled[idx] = true;
      ++done;
      progressed = true;
    }
    if (!progressed) {
      throw holms::InvalidArgument("list_schedule: dependency cycle");
    }
  }

  for (std::size_t i = 0; i < n; ++i) {
    r.makespan_s = std::max(r.makespan_s, r.placement[i].finish);
    r.compute_energy_j +=
        p.power.energy_for_cycles(p.tasks[i].cycles, p.points[level_of[i]]);
  }
  for (const auto& d : p.deps) {
    const std::size_t h = p.mesh.hops(p.tile_of[d.src], p.tile_of[d.dst]);
    r.comm_energy_j += p.noc_energy.transfer_energy(d.volume_bits, h);
  }
  // Idle (leakage) energy over the period on every tile actually used.
  std::vector<double> busy(p.mesh.num_tiles(), 0.0);
  for (std::size_t i = 0; i < n; ++i) busy[p.tile_of[i]] += exec[i];
  for (TileId t = 0; t < p.mesh.num_tiles(); ++t) {
    if (busy[t] > 0.0) {
      r.idle_energy_j +=
          p.idle_power_w * std::max(0.0, p.deadline_s - busy[t]);
    }
  }
  r.total_energy_j = r.compute_energy_j + r.comm_energy_j + r.idle_energy_j;
  r.deadline_met = r.makespan_s <= p.deadline_s + 1e-12;
  return r;
}

}  // namespace

ScheduleResult schedule_edf_full_scan(const SchedProblem& p) {
  const std::vector<std::size_t> top(p.tasks.size(), p.points.size() - 1);
  return list_schedule(p, top);
}

ScheduleResult schedule_energy_aware_full_scan(const SchedProblem& p,
                                               SlackPolicy policy) {
  const std::size_t n = p.tasks.size();
  const std::size_t top = p.points.size() - 1;
  std::vector<std::size_t> levels(n, top);
  ScheduleResult fast = list_schedule(p, levels);
  if (!fast.deadline_met) return fast;  // no slack to spend

  const double slack_factor = p.deadline_s / std::max(fast.makespan_s, 1e-12);

  if (policy == SlackPolicy::kProportional) {
    // Stretch everything by the global factor (with a safety margin), then
    // repair by raising levels on violation.
    for (std::size_t i = 0; i < n; ++i) {
      const double t_fast = p.tasks[i].cycles / p.points[top].frequency_hz;
      const double target = t_fast * slack_factor * 0.97;
      std::size_t lvl = top;
      for (std::size_t l = 0; l <= top; ++l) {
        if (p.tasks[i].cycles / p.points[l].frequency_hz <= target) {
          lvl = l;
          break;
        }
      }
      levels[i] = lvl;
    }
    ScheduleResult r = list_schedule(p, levels);
    // Repair loop: bump the level of tasks on the critical path until the
    // deadline holds again (terminates at all-top).
    while (!r.deadline_met) {
      // Find the latest-finishing task that is below top level.
      std::size_t worst = n;
      double worst_finish = -1.0;
      for (std::size_t i = 0; i < n; ++i) {
        if (levels[i] < top && r.placement[i].finish > worst_finish) {
          worst_finish = r.placement[i].finish;
          worst = i;
        }
      }
      if (worst == n) break;
      ++levels[worst];
      r = list_schedule(p, levels);
    }
    return r;
  }

  // kGreedyLongest: lower the DVS level of the most energy-hungry tasks one
  // step at a time while the deadline still holds.
  ScheduleResult best = fast;
  for (;;) {
    std::vector<std::size_t> cand_order(n);
    std::iota(cand_order.begin(), cand_order.end(), 0);
    std::sort(cand_order.begin(), cand_order.end(),
              [&](std::size_t a, std::size_t b) {
                return p.tasks[a].cycles > p.tasks[b].cycles;
              });
    bool improved = false;
    for (std::size_t i : cand_order) {
      if (levels[i] == 0) continue;
      --levels[i];
      ScheduleResult r = list_schedule(p, levels);
      if (r.deadline_met && r.total_energy_j < best.total_energy_j) {
        best = r;
        improved = true;
      } else {
        ++levels[i];
      }
    }
    if (!improved) break;
  }
  return best;
}

}  // namespace holms::test_support
