#pragma once
// Full-scan list-scheduling reference for noc::schedule_edf and
// noc::schedule_energy_aware.
//
// The library's list scheduler reads each task's dependencies from a
// per-problem incidence index.  This reference is the scheduler as it was
// before that index: every readiness test and every longest-path step scans
// the whole dependency list.  The two schedulers on top of it (the EDF run
// at the top operating point, and both energy-aware slack policies) are
// copies of the library's, so for a valid problem both sides must agree on
// every TaskPlacement field and every energy total, bit for bit.
//
// Test support only (holms_test_support); it validates nothing, so feed it
// problems the library accepts.

#include "noc/scheduling.hpp"

namespace holms::test_support {

/// schedule_edf over the full-scan list scheduler.
noc::ScheduleResult schedule_edf_full_scan(const noc::SchedProblem& p);

/// schedule_energy_aware over the full-scan list scheduler.
noc::ScheduleResult schedule_energy_aware_full_scan(
    const noc::SchedProblem& p, noc::SlackPolicy policy);

}  // namespace holms::test_support
