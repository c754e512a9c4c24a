#pragma once
// holms::serve — session state machines for the multi-tenant service layer
// (DESIGN.md §5h).
//
// The scheduling model follows the request-handler ("reqh"/FOM) pattern from
// large storage servers: a *FOM* (fault-tolerant operation machine) is a
// resumable state machine representing one in-flight operation — here, one
// streaming session.  FOMs never block and never own a thread.  Each FOM
// advances by running `step()`, which executes exactly one phase transition
// and then *yields*, telling the scheduler when it must run next.  Sessions
// are sharded across a fixed number of *localities* — independent scheduling
// domains, each with its own DES kernel (`sim::Simulator`) and its own
// statistics — and a worker pool runs localities, not sessions.  The DES
// carries the MPEG-2 decoder networks; an FGS session, whose slots fall due
// at fixed times, takes its first step and then runs its due slots back to
// back beside it (streaming::FgsSessionFom::run_slots).  The result:
//
//   * thread-per-session is replaced by state-machine-per-session, so tens
//     of thousands of concurrent sessions cost memory, not threads;
//   * all blocking is replaced by yielding to the locality's event queue —
//     enforced tree-wide by holms_lint rule D005;
//   * the locality count is fixed by configuration (never by thread count),
//     and localities share no mutable state, so aggregate results are
//     bitwise thread-count invariant (same discipline as core::explore()).
//
// The concrete session machines live with their domains —
// streaming::FgsSessionFom (per-timeslot FGS adaptation) and
// stream::Mpeg2SessionFom (Fig.1(b) decoder network on a shared kernel) —
// and plug into the ServiceManager through the protocol below.

#include <concepts>

namespace holms::serve {

/// The step protocol every session state machine implements.
///
///   double step();   // run one phase transition; returns the simulated
///                    // delay until the next step: 0.0 = again within the
///                    // same timestamp, > 0 = park for that long on the
///                    // locality's event queue, < 0 = finished
///   bool done();     // true once the final report is available
///
/// step() must be non-blocking (no sleeps, no lock waits — lint rule D005)
/// and must touch only session-local state plus the locality's Simulator,
/// so every FOM on a locality can interleave at event granularity.
template <typename T>
concept SessionFom = requires(T t, const T ct) {
  { t.step() } -> std::convertible_to<double>;
  { ct.done() } -> std::convertible_to<bool>;
};

}  // namespace holms::serve
