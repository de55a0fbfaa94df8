#ifndef SCHEMBLE_STRESS_INVARIANTS_H_
#define SCHEMBLE_STRESS_INVARIANTS_H_

#include "runtime/concurrent_server.h"
#include "serving/metrics.h"
#include "simcore/simulation.h"
#include "stress/scenario.h"
#include "workload/trace.h"

namespace schemble {

/// What a scenario run promises about the metrics it produced — the checks
/// hold REGARDLESS of the randomized configuration, thread timing, or host
/// load (anything timing-sensitive belongs in scenario-specific
/// expectations, not here).
struct InvariantOptions {
  /// Rejection mode (deadline thread active) vs force mode.
  bool allow_rejection = true;
  /// Largest relative deadline any query in the trace can carry; bounds
  /// the no-deadline-thread-starvation proxy below. <= 0 skips the check.
  SimTime max_relative_deadline = 0;
};

/// Asserts the structural invariants of one serving run through `ctx`:
///
///  - query conservation: total == trace size, processed + missed ==
///    total, subset-size histogram and per-segment arrival/processed/
///    missed sums all re-add to the same totals, latency sample count ==
///    processed. Together with the runtime's own exactly-once finalize
///    CHECK this is the "zero lost queries" balance — it holds through
///    fail-stops because re-queued queries are finalized exactly once.
///  - force mode processes everything: missed == 0, processed == total.
///  - monotone metrics: latency min <= mean/median <= p95 <= max,
///    accuracy sums within [0, total].
///  - no deadline-thread starvation (rejection mode): every finalized
///    query's latency is bounded by the largest relative deadline plus a
///    generous load-lag allowance — an unserviced deadline heap would blow
///    past it.
void CheckServingInvariants(ScenarioContext& ctx,
                            const ServingMetrics& metrics,
                            const QueryTrace& trace,
                            const InvariantOptions& options);

/// Sanity over the scheduler's fault telemetry: counters are non-negative
/// and mutually consistent (requeues without failstops can only come from
/// the dispatch-shortfall path, stale drops require a generation to have
/// moved), and progress holds: no planning round left queries stuck
/// beside idle executors (stuck_rounds == 0). Appends the counter values
/// as notes for the run report.
void CheckSchedulerCounters(
    ScenarioContext& ctx,
    const ConcurrentServer::SchedulerStatsSnapshot& sched);

}  // namespace schemble

#endif  // SCHEMBLE_STRESS_INVARIANTS_H_
