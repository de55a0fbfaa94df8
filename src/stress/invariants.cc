#include "stress/invariants.h"

#include <numeric>

namespace schemble {

void CheckServingInvariants(ScenarioContext& ctx,
                            const ServingMetrics& metrics,
                            const QueryTrace& trace,
                            const InvariantOptions& options) {
  // Conservation: every admitted query is finalized exactly once, so all
  // the independent tallies re-add to the same totals.
  ctx.ExpectEq(metrics.total, trace.size(), "metrics.total vs trace size");
  ctx.ExpectEq(metrics.processed + metrics.missed, metrics.total,
               "processed + missed");
  const int64_t size_count_total =
      std::accumulate(metrics.subset_size_counts.begin(),
                      metrics.subset_size_counts.end(), int64_t{0});
  ctx.ExpectEq(size_count_total, metrics.total, "subset size histogram sum");
  int64_t seg_arrivals = 0;
  int64_t seg_processed = 0;
  int64_t seg_missed = 0;
  for (const SegmentStats& seg : metrics.segments) {
    seg_arrivals += seg.arrivals;
    seg_processed += seg.processed;
    seg_missed += seg.missed;
  }
  ctx.ExpectEq(seg_arrivals, metrics.total, "segment arrivals sum");
  ctx.ExpectEq(seg_processed, metrics.processed, "segment processed sum");
  ctx.ExpectEq(seg_missed, metrics.missed, "segment missed sum");
  ctx.ExpectEq(metrics.latency_ms.count(), metrics.processed,
               "latency sample count");

  if (!options.allow_rejection) {
    // Force mode has no miss path: a dropped task (e.g. lost in a
    // fail-stop) would leave its query unfinalized and hang the run, and
    // a double dispatch trips the host CHECK — so completing with
    // processed == total is the strongest conservation statement.
    ctx.ExpectEq(metrics.missed, 0, "force-mode missed");
    ctx.ExpectEq(metrics.processed, metrics.total, "force-mode processed");
  }

  // Monotone metrics.
  if (metrics.latency_ms.count() > 0) {
    const double lo = metrics.latency_ms.min();
    const double hi = metrics.latency_ms.max();
    ctx.ExpectLeDouble(lo, metrics.latency_ms.mean(), "latency min vs mean");
    ctx.ExpectLeDouble(metrics.latency_ms.mean(), hi, "latency mean vs max");
    ctx.ExpectLeDouble(lo, metrics.latency_ms.Quantile(0.5),
                       "latency min vs p50");
    ctx.ExpectLeDouble(metrics.latency_ms.Quantile(0.5),
                       metrics.latency_ms.Quantile(0.95),
                       "latency p50 vs p95");
    ctx.ExpectLeDouble(metrics.latency_ms.Quantile(0.95), hi,
                       "latency p95 vs max");
    ctx.ExpectLeDouble(0.0, lo, "latency non-negative");
  }
  ctx.ExpectLeDouble(0.0, metrics.accuracy_sum, "accuracy sum non-negative");
  ctx.ExpectLeDouble(metrics.accuracy_sum,
                     static_cast<double>(metrics.total) + 1e-9,
                     "accuracy sum vs total");
  ctx.ExpectLeDouble(metrics.processed_accuracy_sum,
                     static_cast<double>(metrics.processed) + 1e-9,
                     "processed accuracy sum vs processed");

  // No-starvation proxy (rejection mode): the deadline thread finalizes
  // every overdue query near its deadline, so no finalized latency can
  // wildly exceed the largest relative deadline. The 2x + 2s allowance
  // absorbs virtual-time lag on an oversubscribed host without masking an
  // actually-starved deadline heap (which diverges with trace length).
  if (options.allow_rejection && options.max_relative_deadline > 0 &&
      metrics.latency_ms.count() > 0) {
    const double bound_ms =
        2.0 * static_cast<double>(options.max_relative_deadline) / 1000.0 +
        2000.0;
    ctx.ExpectLeDouble(metrics.latency_ms.max(), bound_ms,
                       "max latency vs deadline starvation bound");
  }
}

void CheckSchedulerCounters(
    ScenarioContext& ctx,
    const ConcurrentServer::SchedulerStatsSnapshot& sched) {
  ctx.ExpectGe(sched.failstops, 0, "failstops");
  ctx.ExpectGe(sched.requeues, 0, "requeues");
  ctx.ExpectGe(sched.stale_tasks_dropped, 0, "stale_tasks_dropped");
  // Progress: no round after the last arrival may leave queries buffered
  // beside idle executors (force mode, every domain; see StatsSnapshot).
  ctx.ExpectEq(sched.stuck_rounds, 0, "stuck_rounds");
  ctx.Note("counters: failstops=" + std::to_string(sched.failstops) +
           " requeues=" + std::to_string(sched.requeues) +
           " stale_tasks_dropped=" +
           std::to_string(sched.stale_tasks_dropped) +
           " plans=" + std::to_string(sched.plans) +
           " plan_commits=" + std::to_string(sched.plan_commits) +
           " plans_invalidated=" + std::to_string(sched.plans_invalidated) +
           " stuck_rounds=" + std::to_string(sched.stuck_rounds));
}

}  // namespace schemble
