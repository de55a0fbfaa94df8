#ifndef SCHEMBLE_SERVING_COMPLETION_H_
#define SCHEMBLE_SERVING_COMPLETION_H_

#include "core/aggregation.h"
#include "core/profiling.h"
#include "serving/metrics.h"
#include "simcore/simulation.h"
#include "workload/trace.h"

namespace schemble {

/// Scored result of one finished (or missed) query. Produced by
/// EvaluateCompletion; consumed by the discrete-event server's metric
/// bookkeeping and by the concurrent runtime's atomic recorder, so both
/// execution engines share a single aggregation/accuracy code path.
struct QueryOutcome {
  SubsetMask outputs = 0;
  int subset_size = 0;
  /// Agreement with the full ensemble's output; 0 when missed.
  double match = 0.0;
  double latency_ms = 0.0;
  bool processed = false;
  bool missed = false;
};

/// Reusable scratch for the per-query completion path. One per thread: the
/// concurrent runtime's workers each keep their own so finalizing a query
/// (subset unpack, KNN fill, aggregation) allocates nothing in steady
/// state.
struct CompletionWorkspace {
  Aggregator::Workspace aggregation;
  std::vector<int> subset;      // no-aggregator reference-average path
  std::vector<double> result;   // aggregated output vector
};

/// Aggregates whatever model outputs completed for `tq` and scores the
/// result. `outputs == 0` means nothing finished by the deadline (a miss).
/// When `aggregator` is null the task's reference weighted average is
/// used. In force mode (`allow_rejection == false`) a query is processed
/// *and* counted as missed when it finished after its deadline.
///
/// Thread-safety: pure function of its arguments plus caller-owned
/// scratch; `task` and `aggregator` are only read through const,
/// state-free paths, so concurrent calls with distinct workspaces are
/// safe.
QueryOutcome EvaluateCompletion(const SyntheticTask& task,
                                const Aggregator* aggregator,
                                const TracedQuery& tq, SubsetMask outputs,
                                SimTime completion, bool allow_rejection,
                                CompletionWorkspace* ws);

/// Convenience overload backed by a per-thread workspace.
QueryOutcome EvaluateCompletion(const SyntheticTask& task,
                                const Aggregator* aggregator,
                                const TracedQuery& tq, SubsetMask outputs,
                                SimTime completion, bool allow_rejection);

/// Applies `outcome` to the aggregate metrics and the arrival-time segment
/// window. Not thread-safe; the concurrent runtime records into one
/// MetricSink per finalizing thread and merges them at the end of a run.
void RecordOutcome(const QueryOutcome& outcome, const TracedQuery& tq,
                   SimTime segment_duration, ServingMetrics* metrics);

}  // namespace schemble

#endif  // SCHEMBLE_SERVING_COMPLETION_H_
