#include "serving/completion.h"

#include <vector>

namespace schemble {

QueryOutcome EvaluateCompletion(const SyntheticTask& task,
                                const Aggregator* aggregator,
                                const TracedQuery& tq, SubsetMask outputs,
                                SimTime completion, bool allow_rejection,
                                CompletionWorkspace* ws) {
  QueryOutcome outcome;
  outcome.outputs = outputs;
  outcome.subset_size = SubsetSize(outputs);
  if (outputs == 0) {
    outcome.missed = true;
    return outcome;
  }
  if (aggregator != nullptr) {
    aggregator->AggregateInto(tq.query, outputs, &ws->aggregation,
                              &ws->result);
  } else {
    SubsetModelsInto(outputs, &ws->subset);
    task.AggregateSubsetInto(tq.query, ws->subset, &ws->result);
  }
  outcome.processed = true;
  outcome.match = task.MatchScore(ws->result, tq.query.ensemble_output());
  outcome.latency_ms = SimTimeToMillis(completion - tq.arrival_time);
  outcome.missed = !allow_rejection && completion > tq.deadline;
  return outcome;
}

QueryOutcome EvaluateCompletion(const SyntheticTask& task,
                                const Aggregator* aggregator,
                                const TracedQuery& tq, SubsetMask outputs,
                                SimTime completion, bool allow_rejection) {
  thread_local CompletionWorkspace ws;
  return EvaluateCompletion(task, aggregator, tq, outputs, completion,
                            allow_rejection, &ws);
}

void RecordOutcome(const QueryOutcome& outcome, const TracedQuery& tq,
                   SimTime segment_duration, ServingMetrics* metrics) {
  const size_t segment =
      static_cast<size_t>(tq.arrival_time / segment_duration);
  if (segment >= metrics->segments.size()) {
    metrics->segments.resize(segment + 1);
  }
  SegmentStats& seg = metrics->segments[segment];
  ++metrics->total;
  ++seg.arrivals;
  const size_t size = static_cast<size_t>(outcome.subset_size);
  if (metrics->subset_size_counts.size() <= size) {
    metrics->subset_size_counts.resize(size + 1, 0);
  }
  ++metrics->subset_size_counts[size];

  if (outcome.processed) {
    ++metrics->processed;
    ++seg.processed;
    metrics->processed_accuracy_sum += outcome.match;
    metrics->accuracy_sum += outcome.match;
    seg.accuracy_sum += outcome.match;
    metrics->latency_ms.Add(outcome.latency_ms);
    seg.latency_ms_sum += outcome.latency_ms;
    seg.subset_size_sum += outcome.subset_size;
  }
  if (outcome.missed) {
    ++metrics->missed;
    ++seg.missed;
  }
}

}  // namespace schemble
