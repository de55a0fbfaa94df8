#ifndef SCHEMBLE_SERVING_METRIC_SINK_H_
#define SCHEMBLE_SERVING_METRIC_SINK_H_

#include "serving/completion.h"
#include "serving/metrics.h"
#include "simcore/simulation.h"
#include "workload/trace.h"

namespace schemble {

/// Plain accumulator of scored outcomes: serving's RecordOutcome with the
/// latency samples left to the caller and every cell sized up front, so
/// recording never allocates. The concurrent runtime gives each thread
/// that finalizes queries its own sink (a per-thread shard) and merges the
/// shards into one ServingMetrics after the run joins, so recording a
/// completion writes no cache line another thread writes.
///
/// Thread-safety: none. One thread records into a sink; AccumulateInto
/// reads it after that thread has been joined. Cache-line aligned so
/// neighbouring shards never share a line.
class alignas(64) MetricSink {
 public:
  /// `num_segments` arrival-time windows and models 0..`num_models`
  /// subset-size cells (index = aggregated subset size, 0 = missed).
  MetricSink(size_t num_segments, int num_models);

  MetricSink(const MetricSink&) = delete;
  MetricSink& operator=(const MetricSink&) = delete;

  /// Applies one scored outcome. `latency_slot`, when non-null and the
  /// query was processed, receives the latency sample.
  void Record(const TracedQuery& tq, const QueryOutcome& outcome,
              SimTime segment_duration, double* latency_slot);

  /// Adds this sink's counters into `metrics` (segments and subset-size
  /// cells are grown as needed; latency samples are the caller's job).
  void AccumulateInto(ServingMetrics* metrics) const;

 private:
  /// Every ServingMetrics field but latency_ms.
  ServingMetrics counts_;
};

}  // namespace schemble

#endif  // SCHEMBLE_SERVING_METRIC_SINK_H_
