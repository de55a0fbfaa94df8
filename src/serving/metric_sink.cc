#include "serving/metric_sink.h"

#include "common/logging.h"

namespace schemble {

MetricSink::MetricSink(size_t num_segments, int num_models) {
  SCHEMBLE_CHECK_GT(num_segments, 0u);
  SCHEMBLE_CHECK_GE(num_models, 0);
  counts_.segments.resize(num_segments);
  counts_.subset_size_counts.assign(static_cast<size_t>(num_models) + 1, 0);
}

void MetricSink::Record(const TracedQuery& tq, const QueryOutcome& outcome,
                        SimTime segment_duration, double* latency_slot) {
  const size_t segment =
      static_cast<size_t>(tq.arrival_time / segment_duration);
  SCHEMBLE_DCHECK(segment < counts_.segments.size());
  SegmentStats& seg = counts_.segments[segment];
  ++counts_.total;
  ++seg.arrivals;
  ++counts_.subset_size_counts[static_cast<size_t>(outcome.subset_size)];
  if (outcome.processed) {
    ++counts_.processed;
    ++seg.processed;
    counts_.accuracy_sum += outcome.match;
    counts_.processed_accuracy_sum += outcome.match;
    seg.accuracy_sum += outcome.match;
    seg.latency_ms_sum += outcome.latency_ms;
    seg.subset_size_sum += outcome.subset_size;
    if (latency_slot != nullptr) *latency_slot = outcome.latency_ms;
  }
  if (outcome.missed) {
    ++counts_.missed;
    ++seg.missed;
  }
}

void MetricSink::AccumulateInto(ServingMetrics* metrics) const {
  metrics->total += counts_.total;
  metrics->processed += counts_.processed;
  metrics->missed += counts_.missed;
  metrics->accuracy_sum += counts_.accuracy_sum;
  metrics->processed_accuracy_sum += counts_.processed_accuracy_sum;
  if (metrics->subset_size_counts.size() < counts_.subset_size_counts.size()) {
    metrics->subset_size_counts.resize(counts_.subset_size_counts.size(), 0);
  }
  for (size_t s = 0; s < counts_.subset_size_counts.size(); ++s) {
    metrics->subset_size_counts[s] += counts_.subset_size_counts[s];
  }
  if (metrics->segments.size() < counts_.segments.size()) {
    metrics->segments.resize(counts_.segments.size());
  }
  for (size_t s = 0; s < counts_.segments.size(); ++s) {
    const SegmentStats& mine = counts_.segments[s];
    SegmentStats& seg = metrics->segments[s];
    seg.arrivals += mine.arrivals;
    seg.processed += mine.processed;
    seg.missed += mine.missed;
    seg.subset_size_sum += mine.subset_size_sum;
    seg.accuracy_sum += mine.accuracy_sum;
    seg.latency_ms_sum += mine.latency_ms_sum;
  }
}

}  // namespace schemble
