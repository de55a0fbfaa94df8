// MetricSink as the concurrent runtime uses it: one shard per finalizing
// thread, merged after the threads join, must equal a single sink fed the
// same outcomes.

#include "serving/metric_sink.h"

#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "common/rng.h"

namespace schemble {
namespace {

constexpr size_t kSegments = 4;
constexpr int kModels = 3;
constexpr SimTime kSegment = 10 * kSecond;

struct Recorded {
  TracedQuery query;
  QueryOutcome outcome;
};

/// Deterministic outcomes across every segment, subset size and the
/// processed / missed / processed-but-late combinations.
std::vector<Recorded> MakeOutcomes(size_t n) {
  Rng rng(HashSeed("metric-sink-test", 7));
  const double horizon = static_cast<double>(kSegments * kSegment - 1);
  std::vector<Recorded> out(n);
  for (size_t i = 0; i < n; ++i) {
    Recorded& r = out[i];
    r.query.arrival_time = static_cast<SimTime>(rng.NextDouble() * horizon);
    r.outcome.subset_size = static_cast<int>(i % (kModels + 1));
    r.outcome.processed = r.outcome.subset_size > 0;
    r.outcome.missed = !r.outcome.processed || rng.NextDouble() < 0.2;
    if (r.outcome.processed) {
      r.outcome.match = rng.NextDouble();
      r.outcome.latency_ms = 100.0 * rng.NextDouble();
    }
  }
  return out;
}

void ExpectSameMetrics(const ServingMetrics& a, const ServingMetrics& b) {
  EXPECT_EQ(a.total, b.total);
  EXPECT_EQ(a.processed, b.processed);
  EXPECT_EQ(a.missed, b.missed);
  EXPECT_EQ(a.subset_size_counts, b.subset_size_counts);
  EXPECT_NEAR(a.accuracy_sum, b.accuracy_sum, 1e-9);
  EXPECT_NEAR(a.processed_accuracy_sum, b.processed_accuracy_sum, 1e-9);
  ASSERT_EQ(a.segments.size(), b.segments.size());
  for (size_t s = 0; s < a.segments.size(); ++s) {
    EXPECT_EQ(a.segments[s].arrivals, b.segments[s].arrivals);
    EXPECT_EQ(a.segments[s].processed, b.segments[s].processed);
    EXPECT_EQ(a.segments[s].missed, b.segments[s].missed);
    EXPECT_EQ(a.segments[s].subset_size_sum, b.segments[s].subset_size_sum);
    EXPECT_NEAR(a.segments[s].accuracy_sum, b.segments[s].accuracy_sum, 1e-9);
    EXPECT_NEAR(a.segments[s].latency_ms_sum, b.segments[s].latency_ms_sum,
                1e-9);
  }
}

TEST(MetricSinkTest, ShardsRecordedFromThreadsMergeToOneSink) {
  constexpr size_t kThreads = 8;
  const std::vector<Recorded> outcomes = MakeOutcomes(20000);

  MetricSink single(kSegments, kModels);
  std::vector<double> single_slots(outcomes.size(), -1.0);
  for (size_t i = 0; i < outcomes.size(); ++i) {
    single.Record(outcomes[i].query, outcomes[i].outcome, kSegment,
                  &single_slots[i]);
  }

  // Thread t records every outcome with i % kThreads == t into its own
  // shard; latency slots are disjoint per outcome.
  std::vector<std::unique_ptr<MetricSink>> shards;
  for (size_t t = 0; t < kThreads; ++t) {
    shards.push_back(std::make_unique<MetricSink>(kSegments, kModels));
  }
  std::vector<double> slots(outcomes.size(), -1.0);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = t; i < outcomes.size(); i += kThreads) {
        shards[t]->Record(outcomes[i].query, outcomes[i].outcome, kSegment,
                          &slots[i]);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  ServingMetrics expected;
  single.AccumulateInto(&expected);
  ServingMetrics merged;
  for (const auto& shard : shards) shard->AccumulateInto(&merged);
  ExpectSameMetrics(merged, expected);
  EXPECT_EQ(slots, single_slots);
  EXPECT_EQ(merged.total, static_cast<int64_t>(outcomes.size()));
}

TEST(MetricSinkTest, OnlyProcessedOutcomesFillTheLatencySlot) {
  MetricSink sink(1, kModels);
  TracedQuery query;
  QueryOutcome missed;
  missed.missed = true;
  double slot = -1.0;
  sink.Record(query, missed, kSegment, &slot);
  EXPECT_EQ(slot, -1.0);
  QueryOutcome processed;
  processed.processed = true;
  processed.subset_size = 2;
  processed.latency_ms = 12.5;
  sink.Record(query, processed, kSegment, &slot);
  EXPECT_EQ(slot, 12.5);
  ServingMetrics metrics;
  sink.AccumulateInto(&metrics);
  EXPECT_EQ(metrics.total, 2);
  EXPECT_EQ(metrics.processed, 1);
  EXPECT_EQ(metrics.missed, 1);
  EXPECT_EQ(metrics.subset_size_counts, (std::vector<int64_t>{1, 0, 1, 0}));
  EXPECT_EQ(metrics.segments[0].latency_ms_sum, 12.5);
}

}  // namespace
}  // namespace schemble
