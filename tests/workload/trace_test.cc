#include "workload/trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "models/task_factory.h"

namespace schemble {
namespace {

TEST(ConstantDeadlineTest, AlwaysSameValue) {
  ConstantDeadline d(100 * kMillisecond);
  Rng rng(1);
  EXPECT_EQ(d.RelativeDeadline(0, rng), 100 * kMillisecond);
  EXPECT_EQ(d.RelativeDeadline(5, rng), 100 * kMillisecond);
}

TEST(PerSourceUniformDeadlineTest, StablePerSource) {
  PerSourceUniformDeadline d(24, 100 * kMillisecond, 500 * kMillisecond, 7);
  Rng rng(2);
  for (int s = 0; s < 24; ++s) {
    const SimTime first = d.RelativeDeadline(s, rng);
    EXPECT_EQ(d.RelativeDeadline(s, rng), first);
    EXPECT_GE(first, 100 * kMillisecond);
    EXPECT_LE(first, 500 * kMillisecond);
  }
}

TEST(PerSourceUniformDeadlineTest, SourcesDiffer) {
  PerSourceUniformDeadline d(24, 100 * kMillisecond, 500 * kMillisecond, 9);
  Rng rng(3);
  std::set<SimTime> distinct;
  for (int s = 0; s < 24; ++s) distinct.insert(d.RelativeDeadline(s, rng));
  EXPECT_GT(distinct.size(), 5u);
}

TEST(BuildTraceTest, ProducesSortedArrivalsWithDeadlines) {
  SyntheticTask task = MakeTextMatchingTask(3);
  PoissonTraffic traffic(50.0);
  ConstantDeadline deadline(100 * kMillisecond);
  TraceOptions options;
  options.seed = 5;
  QueryTrace trace =
      BuildTrace(task, traffic, deadline, 10 * kSecond, options);
  ASSERT_GT(trace.size(), 100);
  SimTime prev = -1;
  for (const TracedQuery& tq : trace.items) {
    EXPECT_GE(tq.arrival_time, prev);
    prev = tq.arrival_time;
    EXPECT_EQ(tq.relative_deadline(), 100 * kMillisecond);
    EXPECT_EQ(tq.source, 0);
    EXPECT_EQ(tq.query.features().size(),
              static_cast<size_t>(task.spec().feature_dim()));
  }
}

TEST(BuildTraceTest, QueryIdsAreUniqueAndOffset) {
  SyntheticTask task = MakeTextMatchingTask(3);
  PoissonTraffic traffic(20.0);
  ConstantDeadline deadline(100 * kMillisecond);
  TraceOptions options;
  options.first_query_id = 5000;
  QueryTrace trace = BuildTrace(task, traffic, deadline, 5 * kSecond, options);
  std::set<int64_t> ids;
  for (const TracedQuery& tq : trace.items) ids.insert(tq.query.id);
  EXPECT_EQ(static_cast<int64_t>(ids.size()), trace.size());
  EXPECT_GE(*ids.begin(), 5000);
}

TEST(BuildTraceTest, MultiSourceAssignsSources) {
  SyntheticTask task = MakeVehicleCountingTask(7);
  PoissonTraffic traffic(50.0);
  PerSourceUniformDeadline deadline(24, 100 * kMillisecond, 400 * kMillisecond,
                                    11);
  TraceOptions options;
  options.num_sources = 24;
  QueryTrace trace = BuildTrace(task, traffic, deadline, 20 * kSecond, options);
  std::set<int> sources;
  for (const TracedQuery& tq : trace.items) {
    sources.insert(tq.source);
    EXPECT_GE(tq.source, 0);
    EXPECT_LT(tq.source, 24);
  }
  EXPECT_GT(sources.size(), 12u);
}

TEST(BuildTraceTest, DeterministicForSeed) {
  SyntheticTask task = MakeTextMatchingTask(3);
  PoissonTraffic traffic(30.0);
  ConstantDeadline deadline(100 * kMillisecond);
  TraceOptions options;
  options.seed = 77;
  QueryTrace a = BuildTrace(task, traffic, deadline, 5 * kSecond, options);
  QueryTrace b = BuildTrace(task, traffic, deadline, 5 * kSecond, options);
  ASSERT_EQ(a.size(), b.size());
  for (int64_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.items[i].arrival_time, b.items[i].arrival_time);
    EXPECT_EQ(a.items[i].query.id, b.items[i].query.id);
    EXPECT_DOUBLE_EQ(a.items[i].query.difficulty,
                     b.items[i].query.difficulty);
  }
}

TEST(QueryTraceTest, SegmentCountsPartitionTrace) {
  SyntheticTask task = MakeTextMatchingTask(3);
  PoissonTraffic traffic(40.0);
  ConstantDeadline deadline(100 * kMillisecond);
  TraceOptions options;
  QueryTrace trace = BuildTrace(task, traffic, deadline, 10 * kSecond, options);
  const auto counts = trace.SegmentCounts(kSecond);
  int64_t total = 0;
  for (int64_t c : counts) total += c;
  EXPECT_EQ(total, trace.size());
  EXPECT_LE(counts.size(), 10u);
}

TEST(QueryTraceTest, EmptyTraceBasics) {
  QueryTrace trace;
  EXPECT_TRUE(trace.empty());
  EXPECT_EQ(trace.duration(), 0);
}

}  // namespace
}  // namespace schemble
