// Concurrency surface of the allocation-free KNN fill path: a single
// const KnnIndex shared by many threads (each with its own Workspace)
// must produce bit-identical fills with no data races on both search
// paths (one const k-d tree read by every thread, and the scan), and a
// ConcurrentServer configured with the stacking aggregator must run the
// KNN fill + meta-classifier completion path from its worker/deadline
// threads outside the policy mutex. Part of the `runtime` ctest label so
// the TSan CI job covers it.

#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/aggregation.h"
#include "core/discrepancy.h"
#include "core/schemble_policy.h"
#include "models/task_factory.h"
#include "nn/knn.h"
#include "runtime/concurrent_server.h"
#include "workload/trace.h"
#include "workload/traffic.h"

namespace schemble {
namespace {

TEST(ConcurrentFillTest, SharedIndexBatchFillFromManyThreadsIsBitIdentical) {
  Rng rng(41);
  std::vector<std::vector<double>> records(600, std::vector<double>(10));
  for (auto& r : records) {
    for (double& v : r) v = rng.Normal();
  }
  // `indexed` gets a k-d tree at Build; `scanned` has more observed
  // columns than a tree takes and keeps the scan.
  const std::vector<bool> indexed = {true, false, false, true, false,
                                     true, false, false, true, false};
  const std::vector<bool> scanned = {true, true, true, true, false,
                                     true, true, false, true, true};
  auto built = KnnIndex::Build(std::move(records), {indexed, scanned});
  ASSERT_TRUE(built.ok());
  const KnnIndex& index = built.value();
  ASSERT_TRUE(index.HasTree(indexed));
  ASSERT_FALSE(index.HasTree(scanned));
  std::vector<std::vector<double>> points(48, std::vector<double>(10));
  for (auto& p : points) {
    for (double& v : p) v = rng.Normal();
  }

  for (const std::vector<bool>* mask : {&indexed, &scanned}) {
    SCOPED_TRACE(mask == &indexed ? "tree" : "scan");
    // Golden single-threaded result.
    KnnIndex::Workspace golden_ws;
    std::vector<std::vector<double>> golden;
    index.FillMissingBatch(points, *mask, 12, &golden_ws, &golden);

    constexpr int kThreads = 4;
    constexpr int kRounds = 25;
    std::vector<std::vector<std::vector<double>>> results(kThreads);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        // One workspace per thread: the index itself is immutable and
        // shared; all mutable scratch is thread-private.
        KnnIndex::Workspace ws;
        for (int round = 0; round < kRounds; ++round) {
          index.FillMissingBatch(points, *mask, 12, &ws, &results[t]);
        }
      });
    }
    for (auto& th : threads) th.join();
    for (int t = 0; t < kThreads; ++t) {
      EXPECT_EQ(results[t], golden) << "thread " << t;
    }
  }
}

TEST(ConcurrentFillTest, ConcurrentServerStackingCompletionRunsOffLock) {
  SyntheticTask task = MakeTextMatchingTask(3);
  const auto history =
      task.GenerateDataset(2000, DifficultyDistribution::UniformFull(), 5);
  auto scorer = DiscrepancyScorer::Fit(task, history);
  ASSERT_TRUE(scorer.ok());
  const DiscrepancyScorer oracle = std::move(scorer).value();
  auto profile =
      AccuracyProfile::Build(task, history, oracle.ScoreAll(history));
  ASSERT_TRUE(profile.ok());
  SchembleConfig config;
  config.score_source = ScoreSource::kOracle;
  SchemblePolicy policy(task, profile.value(), nullptr, &oracle,
                        std::move(config));

  AggregatorConfig agg_config;
  agg_config.kind = AggregationKind::kStacking;
  auto aggregator = Aggregator::Build(task, history, agg_config);
  ASSERT_TRUE(aggregator.ok());

  // Moderate overload with tight deadlines: the deadline and worker
  // threads both finalize queries, most with partial subsets, so the
  // stacking aggregator's KNN fill runs concurrently from several
  // threads. RecordFinalized DCHECKs that it never holds the policy
  // mutex, making the off-lock claim executable here.
  ConcurrentServerOptions options;
  options.speedup = 100.0;
  options.aggregator = &aggregator.value();
  ConcurrentServer server(task, &policy, options);
  PoissonTraffic traffic(30.0);
  ConstantDeadline deadlines(200 * kMillisecond);
  TraceOptions trace_options;
  trace_options.seed = 17;
  const QueryTrace trace =
      BuildTrace(task, traffic, deadlines, 15 * kSecond, trace_options);
  const ServingMetrics metrics = server.Run(trace);

  EXPECT_EQ(metrics.total, trace.size());
  EXPECT_GT(metrics.processed, 0);
  const auto lock = server.lock_stats();
  EXPECT_GT(lock.acquisitions, 0);
  EXPECT_GE(lock.held_ms, 0.0);
}

}  // namespace
}  // namespace schemble
