// Fault injection through ConcurrentServerOptions::executor_faults:
// heterogeneous speeds, stragglers and fail-stop executors. These tests
// pin the DETERMINISTIC contracts (validation CHECKs, conservation,
// counter semantics); the randomized exploration of the same surface
// lives in src/stress.

#include <gtest/gtest.h>

#include <memory>

#include "baselines/original_policy.h"
#include "models/task_factory.h"
#include "runtime/concurrent_server.h"
#include "stress/host.h"
#include "workload/trace.h"
#include "workload/traffic.h"

#if defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define SCHEMBLE_SANITIZED_BUILD 1
#endif
#elif defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define SCHEMBLE_SANITIZED_BUILD 1
#endif

namespace schemble {
namespace {

#ifdef SCHEMBLE_SANITIZED_BUILD
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif

class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    task_ = std::make_unique<SyntheticTask>(MakeTextMatchingTask(3));
  }

  QueryTrace MakeTrace(double rate, SimTime duration, SimTime deadline,
                       uint64_t seed = 11) {
    PoissonTraffic traffic(rate);
    ConstantDeadline deadlines(deadline);
    TraceOptions options;
    options.seed = seed;
    return BuildTrace(*task_, traffic, deadlines, duration, options);
  }

  // One executor per model unless overridden; force mode so conservation
  // is strict: processed must equal the trace size no matter the faults.
  ConcurrentServerOptions ForceOptions() {
    ConcurrentServerOptions options;
    options.allow_rejection = false;
    options.speedup = 100.0;
    return options;
  }

  std::unique_ptr<SyntheticTask> task_;
};

TEST_F(FaultInjectionTest, FaultVectorSizeMismatchIsRejected) {
  OriginalPolicy policy;
  ConcurrentServerOptions options = ForceOptions();
  // Default fleet is one executor per model (3); one fault entry is
  // ambiguous and must die rather than silently align.
  options.executor_faults.assign(1, ExecutorFault{});
  EXPECT_DEATH(ConcurrentServer(*task_, &policy, options),
               "executor_faults must be empty or match");
}

TEST_F(FaultInjectionTest, NonPositiveSpeedIsRejected) {
  OriginalPolicy policy;
  ConcurrentServerOptions options = ForceOptions();
  options.executor_faults.assign(static_cast<size_t>(task_->num_models()),
                                 ExecutorFault{});
  options.executor_faults[0].speed = 0.0;
  EXPECT_DEATH(ConcurrentServer(*task_, &policy, options), "speed");
}

TEST_F(FaultInjectionTest, StraggleFactorBelowOneIsRejected) {
  OriginalPolicy policy;
  ConcurrentServerOptions options = ForceOptions();
  options.executor_faults.assign(static_cast<size_t>(task_->num_models()),
                                 ExecutorFault{});
  options.executor_faults[0].straggle_after = kSecond;
  options.executor_faults[0].straggle_factor = 0.5;
  EXPECT_DEATH(ConcurrentServer(*task_, &policy, options),
               "straggle_factor");
}

TEST_F(FaultInjectionTest, CleanFaultVectorBehavesLikeNoFaults) {
  OriginalPolicy policy;
  ConcurrentServerOptions options = ForceOptions();
  // Explicit all-default faults: same contract as leaving the vector
  // empty, and none of the fault counters may move.
  options.executor_faults.assign(static_cast<size_t>(task_->num_models()),
                                 ExecutorFault{});
  ConcurrentServer server(*task_, &policy, options);
  const QueryTrace trace = MakeTrace(5.0, 10 * kSecond, 10 * kSecond);
  const ServingMetrics metrics = server.Run(trace);
  EXPECT_EQ(metrics.processed, trace.size());
  const auto sched = server.scheduler_stats();
  EXPECT_EQ(sched.failstops, 0);
  EXPECT_EQ(sched.requeues, 0);
  EXPECT_EQ(sched.stale_tasks_dropped, 0);
}

TEST_F(FaultInjectionTest, SlowReplicasStillConserveInForceMode) {
  OriginalPolicy policy;
  ConcurrentServerOptions options = ForceOptions();
  options.executor_models = {0, 0, 1, 1, 2, 2};
  options.executor_faults.assign(options.executor_models.size(),
                                 ExecutorFault{});
  // One replica of each model runs at quarter speed: placement skews, but
  // every query must still complete exactly once.
  for (size_t e = 0; e < options.executor_faults.size(); e += 2) {
    options.executor_faults[e].speed = 0.25;
  }
  ConcurrentServer server(*task_, &policy, options);
  const QueryTrace trace = MakeTrace(8.0, 10 * kSecond, 60 * kSecond);
  const ServingMetrics metrics = server.Run(trace);
  EXPECT_EQ(metrics.processed, trace.size());
  EXPECT_EQ(server.scheduler_stats().failstops, 0);
}

TEST_F(FaultInjectionTest, StragglerOnsetInflatesLatencyNotConservation) {
  const QueryTrace trace = MakeTrace(5.0, 10 * kSecond, 60 * kSecond);

  OriginalPolicy clean_policy;
  ConcurrentServer clean(*task_, &clean_policy, ForceOptions());
  const ServingMetrics clean_metrics = clean.Run(trace);

  OriginalPolicy slow_policy;
  ConcurrentServerOptions options = ForceOptions();
  options.executor_faults.assign(static_cast<size_t>(task_->num_models()),
                                 ExecutorFault{});
  for (ExecutorFault& fault : options.executor_faults) {
    fault.straggle_after = 2 * kSecond;
    fault.straggle_factor = 4.0;
  }
  ConcurrentServer straggling(*task_, &slow_policy, options);
  const ServingMetrics slow_metrics = straggling.Run(trace);

  // Conservation holds regardless of the 4x mid-trace slowdown.
  EXPECT_EQ(clean_metrics.processed, trace.size());
  EXPECT_EQ(slow_metrics.processed, trace.size());
  // The latency comparison measures virtual service times, but on tiny or
  // sanitized hosts scheduling slop can rival the signal.
  if (!kSanitized && LoadSensitiveSkipReason().empty()) {
    EXPECT_GT(slow_metrics.mean_latency_ms(),
              clean_metrics.mean_latency_ms());
  }
}

TEST_F(FaultInjectionTest, FailStopRequeuesBacklogAndConservesQueries) {
  OriginalPolicy policy;
  ConcurrentServerOptions options = ForceOptions();
  // Two replicas per model so the victim's model keeps a live replica.
  options.executor_models = {0, 0, 1, 1, 2, 2};
  options.executor_faults.assign(options.executor_models.size(),
                                 ExecutorFault{});
  options.executor_faults[0].fail_at = 4 * kSecond;
  ConcurrentServer server(*task_, &policy, options);

  const QueryTrace trace = MakeTrace(10.0, 10 * kSecond, 60 * kSecond);
  const ServingMetrics metrics = server.Run(trace);

  // The core conservation proof: the dead executor's in-flight and queued
  // tasks flowed back through the domain inbox and completed elsewhere.
  EXPECT_EQ(metrics.processed, trace.size());
  EXPECT_EQ(metrics.missed + metrics.processed,
            static_cast<int64_t>(trace.size()));
  const auto sched = server.scheduler_stats();
  // Original fans every query to every model, so the victim sees a steady
  // task stream past fail_at and deterministically dies exactly once,
  // with at least the triggering task in its backlog.
  EXPECT_EQ(sched.failstops, 1);
  EXPECT_GE(sched.requeues, 1);
  EXPECT_GE(sched.stale_tasks_dropped, 0);
}

TEST_F(FaultInjectionTest, BatchedFailStopRequeuesEveryTaskExactlyOnce) {
  OriginalPolicy policy;
  ConcurrentServerOptions options = ForceOptions();
  // Two replicas per model, batching on: the victim's queue holds whole
  // coalesced batches when it dies, and every batched task must flow back
  // through the generation-stamped re-queue path — completed exactly once,
  // never double-counted (a duplicate finalize is a CHECK failure inside
  // the server, so conservation here proves exactly-once).
  options.executor_models = {0, 0, 1, 1, 2, 2};
  options.batching = true;
  options.executor_faults.assign(options.executor_models.size(),
                                 ExecutorFault{});
  options.executor_faults[0].fail_at = 4 * kSecond;
  ConcurrentServer server(*task_, &policy, options);

  // 3x the FailStopRequeues rate so executor queues run deep enough that
  // the workers genuinely coalesce (occupancy > 1) before the failure.
  const QueryTrace trace = MakeTrace(30.0, 10 * kSecond, 60 * kSecond);
  const ServingMetrics metrics = server.Run(trace);

  EXPECT_EQ(metrics.processed, trace.size());
  EXPECT_EQ(metrics.missed + metrics.processed,
            static_cast<int64_t>(trace.size()));
  const auto sched = server.scheduler_stats();
  EXPECT_EQ(sched.failstops, 1);
  EXPECT_GE(sched.requeues, 1);
  // The batch counters advance on the batched path too, and under this
  // overload at least one execution carried more than one task.
  EXPECT_GE(sched.batches_executed, 1);
  EXPECT_GT(sched.tasks_batched, sched.batches_executed);
}

TEST_F(FaultInjectionTest, FailStopMidRunPublishesLoggedCompletionsOnce) {
  // Every executor runs 100x fast, so at speedup 1e6 no service reaches
  // 1 ns real: workers never sleep and publish whole runs of ended tasks
  // at once. The victim dies with such a log in hand; it must publish the
  // log before requeueing its backlog, so every query is still finalized
  // exactly once (a second finalization CHECK-fails inside the server).
  OriginalPolicy policy;
  ConcurrentServerOptions options = ForceOptions();
  options.speedup = 1e6;
  options.executor_models = {0, 0, 1, 1, 2, 2};
  options.executor_faults.assign(options.executor_models.size(),
                                 ExecutorFault{});
  for (ExecutorFault& fault : options.executor_faults) fault.speed = 100.0;
  // Half a millisecond of real time into the run: mid-run, with thousands
  // of tasks still queued.
  options.executor_faults[0].fail_at = kSecond / 2;
  ConcurrentServer server(*task_, &policy, options);

  const QueryTrace trace = MakeTrace(5000.0, 2 * kSecond, 3600 * kSecond);
  const ServingMetrics metrics = server.Run(trace);

  EXPECT_EQ(metrics.total, static_cast<int64_t>(trace.size()));
  EXPECT_EQ(metrics.processed, metrics.total);
  const auto sched = server.scheduler_stats();
  EXPECT_EQ(sched.failstops, 1);
  // Runs coalesced: fewer domain-lock acquisitions than executed tasks
  // (per-task publication would take at least one per task).
  EXPECT_LT(server.lock_stats().acquisitions, sched.tasks_batched);
}

TEST_F(FaultInjectionTest, FailStopRequeueNeverStrandsAQuery) {
  // A one-slot inbox is nearly always full, so a fail-stop requeue that
  // goes through the inbox finds no room. Re-buffering such a query
  // without its arrival decision strands it under Original, which never
  // plans buffered queries: it waits out its deadline as a miss (a hang in
  // force mode). 600 s deadlines turn that into a miss after 6 s of real
  // time, and ~10% of seeds hit the window, so 30 seeds catch it on nearly
  // every run.
  constexpr uint64_t kSeeds = 30;
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    OriginalPolicy policy;
    ConcurrentServerOptions options;
    options.speedup = 100.0;
    options.executor_models = {0, 0, 1, 1, 2, 2};
    options.inbox_capacity = 1;
    options.executor_faults.assign(options.executor_models.size(),
                                   ExecutorFault{});
    options.executor_faults[0].fail_at = 4 * kSecond;
    ConcurrentServer server(*task_, &policy, options);
    const QueryTrace trace =
        MakeTrace(60.0, 5 * kSecond, 600 * kSecond, seed);
    const ServingMetrics metrics = server.Run(trace);
    EXPECT_EQ(metrics.processed, metrics.total) << "seed " << seed;
    EXPECT_EQ(metrics.missed, 0) << "seed " << seed;
    EXPECT_EQ(server.scheduler_stats().failstops, 1) << "seed " << seed;
  }
}

TEST_F(FaultInjectionTest, FailStopWithoutLiveReplicaDies) {
  OriginalPolicy policy;
  ConcurrentServerOptions options = ForceOptions();
  // Single replica per model: killing executor 0 leaves model 0 with no
  // live replica, which dispatch must CHECK rather than hang.
  options.executor_faults.assign(static_cast<size_t>(task_->num_models()),
                                 ExecutorFault{});
  options.executor_faults[0].fail_at = 2 * kSecond;
  const QueryTrace trace = MakeTrace(10.0, 10 * kSecond, 60 * kSecond);
  EXPECT_DEATH(
      {
        ConcurrentServer server(*task_, &policy, options);
        server.Run(trace);
      },
      "no live executor for model");
}

}  // namespace
}  // namespace schemble
