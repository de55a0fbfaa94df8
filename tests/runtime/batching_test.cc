// Cross-query task batching (DESIGN.md "Cross-query batching"): the
// BatchLatencyModel arithmetic, the ServerView batch-composition gating,
// and the runtime equivalence contracts — batching off is the pre-batching
// runtime verbatim, and batching on with the batch size forced to 1 serves
// the same results as batching off.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "baselines/original_policy.h"
#include "core/policy.h"
#include "models/model_profile.h"
#include "models/task_factory.h"
#include "runtime/concurrent_server.h"
#include "workload/trace.h"
#include "workload/traffic.h"

namespace schemble {
namespace {

TEST(BatchLatencyModelTest, ServiceOfOneEqualsCalibratedLatency) {
  // The integer split (base = latency * frac, marginal = the remainder)
  // must make a batch of one cost exactly the profile latency, for any
  // base fraction — this is what keeps forced-batch-of-1 runs identical
  // to unbatched ones.
  for (SimTime latency : {1, 45, 1000, 45000, 95123}) {
    for (double frac : {0.0, 0.2, 0.35, 0.77, 0.95}) {
      const BatchLatencyModel m =
          BatchLatencyModel::FromLatency(latency, frac, 0.3, 16);
      EXPECT_EQ(m.ServiceUs(1), latency) << "frac=" << frac;
      EXPECT_EQ(m.base_us + m.marginal_us, latency);
    }
  }
}

TEST(BatchLatencyModelTest, ServiceGrowsSubLinearlyAndMonotonically) {
  const BatchLatencyModel m =
      BatchLatencyModel::FromLatency(45000, 0.35, 0.3, 16);
  SimTime prev = m.ServiceUs(1);
  for (int n = 2; n <= m.max_batch; ++n) {
    const SimTime cost = m.ServiceUs(n);
    EXPECT_GE(cost, prev) << "n=" << n;
    EXPECT_LT(cost, n * m.ServiceUs(1)) << "n=" << n;
    prev = cost;
  }
  // The defaults give a full 16-batch for well under a third of the
  // per-task sum — the headroom the throughput claim rests on.
  EXPECT_LT(m.ServiceUs(16) * 3, 16 * m.ServiceUs(1));
}

TEST(BatchLatencyModelTest, BacklogComposesFullBatchesPlusRemainder) {
  const BatchLatencyModel m = BatchLatencyModel::FromLatency(60000, 0.35,
                                                             0.3, 4);
  EXPECT_EQ(m.BacklogUs(0), 0);
  EXPECT_EQ(m.BacklogUs(-3), 0);
  EXPECT_EQ(m.BacklogUs(1), m.ServiceUs(1));
  EXPECT_EQ(m.BacklogUs(4), m.ServiceUs(4));
  EXPECT_EQ(m.BacklogUs(9), 2 * m.ServiceUs(4) + m.ServiceUs(1));
  EXPECT_EQ(m.BacklogUs(11), 2 * m.ServiceUs(4) + m.ServiceUs(3));
}

TEST(BatchLatencyModelTest, FromLatencyClampsDegenerateParameters) {
  // Base fraction caps at 0.95 so the marginal cost never collapses to
  // zero; coalescing clamps into [0, 1]; the cap is at least 1.
  const BatchLatencyModel top = BatchLatencyModel::FromLatency(1000, 2.0,
                                                               5.0, 0);
  EXPECT_EQ(top.base_us, 950);
  EXPECT_EQ(top.marginal_us, 50);
  EXPECT_EQ(top.coalescing, 1.0);
  EXPECT_EQ(top.max_batch, 1);
  const BatchLatencyModel bottom =
      BatchLatencyModel::FromLatency(1000, -1.0, -1.0, -7);
  EXPECT_EQ(bottom.base_us, 0);
  EXPECT_EQ(bottom.marginal_us, 1000);
  EXPECT_EQ(bottom.coalescing, 0.0);
  EXPECT_EQ(bottom.max_batch, 1);
}

TEST(BatchLatencyModelTest, ProfileAccessorUsesProfileCalibration) {
  ModelProfile profile;
  profile.latency_us = 45000;
  profile.batch_base_fraction = 0.5;
  profile.batch_coalescing = 0.25;
  profile.max_batch = 8;
  const BatchLatencyModel m = profile.batch_latency();
  EXPECT_EQ(m.ServiceUs(1), profile.latency_us);
  EXPECT_EQ(m.base_us, 22500);
  EXPECT_EQ(m.coalescing, 0.25);
  EXPECT_EQ(m.max_batch, 8);
}

TEST(ServerViewBatchingTest, PlannedExecTimeGatesOnBatchComposition) {
  ServerView view;
  view.model_exec_time = {60000, 95000};
  view.model_available_at = {0, 0};
  // No batch composition published: planners must see the plain per-task
  // time (this is every non-batching caller, including the discrete-event
  // server).
  EXPECT_FALSE(view.batching());
  EXPECT_EQ(view.PlannedExecTime(0), 60000);
  EXPECT_EQ(view.PlannedExecTime(1), 95000);

  view.model_batch = {BatchLatencyModel::FromLatency(60000, 0.35, 0.3, 16),
                      BatchLatencyModel::FromLatency(95000, 0.35, 0.3, 16)};
  view.model_queued = {0, 10};
  EXPECT_TRUE(view.batching());
  // Empty backlog: a batch of one, the plain per-task time, exactly.
  EXPECT_EQ(view.PlannedExecTime(0), 60000);
  // Deep backlog: the amortized cost of the 11-task batch this task would
  // join — strictly cheaper than the per-task time.
  const SimTime amortized = view.model_batch[1].ServiceUs(11) / 11;
  EXPECT_EQ(view.PlannedExecTime(1), amortized);
  EXPECT_LT(view.PlannedExecTime(1), 95000);
}

/// Buffers every arrival and plans the oldest buffered query onto model 0,
/// but only when some executor has nothing running or queued. Under
/// batching a busy executor with coalescing headroom still earns planning
/// rounds; committing nothing in them is waiting for capacity.
class OneAtATimePolicy : public ServingPolicy {
 public:
  std::string name() const override { return "one-at-a-time"; }

  ArrivalDecision OnArrival(const TracedQuery& /*query*/,
                            const ServerView& /*view*/) override {
    return ArrivalDecision::Buffer();
  }

  void PlanOnView(const ServerView& view, PlanWorkspace* ws) const override {
    ws->output.assignments.clear();
    ws->output.overhead_us = 0;
    if (ws->buffer.empty()) return;
    for (const ExecutorView& ex : view.executors) {
      if (ex.available_at > view.now) continue;
      ws->output.assignments.push_back(
          {ws->buffer[0].traced->query.id, SubsetMask{1}, 0});
      return;
    }
  }
};

class BatchingRuntimeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    task_ = std::make_unique<SyntheticTask>(MakeTextMatchingTask(3));
  }

  QueryTrace MakeTrace(double rate, SimTime duration, uint64_t seed = 11) {
    PoissonTraffic traffic(rate);
    ConstantDeadline deadlines(60 * kSecond);
    TraceOptions options;
    options.seed = seed;
    return BuildTrace(*task_, traffic, deadlines, duration, options);
  }

  ServingMetrics Run(const ConcurrentServerOptions& options,
                     const QueryTrace& trace,
                     ConcurrentServer::SchedulerStatsSnapshot* sched) {
    OriginalPolicy policy;
    ConcurrentServer server(*task_, &policy, options);
    const ServingMetrics metrics = server.Run(trace);
    *sched = server.scheduler_stats();
    return metrics;
  }

  ConcurrentServerOptions ForceOptions() {
    ConcurrentServerOptions options;
    options.allow_rejection = false;
    options.speedup = 100.0;
    return options;
  }

  std::unique_ptr<SyntheticTask> task_;
};

TEST_F(BatchingRuntimeTest, OffPathCountersBaselineAtOccupancyOne) {
  const QueryTrace trace = MakeTrace(5.0, 10 * kSecond);
  ConcurrentServer::SchedulerStatsSnapshot sched;
  const ServingMetrics metrics = Run(ForceOptions(), trace, &sched);
  EXPECT_EQ(metrics.processed, trace.size());
  // The counters advance on every execution even with batching off — a
  // batch of one each — so occupancy baselines at exactly 1.0 and every
  // task is accounted for (Original runs all three models per query).
  EXPECT_EQ(sched.batches_executed, sched.tasks_batched);
  EXPECT_EQ(sched.tasks_batched,
            static_cast<int64_t>(trace.size()) * task_->num_models());
  EXPECT_EQ(sched.mean_batch_occupancy(), 1.0);
}

TEST_F(BatchingRuntimeTest, ForcedBatchOfOneServesSameResultsAsUnbatched) {
  const QueryTrace trace = MakeTrace(8.0, 10 * kSecond);

  ConcurrentServerOptions off = ForceOptions();
  ConcurrentServer::SchedulerStatsSnapshot off_sched;
  const ServingMetrics off_metrics = Run(off, trace, &off_sched);

  ConcurrentServerOptions on = ForceOptions();
  on.batching = true;
  on.max_batch = 1;  // batched path, unbatched semantics
  ConcurrentServer::SchedulerStatsSnapshot on_sched;
  const ServingMetrics on_metrics = Run(on, trace, &on_sched);

  // Timing-free outputs must agree exactly: same queries processed, same
  // subsets executed, same aggregated accuracy (latencies are wall-clock
  // and may differ by scheduling slop).
  EXPECT_EQ(on_metrics.processed, off_metrics.processed);
  EXPECT_EQ(on_metrics.missed, off_metrics.missed);
  EXPECT_EQ(on_metrics.subset_size_counts, off_metrics.subset_size_counts);
  EXPECT_DOUBLE_EQ(on_metrics.accuracy_sum, off_metrics.accuracy_sum);
  EXPECT_EQ(on_sched.tasks_batched, off_sched.tasks_batched);
  EXPECT_EQ(on_sched.batches_executed, on_sched.tasks_batched);
  EXPECT_EQ(on_sched.mean_batch_occupancy(), 1.0);
}

TEST_F(BatchingRuntimeTest, CoalescesUnderBacklogAndConserves) {
  // 30 qps of three-model fan-out against one executor per model is far
  // over capacity: queues run deep and workers must coalesce.
  const QueryTrace trace = MakeTrace(30.0, 8 * kSecond);
  ConcurrentServerOptions options = ForceOptions();
  options.batching = true;
  ConcurrentServer::SchedulerStatsSnapshot sched;
  const ServingMetrics metrics = Run(options, trace, &sched);
  EXPECT_EQ(metrics.processed, trace.size());
  EXPECT_EQ(sched.tasks_batched,
            static_cast<int64_t>(trace.size()) * task_->num_models());
  EXPECT_GT(sched.tasks_batched, sched.batches_executed);
  EXPECT_GT(sched.mean_batch_occupancy(), 1.0);
}

TEST_F(BatchingRuntimeTest, WaitingForCapacityIsNotAStuckBuffer) {
  // 80 qps for half a virtual second against one 15 ms executor: a backlog
  // is still buffered when the arrivals end, and the executor is busy in
  // nearly every round that follows. Those rounds commit nothing (the
  // policy waits for a truly idle executor), which must not be reported
  // as a policy leaving queries stuck beside idle executors.
  OneAtATimePolicy policy;
  ConcurrentServerOptions options = ForceOptions();
  options.executor_models = {0};
  options.batching = true;
  options.speedup = 10.0;
  ConcurrentServer server(*task_, &policy, options);
  const QueryTrace trace = MakeTrace(80.0, kSecond / 2);
  ASSERT_GT(trace.size(), 20);
  ::testing::internal::CaptureStderr();
  const ServingMetrics metrics = server.Run(trace);
  const std::string log = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(metrics.processed, trace.size());
  EXPECT_EQ(log.find("policy left"), std::string::npos) << log;
  EXPECT_EQ(server.scheduler_stats().stuck_rounds, 0);
}

}  // namespace
}  // namespace schemble
