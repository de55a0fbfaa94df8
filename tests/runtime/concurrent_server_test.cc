#include "runtime/concurrent_server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <numeric>
#include <set>
#include <thread>

#include "baselines/original_policy.h"
#include "baselines/static_policy.h"
#include "core/discrepancy.h"
#include "core/schemble_policy.h"
#include "models/task_factory.h"
#include "serving/server.h"
#include "stress/host.h"
#include "workload/trace.h"
#include "workload/traffic.h"

// Sanitizer instrumentation slows every thread 2-20x, so wall-clock
// quality numbers (miss rates, latency-dependent accuracy) are
// meaningless there; those assertions are gated on this flag while the
// structural invariants always hold.
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

/// Sanity invariants every run must satisfy regardless of thread timing.
void CheckInvariants(const ServingMetrics& metrics, const QueryTrace& trace) {
  EXPECT_EQ(metrics.total, trace.size());
  const int64_t size_count_total =
      std::accumulate(metrics.subset_size_counts.begin(),
                      metrics.subset_size_counts.end(), int64_t{0});
  EXPECT_EQ(size_count_total, metrics.total);
  int64_t seg_arrivals = 0;
  int64_t seg_processed = 0;
  int64_t seg_missed = 0;
  for (const SegmentStats& seg : metrics.segments) {
    seg_arrivals += seg.arrivals;
    seg_processed += seg.processed;
    seg_missed += seg.missed;
  }
  EXPECT_EQ(seg_arrivals, metrics.total);
  EXPECT_EQ(seg_processed, metrics.processed);
  EXPECT_EQ(seg_missed, metrics.missed);
  EXPECT_EQ(metrics.latency_ms.count(),
            static_cast<int64_t>(metrics.processed));
}

class ConcurrentServerTest : public ::testing::Test {
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

  std::unique_ptr<SyntheticTask> task_;
};

TEST_F(ConcurrentServerTest, LightLoadOriginalServesEverything) {
  OriginalPolicy policy;
  ConcurrentServerOptions options;
  options.speedup = 50.0;
  ConcurrentServer server(*task_, &policy, options);
  // 2 qps against a 50 ms ensemble with roomy 2 s deadlines: the only
  // nondeterminism is OS timer slop, which the deadline dwarfs.
  const QueryTrace trace = MakeTrace(2.0, 20 * kSecond, 2 * kSecond);
  const ServingMetrics metrics = server.Run(trace);
  CheckInvariants(metrics, trace);
  if (!kSanitized) {
    EXPECT_EQ(metrics.missed, 0);
    EXPECT_NEAR(metrics.accuracy(), 1.0, 1e-9);
    // Full ensemble on every query.
    EXPECT_EQ(metrics.subset_size_counts.back(), trace.size());
  }
}

TEST_F(ConcurrentServerTest, ForceModeProcessesEverything) {
  OriginalPolicy policy;
  ConcurrentServerOptions options;
  options.allow_rejection = false;
  options.speedup = 100.0;
  ConcurrentServer server(*task_, &policy, options);
  const QueryTrace trace = MakeTrace(5.0, 10 * kSecond, 10 * kSecond);
  const ServingMetrics metrics = server.Run(trace);
  CheckInvariants(metrics, trace);
  EXPECT_EQ(metrics.processed, trace.size());
  if (!kSanitized) {
    EXPECT_EQ(metrics.missed, 0);
  }
}

TEST_F(ConcurrentServerTest, OverloadDropsQueriesInRejectionMode) {
  OriginalPolicy policy;
  ConcurrentServerOptions options;
  options.speedup = 100.0;
  ConcurrentServer server(*task_, &policy, options);
  // 35 qps >> the ~20 qps bottleneck capacity of the slowest model.
  const QueryTrace trace = MakeTrace(35.0, 20 * kSecond, 100 * kMillisecond);
  const ServingMetrics metrics = server.Run(trace);
  CheckInvariants(metrics, trace);
  EXPECT_GT(metrics.deadline_miss_rate(), 0.1);
  // Whatever completed in full agrees with the ensemble.
  EXPECT_GT(metrics.processed_accuracy(), 0.8);
}

TEST_F(ConcurrentServerTest, ReplicasIncreaseThroughput) {
  // Two servers under identical overload; the one with doubled executors
  // should process (strictly) more queries.
  const QueryTrace trace = MakeTrace(35.0, 20 * kSecond, 200 * kMillisecond);
  OriginalPolicy policy_a;
  ConcurrentServerOptions base;
  base.speedup = 100.0;
  ConcurrentServer narrow(*task_, &policy_a, base);
  const ServingMetrics narrow_metrics = narrow.Run(trace);

  OriginalPolicy policy_b;
  ConcurrentServerOptions wide = base;
  wide.executor_models = {0, 0, 1, 1, 2, 2};
  ConcurrentServer doubled(*task_, &policy_b, wide);
  const ServingMetrics wide_metrics = doubled.Run(trace);

  CheckInvariants(narrow_metrics, trace);
  CheckInvariants(wide_metrics, trace);
  EXPECT_GT(wide_metrics.processed, narrow_metrics.processed);
  EXPECT_LT(wide_metrics.deadline_miss_rate(),
            narrow_metrics.deadline_miss_rate());
}

TEST_F(ConcurrentServerTest, EmptyTraceRunsClean) {
  OriginalPolicy policy;
  ConcurrentServerOptions options;
  options.speedup = 100.0;
  ConcurrentServer server(*task_, &policy, options);
  const QueryTrace trace;  // no queries at all
  const ServingMetrics metrics = server.Run(trace);
  CheckInvariants(metrics, trace);
  EXPECT_EQ(metrics.total, 0);
  EXPECT_EQ(metrics.processed, 0);
  EXPECT_EQ(metrics.missed, 0);
  const ConcurrentServer::SchedulerStatsSnapshot sched =
      server.scheduler_stats();
  EXPECT_EQ(sched.plans, 0);
  EXPECT_EQ(sched.plans_invalidated, 0);
}

TEST_F(ConcurrentServerTest, SingleExecutorStaticSubset) {
  // One executor in the whole deployment: every task funnels through one
  // queue and the batched dispatch path must still place them all.
  StaticDeployment deployment;
  deployment.subset = 0b010;
  deployment.replicas = {0, 1, 0};
  StaticPolicy policy(deployment);
  ConcurrentServerOptions options;
  options.executor_models = {1};
  options.allow_rejection = false;
  options.speedup = 100.0;
  ConcurrentServer server(*task_, &policy, options);
  const QueryTrace trace = MakeTrace(10.0, 10 * kSecond, 10 * kSecond);
  const ServingMetrics metrics = server.Run(trace);
  CheckInvariants(metrics, trace);
  EXPECT_EQ(metrics.processed, trace.size());
  // Every query ran exactly the single-model subset.
  ASSERT_GE(metrics.subset_size_counts.size(), 2u);
  EXPECT_EQ(metrics.subset_size_counts[1], trace.size());
}

TEST_F(ConcurrentServerTest, ZeroLengthServicesPublishCompletionsPerRun) {
  // At speedup 1e8 every service is shorter than 1 ns real, so no worker
  // ever sleeps on the timer: a worker publishes each run of ended tasks
  // in one domain-lock round trip instead of taking the lock per task.
  StaticDeployment deployment;
  deployment.subset = 0b010;
  deployment.replicas = {0, 8, 0};
  StaticPolicy policy(deployment);
  ConcurrentServerOptions options;
  options.executor_models.assign(8, 1);
  options.allow_rejection = false;
  options.speedup = 1e8;
  ConcurrentServer server(*task_, &policy, options);
  const QueryTrace trace = MakeTrace(1000.0, 20 * kSecond, 100 * kMillisecond);
  const ServingMetrics metrics = server.Run(trace);
  CheckInvariants(metrics, trace);
  EXPECT_EQ(metrics.processed, trace.size());
  const double acquisitions_per_query =
      static_cast<double>(server.lock_stats().acquisitions) /
      static_cast<double>(metrics.total);
  EXPECT_LT(acquisitions_per_query, 0.25);
}

TEST_F(ConcurrentServerTest, DeadlineStormRejectsEverything) {
  // Deadlines far below any model's service time: OriginalPolicy rejects
  // every arrival outright, so the whole trace resolves through the
  // batched admission path without a single dispatch or planning round.
  OriginalPolicy policy;
  ConcurrentServerOptions options;
  options.speedup = 100.0;
  ConcurrentServer server(*task_, &policy, options);
  const QueryTrace trace = MakeTrace(50.0, 10 * kSecond, 1 * kMillisecond);
  ASSERT_GT(trace.size(), 0);
  const ServingMetrics metrics = server.Run(trace);
  CheckInvariants(metrics, trace);
  EXPECT_EQ(metrics.processed, 0);
  EXPECT_EQ(metrics.missed, trace.size());
  EXPECT_EQ(server.scheduler_stats().plans, 0);
}

/// Off-lock planner that buffers everything and then plans so slowly that
/// deadlines finalize the snapshotted queries mid-plan: the runtime's
/// generation validation must drop those stale entries at commit time.
class SlowPlanPolicy : public ServingPolicy {
 public:
  std::string name() const override { return "slow-plan"; }

  ArrivalDecision OnArrival(const TracedQuery& /*query*/,
                            const ServerView& /*view*/) override {
    return ArrivalDecision::Buffer();
  }

  std::unique_ptr<PolicyPlanState> CreatePlanState() const override {
    return std::make_unique<PolicyPlanState>();
  }

  void PlanOnView(const ServerView& /*view*/,
                  PlanWorkspace* ws) const override {
    ws->output.assignments.clear();
    ws->output.overhead_us = 0;
    // Plan "work" long enough (real time) that, at the test's speedup,
    // whole deadline windows elapse while the policy mutex is free and
    // the deadline thread finalizes snapshotted queries under it.
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    for (size_t i = 0; i < ws->buffer.size(); ++i) {
      ws->output.assignments.push_back({ws->buffer[i].traced->query.id,
                                        SubsetMask{1}, static_cast<int>(i)});
    }
  }
};

TEST_F(ConcurrentServerTest, PlanInvalidationRaceIsDetected) {
  SlowPlanPolicy policy;
  ConcurrentServerOptions options;
  options.speedup = 200.0;
  ConcurrentServer server(*task_, &policy, options);
  // 50 ms virtual deadlines are 0.25 ms real: every 5 ms planning nap
  // outlives the deadlines of everything it snapshotted.
  const QueryTrace trace = MakeTrace(100.0, 5 * kSecond, 50 * kMillisecond);
  ASSERT_GT(trace.size(), 0);
  const ServingMetrics metrics = server.Run(trace);
  CheckInvariants(metrics, trace);
  const ConcurrentServer::SchedulerStatsSnapshot sched =
      server.scheduler_stats();
  EXPECT_GT(sched.plans, 0);
  // The race this test exists for: at least one plan entry must have gone
  // stale between snapshot and commit and been dropped by generation
  // validation (with these timings it is typically hundreds).
  EXPECT_GE(sched.plans_invalidated, 1);
  // Every query still resolves exactly once despite the churn.
  EXPECT_EQ(metrics.total, trace.size());
}

/// Buffers every query and plans the whole snapshot onto the full
/// ensemble through PlanOnView. Overrides the legacy OnIdle hook only to
/// count calls: neither server may ever make one.
class CountingPlanPolicy : public ServingPolicy {
 public:
  std::string name() const override { return "counting-plan"; }

  ArrivalDecision OnArrival(const TracedQuery& /*query*/,
                            const ServerView& /*view*/) override {
    return ArrivalDecision::Buffer();
  }

  PolicyOutput OnIdle(
      const ServerView& /*view*/,
      const std::vector<const TracedQuery*>& /*buffer*/) override {
    on_idle_calls.fetch_add(1);
    return {};
  }

  void PlanOnView(const ServerView& view, PlanWorkspace* ws) const override {
    plan_calls.fetch_add(1);
    ws->output.assignments.clear();
    ws->output.overhead_us = 0;
    for (size_t i = 0; i < ws->buffer.size(); ++i) {
      ws->output.assignments.push_back({ws->buffer[i].traced->query.id,
                                        FullMask(view.num_models()),
                                        static_cast<int>(i)});
    }
  }

  // PlanOnView may run concurrently with OnArrival.
  mutable std::atomic<int64_t> plan_calls{0};
  std::atomic<int64_t> on_idle_calls{0};
};

TEST_F(ConcurrentServerTest, BothServersPlanOnlyThroughPlanOnView) {
  const QueryTrace trace = MakeTrace(5.0, 10 * kSecond, 10 * kSecond);
  ASSERT_GT(trace.size(), 0);

  CountingPlanPolicy simulated;
  ServerOptions sim_options;
  sim_options.allow_rejection = false;
  const ServingMetrics sim_metrics =
      EnsembleServer(*task_, &simulated, sim_options).Run(trace);
  EXPECT_EQ(sim_metrics.processed, trace.size());
  EXPECT_GE(simulated.plan_calls.load(), 1);
  EXPECT_EQ(simulated.on_idle_calls.load(), 0);

  CountingPlanPolicy threaded;
  ConcurrentServerOptions options;
  options.allow_rejection = false;
  options.speedup = 100.0;
  ConcurrentServer server(*task_, &threaded, options);
  const ServingMetrics metrics = server.Run(trace);
  CheckInvariants(metrics, trace);
  EXPECT_EQ(metrics.processed, trace.size());
  EXPECT_GE(threaded.plan_calls.load(), 1);
  EXPECT_EQ(threaded.on_idle_calls.load(), 0);
}

/// Buffers every query, plans the whole snapshot onto the full ensemble
/// and reports `overhead` as its simulated planning cost. Records the
/// threads that call OnArrival and PlanOnView in plain sets: the runtime
/// serializes OnArrival under the domain mutex and PlanOnView under the
/// planner token, which TSan checks here.
class ThreadRecordingPlanPolicy : public ServingPolicy {
 public:
  explicit ThreadRecordingPlanPolicy(SimTime overhead) : overhead_(overhead) {}

  std::string name() const override { return "thread-recording-plan"; }

  ArrivalDecision OnArrival(const TracedQuery& /*query*/,
                            const ServerView& /*view*/) override {
    arrival_threads.insert(std::this_thread::get_id());
    return ArrivalDecision::Buffer();
  }

  void PlanOnView(const ServerView& view, PlanWorkspace* ws) const override {
    plan_threads.insert(std::this_thread::get_id());
    ws->output.assignments.clear();
    ws->output.overhead_us = overhead_;
    for (size_t i = 0; i < ws->buffer.size(); ++i) {
      ws->output.assignments.push_back({ws->buffer[i].traced->query.id,
                                        FullMask(view.num_models()),
                                        static_cast<int>(i)});
    }
  }

  std::set<std::thread::id> arrival_threads;
  mutable std::set<std::thread::id> plan_threads;

 private:
  SimTime overhead_;
};

TEST_F(ConcurrentServerTest, PlanningOverheadIsNotSlept) {
  // Every plan reports 10 virtual seconds of simulated overhead, which the
  // simulator charges by delaying the dispatched tasks. The runtime already
  // pays the real planning time; sleeping the charge as well would hold
  // every committed query for at least 10 s.
  ThreadRecordingPlanPolicy policy(10 * kSecond);
  ConcurrentServerOptions options;
  options.allow_rejection = false;
  // 10 virtual s are 100 ms real: threads stalled for a few ms on a
  // loaded test host stay well inside the bound.
  options.speedup = 100.0;
  ConcurrentServer server(*task_, &policy, options);
  const QueryTrace trace = MakeTrace(1.0, 40 * kSecond, 10 * kSecond);
  ASSERT_GT(trace.size(), 0);
  const ServingMetrics metrics = server.Run(trace);
  CheckInvariants(metrics, trace);
  EXPECT_EQ(metrics.processed, trace.size());
  EXPECT_GT(server.scheduler_stats().plan_commits, 0);
  EXPECT_LT(metrics.latency_ms.Quantile(0.99), 10000.0);
}

TEST_F(ConcurrentServerTest, OneDomainPlansOnTheAdmittingThread) {
  // The admitter that buffers a query runs the planning round itself, as
  // the simulator plans inside HandleArrival; no planning thread exists.
  ThreadRecordingPlanPolicy policy(0);
  ConcurrentServerOptions options;
  options.allow_rejection = false;
  options.speedup = 100.0;
  ConcurrentServer server(*task_, &policy, options);
  const QueryTrace trace = MakeTrace(5.0, 10 * kSecond, 10 * kSecond);
  ASSERT_GT(trace.size(), 0);
  const ServingMetrics metrics = server.Run(trace);
  CheckInvariants(metrics, trace);
  EXPECT_EQ(metrics.processed, trace.size());
  int planned_on_admitter = 0;
  for (const std::thread::id id : policy.plan_threads) {
    planned_on_admitter += static_cast<int>(policy.arrival_threads.count(id));
  }
  EXPECT_GT(planned_on_admitter, 0);
}

class ConcurrentSchembleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    task_ = std::make_unique<SyntheticTask>(MakeTextMatchingTask(3));
    history_ = task_->GenerateDataset(
        2000, DifficultyDistribution::UniformFull(), 5);
    auto scorer = DiscrepancyScorer::Fit(*task_, history_);
    ASSERT_TRUE(scorer.ok());
    scorer_ = std::make_unique<DiscrepancyScorer>(std::move(scorer).value());
    const auto scores = scorer_->ScoreAll(history_);
    auto profile = AccuracyProfile::Build(*task_, history_, scores);
    ASSERT_TRUE(profile.ok());
    profile_ = std::make_unique<AccuracyProfile>(std::move(profile).value());
  }

  SchemblePolicy MakeOraclePolicy(SchembleConfig config = {}) const {
    config.score_source = ScoreSource::kOracle;
    return SchemblePolicy(*task_, *profile_, nullptr, scorer_.get(),
                          std::move(config));
  }

  std::unique_ptr<SyntheticTask> task_;
  std::vector<Query> history_;
  std::unique_ptr<DiscrepancyScorer> scorer_;
  std::unique_ptr<AccuracyProfile> profile_;
};

TEST_F(ConcurrentSchembleTest, BufferedPolicyDrainsThroughScheduler) {
  // The admitter and the workers run the DP themselves, so a host that
  // plans slower than the executors serve (a sanitizer build on 2 cores)
  // can fall behind for the whole run and commit nothing: the test would
  // measure the host instead of the code.
  if (const std::string reason = LoadSensitiveSkipReason();
      !reason.empty()) {
    GTEST_SKIP() << reason;
  }
  SchemblePolicy policy = MakeOraclePolicy();
  ConcurrentServerOptions options;
  options.speedup = 100.0;
  ConcurrentServer server(*task_, &policy, options);
  PoissonTraffic traffic(30.0);
  ConstantDeadline deadlines(300 * kMillisecond);
  TraceOptions trace_options;
  trace_options.seed = 13;
  const QueryTrace trace =
      BuildTrace(*task_, traffic, deadlines, 20 * kSecond, trace_options);
  const ServingMetrics metrics = server.Run(trace);
  CheckInvariants(metrics, trace);
  // Under this load queries queue up, so the DP scheduler must have run
  // and the policy should keep most queries within deadline. Schemble
  // supports off-lock planning, so every run goes through the
  // snapshot-plan-commit path and the plan counters advance with it.
  EXPECT_GT(policy.scheduler_runs(), 0);
  const ConcurrentServer::SchedulerStatsSnapshot sched =
      server.scheduler_stats();
  EXPECT_GT(sched.plans, 0);
  EXPECT_GT(sched.plan_commits, 0);
  if (!kSanitized) {
    EXPECT_GT(metrics.accuracy(), 0.5);
    EXPECT_LT(metrics.deadline_miss_rate(), 0.5);
  }
}

TEST_F(ConcurrentSchembleTest, PlanningWorkerNeverBlocksOnItsOwnQueue) {
  // Workers plan after publishing completions, and a queue of capacity 1
  // is full as soon as it holds one task. A planning worker that blocked
  // pushing into its own queue would wait forever, since only it drains
  // that queue; the run finishing with everything processed is the check.
  SchemblePolicy policy = MakeOraclePolicy();
  ConcurrentServerOptions options;
  options.allow_rejection = false;
  options.queue_capacity = 1;
  options.speedup = 100.0;
  ConcurrentServer server(*task_, &policy, options);
  DiurnalTraffic traffic = DiurnalTraffic::QaDayShape(
      /*peak_rate_per_second=*/60.0, /*segment_duration=*/1 * kSecond);
  ConstantDeadline deadlines(300 * kMillisecond);
  TraceOptions trace_options;
  trace_options.seed = 31;
  const QueryTrace trace = BuildTrace(*task_, traffic, deadlines,
                                      traffic.total_duration(), trace_options);
  ASSERT_GT(trace.size(), 200);
  const ServingMetrics metrics = server.Run(trace);
  CheckInvariants(metrics, trace);
  EXPECT_EQ(metrics.processed, trace.size());
  EXPECT_GT(server.scheduler_stats().plan_commits, 0);
}

/// The TSan target: eight workers over the six-model CIFAR100-style
/// ensemble (extra replicas on the first two models), bursty arrivals,
/// the full Schemble policy with its DP scheduler, rejection mode with
/// tight deadlines — every thread in the runtime (admission, scheduler,
/// deadline, workers) active at once.
TEST_F(ConcurrentSchembleTest, StressManyWorkersBurstyTraffic) {
  SyntheticTask task = MakeCifar100StyleTask();
  const auto history =
      task.GenerateDataset(2000, DifficultyDistribution::UniformFull(), 5);
  auto scorer = DiscrepancyScorer::Fit(task, history);
  ASSERT_TRUE(scorer.ok());
  const DiscrepancyScorer oracle = std::move(scorer).value();
  auto profile = AccuracyProfile::Build(task, history,
                                        oracle.ScoreAll(history));
  ASSERT_TRUE(profile.ok());
  SchembleConfig config;
  config.score_source = ScoreSource::kOracle;
  SchemblePolicy policy(task, profile.value(), nullptr, &oracle,
                        std::move(config));

  ConcurrentServerOptions options;
  options.executor_models = {0, 1, 2, 3, 4, 5, 0, 1};
  options.speedup = 400.0;
  options.queue_capacity = 64;
  ConcurrentServer server(task, &policy, options);

  PoissonTraffic traffic(120.0);
  ConstantDeadline deadlines(250 * kMillisecond);
  TraceOptions trace_options;
  trace_options.seed = 29;
  const QueryTrace trace =
      BuildTrace(task, traffic, deadlines, 25 * kSecond, trace_options);
  ASSERT_GT(trace.size(), 2000);

  const ServingMetrics metrics = server.Run(trace);
  CheckInvariants(metrics, trace);
  EXPECT_GT(metrics.processed, 0);
}

}  // namespace
}  // namespace schemble
