#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <vector>

#include "baselines/original_policy.h"
#include "baselines/static_policy.h"
#include "core/discrepancy.h"
#include "core/schemble_policy.h"
#include "models/task_factory.h"
#include "runtime/concurrent_server.h"
#include "runtime/routing_policy.h"
#include "workload/trace.h"
#include "workload/traffic.h"

// Sanitizer instrumentation slows every thread 2-20x, which splits the
// batched admission and completion paths into more, smaller critical
// sections; the per-query lock bound below is calibrated for
// uninstrumented builds only.
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

/// Structural invariants every sharded run must satisfy regardless of
/// thread timing: conservation across the per-domain metric sinks (a lost
/// or double-counted query breaks one of these even when the exactly-once
/// finalize CHECK is not hit).
void CheckShardedInvariants(const ServingMetrics& metrics,
                            const QueryTrace& trace) {
  EXPECT_EQ(metrics.total, trace.size());
  const int64_t size_count_total =
      std::accumulate(metrics.subset_size_counts.begin(),
                      metrics.subset_size_counts.end(), int64_t{0});
  EXPECT_EQ(size_count_total, metrics.total);
  int64_t seg_arrivals = 0;
  for (const SegmentStats& seg : metrics.segments) {
    seg_arrivals += seg.arrivals;
  }
  EXPECT_EQ(seg_arrivals, metrics.total);
  EXPECT_EQ(metrics.latency_ms.count(),
            static_cast<int64_t>(metrics.processed));
}

/// Routes every query to one fixed domain: the other domains stay idle for
/// the whole run.
class FixedRouting final : public RoutingPolicy {
 public:
  explicit FixedRouting(int target) : target_(target) {}
  std::string name() const override { return "fixed"; }
  int Route(const TracedQuery&, SimTime,
            std::span<const DomainLoad>) override {
    return target_;
  }

 private:
  int target_;
};

QueryTrace MakeSimpleTrace(const SyntheticTask& task, double rate,
                           SimTime duration, SimTime deadline,
                           uint64_t seed) {
  PoissonTraffic traffic(rate);
  ConstantDeadline deadlines(deadline);
  TraceOptions options;
  options.seed = seed;
  return BuildTrace(task, traffic, deadlines, duration, options);
}

TEST(ShardedServerTest, ForceModeProcessesEverythingAcrossDomains) {
  const SyntheticTask task = MakeTextMatchingTask(3);
  OriginalPolicy policy_a;
  OriginalPolicy policy_b;
  ConcurrentServerOptions options;
  options.num_domains = 2;
  options.executor_models = {0, 0, 1, 1, 2, 2};
  options.routing = RoutingPolicyKind::kRoundRobin;
  options.allow_rejection = false;
  options.speedup = 100.0;
  ConcurrentServer server(task, {&policy_a, &policy_b}, options);
  EXPECT_EQ(server.num_domains(), 2);
  EXPECT_EQ(server.num_executors(), 6);
  const QueryTrace trace =
      MakeSimpleTrace(task, 10.0, 10 * kSecond, 10 * kSecond, 17);
  const ServingMetrics metrics = server.Run(trace);
  CheckShardedInvariants(metrics, trace);
  EXPECT_EQ(metrics.processed, trace.size());
}

/// A four-domain StaticPolicy deployment (two executors of model 1 per
/// domain, force mode) replaying `trace` at `speedup`.
struct StaticRun {
  ServingMetrics metrics;
  ConcurrentServer::LockStatsSnapshot lock;
};

StaticRun RunFourDomainStatic(const SyntheticTask& task,
                              const QueryTrace& trace, double speedup) {
  constexpr int kDomains = 4;
  StaticDeployment deployment;
  deployment.subset = SubsetMask{1} << 1;
  deployment.replicas = {0, 2 * kDomains, 0};
  std::vector<StaticPolicy> policies(kDomains, StaticPolicy(deployment));
  std::vector<ServingPolicy*> policy_ptrs;
  for (StaticPolicy& policy : policies) policy_ptrs.push_back(&policy);
  ConcurrentServerOptions options;
  options.num_domains = kDomains;
  options.executor_models.assign(2 * kDomains, 1);
  options.allow_rejection = false;
  options.speedup = speedup;
  ConcurrentServer server(task, std::move(policy_ptrs), options);
  StaticRun run;
  run.metrics = server.Run(trace);
  run.lock = server.lock_stats();
  return run;
}

TEST(ShardedServerTest, FourDomainsConserveQueriesInRealTime) {
  // Speedup 1: every timed wait spans milliseconds of real time.
  const SyntheticTask task = MakeTextMatchingTask(3);
  const QueryTrace trace =
      MakeSimpleTrace(task, 200.0, 200 * kMillisecond, kSecond, 41);
  ASSERT_GT(trace.size(), 10);
  const StaticRun run = RunFourDomainStatic(task, trace, 1.0);
  CheckShardedInvariants(run.metrics, trace);
  EXPECT_EQ(run.metrics.processed, trace.size());
}

TEST(ShardedServerTest, FourDomainsStayQuietAtSpeedupMillion) {
  // Speedup 1e6: a whole second of virtual time is 1 ms of real time.
  // Domains plan only on events, so domain-lock acquisitions stay near one
  // per query (admission, dispatch and completion are batched): 1.006 on
  // a 4-vCPU host. Any periodic wakeup shows here: a 10-virtual-ms tick
  // floored at 200 us real read 1.04-1.06, an unfloored one 2.9-3.1.
  const SyntheticTask task = MakeTextMatchingTask(3);
  const QueryTrace trace =
      MakeSimpleTrace(task, 400.0, 10 * kSecond, kSecond, 43);
  ASSERT_GT(trace.size(), 3000);
  const StaticRun run = RunFourDomainStatic(task, trace, 1e6);
  CheckShardedInvariants(run.metrics, trace);
  EXPECT_EQ(run.metrics.processed, trace.size());
  const double acquisitions_per_query =
      static_cast<double>(run.lock.acquisitions) /
      static_cast<double>(trace.size());
  if (!kSanitized) {
    EXPECT_LT(acquisitions_per_query, 2.0);
  }
}

TEST(ShardedServerTest, MismatchedPolicyCountIsRejected) {
  const SyntheticTask task = MakeTextMatchingTask(3);
  OriginalPolicy policy;
  ConcurrentServerOptions options;
  options.num_domains = 2;
  options.executor_models = {0, 0, 1, 1, 2, 2};
  EXPECT_DEATH(ConcurrentServer(task, {&policy}, options),
               "one policy instance per scheduler domain");
}

TEST(ShardedServerTest, UnderReplicatedModelIsRejected) {
  const SyntheticTask task = MakeTextMatchingTask(3);
  OriginalPolicy policy_a;
  OriginalPolicy policy_b;
  ConcurrentServerOptions options;
  options.num_domains = 2;
  // Model 2 has a single replica: domain 1 could never serve it.
  options.executor_models = {0, 0, 1, 1, 2};
  EXPECT_DEATH(ConcurrentServer(task, {&policy_a, &policy_b}, options),
               "fewer replicas than scheduler domains");
}

TEST(ShardedServerTest, ZeroArrivalPumpsIsRejected) {
  const SyntheticTask task = MakeTextMatchingTask(3);
  OriginalPolicy policy_a;
  OriginalPolicy policy_b;
  ConcurrentServerOptions options;
  options.num_domains = 2;
  options.executor_models = {0, 0, 1, 1, 2, 2};
  options.num_arrival_threads = 0;
  EXPECT_DEATH(ConcurrentServer(task, {&policy_a, &policy_b}, options),
               "at least one arrival pump is required");
}

TEST(ShardedServerTest, ExcessiveArrivalPumpCountIsRejected) {
  const SyntheticTask task = MakeTextMatchingTask(3);
  OriginalPolicy policy_a;
  OriginalPolicy policy_b;
  ConcurrentServerOptions options;
  options.num_domains = 2;
  options.executor_models = {0, 0, 1, 1, 2, 2};
  options.num_arrival_threads = 65;
  EXPECT_DEATH(ConcurrentServer(task, {&policy_a, &policy_b}, options),
               "arrival pump count capped at 64");
}

TEST(ShardedServerTest, MorePumpsThanTraceQueriesIsRejected) {
  const SyntheticTask task = MakeTextMatchingTask(3);
  OriginalPolicy policy_a;
  OriginalPolicy policy_b;
  ConcurrentServerOptions options;
  options.num_domains = 2;
  options.executor_models = {0, 0, 1, 1, 2, 2};
  options.num_arrival_threads = 8;
  options.speedup = 100.0;
  ConcurrentServer server(task, {&policy_a, &policy_b}, options);
  // The check fires at Run time: the pump count is validated against the
  // concrete trace, not the options alone.
  QueryTrace trace = MakeSimpleTrace(task, 10.0, 10 * kSecond, 10 * kSecond, 17);
  trace.items.resize(3);
  EXPECT_DEATH(server.Run(trace), "more arrival pumps than trace queries");
}

TEST(ShardedServerTest, MalformedPumpWeightsAreRejected) {
  const SyntheticTask task = MakeTextMatchingTask(3);
  OriginalPolicy policy_a;
  OriginalPolicy policy_b;
  ConcurrentServerOptions options;
  options.num_domains = 2;
  options.executor_models = {0, 0, 1, 1, 2, 2};
  options.num_arrival_threads = 2;
  options.arrival_pump_weights = {4, 1, 1};  // three weights, two pumps
  EXPECT_DEATH(ConcurrentServer(task, {&policy_a, &policy_b}, options),
               "one entry per pump");
  options.arrival_pump_weights = {4, 0};  // a pump that owns nothing
  EXPECT_DEATH(ConcurrentServer(task, {&policy_a, &policy_b}, options),
               "arrival pump weights must be positive");
}

TEST(ShardedServerTest, CustomRouterRequiresSinglePump) {
  const SyntheticTask task = MakeTextMatchingTask(3);
  OriginalPolicy policy_a;
  OriginalPolicy policy_b;
  FixedRouting all_to_zero(0);
  ConcurrentServerOptions options;
  options.num_domains = 2;
  options.executor_models = {0, 0, 1, 1, 2, 2};
  options.router = &all_to_zero;
  options.num_arrival_threads = 2;
  // RoutingPolicy instances are single-caller; a user-supplied instance
  // cannot be shared across pumps and the ctor must say so up front.
  EXPECT_DEATH(ConcurrentServer(task, {&policy_a, &policy_b}, options),
               "single-caller");
}

TEST(ShardedServerTest, MultiPumpForceModeProcessesEverything) {
  const SyntheticTask task = MakeTextMatchingTask(3);
  OriginalPolicy policy_a;
  OriginalPolicy policy_b;
  ConcurrentServerOptions options;
  options.num_domains = 2;
  options.executor_models = {0, 0, 1, 1, 2, 2};
  options.routing = RoutingPolicyKind::kLeastLoaded;
  options.allow_rejection = false;
  options.speedup = 100.0;
  options.num_arrival_threads = 4;
  ConcurrentServer server(task, {&policy_a, &policy_b}, options);
  EXPECT_EQ(server.num_arrival_pumps(), 4);
  const QueryTrace trace =
      MakeSimpleTrace(task, 20.0, 10 * kSecond, 10 * kSecond, 19);
  const ServingMetrics metrics = server.Run(trace);
  CheckShardedInvariants(metrics, trace);
  EXPECT_EQ(metrics.processed, trace.size());
  // Every query was routed by exactly one pump, and the round-robin
  // partition gives every pump a non-empty slice of this trace.
  int64_t routed = 0;
  for (int p = 0; p < server.num_arrival_pumps(); ++p) {
    EXPECT_GT(server.pump_routed(p), 0) << "pump " << p;
    routed += server.pump_routed(p);
  }
  EXPECT_EQ(routed, trace.size());
}

TEST(ShardedServerTest, SkewedPumpWeightsPartitionTheTrace) {
  const SyntheticTask task = MakeTextMatchingTask(3);
  OriginalPolicy policy_a;
  OriginalPolicy policy_b;
  ConcurrentServerOptions options;
  options.num_domains = 2;
  options.executor_models = {0, 0, 1, 1, 2, 2};
  options.allow_rejection = false;
  options.speedup = 100.0;
  options.num_arrival_threads = 2;
  options.arrival_pump_weights = {4, 1};  // pump 0 replays 80% of arrivals
  ConcurrentServer server(task, {&policy_a, &policy_b}, options);
  const QueryTrace trace =
      MakeSimpleTrace(task, 20.0, 10 * kSecond, 10 * kSecond, 19);
  const ServingMetrics metrics = server.Run(trace);
  CheckShardedInvariants(metrics, trace);
  EXPECT_EQ(metrics.processed, trace.size());
  EXPECT_EQ(server.pump_routed(0) + server.pump_routed(1), trace.size());
  // The weighted round-robin deal is deterministic: pump 0 owns slots
  // {0,1,2,3} of every 5-slot cycle.
  const int64_t n = trace.size();
  EXPECT_EQ(server.pump_routed(0), (n / 5) * 4 + std::min<int64_t>(n % 5, 4));
}

TEST(ShardedServerTest, PumpCountDoesNotChangeDeterministicMetrics) {
  // In force mode the completion metrics (conservation counts, subset
  // histogram, accuracy sums) are pure functions of the trace and the
  // policy — never of arrival-thread interleaving. Four pumps must
  // reproduce the single-pump numbers. Deadlines are far beyond the
  // replay window so wall-clock jitter on a loaded host cannot turn
  // scheduling skew into deadline misses.
  const SyntheticTask task = MakeTextMatchingTask(3);
  const QueryTrace trace =
      MakeSimpleTrace(task, 20.0, 10 * kSecond, 600 * kSecond, 19);
  auto run = [&](int pumps) {
    OriginalPolicy policy_a;
    OriginalPolicy policy_b;
    ConcurrentServerOptions options;
    options.num_domains = 2;
    options.executor_models = {0, 0, 1, 1, 2, 2};
    options.routing = RoutingPolicyKind::kRoundRobin;
    options.allow_rejection = false;
    options.speedup = 100.0;
    options.num_arrival_threads = pumps;
    ConcurrentServer server(task, {&policy_a, &policy_b}, options);
    return server.Run(trace);
  };
  const ServingMetrics one = run(1);
  const ServingMetrics four = run(4);
  EXPECT_EQ(one.total, four.total);
  EXPECT_EQ(one.processed, four.processed);
  EXPECT_EQ(one.missed, four.missed);
  EXPECT_EQ(one.subset_size_counts, four.subset_size_counts);
  // The per-query accuracies are identical; only the floating-point
  // summation order differs (queries land in different domains when the
  // round-robin cursor is per-pump), so compare with a tolerance.
  EXPECT_NEAR(one.accuracy_sum, four.accuracy_sum, 1e-6);
  EXPECT_NEAR(one.processed_accuracy_sum, four.processed_accuracy_sum, 1e-6);
}

TEST(ShardedServerTest, SkewedRoutingProcessesEveryQueryOnce) {
  const SyntheticTask task = MakeTextMatchingTask(3);
  OriginalPolicy policy_a;
  OriginalPolicy policy_b;
  FixedRouting all_to_zero(0);
  ConcurrentServerOptions options;
  options.num_domains = 2;
  options.executor_models = {0, 0, 1, 1, 2, 2};
  options.router = &all_to_zero;
  options.allow_rejection = false;
  options.speedup = 100.0;
  // Tiny executor queues: domain 0's admitter stalls dispatching the
  // flood and arrivals back up in its inbox, while domain 1 never sees a
  // query.
  options.queue_capacity = 4;
  ConcurrentServer server(task, {&policy_a, &policy_b}, options);
  // ~3x the capacity of domain 0's executor slice.
  const QueryTrace trace =
      MakeSimpleTrace(task, 60.0, 10 * kSecond, 60 * kSecond, 23);
  const ServingMetrics metrics = server.Run(trace);
  CheckShardedInvariants(metrics, trace);
  // Force mode: every query still completes exactly once (a double
  // dispatch would trip the host's finalize CHECK).
  EXPECT_EQ(metrics.processed, trace.size());
}

/// Round-robin placement that records, for every Route call, the domain
/// index and executor count of each entry of the load span it was given.
class RecordingRouting final : public RoutingPolicy {
 public:
  struct Entry {
    int domain;
    int executors;
  };

  std::string name() const override { return "recording"; }
  int Route(const TracedQuery&, SimTime,
            std::span<const DomainLoad> domains) override {
    std::vector<Entry>& call = calls.emplace_back();
    for (const DomainLoad& load : domains) {
      call.push_back({load.domain, load.executors});
    }
    return static_cast<int>(calls.size() % domains.size());
  }

  std::vector<std::vector<Entry>> calls;
};

TEST(ShardedServerTest, PumpRoutesOnOneLoadEntryPerDomain) {
  const SyntheticTask task = MakeTextMatchingTask(3);
  OriginalPolicy policy_a;
  OriginalPolicy policy_b;
  OriginalPolicy policy_c;
  RecordingRouting router;
  ConcurrentServerOptions options;
  options.num_domains = 3;
  // Replicas are dealt round-robin per model, so the domains own 5, 4
  // and 3 executors: model 0 -> {2,1,1}, model 1 -> {2,2,1}, model 2 ->
  // {1,1,1}.
  options.executor_models = {0, 0, 0, 0, 1, 1, 1, 1, 1, 2, 2, 2};
  options.router = &router;
  options.allow_rejection = false;
  options.speedup = 100.0;
  ConcurrentServer server(task, {&policy_a, &policy_b, &policy_c}, options);
  const QueryTrace trace =
      MakeSimpleTrace(task, 10.0, 5 * kSecond, 10 * kSecond, 37);
  const ServingMetrics metrics = server.Run(trace);
  CheckShardedInvariants(metrics, trace);
  EXPECT_EQ(metrics.processed, trace.size());

  // One Route call per query (single pump), each against one load entry
  // per domain, in domain order, carrying that domain's executor count —
  // before any domain has admitted anything, too.
  const std::vector<int> executors = {5, 4, 3};
  ASSERT_EQ(router.calls.size(), trace.size());
  for (const std::vector<RecordingRouting::Entry>& call : router.calls) {
    ASSERT_EQ(call.size(), executors.size());
    for (size_t d = 0; d < call.size(); ++d) {
      EXPECT_EQ(call[d].domain, static_cast<int>(d));
      EXPECT_EQ(call[d].executors, executors[d]);
    }
  }
}

class ShardedSchembleTest : public ::testing::Test {
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

  SchemblePolicy MakeOraclePolicy() const {
    SchembleConfig config;
    config.score_source = ScoreSource::kOracle;
    return SchemblePolicy(*task_, *profile_, nullptr, scorer_.get(),
                          std::move(config));
  }

  std::unique_ptr<SyntheticTask> task_;
  std::vector<Query> history_;
  std::unique_ptr<DiscrepancyScorer> scorer_;
  std::unique_ptr<AccuracyProfile> profile_;
};

/// The multi-domain TSan target: four domains, 32 workers over a 3-model
/// ensemble (replicas 8/16/8), four independent Schemble policy instances,
/// a bursty trace skewed 7:1 onto domain 0 so one domain runs overloaded
/// beside three lightly loaded ones, while admission, planning, deadline
/// and worker threads run in every domain at once.
TEST_F(ShardedSchembleTest, StressFourDomainsSkewedBurstyTraffic) {
  SchemblePolicy policy_a = MakeOraclePolicy();
  SchemblePolicy policy_b = MakeOraclePolicy();
  SchemblePolicy policy_c = MakeOraclePolicy();
  SchemblePolicy policy_d = MakeOraclePolicy();

  /// 7 of 8 queries land on domain 0; the rest cycle the other domains.
  class SkewedRouting final : public RoutingPolicy {
   public:
    std::string name() const override { return "skewed"; }
    int Route(const TracedQuery& query, SimTime,
              std::span<const DomainLoad> domains) override {
      const int64_t id = query.query.id;
      if (id % 8 != 0) return 0;
      return 1 + static_cast<int>((id / 8) % (domains.size() - 1));
    }
  };
  SkewedRouting skew;

  ConcurrentServerOptions options;
  options.num_domains = 4;
  options.executor_models.assign(8, 0);
  options.executor_models.insert(options.executor_models.end(), 16, 1);
  options.executor_models.insert(options.executor_models.end(), 8, 2);
  options.router = &skew;
  options.speedup = 100.0;
  // Small executor queues: domain 0's admitter stalls dispatching the
  // skewed flood, so its inbox and buffer back up on every run rather
  // than only under unlucky timing.
  options.queue_capacity = 4;
  ConcurrentServer server(
      *task_, {&policy_a, &policy_b, &policy_c, &policy_d}, options);
  EXPECT_EQ(server.num_executors(), 32);

  DiurnalTraffic traffic = DiurnalTraffic::QaDayShape(
      /*peak_rate_per_second=*/150.0, /*segment_duration=*/1 * kSecond);
  // Loose enough that queries survive the virtual-time lag of a loaded CI
  // box at speedup 100, tight enough that the deadline threads stay busy.
  ConstantDeadline deadlines(5 * kSecond);
  TraceOptions trace_options;
  trace_options.seed = 29;
  const QueryTrace trace = BuildTrace(*task_, traffic, deadlines,
                                      traffic.total_duration(), trace_options);
  ASSERT_GT(trace.size(), 500);

  const ServingMetrics metrics = server.Run(trace);
  CheckShardedInvariants(metrics, trace);
  EXPECT_GT(metrics.processed, 0);
}

}  // namespace
}  // namespace schemble
