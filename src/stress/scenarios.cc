#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baselines/original_policy.h"
#include "core/discrepancy.h"
#include "core/schemble_policy.h"
#include "models/task_factory.h"
#include "runtime/concurrent_server.h"
#include "stress/invariants.h"
#include "stress/scenario.h"
#include "workload/trace.h"
#include "workload/traffic.h"

namespace schemble {
namespace {

/// Virtual microseconds per real microsecond for every scenario run: a
/// 10-virtual-second trace replays in ~0.1 real seconds. Timing-only — the
/// replay log never depends on it.
constexpr double kSpeedup = 100.0;

/// Everything a Schemble-oracle scenario needs to mint policy instances:
/// the task, a profiling dataset, the fitted scorer and the accuracy
/// profile. All of it is a pure function of `task_seed`, so two replays
/// build byte-identical policies.
struct OracleBundle {
  explicit OracleBundle(uint64_t task_seed)
      : task(MakeTextMatchingTask(task_seed)),
        history(task.GenerateDataset(
            2000, DifficultyDistribution::UniformFull(), 5)) {
    auto fitted = DiscrepancyScorer::Fit(task, history);
    SCHEMBLE_CHECK(fitted.ok());
    scorer = std::make_unique<DiscrepancyScorer>(std::move(fitted).value());
    auto built =
        AccuracyProfile::Build(task, history, scorer->ScoreAll(history));
    SCHEMBLE_CHECK(built.ok());
    profile = std::make_unique<AccuracyProfile>(std::move(built).value());
  }

  SchemblePolicy MakePolicy() const {
    SchembleConfig config;
    config.score_source = ScoreSource::kOracle;
    return SchemblePolicy(task, *profile, nullptr, scorer.get(),
                          std::move(config));
  }

  SyntheticTask task;
  std::vector<Query> history;
  std::unique_ptr<DiscrepancyScorer> scorer;
  std::unique_ptr<AccuracyProfile> profile;
};

/// `replicas` executors per base model, in model-major order (the order
/// ConcurrentServer partitions round-robin across domains).
std::vector<int> ReplicatedExecutors(const SyntheticTask& task,
                                     int replicas) {
  std::vector<int> models;
  for (int k = 0; k < task.num_models(); ++k) {
    models.insert(models.end(), static_cast<size_t>(replicas), k);
  }
  return models;
}

QueryTrace MakePoissonTrace(const SyntheticTask& task, double rate,
                            SimTime duration, SimTime deadline,
                            uint64_t seed, int num_sources = 1,
                            int64_t first_query_id = 1000000) {
  PoissonTraffic traffic(rate);
  ConstantDeadline deadlines(deadline);
  TraceOptions options;
  options.seed = seed;
  options.num_sources = num_sources;
  options.first_query_id = first_query_id;
  return BuildTrace(task, traffic, deadlines, duration, options);
}

/// Heterogeneous fleets: every executor draws an independent speed
/// multiplier, so the projected-availability placement and the policies
/// face persistently unequal replicas. Force mode makes conservation
/// strict: every query must complete despite the imbalance.
void HeterogeneousSpeeds(ScenarioContext& ctx) {
  const uint64_t task_seed = ctx.DrawSeed("task_seed");
  const SyntheticTask task = MakeTextMatchingTask(task_seed);
  const int replicas = ctx.DrawInt("replicas_per_model", 2, 3);

  ConcurrentServerOptions options;
  options.executor_models = ReplicatedExecutors(task, replicas);
  options.allow_rejection = false;
  options.speedup = kSpeedup;
  options.seed = ctx.DrawSeed("server_seed");
  for (size_t e = 0; e < options.executor_models.size(); ++e) {
    ExecutorFault fault;
    fault.speed =
        ctx.DrawDouble("speed_executor_" + std::to_string(e), 0.5, 2.0);
    options.executor_faults.push_back(fault);
  }

  const double rate = ctx.DrawDouble("rate_qps", 10.0, 25.0);
  const int duration_s = ctx.DrawInt("duration_s", 6, 10);
  const QueryTrace trace =
      MakePoissonTrace(task, rate, duration_s * kSecond, 60 * kSecond,
                       ctx.DrawSeed("trace_seed"));
  ctx.Event("trace queries = " + std::to_string(trace.size()));

  OriginalPolicy policy;
  ConcurrentServer server(task, &policy, options);
  const ServingMetrics metrics = server.Run(trace);

  InvariantOptions inv;
  inv.allow_rejection = false;
  CheckServingInvariants(ctx, metrics, trace, inv);
  CheckSchedulerCounters(ctx, server.scheduler_stats());
  const auto sched = server.scheduler_stats();
  ctx.ExpectEq(sched.failstops, 0, "failstops (none injected)");
  ctx.Note("mean latency ms = " + FormatDouble(metrics.mean_latency_ms()));
}

/// Straggler injection under a diurnal day shape: a random subset of
/// executors starts inflating service times mid-trace while the Schemble
/// planner keeps scheduling against deadlines.
void StragglersDiurnal(ScenarioContext& ctx) {
  const OracleBundle bundle(ctx.DrawSeed("task_seed"));
  const SyntheticTask& task = bundle.task;

  ConcurrentServerOptions options;
  options.executor_models = ReplicatedExecutors(task, 2);
  options.speedup = kSpeedup;
  options.seed = ctx.DrawSeed("server_seed");
  const double peak = ctx.DrawDouble("peak_rate_qps", 40.0, 80.0);
  DiurnalTraffic traffic =
      DiurnalTraffic::QaDayShape(peak, /*segment_duration=*/500 *
                                           kMillisecond);
  const SimTime duration = traffic.total_duration();
  int stragglers = 0;
  for (size_t e = 0; e < options.executor_models.size(); ++e) {
    ExecutorFault fault;
    if (ctx.DrawChance("straggle_executor_" + std::to_string(e), 0.5)) {
      const int onset_pct =
          ctx.DrawInt("straggle_onset_pct_" + std::to_string(e), 20, 50);
      fault.straggle_after = duration * onset_pct / 100;
      fault.straggle_factor = ctx.DrawDouble(
          "straggle_factor_" + std::to_string(e), 1.5, 3.0);
      ++stragglers;
    }
    options.executor_faults.push_back(fault);
  }
  ctx.Event("stragglers = " + std::to_string(stragglers));

  const SimTime deadline = ctx.DrawInt("deadline_ms", 2000, 5000) *
                           kMillisecond;
  ConstantDeadline deadlines(deadline);
  TraceOptions trace_options;
  trace_options.seed = ctx.DrawSeed("trace_seed");
  const QueryTrace trace =
      BuildTrace(task, traffic, deadlines, duration, trace_options);
  ctx.Event("trace queries = " + std::to_string(trace.size()));

  SchemblePolicy policy = bundle.MakePolicy();
  ConcurrentServer server(task, &policy, options);
  const ServingMetrics metrics = server.Run(trace);

  InvariantOptions inv;
  inv.max_relative_deadline = deadline;
  CheckServingInvariants(ctx, metrics, trace, inv);
  CheckSchedulerCounters(ctx, server.scheduler_stats());
  ctx.Note("miss rate = " + FormatDouble(metrics.deadline_miss_rate()));
}

/// The fail-stop recovery scenario (the tentpole's conservation proof):
/// one executor dies mid-trace, the queries of its in-flight and queued
/// tasks are re-admitted to their domain, and force mode demands that every
/// query still completes exactly once. This is the scenario the
/// replay-bit-identity acceptance check drives.
void FailStopRecovery(ScenarioContext& ctx) {
  const uint64_t task_seed = ctx.DrawSeed("task_seed");
  const SyntheticTask task = MakeTextMatchingTask(task_seed);

  ConcurrentServerOptions options;
  options.executor_models = ReplicatedExecutors(task, 2);
  options.allow_rejection = false;
  options.speedup = kSpeedup;
  options.seed = ctx.DrawSeed("server_seed");
  const double rate = ctx.DrawDouble("rate_qps", 15.0, 40.0);
  const int duration_s = ctx.DrawInt("duration_s", 6, 10);
  const SimTime duration = duration_s * kSecond;
  // Exactly one victim: its model keeps a live replica, so dispatch always
  // has somewhere to place re-queued work.
  const int victim = ctx.DrawInt(
      "victim_executor", 0,
      static_cast<int>(options.executor_models.size()) - 1);
  const int fail_pct = ctx.DrawInt("fail_at_pct", 30, 60);
  options.executor_faults.assign(options.executor_models.size(),
                                 ExecutorFault{});
  options.executor_faults[static_cast<size_t>(victim)].fail_at =
      duration * fail_pct / 100;
  ctx.Event("fault executor " + std::to_string(victim) + " fail_at=" +
            std::to_string(duration * fail_pct / 100));

  const QueryTrace trace = MakePoissonTrace(
      task, rate, duration, 60 * kSecond, ctx.DrawSeed("trace_seed"));
  ctx.Event("trace queries = " + std::to_string(trace.size()));

  OriginalPolicy policy;
  ConcurrentServer server(task, &policy, options);
  const ServingMetrics metrics = server.Run(trace);

  InvariantOptions inv;
  inv.allow_rejection = false;
  CheckServingInvariants(ctx, metrics, trace, inv);
  const auto sched = server.scheduler_stats();
  CheckSchedulerCounters(ctx, sched);
  // The victim examines a steady stream of tasks (Original fans every
  // query to every model), so it deterministically dies — and its backlog
  // always contains at least the task that triggered the failure, so at
  // least one query flows back through the re-queue path.
  ctx.ExpectEq(sched.failstops, 1, "failstops");
  ctx.ExpectGe(sched.requeues, 1, "requeues after fail-stop");
  ctx.Note("requeues = " + std::to_string(sched.requeues) +
           ", stale drops = " + std::to_string(sched.stale_tasks_dropped));
}

/// Cross-query batching under fail-stop: randomized batch latency profiles
/// (base fraction, coalescing factor, per-model cap) on an overloaded
/// deployment with batching on, one executor fail-stopping mid-run. The
/// coalescing drain must conserve every query — each re-queued or
/// completed exactly once, per task generation — and must actually batch
/// under the backlog.
void BatchedCoalescing(ScenarioContext& ctx) {
  const uint64_t task_seed = ctx.DrawSeed("task_seed");
  const SyntheticTask base_task = MakeTextMatchingTask(task_seed);
  std::vector<ModelProfile> profiles = base_task.profiles();
  for (size_t k = 0; k < profiles.size(); ++k) {
    const std::string tag = std::to_string(k);
    profiles[k].batch_base_fraction =
        ctx.DrawDouble("batch_base_fraction_" + tag, 0.1, 0.7);
    profiles[k].batch_coalescing =
        ctx.DrawDouble("batch_coalescing_" + tag, 0.1, 0.8);
    profiles[k].max_batch = ctx.DrawInt("max_batch_" + tag, 2, 16);
  }
  const SyntheticTask task(base_task.spec(), std::move(profiles), task_seed);

  ConcurrentServerOptions options;
  options.executor_models = ReplicatedExecutors(task, 2);
  options.allow_rejection = false;
  options.speedup = kSpeedup;
  options.seed = ctx.DrawSeed("server_seed");
  options.batching = true;
  // Half the runs also cap the batch size server-side, exercising the
  // min(profile cap, server cap) composition.
  if (ctx.DrawChance("cap_batches", 0.5)) {
    options.max_batch = ctx.DrawInt("server_max_batch", 2, 8);
  }

  const double rate = ctx.DrawDouble("rate_qps", 25.0, 60.0);
  const int duration_s = ctx.DrawInt("duration_s", 5, 8);
  const SimTime duration = duration_s * kSecond;
  // Exactly one victim: its model keeps a live replica, so dispatch always
  // has somewhere to place re-queued work.
  const int victim = ctx.DrawInt(
      "victim_executor", 0,
      static_cast<int>(options.executor_models.size()) - 1);
  const int fail_pct = ctx.DrawInt("fail_at_pct", 30, 60);
  options.executor_faults.assign(options.executor_models.size(),
                                 ExecutorFault{});
  options.executor_faults[static_cast<size_t>(victim)].fail_at =
      duration * fail_pct / 100;
  ctx.Event("fault executor " + std::to_string(victim) + " fail_at=" +
            std::to_string(duration * fail_pct / 100));

  const QueryTrace trace = MakePoissonTrace(
      task, rate, duration, 60 * kSecond, ctx.DrawSeed("trace_seed"));
  ctx.Event("trace queries = " + std::to_string(trace.size()));

  OriginalPolicy policy;
  ConcurrentServer server(task, &policy, options);
  const ServingMetrics metrics = server.Run(trace);

  InvariantOptions inv;
  inv.allow_rejection = false;
  CheckServingInvariants(ctx, metrics, trace, inv);
  const auto sched = server.scheduler_stats();
  CheckSchedulerCounters(ctx, sched);
  ctx.ExpectEq(sched.failstops, 1, "failstops");
  ctx.ExpectGe(sched.requeues, 1, "requeues after fail-stop");
  // Original fans every query to every model against well under the needed
  // capacity, so queues run deep and the workers must actually coalesce
  // (every profile allows batches of at least 2).
  ctx.ExpectGe(sched.batches_executed, 1, "batched executions");
  ctx.ExpectGe(sched.tasks_batched, sched.batches_executed + 1,
               "coalescing under backlog");
  ctx.Note("requeues = " + std::to_string(sched.requeues) +
           ", stale drops = " + std::to_string(sched.stale_tasks_dropped) +
           ", occupancy = " +
           FormatDouble(static_cast<double>(sched.tasks_batched) /
                        static_cast<double>(sched.batches_executed)));
}

/// Multi-tenant traces: several sources (priority classes), each with its
/// own uniformly drawn relative deadline, sharing one serving fleet under
/// rejection — the per-source deadline heap pressure test.
void MultiTenantPriorities(ScenarioContext& ctx) {
  const OracleBundle bundle(ctx.DrawSeed("task_seed"));
  const SyntheticTask& task = bundle.task;

  ConcurrentServerOptions options;
  options.executor_models = ReplicatedExecutors(task, 2);
  options.speedup = kSpeedup;
  options.seed = ctx.DrawSeed("server_seed");

  const int num_sources = ctx.DrawInt("num_tenants", 3, 8);
  const int hi_ms = ctx.DrawInt("deadline_hi_ms", 3000, 6000);
  const SimTime deadline_lo = 1000 * kMillisecond;
  const SimTime deadline_hi = hi_ms * kMillisecond;
  PerSourceUniformDeadline deadlines(num_sources, deadline_lo, deadline_hi,
                                     ctx.DrawSeed("deadline_seed"));
  for (int s = 0; s < num_sources; ++s) {
    ctx.Event("tenant " + std::to_string(s) + " deadline = " +
              std::to_string(deadlines.deadline_of(s)));
  }

  const double rate = ctx.DrawDouble("rate_qps", 30.0, 60.0);
  const int duration_s = ctx.DrawInt("duration_s", 6, 10);
  PoissonTraffic traffic(rate);
  TraceOptions trace_options;
  trace_options.seed = ctx.DrawSeed("trace_seed");
  trace_options.num_sources = num_sources;
  const QueryTrace trace = BuildTrace(task, traffic, deadlines,
                                      duration_s * kSecond, trace_options);
  ctx.Event("trace queries = " + std::to_string(trace.size()));

  SchemblePolicy policy = bundle.MakePolicy();
  ConcurrentServer server(task, &policy, options);
  const ServingMetrics metrics = server.Run(trace);

  InvariantOptions inv;
  inv.max_relative_deadline = deadline_hi;
  CheckServingInvariants(ctx, metrics, trace, inv);
  CheckSchedulerCounters(ctx, server.scheduler_stats());
  ctx.Note("miss rate = " + FormatDouble(metrics.deadline_miss_rate()));
}

/// Bursty overlay: a steady Poisson floor merged with a diurnal burst
/// (disjoint query-id ranges), replayed into a two-domain sharded server
/// with deliberately tiny executor queues so admission backs up.
void BurstyOverlay(ScenarioContext& ctx) {
  const uint64_t task_seed = ctx.DrawSeed("task_seed");
  const SyntheticTask task = MakeTextMatchingTask(task_seed);

  const double floor_rate = ctx.DrawDouble("floor_rate_qps", 5.0, 15.0);
  const double burst_peak = ctx.DrawDouble("burst_peak_qps", 40.0, 80.0);
  DiurnalTraffic burst = DiurnalTraffic::QaDayShape(
      burst_peak, /*segment_duration=*/400 * kMillisecond);
  const SimTime duration = burst.total_duration();

  QueryTrace trace = MakePoissonTrace(task, floor_rate, duration,
                                      60 * kSecond,
                                      ctx.DrawSeed("floor_trace_seed"),
                                      /*num_sources=*/1,
                                      /*first_query_id=*/1000000);
  {
    ConstantDeadline deadlines(60 * kSecond);
    TraceOptions burst_options;
    burst_options.seed = ctx.DrawSeed("burst_trace_seed");
    burst_options.first_query_id = 5000000;
    const QueryTrace overlay =
        BuildTrace(task, burst, deadlines, duration, burst_options);
    trace.items.insert(trace.items.end(), overlay.items.begin(),
                       overlay.items.end());
    std::stable_sort(trace.items.begin(), trace.items.end(),
                     [](const TracedQuery& a, const TracedQuery& b) {
                       return a.arrival_time < b.arrival_time;
                     });
  }
  ctx.Event("trace queries = " + std::to_string(trace.size()));

  ConcurrentServerOptions options;
  options.num_domains = 2;
  options.executor_models = ReplicatedExecutors(task, 2);
  options.routing = RoutingPolicyKind::kRoundRobin;
  options.allow_rejection = false;
  options.speedup = kSpeedup;
  options.seed = ctx.DrawSeed("server_seed");
  options.queue_capacity = ctx.DrawInt("queue_capacity", 4, 16);

  OriginalPolicy policy_a;
  OriginalPolicy policy_b;
  ConcurrentServer server(task, {&policy_a, &policy_b}, options);
  const ServingMetrics metrics = server.Run(trace);

  InvariantOptions inv;
  inv.allow_rejection = false;
  CheckServingInvariants(ctx, metrics, trace, inv);
  CheckSchedulerCounters(ctx, server.scheduler_stats());
}

/// Everything at once, sharded: a two-domain Schemble deployment where
/// each model's four replicas carry a randomly drawn mix of speed skew,
/// stragglers and (for at most one replica per model, placed so both
/// domains keep live coverage) fail-stops — under diurnal traffic with
/// deadlines. The widest randomization surface in the fleet.
void ShardedChaos(ScenarioContext& ctx) {
  const OracleBundle bundle(ctx.DrawSeed("task_seed"));
  const SyntheticTask& task = bundle.task;
  constexpr int kReplicas = 4;  // 2 per domain: fail-stops keep coverage

  ConcurrentServerOptions options;
  options.num_domains = 2;
  options.executor_models = ReplicatedExecutors(task, kReplicas);
  options.routing = RoutingPolicyKind::kLeastLoaded;
  options.speedup = kSpeedup;
  options.seed = ctx.DrawSeed("server_seed");

  const double peak = ctx.DrawDouble("peak_rate_qps", 50.0, 90.0);
  DiurnalTraffic traffic = DiurnalTraffic::QaDayShape(
      peak, /*segment_duration=*/500 * kMillisecond);
  const SimTime duration = traffic.total_duration();

  options.executor_faults.assign(options.executor_models.size(),
                                 ExecutorFault{});
  int failstops_injected = 0;
  for (int k = 0; k < task.num_models(); ++k) {
    // Replica ordinal r of model k lands in domain r % 2 (round-robin
    // deal); failing exactly one ordinal keeps a live replica of k in BOTH
    // domains (ordinal r and r+2 share a domain).
    const std::string model = std::to_string(k);
    for (int r = 0; r < kReplicas; ++r) {
      const size_t e = static_cast<size_t>(k * kReplicas + r);
      options.executor_faults[e].speed =
          ctx.DrawDouble("speed_m" + model + "_r" + std::to_string(r), 0.6,
                         1.6);
    }
    if (ctx.DrawChance("failstop_model_" + model, 0.5)) {
      const int victim = ctx.DrawInt("victim_replica_" + model, 0,
                                     kReplicas - 1);
      const int fail_pct = ctx.DrawInt("fail_pct_" + model, 30, 70);
      const size_t e = static_cast<size_t>(k * kReplicas + victim);
      options.executor_faults[e].fail_at = duration * fail_pct / 100;
      ++failstops_injected;
    } else if (ctx.DrawChance("straggle_model_" + model, 0.5)) {
      const int victim = ctx.DrawInt("straggler_replica_" + model, 0,
                                     kReplicas - 1);
      const size_t e = static_cast<size_t>(k * kReplicas + victim);
      options.executor_faults[e].straggle_after = duration / 3;
      options.executor_faults[e].straggle_factor =
          ctx.DrawDouble("straggle_factor_" + model, 1.5, 2.5);
    }
  }
  ctx.Event("failstops injected = " + std::to_string(failstops_injected));

  const SimTime deadline = ctx.DrawInt("deadline_ms", 3000, 6000) *
                           kMillisecond;
  ConstantDeadline deadlines(deadline);
  TraceOptions trace_options;
  trace_options.seed = ctx.DrawSeed("trace_seed");
  const QueryTrace trace =
      BuildTrace(task, traffic, deadlines, duration, trace_options);
  ctx.Event("trace queries = " + std::to_string(trace.size()));

  SchemblePolicy policy_a = bundle.MakePolicy();
  SchemblePolicy policy_b = bundle.MakePolicy();
  ConcurrentServer server(task, {&policy_a, &policy_b}, options);
  const ServingMetrics metrics = server.Run(trace);

  InvariantOptions inv;
  inv.max_relative_deadline = deadline;
  CheckServingInvariants(ctx, metrics, trace, inv);
  const auto sched = server.scheduler_stats();
  CheckSchedulerCounters(ctx, sched);
  // Executors can only die once each, and only the injected ones.
  ctx.ExpectTrue(sched.failstops <= failstops_injected,
                 "failstops bounded by injected faults");
}

/// The whole concurrency surface in one four-domain run: cross-query
/// batching, speed skew and fail-stops together — the widest
/// lock-interleaving scenario in the fleet. Added as a moving target for
/// the lock-order validator: Debug/sanitizer builds validate every
/// blocking Mutex::Lock in this tangle against the rank table
/// (src/common/lock_order.h), so any future cross-domain locking shortcut
/// that could deadlock dies here first.
void FourDomainGauntlet(ScenarioContext& ctx) {
  const uint64_t task_seed = ctx.DrawSeed("task_seed");
  const SyntheticTask base_task = MakeTextMatchingTask(task_seed);
  std::vector<ModelProfile> profiles = base_task.profiles();
  for (size_t k = 0; k < profiles.size(); ++k) {
    const std::string tag = std::to_string(k);
    profiles[k].batch_base_fraction =
        ctx.DrawDouble("batch_base_fraction_" + tag, 0.2, 0.6);
    profiles[k].batch_coalescing =
        ctx.DrawDouble("batch_coalescing_" + tag, 0.2, 0.7);
    profiles[k].max_batch = ctx.DrawInt("max_batch_" + tag, 2, 12);
  }
  const SyntheticTask task(base_task.spec(), std::move(profiles), task_seed);

  constexpr int kDomains = 4;
  // 2 per domain (replica ordinal r lands in domain r % kDomains), so one
  // fail-stop per model keeps a live replica in every domain.
  constexpr int kReplicas = 2 * kDomains;

  ConcurrentServerOptions options;
  options.num_domains = kDomains;
  options.executor_models = ReplicatedExecutors(task, kReplicas);
  options.routing = RoutingPolicyKind::kLeastLoaded;
  options.allow_rejection = false;
  options.speedup = kSpeedup;
  options.seed = ctx.DrawSeed("server_seed");
  options.batching = true;
  // Tiny queues keep the dispatch path under pressure.
  options.queue_capacity = ctx.DrawInt("queue_capacity", 8, 32);

  // Original fans every query to every model; the rate band reproduces
  // BatchedCoalescing's proven per-executor overload (4-7 qps/executor on
  // 24 executors vs 4-10 on its 6), so queues run deep and the workers
  // must actually coalesce.
  const double rate = ctx.DrawDouble("rate_qps", 100.0, 160.0);
  const int duration_s = ctx.DrawInt("duration_s", 4, 7);
  const SimTime duration = duration_s * kSecond;

  options.executor_faults.assign(options.executor_models.size(),
                                 ExecutorFault{});
  int failstops_injected = 0;
  for (int k = 0; k < task.num_models(); ++k) {
    const std::string model = std::to_string(k);
    for (int r = 0; r < kReplicas; ++r) {
      const size_t e = static_cast<size_t>(k * kReplicas + r);
      options.executor_faults[e].speed =
          ctx.DrawDouble("speed_m" + model + "_r" + std::to_string(r), 0.7,
                         1.5);
    }
    if (ctx.DrawChance("failstop_model_" + model, 0.5)) {
      const int victim = ctx.DrawInt("victim_replica_" + model, 0,
                                     kReplicas - 1);
      const int fail_pct = ctx.DrawInt("fail_pct_" + model, 25, 75);
      const size_t e = static_cast<size_t>(k * kReplicas + victim);
      options.executor_faults[e].fail_at = duration * fail_pct / 100;
      ++failstops_injected;
    }
  }
  ctx.Event("failstops injected = " + std::to_string(failstops_injected));

  // A deliberately huge relative deadline: the run's length comes from the
  // trace, not the deadline, and with ~30 threads time-slicing on small
  // hosts (and TSan in CI) real-time stretch inflates virtual sojourns —
  // an hour of virtual headroom keeps force-mode "missed == 0" a
  // conservation statement instead of a host-speed lottery, and keeps the
  // Schemble DP feasible so its domains never finalize empty subsets.
  const QueryTrace trace = MakePoissonTrace(
      task, rate, duration, 3600 * kSecond, ctx.DrawSeed("trace_seed"));
  ctx.Event("trace queries = " + std::to_string(trace.size()));

  // Asymmetric deployment: two Original domains (fan-out keeps their
  // queues deep, guaranteeing coalescing) and two Schemble domains (the
  // planning path that buffers queries). The Schemble policies are built
  // against the batched-profile task so runtime pricing matches what the
  // server deploys.
  const OracleBundle bundle(task_seed);
  SchembleConfig config;
  config.score_source = ScoreSource::kOracle;
  SchemblePolicy policy_c(task, *bundle.profile, nullptr,
                          bundle.scorer.get(), config);
  SchemblePolicy policy_d(task, *bundle.profile, nullptr,
                          bundle.scorer.get(), config);
  OriginalPolicy policy_a;
  OriginalPolicy policy_b;
  ConcurrentServer server(
      task, {&policy_a, &policy_b, &policy_c, &policy_d}, options);
  const ServingMetrics metrics = server.Run(trace);

  InvariantOptions inv;
  inv.allow_rejection = false;
  CheckServingInvariants(ctx, metrics, trace, inv);
  const auto sched = server.scheduler_stats();
  CheckSchedulerCounters(ctx, sched);
  ctx.ExpectTrue(sched.failstops <= failstops_injected,
                 "failstops bounded by injected faults");
  // Deterministic structural assertions only: the overload makes
  // coalescing certain in the Original domains, but requeue and batch
  // VOLUMES are contention-shaped, so they are reported, not asserted.
  ctx.ExpectGe(sched.batches_executed, 1, "batched executions under backlog");
  ctx.Note("requeues = " + std::to_string(sched.requeues) +
           ", batches = " + std::to_string(sched.batches_executed));
}

/// Ingest backpressure: the arrival pump feeds a two-domain force-mode
/// deployment through the lock-free domain loads, and randomized tiny
/// inboxes and executor queues let a burst of due arrivals park its
/// PushRouted on a full inbox while the admitters drain it. The pump must
/// still route every query exactly once.
void TinyInboxes(ScenarioContext& ctx) {
  const uint64_t task_seed = ctx.DrawSeed("task_seed");
  const SyntheticTask task = MakeTextMatchingTask(task_seed);

  ConcurrentServerOptions options;
  options.num_domains = 2;
  options.executor_models = ReplicatedExecutors(task, 2);
  options.routing = RoutingPolicyKind::kLeastLoaded;
  options.allow_rejection = false;
  options.speedup = kSpeedup;
  options.seed = ctx.DrawSeed("server_seed");
  options.queue_capacity = ctx.DrawInt("queue_capacity", 4, 16);
  // Tiny inboxes: one pass of due arrivals can fill one and park the
  // pump.
  options.inbox_capacity = ctx.DrawInt("inbox_capacity", 8, 32);

  const double rate = ctx.DrawDouble("rate_qps", 40.0, 80.0);
  const SimTime duration = ctx.DrawInt("duration_s", 8, 12) * kSecond;
  // A deliberately huge relative deadline (the sharded-chaos pattern):
  // this scenario asserts exactly-once routing and force-mode
  // conservation, and on a loaded small host wall-clock jitter must not
  // convert scheduling delay into deadline misses.
  const QueryTrace trace = MakePoissonTrace(
      task, rate, duration, 3600 * kSecond, ctx.DrawSeed("trace_seed"));
  ctx.Event("trace queries = " + std::to_string(trace.size()));

  OriginalPolicy policy_a;
  OriginalPolicy policy_b;
  ConcurrentServer server(task, {&policy_a, &policy_b}, options);
  const ServingMetrics metrics = server.Run(trace);

  InvariantOptions inv;
  inv.allow_rejection = false;
  CheckServingInvariants(ctx, metrics, trace, inv);
  const auto sched = server.scheduler_stats();
  CheckSchedulerCounters(ctx, sched);

  ctx.ExpectEq(server.pump_routed(0), trace.size(),
               "the pump routes every query once");
  // Replan volume is contention-shaped: reported, never asserted.
  ctx.Note("replans = " + std::to_string(sched.replans));
}

}  // namespace

void RegisterBuiltinScenarios() {
  ScenarioRegistry& registry = ScenarioRegistry::Instance();
  if (!registry.scenarios().empty()) return;  // idempotent
  registry.Register({"hetero-speeds",
                     "heterogeneous executor speed multipliers, force mode",
                     &HeterogeneousSpeeds});
  registry.Register({"stragglers-diurnal",
                     "mid-trace service-time inflation under a diurnal day "
                     "shape, Schemble with deadlines",
                     &StragglersDiurnal});
  registry.Register({"fail-stop-recovery",
                     "one executor fail-stops mid-trace; its queries are "
                     "re-admitted to their domain, force-mode conservation",
                     &FailStopRecovery});
  registry.Register({"multi-tenant-priorities",
                     "per-tenant uniform deadlines (priority classes) on a "
                     "shared fleet",
                     &MultiTenantPriorities});
  registry.Register({"bursty-overlay",
                     "steady Poisson floor + diurnal burst overlay into a "
                     "two-domain sharded server with tiny queues",
                     &BurstyOverlay});
  registry.Register({"sharded-chaos",
                     "two domains, speed skew + stragglers + fail-stops at "
                     "once under diurnal load with deadlines",
                     &ShardedChaos});
  registry.Register({"batched-coalescing",
                     "randomized batch latency profiles + a fail-stop "
                     "executor under overload; coalescing drain conserves "
                     "every query",
                     &BatchedCoalescing});
  registry.Register({"four-domain-gauntlet",
                     "four domains with batching, speed skew and "
                     "fail-stops at once; the widest "
                     "lock-interleaving target for the lock-order "
                     "validator",
                     &FourDomainGauntlet});
  registry.Register({"tiny-inboxes",
                     "the arrival pump parks on tiny domain inboxes of a "
                     "two-domain server; exactly-once routing, force-mode "
                     "conservation",
                     &TinyInboxes});
}

}  // namespace schemble
