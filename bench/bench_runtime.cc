// Wall-clock benchmarks of the concurrent runtime, in two parts:
//
//  1. Throughput scaling: one base model (RoBERTa, 45 ms) replicated
//     across 1..8 executors, a saturating open-loop arrival stream, force
//     mode (every query processed). Reported throughput is completed
//     queries per second of runtime wall time; the acceptance bar is >2x
//     at 4 workers vs 1. Service consumption sleeps on the OS timer
//     (accelerator-offloaded inference), so scaling tracks executor
//     parallelism rather than host core count.
//
//  2. Policy critical-section pressure: the full Schemble policy (oracle
//     scores, DP scheduler) under sustained overload, where every
//     scheduling round used to solve the DP inside the policy mutex.
//     lock_held_ms is the headline number the snapshot-planning runtime
//     drives down (EXPERIMENTS.md Exp-9).
//
// With --json=PATH the results are also written in google-benchmark JSON
// format so bench/check_regression.py can compare runs against the pinned
// bench/BENCH_runtime.json baseline (see bench/run_runtime_bench.sh).

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "baselines/static_policy.h"
#include "common/stats.h"
#include "common/table.h"
#include "core/discrepancy.h"
#include "core/schemble_policy.h"
#include "models/task_factory.h"
#include "runtime/concurrent_server.h"
#include "workload/trace.h"
#include "workload/traffic.h"

namespace schemble {
namespace {

// Every query runs exactly one task on model 1 (the 45 ms RoBERTa).
constexpr SubsetMask kSubset = 0b010;
constexpr int kModel = 1;

struct ScalingPoint {
  int workers = 0;
  double wall_seconds = 0.0;
  double throughput_qps = 0.0;
  double mean_latency_ms = 0.0;
  ConcurrentServer::LockStatsSnapshot lock;
  ConcurrentServer::SchedulerStatsSnapshot sched;
  /// Queries the arrival pump routed.
  int64_t pump_routed = 0;
};

/// One row of the eventual JSON report: google-benchmark's per-iteration
/// schema, with cpu_time/real_time carrying the headline metric in
/// microseconds and everything else attached as custom counters.
struct JsonEntry {
  std::string name;
  double value_us = 0.0;
  std::vector<std::pair<std::string, double>> counters;
};

ScalingPoint RunOnce(const SyntheticTask& task, const QueryTrace& trace,
                     int workers, double speedup, int domains = 1,
                     int inbox_capacity = 0, int queue_capacity = 0) {
  StaticDeployment deployment;
  deployment.subset = kSubset;
  deployment.replicas = {0, workers, 0};
  // One policy instance per scheduler domain (stateful calls are
  // serialized per domain); the deployment itself is shared and const.
  std::vector<StaticPolicy> policies;
  policies.reserve(static_cast<size_t>(domains));
  std::vector<ServingPolicy*> policy_ptrs;
  for (int d = 0; d < domains; ++d) {
    policies.emplace_back(deployment);
  }
  for (StaticPolicy& policy : policies) {
    policy_ptrs.push_back(&policy);
  }

  ConcurrentServerOptions options;
  options.executor_models.assign(static_cast<size_t>(workers), kModel);
  options.allow_rejection = false;
  options.speedup = speedup;
  options.num_domains = domains;
  options.routing = RoutingPolicyKind::kLeastLoaded;
  if (inbox_capacity > 0) options.inbox_capacity = inbox_capacity;
  if (queue_capacity > 0) options.queue_capacity = queue_capacity;
  ConcurrentServer server(task, std::move(policy_ptrs), options);

  SteadyClock wall(1.0);
  const SimTime start = wall.Now();
  const ServingMetrics metrics = server.Run(trace);
  const double seconds = SimTimeToSeconds(wall.Now() - start);

  ScalingPoint point;
  point.workers = workers;
  point.wall_seconds = seconds;
  point.throughput_qps = static_cast<double>(metrics.processed) / seconds;
  point.mean_latency_ms = metrics.mean_latency_ms();
  point.lock = server.lock_stats();
  point.sched = server.scheduler_stats();
  point.pump_routed = server.pump_routed(0);
  return point;
}

/// The policy-pressure scenario: Schemble with oracle scores and the DP
/// buffer scheduler, three-model ensemble, rejection mode, arrival rate
/// ~2x the bottleneck capacity so the buffer stays populated and the
/// scheduler plans continuously.
struct SchemblePoint {
  double wall_seconds = 0.0;
  double processed_fraction = 0.0;
  int64_t scheduler_runs = 0;
  ConcurrentServer::LockStatsSnapshot lock;
  ConcurrentServer::SchedulerStatsSnapshot sched;
};

SchemblePoint RunSchemble(double speedup) {
  const SyntheticTask task = MakeTextMatchingTask(3);
  const auto history =
      task.GenerateDataset(2000, DifficultyDistribution::UniformFull(), 5);
  auto scorer_result = DiscrepancyScorer::Fit(task, history);
  SCHEMBLE_CHECK(scorer_result.ok());
  const DiscrepancyScorer scorer = std::move(scorer_result).value();
  auto profile_result =
      AccuracyProfile::Build(task, history, scorer.ScoreAll(history));
  SCHEMBLE_CHECK(profile_result.ok());
  const AccuracyProfile profile = std::move(profile_result).value();

  SchembleConfig config;
  config.score_source = ScoreSource::kOracle;
  SchemblePolicy policy(task, profile, nullptr, &scorer, std::move(config));

  ConcurrentServerOptions options;
  options.speedup = speedup;
  ConcurrentServer server(task, &policy, options);

  PoissonTraffic traffic(45.0);
  ConstantDeadline deadlines(300 * kMillisecond);
  TraceOptions trace_options;
  trace_options.seed = 17;
  const QueryTrace trace =
      BuildTrace(task, traffic, deadlines, 20 * kSecond, trace_options);

  SteadyClock wall(1.0);
  const SimTime start = wall.Now();
  const ServingMetrics metrics = server.Run(trace);

  SchemblePoint point;
  point.wall_seconds = SimTimeToSeconds(wall.Now() - start);
  point.processed_fraction =
      static_cast<double>(metrics.processed) / static_cast<double>(trace.size());
  point.scheduler_runs = policy.scheduler_runs();
  point.lock = server.lock_stats();
  point.sched = server.scheduler_stats();
  return point;
}

/// Cross-query batching sweep (DESIGN.md "Cross-query batching"): the full
/// Schemble policy (oracle scores, DP scheduler) on the two-model image
/// retrieval ensemble, force mode, sleep-mode service, batching off vs on.
/// The workload is the stress fleet's bursty overlay — a low Poisson floor
/// with a diurnal burst an order of magnitude above the unbatched service
/// capacity — so the batched runs have deep backlogs to coalesce while the
/// floor segments exercise the low-load (unchanged-latency) path.
struct BatchedPoint {
  double wall_seconds = 0.0;
  double throughput_qps = 0.0;
  double p50_latency_ms = 0.0;
  ConcurrentServer::SchedulerStatsSnapshot sched;
};

BatchedPoint RunBatched(const SyntheticTask& task,
                        const AccuracyProfile& profile,
                        const DiscrepancyScorer& scorer,
                        const QueryTrace& trace, int workers, int domains,
                        bool batching) {
  SCHEMBLE_CHECK_EQ(workers % task.num_models(), 0);
  const int replicas = workers / task.num_models();

  // One policy instance per domain (stateful calls are serialized per
  // domain); unique_ptrs because SchemblePolicy's atomic counters make it
  // immovable.
  std::vector<std::unique_ptr<SchemblePolicy>> policies;
  std::vector<ServingPolicy*> policy_ptrs;
  for (int d = 0; d < domains; ++d) {
    SchembleConfig config;
    config.score_source = ScoreSource::kOracle;
    policies.push_back(std::make_unique<SchemblePolicy>(
        task, profile, nullptr, &scorer, std::move(config)));
    policy_ptrs.push_back(policies.back().get());
  }

  ConcurrentServerOptions options;
  for (int k = 0; k < task.num_models(); ++k) {
    options.executor_models.insert(options.executor_models.end(),
                                   static_cast<size_t>(replicas), k);
  }
  options.allow_rejection = false;
  options.speedup = 40.0;
  options.num_domains = domains;
  options.routing = RoutingPolicyKind::kLeastLoaded;
  options.batching = batching;
  ConcurrentServer server(task, std::move(policy_ptrs), options);

  SteadyClock wall(1.0);
  const SimTime start = wall.Now();
  const ServingMetrics metrics = server.Run(trace);

  BatchedPoint point;
  point.wall_seconds = SimTimeToSeconds(wall.Now() - start);
  point.throughput_qps =
      static_cast<double>(metrics.processed) / point.wall_seconds;
  point.p50_latency_ms = metrics.latency_ms.Quantile(0.5);
  point.sched = server.scheduler_stats();
  return point;
}

/// Poisson floor + QaDayShape burst with disjoint query-id ranges, merged
/// by arrival time (the stress fleet's bursty-overlay construction).
QueryTrace BuildBurstyTrace(const SyntheticTask& task, double floor_qps,
                            double burst_peak_qps) {
  ConstantDeadline deadlines(60 * kSecond);
  DiurnalTraffic burst = DiurnalTraffic::QaDayShape(
      burst_peak_qps, /*segment_duration=*/250 * kMillisecond);
  const SimTime duration = burst.total_duration();

  PoissonTraffic floor(floor_qps);
  TraceOptions floor_options;
  floor_options.seed = 7;
  floor_options.first_query_id = 1000000;
  QueryTrace trace = BuildTrace(task, floor, deadlines, duration,
                                floor_options);

  TraceOptions burst_options;
  burst_options.seed = 13;
  burst_options.first_query_id = 5000000;
  const QueryTrace overlay =
      BuildTrace(task, burst, deadlines, duration, burst_options);
  trace.items.insert(trace.items.end(), overlay.items.begin(),
                     overlay.items.end());
  std::stable_sort(trace.items.begin(), trace.items.end(),
                   [](const TracedQuery& a, const TracedQuery& b) {
                     return a.arrival_time < b.arrival_time;
                   });
  return trace;
}

bool WriteJson(const char* path, const std::vector<JsonEntry>& entries) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_runtime: cannot open %s for writing\n", path);
    return false;
  }
  std::fprintf(f, "{\n  \"context\": {\n");
  std::fprintf(f, "    \"executable\": \"bench_runtime\",\n");
  std::fprintf(f, "    \"library_build_type\": \"release\"\n  },\n");
  std::fprintf(f, "  \"benchmarks\": [\n");
  for (size_t i = 0; i < entries.size(); ++i) {
    const JsonEntry& e = entries[i];
    std::fprintf(f, "    {\n");
    std::fprintf(f, "      \"name\": \"%s\",\n", e.name.c_str());
    std::fprintf(f, "      \"run_name\": \"%s\",\n", e.name.c_str());
    std::fprintf(f, "      \"run_type\": \"iteration\",\n");
    std::fprintf(f, "      \"iterations\": 1,\n");
    std::fprintf(f, "      \"real_time\": %.6e,\n", e.value_us);
    std::fprintf(f, "      \"cpu_time\": %.6e,\n", e.value_us);
    std::fprintf(f, "      \"time_unit\": \"us\"");
    for (const auto& [key, value] : e.counters) {
      std::fprintf(f, ",\n      \"%s\": %.6e", key.c_str(), value);
    }
    std::fprintf(f, "\n    }%s\n", i + 1 < entries.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  return true;
}

int Main(int argc, char** argv) {
  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) json_path = argv[i] + 7;
  }

  const SyntheticTask task = MakeTextMatchingTask();
  // 160 qps against a 22 qps single-executor capacity: ~7.2x oversubscribed,
  // so queues stay saturated through the 8-worker run.
  PoissonTraffic traffic(160.0);
  ConstantDeadline deadlines(60 * kSecond);
  TraceOptions trace_options;
  trace_options.seed = 7;
  const QueryTrace trace =
      BuildTrace(task, traffic, deadlines, 5 * kSecond, trace_options);

  std::printf("bench_runtime: %lld queries on model %d, sleep-mode service\n\n",
              static_cast<long long>(trace.size()), kModel);
  // lock_held_ms / lock_acq measure the policy critical section: completion
  // (aggregation + KNN fill) runs off-lock, so held time should stay a
  // small fraction of wall time even as workers scale.
  TextTable table({"workers", "wall_s", "throughput_qps", "mean_latency_ms",
                   "speedup_vs_1", "lock_acq", "lock_held_ms"});
  std::vector<JsonEntry> entries;
  double base_qps = 0.0;
  double qps_at_4 = 0.0;
  for (int workers : {1, 2, 4, 8}) {
    const ScalingPoint point = RunOnce(task, trace, workers, 40.0);
    if (workers == 1) base_qps = point.throughput_qps;
    if (workers == 4) qps_at_4 = point.throughput_qps;
    char wall[32], qps[32], lat[32], rel[32], held[32];
    std::snprintf(wall, sizeof(wall), "%.2f", point.wall_seconds);
    std::snprintf(qps, sizeof(qps), "%.0f", point.throughput_qps);
    std::snprintf(lat, sizeof(lat), "%.1f", point.mean_latency_ms);
    std::snprintf(rel, sizeof(rel), "%.2fx", point.throughput_qps / base_qps);
    std::snprintf(held, sizeof(held), "%.1f", point.lock.held_ms);
    table.AddRow({std::to_string(point.workers), wall, qps, lat, rel,
                  std::to_string(point.lock.acquisitions), held});
    JsonEntry entry;
    entry.name = "BM_RuntimeStatic/workers:" + std::to_string(workers);
    entry.value_us = point.wall_seconds * 1e6;
    entry.counters = {
        {"throughput_qps", point.throughput_qps},
        {"lock_acquisitions", static_cast<double>(point.lock.acquisitions)},
        {"lock_held_ms", point.lock.held_ms},
    };
    entries.push_back(std::move(entry));
  }
  table.Print();

  const double scaling = qps_at_4 / base_qps;
  std::printf("\n4-worker scaling: %.2fx (acceptance bar: >2x)\n\n", scaling);

  // Sharded sweep: the same sleep-mode workload at 10x the arrival rate so
  // queues stay saturated out to 64 executors, crossed with 1 vs 4
  // scheduler domains. The 1-domain rows show whether one admitter and
  // one planner token keep up; the gate reads the 32-worker/4-domain row
  // against the 8-worker/1-domain one (target >= 3x).
  PoissonTraffic sharded_traffic(1600.0);
  TraceOptions sharded_trace_options;
  sharded_trace_options.seed = 7;
  const QueryTrace sharded_trace = BuildTrace(
      task, sharded_traffic, deadlines, 5 * kSecond, sharded_trace_options);
  std::printf("sharded sweep: %lld queries, least-loaded routing\n",
              static_cast<long long>(sharded_trace.size()));
  TextTable sharded_table({"workers", "domains", "wall_s", "throughput_qps",
                           "vs_8w_1d", "plans_invalidated"});
  double sharded_base_qps = 0.0;
  double qps_32w_4d = 0.0;
  for (int workers : {8, 16, 32, 64}) {
    for (int domains : {1, 4}) {
      const ScalingPoint point =
          RunOnce(task, sharded_trace, workers, 40.0, domains);
      if (workers == 8 && domains == 1) sharded_base_qps = point.throughput_qps;
      if (workers == 32 && domains == 4) qps_32w_4d = point.throughput_qps;
      char wall[32], qps[32], rel[32];
      std::snprintf(wall, sizeof(wall), "%.2f", point.wall_seconds);
      std::snprintf(qps, sizeof(qps), "%.0f", point.throughput_qps);
      std::snprintf(rel, sizeof(rel), "%.2fx",
                    point.throughput_qps / sharded_base_qps);
      sharded_table.AddRow({std::to_string(workers), std::to_string(domains),
                            wall, qps, rel,
                            std::to_string(point.sched.plans_invalidated)});
      JsonEntry entry;
      entry.name = "BM_RuntimeSharded/workers:" + std::to_string(workers) +
                   "/domains:" + std::to_string(domains);
      entry.value_us = point.wall_seconds * 1e6;
      entry.counters = {
          {"throughput_qps", point.throughput_qps},
          {"lock_acquisitions", static_cast<double>(point.lock.acquisitions)},
          {"lock_held_ms", point.lock.held_ms},
          {"plans_invalidated",
           static_cast<double>(point.sched.plans_invalidated)},
      };
      entries.push_back(std::move(entry));
    }
  }
  sharded_table.Print();

  const double sharded_scaling = qps_32w_4d / sharded_base_qps;
  // Calibrated target is >=3x (observed 4.0x on an idle host); the hard
  // gate sits at 1.5x so a time-shared CI runner does not flake the smoke
  // run while catastrophic serialization (ratio ~1x) still fails it. The
  // pinned-baseline counter check (check_regression.py
  // --counter-min-ratio throughput_qps=...) covers finer regressions.
  std::printf("\n32-worker/4-domain scaling vs 8-worker/1-domain: %.2fx "
              "(target: >=3x, gate: >=1.5x)\n\n",
              sharded_scaling);

  // Sharded-arrival sweep: ingest under backpressure. Twice the sharded
  // sweep's arrival rate and deliberately tiny inboxes AND executor
  // queues make domain backpressure reach the arrival pump: a full inbox
  // parks it on the blocking push. Each pass routes at most one inbox's
  // worth, so a parked pump holds back at most that much of the other
  // domains' arrivals. At 64 workers the row's service floor is 15,896
  // queries x 45 ms / 64 executors / speedup 40 = 0.28 s.
  PoissonTraffic arrival_traffic(3200.0);
  TraceOptions arrival_trace_options;
  arrival_trace_options.seed = 7;
  const QueryTrace arrival_trace = BuildTrace(
      task, arrival_traffic, deadlines, 5 * kSecond, arrival_trace_options);
  std::printf("sharded-arrival sweep: %lld queries, 4 domains, tiny "
              "inboxes, least-loaded routing\n",
              static_cast<long long>(arrival_trace.size()));
  TextTable arrival_table({"workers", "wall_s", "throughput_qps",
                           "routed"});
  for (int workers : {32, 64}) {
    const ScalingPoint point =
        RunOnce(task, arrival_trace, workers, 40.0, /*domains=*/4,
                /*inbox_capacity=*/32, /*queue_capacity=*/2);
    char wall[32], qps[32];
    std::snprintf(wall, sizeof(wall), "%.2f", point.wall_seconds);
    std::snprintf(qps, sizeof(qps), "%.0f", point.throughput_qps);
    arrival_table.AddRow({std::to_string(workers), wall, qps,
                          std::to_string(point.pump_routed)});
    JsonEntry entry;
    // The pumps:1 suffix keeps the row names of the pinned baseline.
    entry.name = "BM_RuntimeShardedArrival/workers:" +
                 std::to_string(workers) + "/domains:4/pumps:1";
    entry.value_us = point.wall_seconds * 1e6;
    entry.counters = {
        {"throughput_qps", point.throughput_qps},
        {"routed_pump0", static_cast<double>(point.pump_routed)},
        {"trace_queries", static_cast<double>(arrival_trace.size())},
    };
    entries.push_back(std::move(entry));
  }
  arrival_table.Print();
  std::printf("\n");

  // Batching sweep: Schemble on the two-model retrieval ensemble, bursty
  // overlay, batching off vs on at {8,32} workers x {1,4} domains.
  const SyntheticTask retrieval_task = MakeImageRetrievalTask();
  const auto retrieval_history = retrieval_task.GenerateDataset(
      2000, DifficultyDistribution::UniformFull(), 5);
  auto retrieval_scorer_result =
      DiscrepancyScorer::Fit(retrieval_task, retrieval_history);
  SCHEMBLE_CHECK(retrieval_scorer_result.ok());
  const DiscrepancyScorer retrieval_scorer =
      std::move(retrieval_scorer_result).value();
  auto retrieval_profile_result = AccuracyProfile::Build(
      retrieval_task, retrieval_history,
      retrieval_scorer.ScoreAll(retrieval_history));
  SCHEMBLE_CHECK(retrieval_profile_result.ok());
  const AccuracyProfile retrieval_profile =
      std::move(retrieval_profile_result).value();

  // Burst peak ~3x the 32-worker unbatched capacity (~168 qps on the 95 ms
  // model) so coalescing has backlog to amortize; the 30 qps floor keeps
  // low-load segments in the mix.
  const QueryTrace bursty_trace =
      BuildBurstyTrace(retrieval_task, /*floor_qps=*/30.0,
                       /*burst_peak_qps=*/500.0);
  std::printf("batching sweep: %lld queries, schemble policy, bursty "
              "overlay, force mode\n",
              static_cast<long long>(bursty_trace.size()));
  TextTable batched_table({"workers", "domains", "batching", "wall_s",
                           "throughput_qps", "p50_ms", "batches",
                           "tasks_batched", "occupancy"});
  double unbatched_qps_32w_4d = 0.0;
  double batched_qps_32w_4d = 0.0;
  for (int workers : {8, 32}) {
    for (int domains : {1, 4}) {
      for (bool batching : {false, true}) {
        const BatchedPoint point =
            RunBatched(retrieval_task, retrieval_profile, retrieval_scorer,
                       bursty_trace, workers, domains, batching);
        if (workers == 32 && domains == 4) {
          (batching ? batched_qps_32w_4d : unbatched_qps_32w_4d) =
              point.throughput_qps;
        }
        char wall[32], qps[32], p50[32], occ[32];
        std::snprintf(wall, sizeof(wall), "%.2f", point.wall_seconds);
        std::snprintf(qps, sizeof(qps), "%.0f", point.throughput_qps);
        std::snprintf(p50, sizeof(p50), "%.1f", point.p50_latency_ms);
        std::snprintf(occ, sizeof(occ), "%.2f",
                      point.sched.mean_batch_occupancy());
        batched_table.AddRow(
            {std::to_string(workers), std::to_string(domains),
             batching ? "on" : "off", wall, qps, p50,
             std::to_string(point.sched.batches_executed),
             std::to_string(point.sched.tasks_batched), occ});
        JsonEntry entry;
        entry.name = "BM_RuntimeBatched/workers:" + std::to_string(workers) +
                     "/domains:" + std::to_string(domains) +
                     "/batching:" + std::to_string(batching ? 1 : 0);
        entry.value_us = point.wall_seconds * 1e6;
        entry.counters = {
            {"throughput_qps", point.throughput_qps},
            {"p50_latency_ms", point.p50_latency_ms},
            {"batches_executed",
             static_cast<double>(point.sched.batches_executed)},
            {"tasks_batched", static_cast<double>(point.sched.tasks_batched)},
            {"mean_batch_occupancy", point.sched.mean_batch_occupancy()},
        };
        entries.push_back(std::move(entry));
      }
    }
  }
  batched_table.Print();

  const double batching_speedup =
      unbatched_qps_32w_4d > 0.0 ? batched_qps_32w_4d / unbatched_qps_32w_4d
                                 : 0.0;
  // Calibrated target is >=1.5x under the burst; the hard gate sits at
  // 1.2x for time-shared CI runners (same rationale as the sharded gate).
  std::printf("\nbatched vs unbatched at 32 workers / 4 domains: %.2fx "
              "(target: >=1.5x, gate: >=1.2x)\n\n",
              batching_speedup);

  // One run of this row is noisy (its processed fraction alone swings
  // widely with thread timing), so the row repeats and reports medians.
  constexpr int kSchembleRepeats = 5;
  std::printf("schemble policy pressure (oracle scores, DP scheduler, "
              "rejection mode), %d repeats:\n",
              kSchembleRepeats);
  TextTable schemble_table({"repeat", "wall_s", "processed_frac",
                            "sched_runs", "plans_invalidated", "lock_acq",
                            "lock_held_ms"});
  SampleSet held_ms, wall_s, processed, runs, invalidated, acq;
  for (int r = 0; r < kSchembleRepeats; ++r) {
    const SchemblePoint sp = RunSchemble(50.0);
    held_ms.Add(sp.lock.held_ms);
    wall_s.Add(sp.wall_seconds);
    processed.Add(sp.processed_fraction);
    runs.Add(static_cast<double>(sp.scheduler_runs));
    invalidated.Add(static_cast<double>(sp.sched.plans_invalidated));
    acq.Add(static_cast<double>(sp.lock.acquisitions));
    char wall[32], frac[32], held[32];
    std::snprintf(wall, sizeof(wall), "%.2f", sp.wall_seconds);
    std::snprintf(frac, sizeof(frac), "%.3f", sp.processed_fraction);
    std::snprintf(held, sizeof(held), "%.1f", sp.lock.held_ms);
    schemble_table.AddRow({std::to_string(r), wall, frac,
                           std::to_string(sp.scheduler_runs),
                           std::to_string(sp.sched.plans_invalidated),
                           std::to_string(sp.lock.acquisitions), held});
  }
  schemble_table.Print();
  std::printf("\n");

  {
    // The Schemble row pins lock-held time (the number snapshot planning
    // exists to shrink) rather than makespan, which is trace-length-bound.
    // Every figure is the median over the repeats.
    JsonEntry entry;
    entry.name = "BM_RuntimeSchemble/lock_held";
    entry.value_us = held_ms.Quantile(0.5) * 1e3;
    entry.counters = {
        {"wall_seconds", wall_s.Quantile(0.5)},
        {"processed_fraction", processed.Quantile(0.5)},
        {"scheduler_runs", runs.Quantile(0.5)},
        {"plans_invalidated", invalidated.Quantile(0.5)},
        {"lock_acquisitions", acq.Quantile(0.5)},
        {"repeats", static_cast<double>(kSchembleRepeats)},
    };
    entries.push_back(std::move(entry));
  }

  if (json_path != nullptr && !WriteJson(json_path, entries)) return 1;

  if (scaling <= 2.0) {
    std::printf("FAIL: insufficient scaling\n");
    return 1;
  }
  if (sharded_scaling < 1.5) {
    std::printf("FAIL: insufficient sharded scaling\n");
    return 1;
  }
  if (batching_speedup < 1.2) {
    std::printf("FAIL: insufficient batching speedup\n");
    return 1;
  }
  std::printf("PASS\n");
  return 0;
}

}  // namespace
}  // namespace schemble

int main(int argc, char** argv) { return schemble::Main(argc, argv); }
