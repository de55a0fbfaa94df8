// sim-qa-day and rt-qa-day: the paper's Fig. 9 text-matching setup
// (one-day Q&A traffic shape, 85 qps peak, 100 ms deadlines, rejection
// mode) served by Schemble (predicted scores, DP at the default delta)
// with the stacking aggregator, once on the discrete-event simulator and
// once on the wall-clock runtime.

#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "models/task_factory.h"
#include "perfbench.h"
#include "probes.h"
#include "runtime/concurrent_server.h"
#include "serving/pipeline.h"
#include "serving/server.h"
#include "tracing.h"
#include "workload/trace.h"
#include "workload/traffic.h"

namespace schemble {
namespace perfbench {
namespace {

constexpr double kPeakRate = 85.0;
constexpr SimTime kDeadline = 100 * kMillisecond;
/// Simulator segments: ~18.5k queries, under a second of DP-bound wall
/// time per run, so one invocation takes the median of many runs.
constexpr double kSimSegmentSeconds = 25.0;
/// Runtime replay at speedup 10 with 2.5 s segments: ~1.9k queries in ~6 s
/// of wall time. Each invocation replays five different traces (made from
/// the seed) and reports medians: a single trace of this size makes the
/// miss rate depend on the seed, and a single run has no defence against
/// the runs that fall behind and miss a large share of deadlines (seen in
/// up to half the runs at speedup 20 on a busy host; see README).
constexpr double kRtSpeedup = 10.0;
constexpr double kRtSegmentSeconds = 2.5;
constexpr int kRtTraces = 5;

/// Everything the two QA-day workloads serve from.
struct QaDayStack {
  std::unique_ptr<SyntheticTask> task;
  std::unique_ptr<SchemblePipeline> pipeline;
  std::unique_ptr<Aggregator> aggregator;
  /// Run i replays traces[i % traces.size()].
  std::vector<QueryTrace> traces;
  SimTime segment = 0;
};

/// Builds the stack (with `num_traces` traces) kSetupReps times, keeping
/// the last, and records the median total and per-part set-up times.
QaDayStack SetUp(double segment_seconds, int num_traces, uint64_t seed,
                 double* setup_s, PerLayer* layers) {
  QaDayStack stack;
  std::vector<double> total, pipeline, aggregator, trace;
  CpuRotation rotation;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    stack = QaDayStack();
    rotation.Next();
    const double t0 = WallSeconds();
    stack.task =
        std::make_unique<SyntheticTask>(MakeTextMatchingTask(kTaskSeed));
    PipelineOptions pipeline_options;
    pipeline_options.history_size = 4000;
    pipeline_options.predictor.trainer.epochs = 25;
    pipeline_options.seed = kTaskSeed + 1;
    auto built = SchemblePipeline::Build(*stack.task, pipeline_options);
    SCHEMBLE_CHECK(built.ok()) << built.status().ToString();
    stack.pipeline = std::move(built).value();
    const double t1 = WallSeconds();

    AggregatorConfig aggregator_config;
    aggregator_config.kind = AggregationKind::kStacking;
    auto aggregated = Aggregator::Build(*stack.task, stack.pipeline->history(),
                                        aggregator_config);
    SCHEMBLE_CHECK(aggregated.ok()) << aggregated.status().ToString();
    stack.aggregator =
        std::make_unique<Aggregator>(std::move(aggregated).value());
    const double t2 = WallSeconds();

    stack.segment = static_cast<SimTime>(segment_seconds * kSecond);
    const DiurnalTraffic traffic =
        DiurnalTraffic::QaDayShape(kPeakRate, stack.segment);
    const ConstantDeadline deadlines(kDeadline);
    for (int k = 0; k < num_traces; ++k) {
      TraceOptions trace_options;
      trace_options.seed =
          HashSeed("perfbench-trace", seed) + static_cast<uint64_t>(k);
      stack.traces.push_back(BuildTrace(*stack.task, traffic, deadlines,
                                        traffic.total_duration(),
                                        trace_options));
    }
    const double t3 = WallSeconds();
    total.push_back(t3 - t0);
    std::fprintf(stderr, "perfbench: set-up %d: %.4f s\n", rep + 1, t3 - t0);
    pipeline.push_back(t1 - t0);
    aggregator.push_back(t2 - t1);
    trace.push_back(t3 - t2);
  }
  *setup_s = Median(total);
  layers->setup_pipeline_s = Median(pipeline);
  layers->setup_aggregator_s = Median(aggregator);
  layers->setup_trace_s = Median(trace);
  return stack;
}

bool SameOutputs(const ServingMetrics& a, const ServingMetrics& b) {
  return a.total == b.total && a.processed == b.processed &&
         a.missed == b.missed && a.accuracy_sum == b.accuracy_sum &&
         a.latency_ms.samples() == b.latency_ms.samples();
}

}  // namespace

void RunSimQaDay(const Args& args, Report* report) {
  PerLayer layers;
  double setup_s = 0.0;
  const QaDayStack stack = SetUp(kSimSegmentSeconds * args.scale, 1,
                                 args.seed, &setup_s, &layers);
  const QueryTrace& trace = stack.traces[0];
  const int64_t n = trace.size();

  // Every run must reproduce the first bit for bit (traced runs included:
  // the decorator must not change a decision).
  std::optional<ServingMetrics> reference;
  const auto serve = [&](ServingPolicy* policy, ServingMetrics* metrics) {
    ServerOptions options;
    options.aggregator = stack.aggregator.get();
    options.segment_duration = stack.segment;
    const RunResult run = MeasureRun(
        [&] {
          EnsembleServer server(*stack.task, policy, options);
          return server.Run(trace);
        },
        metrics);
    if (metrics->total != n) {
      report->Fail("simulator finalized " + std::to_string(metrics->total) +
                       " of " + std::to_string(n) + " queries",
                   n);
    } else if (!reference.has_value()) {
      reference = *metrics;
      report->Pass(n);
    } else if (!SameOutputs(*reference, *metrics)) {
      report->Fail("simulator run differs from the first run", n);
    } else {
      report->Pass(n);
    }
    return run;
  };

  // The simulator is single-threaded: rotate its runs across the CPUs.
  CpuRotation rotation;
  std::vector<double> overhead_ms;
  const std::vector<RunResult> untraced =
      RepeatFor(args.seconds, /*min_runs=*/3, [&] {
        rotation.Next();
        auto policy = stack.pipeline->MakeSchemble(SchembleConfig{});
        ServingMetrics metrics;
        const RunResult run = serve(policy.get(), &metrics);
        overhead_ms.push_back(
            static_cast<double>(policy->total_overhead_us()) / 1e3);
        return run;
      });
  const EndToEnd untraced_e2e = MedianEndToEnd(untraced, setup_s);
  if (!args.trace) {
    AddEndToEnd(untraced_e2e, report);
    return;
  }

  PolicyTotals totals;
  const std::vector<RunResult> traced =
      RepeatFor(args.seconds, /*min_runs=*/1, [&] {
        rotation.Next();
        auto policy = stack.pipeline->MakeSchemble(SchembleConfig{});
        TimedPolicy timed(policy.get());
        ServingMetrics metrics;
        const RunResult run = serve(&timed, &metrics);
        totals.AddPolicy(timed);
        totals.AddRun(run);
        return run;
      });
  totals.Fill(totals.wall_s, &layers);
  layers.overhead_ms = Median(overhead_ms);
  layers.predict_us = TimePredictions(stack.pipeline->predictor(), trace);
  layers.completion_us = TimeCompletions(
      *stack.task, stack.aggregator.get(), trace,
      reference->subset_size_counts, /*allow_rejection=*/true, args.seed);
  const double completion_s = layers.completion_us.mean() * 1e-6 *
                              static_cast<double>(totals.queries);
  layers.completion_share = completion_s / totals.wall_s;
  const double q = static_cast<double>(totals.queries);
  layers.sim_wall_us_per_query = totals.wall_s * 1e6 / q;
  layers.sim_self_us_per_query =
      (totals.wall_s - totals.plan_us.sum() * 1e-6 -
       totals.arrival_us.sum() * 1e-6 - completion_s) *
      1e6 / q;
  AddPerLayer(layers, report);
  AddTracingOverhead(MedianEndToEnd(traced, setup_s), untraced_e2e, report);
}

void RunRtQaDay(const Args& args, Report* report) {
  PerLayer layers;
  double setup_s = 0.0;
  const QaDayStack stack = SetUp(kRtSegmentSeconds * args.scale, kRtTraces,
                                 args.seed, &setup_s, &layers);

  ConcurrentServerOptions options;
  options.speedup = kRtSpeedup;
  options.aggregator = stack.aggregator.get();
  options.segment_duration = stack.segment;
  std::vector<int64_t> subset_size_counts;  // of the first run (traces[0])
  size_t runs = 0;
  const auto serve = [&](ServingPolicy* policy, RuntimeCounters* counters) {
    const QueryTrace& trace = stack.traces[runs++ % stack.traces.size()];
    const int64_t n = trace.size();
    ServingMetrics metrics;
    const RunResult run = MeasureRun(
        [&] {
          ConcurrentServer server(*stack.task, policy, options);
          ServingMetrics m = server.Run(trace);
          CheckRuntimeRun(server, m, n, /*force_mode=*/false, report);
          *counters = ReadCounters(server, n);
          return m;
        },
        &metrics);
    if (subset_size_counts.empty()) {
      subset_size_counts = metrics.subset_size_counts;
    }
    return run;
  };

  std::vector<RuntimeCounters> counters;
  std::vector<double> overhead_ms;
  const std::vector<RunResult> untraced =
      RepeatFor(args.seconds, kRtTraces, [&] {
        auto policy = stack.pipeline->MakeSchemble(SchembleConfig{});
        RuntimeCounters c;
        const RunResult run = serve(policy.get(), &c);
        counters.push_back(c);
        overhead_ms.push_back(
            static_cast<double>(policy->total_overhead_us()) / 1e3);
        return run;
      });
  const EndToEnd untraced_e2e = MedianEndToEnd(untraced, setup_s);
  if (!args.trace) {
    AddEndToEnd(untraced_e2e, report);
    return;
  }

  PolicyTotals totals;
  std::vector<double> traced_plans;
  runs = 0;
  const std::vector<RunResult> traced =
      RepeatFor(args.seconds, kRtTraces, [&] {
        auto policy = stack.pipeline->MakeSchemble(SchembleConfig{});
        TimedPolicy timed(policy.get());
        RuntimeCounters c;
        const RunResult run = serve(&timed, &c);
        totals.AddPolicy(timed);
        totals.AddRun(run);
        traced_plans.push_back(c.plans_per_query);
        return run;
      });
  totals.Fill(totals.cpu_s, &layers);
  MedianCounters(counters, &layers);
  layers.traced_plans_per_query = Median(traced_plans);
  layers.overhead_ms = Median(overhead_ms);
  layers.predict_us =
      TimePredictions(stack.pipeline->predictor(), stack.traces[0]);
  layers.completion_us = TimeCompletions(
      *stack.task, stack.aggregator.get(), stack.traces[0],
      subset_size_counts, /*allow_rejection=*/true, args.seed);
  layers.completion_share = layers.completion_us.mean() * 1e-6 *
                            static_cast<double>(totals.queries) /
                            totals.cpu_s;
  AddPerLayer(layers, report);
  AddTracingOverhead(MedianEndToEnd(traced, setup_s), untraced_e2e, report);
}

}  // namespace perfbench
}  // namespace schemble
