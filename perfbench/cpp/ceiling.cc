// rt-ceiling and rt-sharded: the runtime's stack ceiling. StaticPolicy
// sends every query to one model (RoBERTa) on 32 executors, force mode, a
// ~200k-query Poisson trace replayed at speedup 1e8 so every arrival is
// due at once. Nothing plans, so pump -> inbox -> admit -> dispatch ->
// worker -> finalize is the whole cost. rt-sharded is the same traffic on
// four scheduler domains (default routing, one pump), which adds routing,
// the load board, stealing and the rebalance tick.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "baselines/static_policy.h"
#include "models/task_factory.h"
#include "perfbench.h"
#include "probes.h"
#include "runtime/concurrent_server.h"
#include "tracing.h"
#include "workload/trace.h"
#include "workload/traffic.h"

namespace schemble {
namespace perfbench {
namespace {

constexpr int kModel = 1;  // RoBERTa
constexpr SubsetMask kSubset = SubsetMask{1} << kModel;
/// Enough executors that qps stops scaling with their count: each task
/// still pays one OS timer sleep (see README, "timer-sleep caveat").
constexpr int kExecutors = 32;
constexpr double kSpeedup = 1e8;
constexpr double kQueries = 200000.0;
constexpr double kArrivalRate = 1000.0;
/// Virtual deadline; at speedup 1e8 every query finishes after it, so the
/// miss rate reads 1.0 and latency is the backlog.
constexpr SimTime kDeadline = 100 * kMillisecond;

struct CeilingStack {
  std::unique_ptr<SyntheticTask> task;
  QueryTrace trace;
};

CeilingStack SetUp(double scale, uint64_t seed, double* setup_s,
                   PerLayer* layers) {
  CeilingStack stack;
  std::vector<double> total, trace;
  CpuRotation rotation;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    stack = CeilingStack();
    rotation.Next();
    const double t0 = WallSeconds();
    stack.task =
        std::make_unique<SyntheticTask>(MakeTextMatchingTask(kTaskSeed));
    const double t1 = WallSeconds();
    const PoissonTraffic traffic(kArrivalRate);
    const ConstantDeadline deadlines(kDeadline);
    TraceOptions trace_options;
    trace_options.seed = seed;
    const SimTime duration =
        static_cast<SimTime>(kQueries * scale / kArrivalRate * kSecond);
    stack.trace =
        BuildTrace(*stack.task, traffic, deadlines, duration, trace_options);
    const double t2 = WallSeconds();
    total.push_back(t2 - t0);
    std::fprintf(stderr, "perfbench: set-up %d: %.4f s\n", rep + 1, t2 - t0);
    trace.push_back(t2 - t1);
  }
  *setup_s = Median(total);
  layers->setup_trace_s = Median(trace);
  return stack;
}

}  // namespace

void RunCeiling(const Args& args, int num_domains, Report* report) {
  PerLayer layers;
  double setup_s = 0.0;
  const CeilingStack stack = SetUp(args.scale, args.seed, &setup_s, &layers);
  const int64_t n = stack.trace.size();

  StaticDeployment deployment;
  deployment.subset = kSubset;
  deployment.replicas.assign(static_cast<size_t>(stack.task->num_models()),
                             0);
  deployment.replicas[kModel] = kExecutors;
  ConcurrentServerOptions base_options;
  base_options.executor_models.assign(kExecutors, kModel);
  base_options.allow_rejection = false;
  base_options.speedup = kSpeedup;
  base_options.num_domains = num_domains;

  // One run. With `tracers`, every domain's policy (and, with several
  // domains, the router) is wrapped in a timing decorator.
  struct Tracers {
    std::vector<std::unique_ptr<TimedPolicy>> policies;
    std::unique_ptr<TimedRouter> router;
  };
  const auto serve = [&](Tracers* tracers, RuntimeCounters* counters,
                         std::vector<int64_t>* subset_size_counts) {
    std::vector<StaticPolicy> policies(static_cast<size_t>(num_domains),
                                       StaticPolicy(deployment));
    std::vector<ServingPolicy*> domain_policies;
    ConcurrentServerOptions options = base_options;
    for (StaticPolicy& policy : policies) {
      if (tracers == nullptr) {
        domain_policies.push_back(&policy);
        continue;
      }
      tracers->policies.push_back(std::make_unique<TimedPolicy>(&policy));
      domain_policies.push_back(tracers->policies.back().get());
    }
    if (tracers != nullptr && num_domains > 1) {
      tracers->router = std::make_unique<TimedRouter>();
      options.router = tracers->router.get();
    }
    ServingMetrics metrics;
    const RunResult run = MeasureRun(
        [&] {
          ConcurrentServer server(*stack.task, domain_policies, options);
          ServingMetrics m = server.Run(stack.trace);
          CheckRuntimeRun(server, m, n, /*force_mode=*/true, report);
          *counters = ReadCounters(server, n);
          return m;
        },
        &metrics);
    *subset_size_counts = metrics.subset_size_counts;
    return run;
  };

  std::vector<RuntimeCounters> counters;
  std::vector<int64_t> subset_size_counts;
  const std::vector<RunResult> untraced =
      RepeatFor(args.seconds, /*min_runs=*/3, [&] {
        RuntimeCounters c;
        const RunResult run = serve(nullptr, &c, &subset_size_counts);
        counters.push_back(c);
        return run;
      });
  const EndToEnd untraced_e2e = MedianEndToEnd(untraced, setup_s);
  if (!args.trace) {
    AddEndToEnd(untraced_e2e, report);
    return;
  }

  PolicyTotals totals;
  std::vector<double> traced_plans;
  const std::vector<RunResult> traced =
      RepeatFor(args.seconds, /*min_runs=*/1, [&] {
        Tracers tracers;
        RuntimeCounters c;
        const RunResult run = serve(&tracers, &c, &subset_size_counts);
        for (const auto& timed : tracers.policies) totals.AddPolicy(*timed);
        if (tracers.router != nullptr) {
          layers.route_ns.Append(tracers.router->route_ns());
        }
        totals.AddRun(run);
        traced_plans.push_back(c.plans_per_query);
        return run;
      });
  totals.Fill(totals.cpu_s, &layers);
  MedianCounters(counters, &layers);
  layers.traced_plans_per_query = Median(traced_plans);
  layers.completion_us =
      TimeCompletions(*stack.task, /*aggregator=*/nullptr, stack.trace,
                      subset_size_counts, /*allow_rejection=*/false,
                      args.seed);
  layers.completion_share = layers.completion_us.mean() * 1e-6 *
                            static_cast<double>(totals.queries) /
                            totals.cpu_s;
  AddPerLayer(layers, report);
  AddTracingOverhead(MedianEndToEnd(traced, setup_s), untraced_e2e, report);
}

}  // namespace perfbench
}  // namespace schemble
