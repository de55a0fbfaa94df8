#include "probes.h"

#include <chrono>
#include <string>

#include "common/rng.h"
#include "core/profiling.h"
#include "serving/completion.h"

namespace schemble {
namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double MicrosSince(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

}  // namespace

RuntimeCounters ReadCounters(const ConcurrentServer& server,
                             int64_t queries) {
  const double q = static_cast<double>(queries > 0 ? queries : 1);
  const ConcurrentServer::LockStatsSnapshot lock = server.lock_stats();
  const ConcurrentServer::SchedulerStatsSnapshot s = server.scheduler_stats();
  RuntimeCounters c;
  c.lock_acq_per_query = static_cast<double>(lock.acquisitions) / q;
  c.lock_held_us_per_query = lock.held_ms * 1e3 / q;
  c.plans_per_query = static_cast<double>(s.plans) / q;
  c.plan_commits = static_cast<double>(s.plan_commits);
  c.plans_invalidated = static_cast<double>(s.plans_invalidated);
  c.replans = static_cast<double>(s.replans);
  c.replans_skipped = static_cast<double>(s.replans_skipped);
  c.steals = static_cast<double>(s.steals);
  c.stolen = static_cast<double>(s.stolen);
  c.rebalances = static_cast<double>(s.rebalances);
  c.donated = static_cast<double>(s.donated);
  c.batch_occupancy = s.mean_batch_occupancy();
  return c;
}

void CheckRuntimeRun(const ConcurrentServer& server,
                     const ServingMetrics& metrics, int64_t trace_size,
                     bool force_mode, Report* report) {
  int64_t routed = 0;
  for (int p = 0; p < server.num_arrival_pumps(); ++p) {
    routed += server.pump_routed(p);
  }
  const double occupancy = server.scheduler_stats().mean_batch_occupancy();
  const std::string of = " of " + std::to_string(trace_size) + " queries";
  std::string failure;
  if (metrics.total != trace_size) {
    failure = "finalized " + std::to_string(metrics.total) + of;
  } else if (force_mode && metrics.processed != trace_size) {
    failure = "force mode processed " + std::to_string(metrics.processed) + of;
  } else if (routed != trace_size) {
    failure = "pumps routed " + std::to_string(routed) + of;
  } else if (occupancy != 1.0) {
    failure = "batch occupancy " + std::to_string(occupancy) + " != 1";
  }
  if (failure.empty()) {
    report->Pass(trace_size);
  } else {
    report->Fail(failure, trace_size);
  }
}

void MedianCounters(const std::vector<RuntimeCounters>& runs,
                    PerLayer* layers) {
  const auto median = [&runs](double RuntimeCounters::*field) {
    std::vector<double> values;
    for (const RuntimeCounters& c : runs) values.push_back(c.*field);
    return Median(std::move(values));
  };
  layers->lock_acq_per_query = median(&RuntimeCounters::lock_acq_per_query);
  layers->lock_held_us_per_query =
      median(&RuntimeCounters::lock_held_us_per_query);
  layers->plans_per_query = median(&RuntimeCounters::plans_per_query);
  layers->plan_commits = median(&RuntimeCounters::plan_commits);
  layers->plans_invalidated = median(&RuntimeCounters::plans_invalidated);
  layers->replans = median(&RuntimeCounters::replans);
  layers->replans_skipped = median(&RuntimeCounters::replans_skipped);
  layers->steals = median(&RuntimeCounters::steals);
  layers->stolen = median(&RuntimeCounters::stolen);
  layers->rebalances = median(&RuntimeCounters::rebalances);
  layers->donated = median(&RuntimeCounters::donated);
  layers->batch_occupancy = median(&RuntimeCounters::batch_occupancy);
}

void PolicyTotals::AddPolicy(const TimedPolicy& timed) {
  plan_us.Append(timed.plan_us());
  arrival_us.Append(timed.arrival_us());
  offered += timed.offered();
  assigned += timed.assigned();
}

void PolicyTotals::AddRun(const RunResult& run) {
  queries += run.queries;
  wall_s += run.wall_s;
  cpu_s += run.cpu_s;
}

void PolicyTotals::Fill(double busy_s, PerLayer* layers) const {
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  const double plans = static_cast<double>(plan_us.count());
  layers->plan_us = plan_us;
  layers->arrival_us = arrival_us;
  layers->plan_calls_per_query = ratio(plans, static_cast<double>(queries));
  layers->plan_buffer_mean = ratio(static_cast<double>(offered), plans);
  layers->plan_commit_ratio = ratio(static_cast<double>(assigned),
                                    static_cast<double>(offered));
  layers->plan_share = ratio(plan_us.sum() * 1e-6, busy_s);
  layers->arrival_share = ratio(arrival_us.sum() * 1e-6, busy_s);
}

Samples TimePredictions(const DiscrepancyPredictor& predictor,
                        const QueryTrace& trace) {
  Samples samples;
  double sink = 0.0;
  for (const TracedQuery& tq : trace.items) {
    const Clock::time_point start = Clock::now();
    sink += predictor.Predict(tq.query);
    samples.Add(MicrosSince(start));
  }
  // Keeps the predictions observable so none is optimized away.
  if (sink < 0.0) samples.Add(0.0);
  return samples;
}

Samples TimeCompletions(const SyntheticTask& task,
                        const Aggregator* aggregator, const QueryTrace& trace,
                        const std::vector<int64_t>& subset_size_counts,
                        bool allow_rejection, uint64_t seed) {
  // Masks of each subset size, cycled through so every model combination
  // of that size is exercised.
  const int num_models = task.num_models();
  std::vector<std::vector<SubsetMask>> masks_of_size(
      static_cast<size_t>(num_models) + 1);
  for (SubsetMask mask = 0; mask <= FullMask(num_models); ++mask) {
    masks_of_size[static_cast<size_t>(SubsetSize(mask))].push_back(mask);
  }
  // One subset size per trace query, exactly the run's counts, shuffled.
  std::vector<int> sizes;
  for (size_t s = 0; s < subset_size_counts.size(); ++s) {
    sizes.insert(sizes.end(), static_cast<size_t>(subset_size_counts[s]),
                 static_cast<int>(s));
  }
  sizes.resize(trace.items.size(), num_models);
  Rng rng(HashSeed("perfbench-completion", seed));
  for (size_t i = sizes.size(); i > 1; --i) {
    std::swap(sizes[i - 1], sizes[static_cast<size_t>(rng.UniformInt(
                                0, static_cast<int64_t>(i) - 1))]);
  }

  CompletionWorkspace ws;
  std::vector<size_t> next_mask(masks_of_size.size(), 0);
  Samples samples;
  double sink = 0.0;
  for (size_t i = 0; i < trace.items.size(); ++i) {
    const TracedQuery& tq = trace.items[i];
    const std::vector<SubsetMask>& masks =
        masks_of_size[static_cast<size_t>(sizes[i])];
    const SubsetMask outputs =
        masks[next_mask[static_cast<size_t>(sizes[i])]++ % masks.size()];
    const Clock::time_point start = Clock::now();
    const QueryOutcome outcome =
        EvaluateCompletion(task, aggregator, tq, outputs, tq.deadline,
                           allow_rejection, &ws);
    samples.Add(MicrosSince(start));
    sink += outcome.match;
  }
  if (sink < 0.0) samples.Add(0.0);
  return samples;
}

}  // namespace perfbench
}  // namespace schemble
