#ifndef SCHEMBLE_PERFBENCH_PROBES_H_
#define SCHEMBLE_PERFBENCH_PROBES_H_

// Output checks, public-counter reads and per-layer timings shared by the
// workloads.

#include <cstdint>
#include <vector>

#include "core/aggregation.h"
#include "core/discrepancy_predictor.h"
#include "perfbench.h"
#include "runtime/concurrent_server.h"
#include "tracing.h"
#include "workload/trace.h"

namespace schemble {
namespace perfbench {

/// One untraced runtime run's public counters, normalized where the
/// metric is per query.
struct RuntimeCounters {
  double lock_acq_per_query = 0.0;
  double lock_held_us_per_query = 0.0;
  double plans_per_query = 0.0;
  double plan_commits = 0.0;
  double plans_invalidated = 0.0;
  double replans = 0.0;
  double replans_skipped = 0.0;
  double steals = 0.0;
  double stolen = 0.0;
  double rebalances = 0.0;
  double donated = 0.0;
  double batch_occupancy = 0.0;
};

RuntimeCounters ReadCounters(const ConcurrentServer& server, int64_t queries);

/// Checks one finished runtime run: every trace query finalized exactly
/// once (`total`, and `processed` in force mode, equal the trace size), the
/// arrival pumps routed the whole trace, and batch occupancy is 1.0.
/// Records the run's queries in `report` as passed or failed.
void CheckRuntimeRun(const ConcurrentServer& server,
                     const ServingMetrics& metrics, int64_t trace_size,
                     bool force_mode, Report* report);

/// Medians of `runs` into the runtime fields of `layers`.
void MedianCounters(const std::vector<RuntimeCounters>& runs,
                    PerLayer* layers);

/// Policy timings and run totals accumulated over the traced runs.
struct PolicyTotals {
  Samples plan_us;
  Samples arrival_us;
  int64_t offered = 0;
  int64_t assigned = 0;
  int64_t queries = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;

  void AddPolicy(const TimedPolicy& timed);
  void AddRun(const RunResult& run);
  /// Fills the policy fields of `layers`; shares are of `busy_s` seconds.
  void Fill(double busy_s, PerLayer* layers) const;
};

/// Times DiscrepancyPredictor::Predict on every trace query.
Samples TimePredictions(const DiscrepancyPredictor& predictor,
                        const QueryTrace& trace);

/// Times EvaluateCompletion on every trace query, with executed subsets
/// drawn to match `subset_size_counts` (a run's mix; size 0 is a miss).
/// `aggregator` may be null (the task's reference average).
Samples TimeCompletions(const SyntheticTask& task,
                        const Aggregator* aggregator, const QueryTrace& trace,
                        const std::vector<int64_t>& subset_size_counts,
                        bool allow_rejection, uint64_t seed);

}  // namespace perfbench
}  // namespace schemble

#endif  // SCHEMBLE_PERFBENCH_PROBES_H_
