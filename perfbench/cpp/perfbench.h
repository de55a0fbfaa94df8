#ifndef SCHEMBLE_PERFBENCH_PERFBENCH_H_
#define SCHEMBLE_PERFBENCH_PERFBENCH_H_

// Shared pieces of the repository benchmark: command-line arguments, the
// result report (one JSON line), timing helpers and the sample summaries
// every workload uses. See perfbench/README.md for the workloads and the
// metric -> layer -> workload map.

#include <sched.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "serving/metrics.h"

namespace schemble {
namespace perfbench {

/// Moves the calling thread across the CPUs it may run on, one per Next(),
/// so repeated single-threaded measurements sample every CPU instead of
/// staying on whichever one the scheduler picked first: on a shared host
/// single CPUs run at different speeds for minutes at a time. The
/// destructor restores the original CPU set, so threads created afterwards
/// (the runtime's) are unaffected.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Pins the calling thread to the next CPU in turn.
  void Next();

 private:
  cpu_set_t original_;
  std::vector<int> cpus_;
  size_t next_ = 0;
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  /// false: end-to-end metrics with tracing off. true: the per-layer run.
  bool trace = false;
  /// Multiplies every trace size (the smoke test runs at ~0.01).
  double scale = 1.0;
};

/// Collects metrics and correctness counts, and prints them as the
/// benchmark's result line.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit);

  /// Records `queries` replayed queries whose output checks passed.
  void Pass(int64_t queries) { attempted_ += queries; }
  /// Records a violated output check: the run's `queries` count as failed.
  void Fail(const std::string& what, int64_t queries);

  /// Prints {"correct", "attempted", "failed", "metrics"} on one line.
  void Print() const;

 private:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

/// Wall-clock seconds since an arbitrary epoch (steady_clock).
double WallSeconds();
/// Process CPU seconds, user + system, over all threads (getrusage).
double CpuSeconds();
/// Peak resident set size of this process so far, in MB.
double PeakRssMb();

double Median(std::vector<double> values);

/// Every sample of one timed call site, so the median and tail are exact.
class Samples {
 public:
  void Add(double x) { values_.push_back(x); }
  void Append(const Samples& other);
  int64_t count() const { return static_cast<int64_t>(values_.size()); }
  double sum() const;
  double mean() const;
  /// Nearest-rank order statistic; 0 when empty.
  double Quantile(double q) const;

 private:
  std::vector<double> values_;
};

/// Adds `<name>_p50`, `<name>_p99` (when `with_tail`) and `<name>_n`.
void AddTiming(const std::string& name, const Samples& samples,
               const std::string& unit, bool with_tail, Report* report);

/// End-to-end fields of one measured run.
struct RunResult {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  int64_t queries = 0;
  double accuracy = 0.0;
  double deadline_miss_rate = 0.0;
  double latency_p50_ms = 0.0;
  double latency_p99_ms = 0.0;
};

/// Times `serve` (wall and process CPU), stores what it returns in
/// `metrics` and summarizes it.
RunResult MeasureRun(const std::function<ServingMetrics()>& serve,
                     ServingMetrics* metrics);

/// Repeats `run_once` until `seconds` of wall time have passed and at
/// least `min_runs` runs were made.
std::vector<RunResult> RepeatFor(double seconds, int min_runs,
                                 const std::function<RunResult()>& run_once);

/// The eight end-to-end metrics; run fields are medians over runs.
struct EndToEnd {
  double setup_s = 0.0;
  double queries_per_s = 0.0;
  double cpu_us_per_query = 0.0;
  double accuracy = 0.0;
  double deadline_miss_rate = 0.0;
  double latency_p50_ms = 0.0;
  double latency_p99_ms = 0.0;
  double peak_rss_mb = 0.0;
};
EndToEnd MedianEndToEnd(const std::vector<RunResult>& runs, double setup_s);
void AddEndToEnd(const EndToEnd& e2e, Report* report);
/// Tracing overhead (per-layer run): traced minus untraced, per metric.
void AddTracingOverhead(const EndToEnd& traced, const EndToEnd& untraced,
                        Report* report);

/// Set-up repetitions per invocation; setup_s is their median.
constexpr int kSetupReps = 7;
/// Seed of the text-matching task every workload serves (the seed
/// bench_util's MakeContext uses); --seed varies only the trace.
constexpr uint64_t kTaskSeed = 2024;

/// Every per-layer metric of the traced run. Every workload prints all of
/// them; a layer the workload bypasses reads 0. Shares are of the traced
/// runs' wall time on the simulator and of their process CPU time on the
/// runtime workloads (which run many threads).
struct PerLayer {
  // src/core policy + DP, timed by TimedPolicy around each planning call.
  Samples plan_us;
  double plan_calls_per_query = 0.0;
  double plan_buffer_mean = 0.0;
  double plan_commit_ratio = 0.0;
  double plan_share = 0.0;
  /// SchemblePolicy::total_overhead_us per untraced run.
  double overhead_ms = 0.0;
  // Arrival path: policy OnArrival (includes the predictor) and the
  // predictor alone, timed on the trace's queries.
  Samples arrival_us;
  double arrival_share = 0.0;
  Samples predict_us;
  // Completion: EvaluateCompletion on the trace's queries with the run's
  // subset-size mix.
  Samples completion_us;
  double completion_share = 0.0;
  // Simulator self time: traced wall minus planning, arrival and
  // completion, per query; and the wall time it is carved from.
  double sim_self_us_per_query = 0.0;
  double sim_wall_us_per_query = 0.0;
  // src/runtime public getters, medians over the untraced runs.
  double lock_acq_per_query = 0.0;
  double lock_held_us_per_query = 0.0;
  double plans_per_query = 0.0;
  /// The same counter in the traced runs (must agree with the untraced).
  double traced_plans_per_query = 0.0;
  double plan_commits = 0.0;
  double plans_invalidated = 0.0;
  double replans = 0.0;
  double replans_skipped = 0.0;
  double steals = 0.0;
  double stolen = 0.0;
  double rebalances = 0.0;
  double donated = 0.0;
  double batch_occupancy = 0.0;
  // src/runtime routing, timed by TimedRouter.
  Samples route_ns;
  // Setup parts (median over the setup repetitions).
  double setup_pipeline_s = 0.0;
  double setup_aggregator_s = 0.0;
  double setup_trace_s = 0.0;
};
void AddPerLayer(const PerLayer& layers, Report* report);

// Workload entry points; each fills `report` per `args.trace`.
void RunSimQaDay(const Args& args, Report* report);
void RunRtQaDay(const Args& args, Report* report);
/// rt-ceiling (num_domains 1) and rt-sharded (num_domains 4).
void RunCeiling(const Args& args, int num_domains, Report* report);

}  // namespace perfbench
}  // namespace schemble

#endif  // SCHEMBLE_PERFBENCH_PERFBENCH_H_
