#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <numeric>

#include "perfbench.h"

namespace schemble {
namespace perfbench {

CpuRotation::CpuRotation() {
  CPU_ZERO(&original_);
  if (sched_getaffinity(0, sizeof(original_), &original_) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &original_)) cpus_.push_back(cpu);
  }
}

CpuRotation::~CpuRotation() {
  if (!cpus_.empty()) sched_setaffinity(0, sizeof(original_), &original_);
}

void CpuRotation::Next() {
  if (cpus_.empty()) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus_[next_++ % cpus_.size()], &one);
  sched_setaffinity(0, sizeof(one), &one);
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Report::Fail(const std::string& what, int64_t queries) {
  std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
  attempted_ += queries;
  failed_ += queries;
}

void Report::Print() const {
  bool finite = true;
  for (const Metric& m : metrics_) finite &= std::isfinite(m.value);
  if (!finite) std::fprintf(stderr, "perfbench: non-finite metric\n");
  const bool correct = failed_ == 0 && attempted_ > 0 && finite;
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<long long>(attempted_),
              static_cast<long long>(failed_));
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(),
                std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

double WallSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

void Samples::Append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
}

double Samples::sum() const {
  return std::accumulate(values_.begin(), values_.end(), 0.0);
}

double Samples::mean() const {
  return values_.empty() ? 0.0 : sum() / static_cast<double>(values_.size());
}

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  const double n = static_cast<double>(sorted.size());
  const size_t rank = std::min(
      sorted.size() - 1,
      static_cast<size_t>(std::max(0.0, std::ceil(q * n) - 1.0)));
  std::nth_element(sorted.begin(), sorted.begin() + static_cast<long>(rank),
                   sorted.end());
  return sorted[rank];
}

void AddTiming(const std::string& name, const Samples& samples,
               const std::string& unit, bool with_tail, Report* report) {
  report->Add(name + "_p50", samples.Quantile(0.5), unit);
  if (with_tail) report->Add(name + "_p99", samples.Quantile(0.99), unit);
  report->Add(name + "_n", static_cast<double>(samples.count()), "count");
}

RunResult MeasureRun(const std::function<ServingMetrics()>& serve,
                     ServingMetrics* metrics) {
  RunResult run;
  const double wall0 = WallSeconds();
  const double cpu0 = CpuSeconds();
  *metrics = serve();
  run.wall_s = WallSeconds() - wall0;
  run.cpu_s = CpuSeconds() - cpu0;
  run.queries = metrics->total;
  run.accuracy = metrics->accuracy();
  run.deadline_miss_rate = metrics->deadline_miss_rate();
  run.latency_p50_ms = metrics->latency_ms.Quantile(0.5);
  run.latency_p99_ms = metrics->latency_ms.Quantile(0.99);
  return run;
}

std::vector<RunResult> RepeatFor(double seconds, int min_runs,
                                 const std::function<RunResult()>& run_once) {
  std::vector<RunResult> runs;
  const double start = WallSeconds();
  while (static_cast<int>(runs.size()) < min_runs ||
         WallSeconds() - start < seconds) {
    runs.push_back(run_once());
    const RunResult& r = runs.back();
    std::fprintf(stderr,
                 "perfbench: run %zu: %lld queries, %.4f s wall, %.4f s cpu, "
                 "accuracy %.4f, miss rate %.4f\n",
                 runs.size(), static_cast<long long>(r.queries), r.wall_s,
                 r.cpu_s, r.accuracy, r.deadline_miss_rate);
  }
  return runs;
}

EndToEnd MedianEndToEnd(const std::vector<RunResult>& runs, double setup_s) {
  std::vector<double> qps, cpu, acc, dmr, p50, p99;
  for (const RunResult& r : runs) {
    const double q = static_cast<double>(std::max<int64_t>(r.queries, 1));
    qps.push_back(q / r.wall_s);
    cpu.push_back(r.cpu_s * 1e6 / q);
    acc.push_back(r.accuracy);
    dmr.push_back(r.deadline_miss_rate);
    p50.push_back(r.latency_p50_ms);
    p99.push_back(r.latency_p99_ms);
  }
  EndToEnd e2e;
  e2e.setup_s = setup_s;
  e2e.queries_per_s = Median(qps);
  e2e.cpu_us_per_query = Median(cpu);
  e2e.accuracy = Median(acc);
  e2e.deadline_miss_rate = Median(dmr);
  e2e.latency_p50_ms = Median(p50);
  e2e.latency_p99_ms = Median(p99);
  e2e.peak_rss_mb = PeakRssMb();
  return e2e;
}

namespace {

struct EndToEndField {
  const char* name;
  const char* unit;
  double EndToEnd::*field;
};

constexpr EndToEndField kEndToEndFields[] = {
    {"setup_s", "s", &EndToEnd::setup_s},
    {"queries_per_s", "1/s", &EndToEnd::queries_per_s},
    {"cpu_us_per_query", "us", &EndToEnd::cpu_us_per_query},
    {"accuracy", "fraction", &EndToEnd::accuracy},
    {"deadline_miss_rate", "fraction", &EndToEnd::deadline_miss_rate},
    {"latency_p50_ms", "ms", &EndToEnd::latency_p50_ms},
    {"latency_p99_ms", "ms", &EndToEnd::latency_p99_ms},
    {"peak_rss_mb", "MB", &EndToEnd::peak_rss_mb},
};

}  // namespace

void AddEndToEnd(const EndToEnd& e2e, Report* report) {
  for (const EndToEndField& f : kEndToEndFields) {
    report->Add(f.name, e2e.*f.field, f.unit);
  }
}

void AddTracingOverhead(const EndToEnd& traced, const EndToEnd& untraced,
                        Report* report) {
  for (const EndToEndField& f : kEndToEndFields) {
    report->Add(std::string("overhead.") + f.name,
                traced.*f.field - untraced.*f.field, f.unit);
  }
}

void AddPerLayer(const PerLayer& p, Report* report) {
  AddTiming("policy.plan_us", p.plan_us, "us", true, report);
  report->Add("policy.plan_calls_per_query", p.plan_calls_per_query,
              "calls/query");
  report->Add("policy.plan_buffer_mean", p.plan_buffer_mean, "queries");
  report->Add("policy.plan_commit_ratio", p.plan_commit_ratio, "fraction");
  report->Add("policy.plan_share", p.plan_share, "fraction");
  report->Add("policy.overhead_ms", p.overhead_ms, "ms");
  AddTiming("policy.arrival_us", p.arrival_us, "us", false, report);
  report->Add("policy.arrival_share", p.arrival_share, "fraction");
  AddTiming("predictor.predict_us", p.predict_us, "us", false, report);
  AddTiming("completion.us", p.completion_us, "us", true, report);
  report->Add("completion.share", p.completion_share, "fraction");
  report->Add("sim.self_us_per_query", p.sim_self_us_per_query, "us");
  report->Add("sim.wall_us_per_query", p.sim_wall_us_per_query, "us");
  report->Add("runtime.lock_acq_per_query", p.lock_acq_per_query,
              "count/query");
  report->Add("runtime.lock_held_us_per_query", p.lock_held_us_per_query,
              "us");
  report->Add("runtime.plans_per_query", p.plans_per_query, "count/query");
  report->Add("runtime.traced_plans_per_query", p.traced_plans_per_query,
              "count/query");
  report->Add("runtime.plan_commits", p.plan_commits, "count");
  report->Add("runtime.plans_invalidated", p.plans_invalidated, "count");
  report->Add("runtime.replans", p.replans, "count");
  report->Add("runtime.replans_skipped", p.replans_skipped, "count");
  report->Add("runtime.steals", p.steals, "count");
  report->Add("runtime.stolen", p.stolen, "count");
  report->Add("runtime.rebalances", p.rebalances, "count");
  report->Add("runtime.donated", p.donated, "count");
  report->Add("runtime.batch_occupancy", p.batch_occupancy, "tasks/batch");
  AddTiming("routing.route_ns", p.route_ns, "ns", false, report);
  report->Add("setup.pipeline_s", p.setup_pipeline_s, "s");
  report->Add("setup.aggregator_s", p.setup_aggregator_s, "s");
  report->Add("setup.trace_s", p.setup_trace_s, "s");
}

}  // namespace perfbench
}  // namespace schemble
