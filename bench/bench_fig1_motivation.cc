// Fig. 1 (motivation): (a) one-day query traffic and the original deep
// ensemble's deadline miss rate per time segment; (b) accuracy (vs true
// labels) and latency of the ensemble and its base models.

#include <cstdio>

#include "bench_util.h"
#include "baselines/original_policy.h"

using namespace schemble;
using namespace schemble::bench;

namespace {

void Fig1a(const SyntheticTask& task) {
  std::printf("Fig. 1a: one-day Q&A traffic and the original pipeline's "
              "deadline miss rate (100 ms deadlines)\n");
  DiurnalTraffic traffic = DiurnalTraffic::QaDayShape(/*peak=*/55.0);
  ConstantDeadline deadlines(100 * kMillisecond);
  TraceOptions options;
  options.seed = 101;
  const QueryTrace trace = BuildTrace(task, traffic, deadlines,
                                      traffic.total_duration(), options);
  OriginalPolicy original;
  const ServingMetrics metrics =
      RunPolicy(task, &original, trace, /*allow_rejection=*/true, {},
                traffic.segment_duration());

  TextTable table({"Hour", "Arrivals", "DMR%"});
  for (size_t s = 0; s < metrics.segments.size(); ++s) {
    table.AddRow({std::to_string(s),
                  std::to_string(metrics.segments[s].arrivals),
                  Pct(metrics.segments[s].deadline_miss_rate())});
  }
  table.Print();
  std::printf("Day total: %lld queries, overall DMR %s%%\n\n",
              static_cast<long long>(metrics.total),
              Pct(metrics.deadline_miss_rate()).c_str());
}

void Fig1b(const SyntheticTask& task) {
  std::printf("Fig. 1b: ensemble vs base models (accuracy on true labels; "
              "10k uniform-difficulty samples)\n");
  const auto data = task.GenerateDataset(
      10000, DifficultyDistribution::Realistic(), 2025);
  TextTable table({"Model", "Accuracy%", "Latency (ms)"});
  for (int k = 0; k < task.num_models(); ++k) {
    double acc = 0.0;
    for (const Query& q : data) acc += task.TrueScore(q.model_output(k), q);
    table.AddRow({task.profile(k).name,
                  Pct(acc / static_cast<double>(data.size())),
                  TextTable::Num(
                      SimTimeToMillis(task.profile(k).latency_us), 0)});
  }
  double ensemble_acc = 0.0;
  SimTime slowest = 0;
  for (int k = 0; k < task.num_models(); ++k) {
    slowest = std::max(slowest, task.profile(k).latency_us);
  }
  for (const Query& q : data) {
    ensemble_acc += task.TrueScore(q.ensemble_output(), q);
  }
  table.AddRow({"Ensemble", Pct(ensemble_acc / data.size()),
                TextTable::Num(SimTimeToMillis(slowest) + 2.0, 0)});
  table.Print();
}

}  // namespace

int main() {
  SyntheticTask task = MakeTextMatchingTask();
  Fig1a(task);
  Fig1b(task);
  return 0;
}
