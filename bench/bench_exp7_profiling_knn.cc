// Exp-7 / Fig. 20: (a) MSE of the Eq. 3 marginal-reward estimation of
// model-combination accuracy for growing ensemble sizes on the
// CIFAR100-style ensemble; (b) robustness of the stacking aggregation to
// the KNN filling parameter k.

#include <cstdio>

#include "bench_util.h"
#include "core/aggregation.h"
#include "core/discrepancy.h"
#include "core/profiling.h"

using namespace schemble;
using namespace schemble::bench;

namespace {

void Fig20a() {
  std::printf("Fig. 20a: Eq. 3 estimation MSE vs measured combination "
              "accuracy (CIFAR100-style ensemble)\n");
  TextTable table({"Ensemble size", "Estimation MSE", "Naive (gamma=0) MSE"});
  for (int size : {4, 5, 6}) {
    SyntheticTask full_task = MakeCifar100StyleTask(5);
    std::vector<ModelProfile> profiles(full_task.profiles().begin(),
                                       full_task.profiles().begin() + size);
    TaskSpec spec = full_task.spec();
    SyntheticTask task(spec, profiles, 5);
    const auto history = task.GenerateDataset(
        4000, DifficultyDistribution::UniformFull(), 717);
    auto scorer = DiscrepancyScorer::Fit(task, history);
    const auto scores = scorer.value().ScoreAll(history);
    AccuracyProfile::Options options;
    options.bins = 5;
    auto profile = AccuracyProfile::Build(task, history, scores, options);

    const auto gammas = MarginalUtilityEstimator::FitGammas(profile.value());
    std::vector<double> accuracy(size);
    for (int k = 0; k < size; ++k) accuracy[k] = profiles[k].base_accuracy;
    MarginalUtilityEstimator est(size, accuracy, gammas);
    MarginalUtilityEstimator naive(
        size, accuracy, std::vector<double>(std::max(size, 3), 0.0));

    double mse = 0.0;
    double naive_mse = 0.0;
    int count = 0;
    for (int bin = 0; bin < profile.value().bins(); ++bin) {
      std::vector<double> row = profile.value().UtilityRow(
          (bin + 0.5) / profile.value().bins());
      std::vector<double> truncated(row.size(), 0.0);
      for (SubsetMask mask = 1; mask < row.size(); ++mask) {
        if (SubsetSize(mask) <= 2) truncated[mask] = row[mask];
      }
      const auto estimated = est.CompleteRow(truncated);
      const auto estimated_naive = naive.CompleteRow(truncated);
      for (SubsetMask mask = 1; mask < row.size(); ++mask) {
        if (SubsetSize(mask) < 3) continue;
        mse += (estimated[mask] - row[mask]) * (estimated[mask] - row[mask]);
        naive_mse += (estimated_naive[mask] - row[mask]) *
                     (estimated_naive[mask] - row[mask]);
        ++count;
      }
    }
    table.AddRow({std::to_string(size),
                  TextTable::Num(mse / count, 5),
                  TextTable::Num(naive_mse / count, 5)});
  }
  table.Print();
  std::printf("\n");
}

void Fig20b() {
  std::printf("Fig. 20b: stacking aggregation accuracy vs the KNN filling "
              "parameter k (text matching, strongest pair executed)\n");
  SyntheticTask task = MakeTextMatchingTask();
  const auto history = task.GenerateDataset(
      2000, DifficultyDistribution::UniformFull(), 818);
  const auto test = task.GenerateDataset(
      1500, DifficultyDistribution::Realistic(), 819, /*first_id=*/500000);
  TextTable table({"k", "Accuracy%"});
  // The whole test set shares one executed subset, so the batch path
  // amortizes mask unpacking across all 1500 queries per k.
  Aggregator::Workspace ws;
  std::vector<std::vector<double>> outs;
  for (int k : {1, 2, 5, 10, 20, 50, 100}) {
    AggregatorConfig config;
    config.kind = AggregationKind::kStacking;
    config.knn_k = k;
    auto aggregator = Aggregator::Build(task, history, config);
    aggregator.value().AggregateBatch(test, 0b110, &ws, &outs);
    double acc = 0.0;
    for (size_t i = 0; i < test.size(); ++i) {
      acc += task.MatchScore(outs[i], test[i].ensemble_output());
    }
    table.AddRow({std::to_string(k), Pct(acc / test.size())});
  }
  table.Print();
}

}  // namespace

int main() {
  Fig20a();
  Fig20b();
  return 0;
}
