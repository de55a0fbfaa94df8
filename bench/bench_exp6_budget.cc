// Exp-6 / Fig. 16 (appendix): offline cumulative-runtime budget experiment.
// Without online arrivals, each method selects model subsets per sample
// under an average-runtime budget; we report accuracy (vs the ensemble) at
// each budget for Random, Static, Gating, Schemble*, Schemble*(ea) and
// Schemble*(Oracle).

#include <cstdio>

#include "bench_util.h"
#include "core/budgeted.h"
#include "core/discrepancy.h"

using namespace schemble;
using namespace schemble::bench;

namespace {

/// Cost of each subset in milliseconds of cumulative model runtime.
std::vector<double> SubsetCosts(const SyntheticTask& task) {
  const SubsetMask full = FullMask(task.num_models());
  std::vector<double> costs(full + 1, 0.0);
  for (SubsetMask mask = 1; mask <= full; ++mask) {
    for (int k = 0; k < task.num_models(); ++k) {
      if (mask & (SubsetMask{1} << k)) {
        costs[mask] += SimTimeToMillis(task.profile(k).latency_us);
      }
    }
  }
  return costs;
}

double Accuracy(const SyntheticTask& task, const std::vector<Query>& data,
                const std::vector<SubsetMask>& assignment) {
  double acc = 0.0;
  for (size_t i = 0; i < data.size(); ++i) {
    if (assignment[i] == 0) continue;  // unserved -> incorrect
    const auto out = task.AggregateSubset(data[i],
                                          SubsetModels(assignment[i]));
    acc += task.MatchScore(out, data[i].ensemble_output());
  }
  return acc / static_cast<double>(data.size());
}

/// Utility rows per sample from a profile and per-sample scores.
std::vector<std::vector<double>> UtilityRows(
    const AccuracyProfile& profile, const std::vector<double>& scores) {
  std::vector<std::vector<double>> rows;
  rows.reserve(scores.size());
  for (double score : scores) rows.push_back(profile.UtilityRow(score));
  return rows;
}

void RunTask(TaskKind kind) {
  BenchContext ctx = MakeContext(kind, 20.0);
  const SyntheticTask& task = *ctx.task;
  const auto data = task.GenerateDataset(
      4000, DifficultyDistribution::Realistic(), 616, /*first_id=*/400000);
  const auto costs = SubsetCosts(task);
  const double full_cost = costs.back();

  // Score sources.
  std::vector<double> oracle_scores = ctx.pipeline->scorer().ScoreAll(data);
  std::vector<double> ea_scores = ctx.pipeline->ea_scorer().ScoreAll(data);
  std::vector<double> predicted_scores;
  predicted_scores.reserve(data.size());
  for (const Query& q : data) {
    predicted_scores.push_back(ctx.pipeline->predictor().Predict(q));
  }

  const auto rows_pred = UtilityRows(ctx.pipeline->predicted_profile(),
                                     predicted_scores);
  const auto rows_oracle = UtilityRows(ctx.pipeline->profile(),
                                       oracle_scores);
  const auto rows_ea = UtilityRows(ctx.pipeline->ea_profile(), ea_scores);

  std::printf("Fig. 16 (%s): accuracy under average-runtime budgets\n",
              TaskKindName(kind));
  TextTable table({"Budget (ms/query)", "Random", "Static", "Gating",
                   "Schemble*", "Schemble*(ea)", "Schemble*(Oracle)"});
  Rng rng(HashSeed("budget-random", 99));
  std::vector<SimTime> latency;
  for (int k = 0; k < task.num_models(); ++k) {
    latency.push_back(task.profile(k).latency_us);
  }

  for (double fraction : {0.2, 0.35, 0.5, 0.7, 0.9}) {
    const double per_query = fraction * full_cost;
    const double budget = per_query * static_cast<double>(data.size());

    // Random: add random models per sample until the budget is spent.
    std::vector<SubsetMask> random_assignment(data.size(), 0);
    {
      double spent = 0.0;
      bool progress = true;
      while (progress) {
        progress = false;
        for (size_t i = 0; i < data.size(); ++i) {
          const int k = static_cast<int>(
              rng.UniformInt(0, task.num_models() - 1));
          const SubsetMask bit = SubsetMask{1} << k;
          if (random_assignment[i] & bit) continue;
          const double extra = SimTimeToMillis(latency[k]);
          if (spent + extra > budget) continue;
          random_assignment[i] |= bit;
          spent += extra;
          progress = true;
        }
        if (spent >= budget * 0.999) break;
      }
    }

    // Static: the best fixed subset that fits the per-query budget.
    std::vector<SubsetMask> static_assignment(data.size(), 0);
    {
      SubsetMask best = 0;
      double best_utility = -1.0;
      for (SubsetMask mask = 1; mask < costs.size(); ++mask) {
        if (costs[mask] > per_query) continue;
        double utility = 0.0;
        for (size_t i = 0; i < data.size(); ++i) {
          utility += rows_oracle[i][mask];
        }
        if (utility > best_utility) {
          best_utility = utility;
          best = mask;
        }
      }
      std::fill(static_assignment.begin(), static_assignment.end(), best);
    }

    // Gating: per-sample gated subset, budget enforced by falling back to
    // the cheapest model when exceeded.
    std::vector<SubsetMask> gating_assignment(data.size(), 0);
    {
      double spent = 0.0;
      for (size_t i = 0; i < data.size(); ++i) {
        SubsetMask subset = ctx.gating->SelectSubset(data[i], latency);
        if (spent + costs[subset] > budget) subset = SubsetMask{1} << 0;
        if (spent + costs[subset] > budget) subset = 0;
        gating_assignment[i] = subset;
        spent += costs[subset];
      }
    }

    const auto schemble_assignment =
        BudgetedSelector::Select(rows_pred, costs, budget);
    const auto ea_assignment =
        BudgetedSelector::Select(rows_ea, costs, budget);
    const auto oracle_assignment =
        BudgetedSelector::Select(rows_oracle, costs, budget);

    table.AddRow({TextTable::Num(per_query, 0),
                  Pct(Accuracy(task, data, random_assignment)),
                  Pct(Accuracy(task, data, static_assignment)),
                  Pct(Accuracy(task, data, gating_assignment)),
                  Pct(Accuracy(task, data, schemble_assignment)),
                  Pct(Accuracy(task, data, ea_assignment)),
                  Pct(Accuracy(task, data, oracle_assignment))});
  }
  table.Print();
  std::printf("\n");
}

}  // namespace

int main() {
  RunTask(TaskKind::kTextMatching);
  RunTask(TaskKind::kVehicleCounting);
  return 0;
}
