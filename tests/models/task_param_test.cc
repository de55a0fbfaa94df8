// Parameterized invariants of the synthetic-model substrate across all
// three applications and the full difficulty range.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <tuple>

#include "common/prob.h"
#include "models/task_factory.h"

namespace schemble {
namespace {

enum class Kind { kTm, kVc, kIr, kCifar };

SyntheticTask MakeTask(Kind kind) {
  switch (kind) {
    case Kind::kTm:
      return MakeTextMatchingTask(11);
    case Kind::kVc:
      return MakeVehicleCountingTask(11);
    case Kind::kIr:
      return MakeImageRetrievalTask(11);
    case Kind::kCifar:
      return MakeCifar100StyleTask(11);
  }
  return MakeTextMatchingTask(11);
}

std::string KindName(Kind kind) {
  switch (kind) {
    case Kind::kTm:
      return "TextMatching";
    case Kind::kVc:
      return "VehicleCounting";
    case Kind::kIr:
      return "ImageRetrieval";
    case Kind::kCifar:
      return "Cifar100";
  }
  return "?";
}

class TaskSweepTest
    : public ::testing::TestWithParam<std::tuple<Kind, double>> {};

TEST_P(TaskSweepTest, OutputsWellFormed) {
  const auto [kind, difficulty] = GetParam();
  SyntheticTask task = MakeTask(kind);
  for (int i = 0; i < 50; ++i) {
    const Query q = task.GenerateQuery(i, difficulty);
    EXPECT_EQ(q.features().size(),
              static_cast<size_t>(task.spec().feature_dim()));
    EXPECT_EQ(q.num_models(),
              static_cast<size_t>(task.num_models()));
    for (int k = 0; k < task.num_models(); ++k) {
      EXPECT_EQ(q.model_output(k).size(),
                static_cast<size_t>(task.output_dim()));
      for (double v : q.model_output(k)) EXPECT_FALSE(std::isnan(v));
      if (task.spec().type == TaskType::kClassification) {
        double sum = 0.0;
        for (double v : q.model_output(k)) {
          EXPECT_GE(v, 0.0);
          sum += v;
        }
        EXPECT_NEAR(sum, 1.0, 1e-9);
      }
    }
    EXPECT_EQ(q.ensemble_output().size(),
              static_cast<size_t>(task.output_dim()));
  }
}

TEST_P(TaskSweepTest, FullSubsetAlwaysMatchesEnsemble) {
  const auto [kind, difficulty] = GetParam();
  SyntheticTask task = MakeTask(kind);
  std::vector<int> all;
  for (int k = 0; k < task.num_models(); ++k) all.push_back(k);
  for (int i = 0; i < 30; ++i) {
    const Query q = task.GenerateQuery(100 + i, difficulty);
    const auto agg = task.AggregateSubset(q, all);
    EXPECT_NEAR(task.MatchScore(agg, q.ensemble_output()), 1.0, 1e-9);
  }
}

TEST_P(TaskSweepTest, GenerationDeterministic) {
  const auto [kind, difficulty] = GetParam();
  SyntheticTask task_a = MakeTask(kind);
  SyntheticTask task_b = MakeTask(kind);
  const Query a = task_a.GenerateQuery(7, difficulty);
  const Query b = task_b.GenerateQuery(7, difficulty);
  for (int k = 0; k < task_a.num_models(); ++k) {
    for (size_t d = 0; d < a.model_output(k).size(); ++d) {
      EXPECT_DOUBLE_EQ(a.model_output(k)[d], b.model_output(k)[d]);
    }
  }
}

TEST_P(TaskSweepTest, MatchScoreBoundedAndReflexive) {
  const auto [kind, difficulty] = GetParam();
  SyntheticTask task = MakeTask(kind);
  for (int i = 0; i < 30; ++i) {
    const Query q = task.GenerateQuery(200 + i, difficulty);
    for (int k = 0; k < task.num_models(); ++k) {
      const double score =
          task.MatchScore(q.model_output(k), q.ensemble_output());
      EXPECT_GE(score, 0.0);
      EXPECT_LE(score, 1.0);
    }
    EXPECT_NEAR(task.MatchScore(q.ensemble_output(), q.ensemble_output()), 1.0,
                1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllTasksAllDifficulties, TaskSweepTest,
    ::testing::Combine(::testing::Values(Kind::kTm, Kind::kVc, Kind::kIr,
                                         Kind::kCifar),
                       ::testing::Values(0.0, 0.25, 0.5, 0.75, 1.0)),
    [](const ::testing::TestParamInfo<std::tuple<Kind, double>>& param_info) {
      return KindName(std::get<0>(param_info.param)) + "h" +
             std::to_string(static_cast<int>(std::get<1>(param_info.param) * 100));
    });

// Agreement with the ensemble decreases with difficulty on every task.
class TaskAgreementTest : public ::testing::TestWithParam<Kind> {};

TEST_P(TaskAgreementTest, SingleModelAgreementDecreasesWithDifficulty) {
  SyntheticTask task = MakeTask(GetParam());
  double prev = 2.0;
  for (double h : {0.05, 0.5, 0.95}) {
    double agreement = 0.0;
    const int n = 600;
    for (int i = 0; i < n; ++i) {
      const Query q = task.GenerateQuery(1000 + i, h);
      agreement += task.MatchScore(q.model_output(0), q.ensemble_output());
    }
    agreement /= n;
    EXPECT_LT(agreement, prev + 0.02);
    prev = agreement;
  }
}

INSTANTIATE_TEST_SUITE_P(AllTasks, TaskAgreementTest,
                         ::testing::Values(Kind::kTm, Kind::kVc, Kind::kIr,
                                           Kind::kCifar),
                         [](const ::testing::TestParamInfo<Kind>& param_info) {
                           return KindName(param_info.param);
                         });

}  // namespace
}  // namespace schemble
