#include "core/discrepancy_predictor.h"

#include <gtest/gtest.h>

#include "common/prob.h"
#include "common/stats.h"
#include "core/discrepancy.h"
#include "models/task_factory.h"

namespace schemble {
namespace {

struct Fixture {
  SyntheticTask task;
  std::vector<Query> train;
  std::vector<Query> test;
  std::vector<double> train_scores;
  std::vector<double> test_scores;
};

Fixture MakeFixture(uint64_t seed = 3, int n_train = 3000, int n_test = 800) {
  Fixture f{MakeTextMatchingTask(seed), {}, {}, {}, {}};
  f.train = f.task.GenerateDataset(
      n_train, DifficultyDistribution::UniformFull(), seed + 1);
  f.test = f.task.GenerateDataset(
      n_test, DifficultyDistribution::UniformFull(), seed + 2,
      /*first_id=*/100000);
  auto scorer = DiscrepancyScorer::Fit(f.task, f.train);
  f.train_scores = scorer.value().ScoreAll(f.train);
  f.test_scores = scorer.value().ScoreAll(f.test);
  return f;
}

PredictorConfig FastConfig() {
  PredictorConfig config;
  config.trainer.epochs = 40;
  return config;
}

TEST(DiscrepancyPredictorTest, TrainRejectsBadInput) {
  SyntheticTask task = MakeTextMatchingTask(1);
  EXPECT_FALSE(DiscrepancyPredictor::Train(task, {}, {}).ok());
  auto data =
      task.GenerateDataset(10, DifficultyDistribution::Realistic(), 2);
  EXPECT_FALSE(
      DiscrepancyPredictor::Train(task, data, std::vector<double>(3, 0.1))
          .ok());
}

TEST(DiscrepancyPredictorTest, PredictionsInUnitInterval) {
  Fixture f = MakeFixture();
  auto predictor =
      DiscrepancyPredictor::Train(f.task, f.train, f.train_scores,
                                  FastConfig());
  ASSERT_TRUE(predictor.ok());
  for (const Query& q : f.test) {
    const double p = predictor.value().Predict(q);
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

TEST(DiscrepancyPredictorTest, LearnsToRankDifficulty) {
  Fixture f = MakeFixture();
  auto predictor =
      DiscrepancyPredictor::Train(f.task, f.train, f.train_scores,
                                  FastConfig());
  ASSERT_TRUE(predictor.ok());
  std::vector<double> predicted;
  for (const Query& q : f.test) {
    predicted.push_back(predictor.value().Predict(q));
  }
  // Held-out rank correlation with the ground-truth discrepancy score.
  // The predictor can only capture the latent-difficulty component of the
  // score; the per-model flip noise is irreducible from features.
  EXPECT_GT(SpearmanCorrelation(predicted, f.test_scores), 0.28);
}

TEST(DiscrepancyPredictorTest, BeatsConstantPredictorOnMse) {
  Fixture f = MakeFixture();
  auto predictor =
      DiscrepancyPredictor::Train(f.task, f.train, f.train_scores,
                                  FastConfig());
  ASSERT_TRUE(predictor.ok());
  const double mse = predictor.value().EvaluateMse(f.test, f.test_scores);
  // Best constant predictor: variance of the test scores.
  double mean = 0.0;
  for (double s : f.test_scores) mean += s;
  mean /= f.test_scores.size();
  double var = 0.0;
  for (double s : f.test_scores) var += (s - mean) * (s - mean);
  var /= f.test_scores.size();
  // The irreducible flip noise bounds attainable MSE near (1 - rho^2) of
  // the variance; require a clear improvement over the constant predictor.
  EXPECT_LT(mse, 0.95 * var);
}

TEST(DiscrepancyPredictorTest, AuxiliaryTaskHeadHelps) {
  // Eq. 2's motivation: training with the task head (lambda steering the
  // score head) beats predicting the score with no task signal at all
  // (lambda so large the task loss vanishes in comparison). We check the
  // paper's configuration is at least as good.
  Fixture f = MakeFixture(7);
  PredictorConfig with_task = FastConfig();
  with_task.lambda = 0.2;
  PredictorConfig score_only = FastConfig();
  score_only.lambda = 50.0;  // task head effectively ignored
  auto a = DiscrepancyPredictor::Train(f.task, f.train, f.train_scores,
                                       with_task);
  auto b = DiscrepancyPredictor::Train(f.task, f.train, f.train_scores,
                                       score_only);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  const double mse_a = a.value().EvaluateMse(f.test, f.test_scores);
  const double mse_b = b.value().EvaluateMse(f.test, f.test_scores);
  EXPECT_LT(mse_a, mse_b * 1.15);
}

TEST(DiscrepancyPredictorTest, TaskHeadPredictsEnsembleDecision) {
  Fixture f = MakeFixture(9);
  auto predictor =
      DiscrepancyPredictor::Train(f.task, f.train, f.train_scores,
                                  FastConfig());
  ASSERT_TRUE(predictor.ok());
  int correct = 0;
  for (const Query& q : f.test) {
    const auto head = predictor.value().TaskHead(q);
    if (Argmax(head) == Argmax(q.ensemble_output())) ++correct;
  }
  // The auxiliary head should comfortably beat chance on the binary task.
  EXPECT_GT(correct, static_cast<int>(f.test.size() * 0.6));
}

TEST(DiscrepancyPredictorTest, FootprintIsLightweight) {
  Fixture f = MakeFixture(11, 500, 10);
  auto predictor =
      DiscrepancyPredictor::Train(f.task, f.train, f.train_scores,
                                  FastConfig());
  ASSERT_TRUE(predictor.ok());
  // Fig. 13: the predictor is a tiny fraction of the ensemble's footprint.
  EXPECT_LT(predictor.value().MemoryMb(), 1.0);
  EXPECT_GT(predictor.value().ParameterCount(), 100u);
  EXPECT_GT(predictor.value().inference_latency_us(), 0);
}

TEST(DiscrepancyPredictorTest, WorksOnRegressionTask) {
  SyntheticTask task = MakeVehicleCountingTask(13);
  auto train =
      task.GenerateDataset(2500, DifficultyDistribution::UniformFull(), 5);
  auto scorer = DiscrepancyScorer::Fit(task, train);
  const auto scores = scorer.value().ScoreAll(train);
  auto predictor =
      DiscrepancyPredictor::Train(task, train, scores, FastConfig());
  ASSERT_TRUE(predictor.ok());
  auto test = task.GenerateDataset(
      600, DifficultyDistribution::UniformFull(), 6, /*first_id=*/50000);
  const auto test_scores = scorer.value().ScoreAll(test);
  std::vector<double> predicted;
  for (const Query& q : test) predicted.push_back(predictor.value().Predict(q));
  EXPECT_GT(SpearmanCorrelation(predicted, test_scores), 0.4);
}

}  // namespace
}  // namespace schemble
