#include "core/discrepancy.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/stats.h"
#include "models/task_factory.h"

namespace schemble {
namespace {

std::vector<Query> History(const SyntheticTask& task, int n, uint64_t seed) {
  return task.GenerateDataset(n, DifficultyDistribution::UniformFull(), seed);
}

TEST(DiscrepancyScorerTest, FitRejectsEmptyHistory) {
  SyntheticTask task = MakeTextMatchingTask(1);
  EXPECT_FALSE(DiscrepancyScorer::Fit(task, {}).ok());
}

TEST(DiscrepancyScorerTest, ScoresAreInUnitInterval) {
  SyntheticTask task = MakeTextMatchingTask(1);
  auto history = History(task, 2000, 11);
  auto scorer = DiscrepancyScorer::Fit(task, history);
  ASSERT_TRUE(scorer.ok());
  for (const Query& q : history) {
    const double s = scorer.value().Score(q);
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 1.0);
  }
}

TEST(DiscrepancyScorerTest, ScoreTracksLatentDifficulty) {
  SyntheticTask task = MakeTextMatchingTask(1);
  auto history = History(task, 3000, 13);
  auto scorer = DiscrepancyScorer::Fit(task, history);
  ASSERT_TRUE(scorer.ok());
  std::vector<double> difficulty;
  std::vector<double> score;
  for (const Query& q : history) {
    difficulty.push_back(q.difficulty);
    score.push_back(scorer.value().Score(q));
  }
  // The discrepancy score is the observable proxy for latent difficulty.
  // (With three binary base models the score is dominated by realized
  // prediction flips, which caps the attainable rank correlation.)
  EXPECT_GT(SpearmanCorrelation(difficulty, score), 0.40);
}

TEST(DiscrepancyScorerTest, RegressionTaskUsesEuclideanDistance) {
  SyntheticTask task = MakeVehicleCountingTask(3);
  auto history = History(task, 2000, 17);
  auto scorer = DiscrepancyScorer::Fit(task, history);
  ASSERT_TRUE(scorer.ok());
  std::vector<double> difficulty;
  std::vector<double> score;
  for (const Query& q : history) {
    difficulty.push_back(q.difficulty);
    score.push_back(scorer.value().Score(q));
  }
  EXPECT_GT(SpearmanCorrelation(difficulty, score), 0.4);
}

TEST(DiscrepancyScorerTest, RetrievalTaskScores) {
  SyntheticTask task = MakeImageRetrievalTask(5);
  auto history = History(task, 1500, 19);
  auto scorer = DiscrepancyScorer::Fit(task, history);
  ASSERT_TRUE(scorer.ok());
  std::vector<double> difficulty;
  std::vector<double> score;
  for (const Query& q : history) {
    difficulty.push_back(q.difficulty);
    score.push_back(scorer.value().Score(q));
  }
  EXPECT_GT(SpearmanCorrelation(difficulty, score), 0.4);
}

TEST(DiscrepancyScorerTest, CalibrationDetectsOverconfidence) {
  SyntheticTask task = MakeTextMatchingTask(7);
  auto history = History(task, 4000, 23);
  auto scorer = DiscrepancyScorer::Fit(task, history);
  ASSERT_TRUE(scorer.ok());
  // All synthetic base models are generated overconfident; calibration
  // against the ensemble label must fit temperatures above 1, ordered like
  // the generating overconfidence (BiLSTM is the most miscalibrated).
  for (int k = 0; k < task.num_models(); ++k) {
    EXPECT_GT(scorer.value().temperature(k), 1.1) << task.profile(k).name;
  }
  EXPECT_GT(scorer.value().temperature(0), scorer.value().temperature(2));
}

TEST(DiscrepancyScorerTest, EnsembleAgreementVariantScoresDiffer) {
  SyntheticTask task = MakeTextMatchingTask(9);
  auto history = History(task, 2000, 29);
  DiscrepancyConfig ea_config;
  ea_config.metric = DifficultyMetric::kEnsembleAgreement;
  auto dis = DiscrepancyScorer::Fit(task, history);
  auto ea = DiscrepancyScorer::Fit(task, history, ea_config);
  ASSERT_TRUE(dis.ok());
  ASSERT_TRUE(ea.ok());
  double max_diff = 0.0;
  for (int i = 0; i < 200; ++i) {
    max_diff = std::max(max_diff,
                        std::fabs(dis.value().Score(history[i]) -
                                  ea.value().Score(history[i])));
  }
  EXPECT_GT(max_diff, 0.05);
}

TEST(DiscrepancyScorerTest, DiscrepancyPredictsSubsetLossBetterThanEa) {
  // The paper's core claim for Eq. 1: on heterogeneous, miscalibrated
  // ensembles the (normalized, calibrated) discrepancy score ranks samples
  // by how much accuracy a small subset loses, better than raw ensemble
  // agreement does.
  SyntheticTask task = MakeTextMatchingTask(11);
  auto history = History(task, 4000, 31);
  DiscrepancyConfig ea_config;
  ea_config.metric = DifficultyMetric::kEnsembleAgreement;
  auto dis = DiscrepancyScorer::Fit(task, history);
  auto ea = DiscrepancyScorer::Fit(task, history, ea_config);
  ASSERT_TRUE(dis.ok());
  ASSERT_TRUE(ea.ok());
  // Target: does the strong pair (RoBERTa+BERT) disagree with the full
  // ensemble? Raw ensemble agreement is dominated by the weak, most
  // miscalibrated member (BiLSTM), which is exactly the failure mode
  // Eq. 1's normalization + calibration addresses.
  std::vector<double> subset_wrong;
  std::vector<double> dis_scores;
  std::vector<double> ea_scores;
  for (const Query& q : history) {
    const std::vector<double> pair = task.AggregateSubset(q, {1, 2});
    subset_wrong.push_back(1.0 - task.MatchScore(pair, q.ensemble_output()));
    dis_scores.push_back(dis.value().Score(q));
    ea_scores.push_back(ea.value().Score(q));
  }
  const double corr_dis = PearsonCorrelation(dis_scores, subset_wrong);
  const double corr_ea = PearsonCorrelation(ea_scores, subset_wrong);
  EXPECT_GT(corr_dis, corr_ea);
  EXPECT_GT(corr_dis, 0.2);
}

TEST(DiscrepancyScorerTest, EasyQueriesScoreNearZero) {
  SyntheticTask task = MakeTextMatchingTask(13);
  auto history = History(task, 2000, 37);
  auto scorer = DiscrepancyScorer::Fit(task, history);
  ASSERT_TRUE(scorer.ok());
  double easy_sum = 0.0;
  double hard_sum = 0.0;
  const int n = 300;
  for (int i = 0; i < n; ++i) {
    easy_sum += scorer.value().Score(task.GenerateQuery(50000 + i, 0.02));
    hard_sum += scorer.value().Score(task.GenerateQuery(60000 + i, 0.95));
  }
  EXPECT_LT(easy_sum / n, 0.35);
  EXPECT_GT(hard_sum / n, easy_sum / n + 0.2);
}

TEST(DiscrepancyScorerTest, ScaleQuantileValidation) {
  SyntheticTask task = MakeTextMatchingTask(15);
  auto history = History(task, 100, 41);
  DiscrepancyConfig config;
  config.scale_quantile = 1.5;
  EXPECT_FALSE(DiscrepancyScorer::Fit(task, history, config).ok());
  config.scale_quantile = 0.0;
  EXPECT_FALSE(DiscrepancyScorer::Fit(task, history, config).ok());
}

TEST(DiscrepancyScorerTest, ModelDistanceNonNegative) {
  SyntheticTask task = MakeTextMatchingTask(17);
  auto history = History(task, 500, 43);
  auto scorer = DiscrepancyScorer::Fit(task, history);
  ASSERT_TRUE(scorer.ok());
  for (int i = 0; i < 100; ++i) {
    for (int k = 0; k < task.num_models(); ++k) {
      EXPECT_GE(scorer.value().ModelDistance(history[i], k), 0.0);
    }
  }
}

}  // namespace
}  // namespace schemble
