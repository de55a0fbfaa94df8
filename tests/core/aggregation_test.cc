#include "core/aggregation.h"

#include <gtest/gtest.h>

#include "common/prob.h"
#include "models/task_factory.h"

namespace schemble {
namespace {

std::vector<Query> History(const SyntheticTask& task, int n, uint64_t seed) {
  return task.GenerateDataset(n, DifficultyDistribution::UniformFull(), seed);
}

TEST(AggregatorTest, WeightedAverageMatchesTaskAggregation) {
  SyntheticTask task = MakeTextMatchingTask(1);
  auto history = History(task, 50, 3);
  auto agg = Aggregator::Build(task, history, {});
  ASSERT_TRUE(agg.ok());
  const Query& q = history[0];
  const auto produced = agg.value().Aggregate(q, 0b011);
  const auto expected = task.AggregateSubset(q, {0, 1});
  for (size_t i = 0; i < produced.size(); ++i) {
    EXPECT_NEAR(produced[i], expected[i], 1e-12);
  }
}

TEST(AggregatorTest, VotingExcludesMissingModels) {
  SyntheticTask task = MakeTextMatchingTask(5);
  auto history = History(task, 50, 7);
  AggregatorConfig config;
  config.kind = AggregationKind::kVoting;
  auto agg = Aggregator::Build(task, history, config);
  ASSERT_TRUE(agg.ok());
  const Query& q = history[0];
  const auto votes = agg.value().Aggregate(q, 0b001);
  // One voter: its argmax gets all the (normalized) vote mass.
  EXPECT_NEAR(votes[Argmax(q.model_output(0))], 1.0, 1e-9);
}

TEST(AggregatorTest, VotingFullEnsembleUsuallyMatchesAveraging) {
  SyntheticTask task = MakeTextMatchingTask(9);
  auto history = History(task, 600, 11);
  AggregatorConfig vote_config;
  vote_config.kind = AggregationKind::kVoting;
  auto vote = Aggregator::Build(task, history, vote_config);
  ASSERT_TRUE(vote.ok());
  int agree = 0;
  for (const Query& q : history) {
    const auto v = vote.value().Aggregate(q, 0b111);
    if (Argmax(v) == Argmax(q.ensemble_output())) ++agree;
  }
  EXPECT_GT(agree, 500);
}

TEST(AggregatorTest, StackingRequiresClassification) {
  SyntheticTask task = MakeVehicleCountingTask(13);
  auto history = History(task, 50, 15);
  AggregatorConfig config;
  config.kind = AggregationKind::kStacking;
  EXPECT_FALSE(Aggregator::Build(task, history, config).ok());
}

TEST(AggregatorTest, StackingRejectsBadConfig) {
  SyntheticTask task = MakeTextMatchingTask(17);
  AggregatorConfig config;
  config.kind = AggregationKind::kStacking;
  EXPECT_FALSE(Aggregator::Build(task, {}, config).ok());
  auto history = History(task, 50, 19);
  config.knn_k = 0;
  EXPECT_FALSE(Aggregator::Build(task, history, config).ok());
}

TEST(AggregatorTest, StackingWithFullOutputsTracksEnsemble) {
  SyntheticTask task = MakeTextMatchingTask(21);
  auto history = History(task, 1500, 23);
  AggregatorConfig config;
  config.kind = AggregationKind::kStacking;
  auto agg = Aggregator::Build(task, history, config);
  ASSERT_TRUE(agg.ok());
  auto test = task.GenerateDataset(
      400, DifficultyDistribution::UniformFull(), 29, /*first_id=*/90000);
  int agree = 0;
  for (const Query& q : test) {
    const auto out = agg.value().Aggregate(q, 0b111);
    if (Argmax(out) == Argmax(q.ensemble_output())) ++agree;
  }
  EXPECT_GT(agree, 340);
}

TEST(AggregatorTest, StackingWithMissingOutputsDegradesGracefully) {
  SyntheticTask task = MakeTextMatchingTask(25);
  auto history = History(task, 1500, 27);
  AggregatorConfig config;
  config.kind = AggregationKind::kStacking;
  auto agg = Aggregator::Build(task, history, config);
  ASSERT_TRUE(agg.ok());
  auto test = task.GenerateDataset(
      300, DifficultyDistribution::Realistic(), 31, /*first_id=*/91000);
  int agree_partial = 0;
  for (const Query& q : test) {
    // Only the two strongest models executed; KNN fills BiLSTM's slot.
    const auto out = agg.value().Aggregate(q, 0b110);
    if (Argmax(out) == Argmax(q.ensemble_output())) ++agree_partial;
  }
  // Realistic (mostly easy) traffic: partial-output stacking should stay
  // close to the ensemble.
  EXPECT_GT(agree_partial, 240);
}

TEST(AggregatorTest, StackingRobustToKChoice) {
  // Fig. 20b: accuracy is robust for k in [1, 100].
  SyntheticTask task = MakeTextMatchingTask(33);
  auto history = History(task, 1200, 35);
  auto test = task.GenerateDataset(
      300, DifficultyDistribution::Realistic(), 37, /*first_id=*/92000);
  double previous = -1.0;
  for (int k : {1, 10, 100}) {
    AggregatorConfig config;
    config.kind = AggregationKind::kStacking;
    config.knn_k = k;
    auto agg = Aggregator::Build(task, history, config);
    ASSERT_TRUE(agg.ok());
    int agree = 0;
    for (const Query& q : test) {
      const auto out = agg.value().Aggregate(q, 0b101);
      if (Argmax(out) == Argmax(q.ensemble_output())) ++agree;
    }
    const double acc = static_cast<double>(agree) / test.size();
    if (previous >= 0.0) {
      EXPECT_NEAR(acc, previous, 0.08);
    }
    previous = acc;
  }
}

}  // namespace
}  // namespace schemble
