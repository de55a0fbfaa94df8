#include "models/synthetic_task.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <new>
#include <vector>

#include "common/prob.h"
#include "common/rng.h"
#include "models/task_factory.h"
#include "workload/trace.h"

// Counts heap allocations while `g_count_allocations` is set (the
// one-allocation-per-query test below); otherwise a plain malloc wrapper.
namespace {
std::atomic<bool> g_count_allocations{false};
std::atomic<int64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t n) {
  if (g_count_allocations.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
// The replaced operator new above allocates with malloc, so free is the
// matching release; gcc cannot see that pairing and warns.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace schemble {
namespace {

// A trace holds one TracedQuery per arrival, so its size is paid per query.
static_assert(sizeof(TracedQuery) <= 112);

TEST(DifficultyDistributionTest, SamplesClippedToUnitInterval) {
  Rng rng(1);
  const DifficultyDistribution dists[] = {
      DifficultyDistribution::Realistic(),
      DifficultyDistribution::NormalWithMean(0.5, 0.4),
      DifficultyDistribution::GammaWithMean(0.4, 0.3),
      DifficultyDistribution::UniformFull(),
      DifficultyDistribution::Constant(0.7),
  };
  for (const auto& dist : dists) {
    for (int i = 0; i < 2000; ++i) {
      const double h = dist.Sample(rng);
      EXPECT_GE(h, 0.0);
      EXPECT_LE(h, 1.0);
    }
  }
}

TEST(DifficultyDistributionTest, RealisticIsMostlyEasy) {
  Rng rng(3);
  auto dist = DifficultyDistribution::Realistic();
  int easy = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    if (dist.Sample(rng) < 0.3) ++easy;
  }
  // Fig. 4a: a large majority of samples sit near zero difficulty.
  EXPECT_GT(easy, n * 6 / 10);
}

TEST(DifficultyDistributionTest, NormalMeanRespected) {
  Rng rng(5);
  auto dist = DifficultyDistribution::NormalWithMean(0.4, 0.03);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += dist.Sample(rng);
  EXPECT_NEAR(sum / n, 0.4, 0.01);
}

TEST(DifficultyDistributionTest, ConstantIsConstant) {
  Rng rng(7);
  auto dist = DifficultyDistribution::Constant(0.25);
  for (int i = 0; i < 10; ++i) EXPECT_DOUBLE_EQ(dist.Sample(rng), 0.25);
}

TEST(ModelProfileTest, CorrectProbabilityInterpolates) {
  ModelProfile p;
  p.base_accuracy = 0.9;
  p.hard_accuracy = 0.5;
  EXPECT_DOUBLE_EQ(p.CorrectProbability(0.0), 0.9);
  EXPECT_DOUBLE_EQ(p.CorrectProbability(1.0), 0.5);
  // Sigmoid transition centred near 0.55: monotone decreasing, flat at the
  // easy end, steep through the middle.
  EXPECT_GT(p.CorrectProbability(0.2), 0.85);
  EXPECT_LT(p.CorrectProbability(0.9), 0.56);
  for (double h = 0.0; h < 1.0; h += 0.1) {
    EXPECT_GE(p.CorrectProbability(h), p.CorrectProbability(h + 0.1));
  }
  EXPECT_DOUBLE_EQ(p.CorrectProbability(-1.0), 0.9);  // clamped
  EXPECT_DOUBLE_EQ(p.CorrectProbability(2.0), 0.5);   // clamped
}

TEST(ProfilesTest, PresetShapes) {
  EXPECT_EQ(TextMatchingProfiles().size(), 3u);
  EXPECT_EQ(VehicleCountingProfiles().size(), 3u);
  EXPECT_EQ(ImageRetrievalProfiles().size(), 2u);
  EXPECT_EQ(Cifar100StyleProfiles().size(), 6u);
  EXPECT_GT(TotalMemoryMb(TextMatchingProfiles()), 0.0);
}

TEST(SyntheticTaskTest, QueryGenerationIsDeterministic) {
  SyntheticTask task = MakeTextMatchingTask(7);
  const Query a = task.GenerateQuery(42, 0.3);
  const Query b = task.GenerateQuery(42, 0.3);
  EXPECT_EQ(a.true_label, b.true_label);
  ASSERT_EQ(a.features().size(), b.features().size());
  for (size_t i = 0; i < a.features().size(); ++i) {
    EXPECT_DOUBLE_EQ(a.features()[i], b.features()[i]);
  }
  for (int k = 0; k < task.num_models(); ++k) {
    for (size_t i = 0; i < a.model_output(k).size(); ++i) {
      EXPECT_DOUBLE_EQ(a.model_output(k)[i], b.model_output(k)[i]);
    }
  }
}

/// FNV-1a over everything GenerateQuery produces for ids 0..63 of the four
/// task presets: every payload double (features, each model's output, each
/// model's logits, the ensemble output, each with its length), then
/// true_label, true_value and the relevant set. Pins generation bit for bit
/// independently of the serving goldens.
uint64_t GenerationHash() {
  uint64_t h = 0xcbf29ce484222325ull;
  auto bytes = [&h](const void* p, size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 0x100000001b3ull;
    }
  };
  auto u64 = [&bytes](uint64_t v) { bytes(&v, sizeof(v)); };
  auto f64 = [&u64](double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
  };
  auto span = [&](std::span<const double> s) {
    u64(s.size());
    for (double v : s) f64(v);
  };
  const SyntheticTask tasks[] = {MakeTextMatchingTask(),
                                 MakeVehicleCountingTask(),
                                 MakeImageRetrievalTask(),
                                 MakeCifar100StyleTask()};
  for (const SyntheticTask& task : tasks) {
    for (int64_t id = 0; id < 64; ++id) {
      const Query q =
          task.GenerateQuery(id, static_cast<double>(id) / 63.0);
      span(q.features());
      for (int k = 0; k < task.num_models(); ++k) span(q.model_output(k));
      if (q.has_logits()) {
        for (int k = 0; k < task.num_models(); ++k) span(q.model_logits(k));
      }
      span(q.ensemble_output());
      u64(static_cast<uint64_t>(q.true_label));
      f64(q.true_value);
      u64(q.relevant.size());
      for (int r : q.relevant) u64(static_cast<uint64_t>(r));
    }
  }
  return h;
}

TEST(SyntheticTaskTest, GenerationMatchesGoldenHash) {
  // Recorded before the payload moved into one block; any change to the
  // RNG draw order or the arithmetic of generation changes it.
  EXPECT_EQ(GenerationHash(), 0x1d8662bbda59bb67ull);
}

TEST(SyntheticTaskTest, PayloadSpansTileOneBlock) {
  const SyntheticTask tasks[] = {MakeTextMatchingTask(),
                                 MakeVehicleCountingTask(),
                                 MakeImageRetrievalTask(),
                                 MakeCifar100StyleTask()};
  for (const SyntheticTask& task : tasks) {
    const Query q = task.GenerateQuery(3, 0.4);
    const bool classification =
        task.spec().type == TaskType::kClassification;
    EXPECT_EQ(q.has_logits(), classification);
    EXPECT_EQ(q.num_models(), task.num_models());
    // Walk the block in layout order: each span starts where the previous
    // one ended, and the last ends at the end of the block.
    const std::span<const double> block = q.payload();
    const double* next = block.data();
    auto expect_next = [&](std::span<const double> s, size_t size) {
      EXPECT_EQ(s.data(), next);
      EXPECT_EQ(s.size(), size);
      next = s.data() + s.size();
    };
    const size_t dim = static_cast<size_t>(task.output_dim());
    expect_next(q.features(), static_cast<size_t>(task.spec().feature_dim()));
    for (int k = 0; k < task.num_models(); ++k) {
      expect_next(q.model_output(k), dim);
    }
    if (classification) {
      for (int k = 0; k < task.num_models(); ++k) {
        expect_next(q.model_logits(k), dim);
      }
    }
    expect_next(q.ensemble_output(), dim);
    EXPECT_EQ(next, block.data() + block.size());
  }
}

TEST(SyntheticTaskTest, ClassificationAndRegressionQueriesAllocateOnce) {
  const SyntheticTask tasks[] = {MakeTextMatchingTask(),
                                 MakeVehicleCountingTask(),
                                 MakeCifar100StyleTask()};
  for (const SyntheticTask& task : tasks) {
    g_allocations.store(0);
    g_count_allocations.store(true);
    const Query q = task.GenerateQuery(11, 0.7);
    g_count_allocations.store(false);
    EXPECT_EQ(g_allocations.load(), 1) << "task with " << task.num_models()
                                       << " models";
    EXPECT_EQ(q.id, 11);
  }
}

TEST(SyntheticTaskTest, DifferentIdsDiffer) {
  SyntheticTask task = MakeTextMatchingTask(7);
  const Query a = task.GenerateQuery(1, 0.3);
  const Query b = task.GenerateQuery(2, 0.3);
  bool any_diff = false;
  for (size_t i = 0; i < a.features().size(); ++i) {
    any_diff |= a.features()[i] != b.features()[i];
  }
  EXPECT_TRUE(any_diff);
}

TEST(SyntheticTaskTest, ClassificationOutputsAreDistributions) {
  SyntheticTask task = MakeTextMatchingTask(9);
  const Query q = task.GenerateQuery(5, 0.5);
  EXPECT_EQ(task.output_dim(), 2);
  for (int k = 0; k < task.num_models(); ++k) {
    double sum = 0.0;
    for (double v : q.model_output(k)) {
      EXPECT_GE(v, 0.0);
      sum += v;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
    EXPECT_EQ(q.model_logits(k).size(), 2u);
  }
  double esum = 0.0;
  for (double v : q.ensemble_output()) esum += v;
  EXPECT_NEAR(esum, 1.0, 1e-9);
}

TEST(SyntheticTaskTest, EasyQueriesYieldAgreement) {
  SyntheticTask task = MakeTextMatchingTask(11);
  int agree = 0;
  const int n = 500;
  for (int i = 0; i < n; ++i) {
    const Query q = task.GenerateQuery(i, 0.02);
    const int e = Argmax(q.ensemble_output());
    bool all_agree = true;
    for (int k = 0; k < task.num_models(); ++k) {
      all_agree &= Argmax(q.model_output(k)) == e;
    }
    if (all_agree) ++agree;
  }
  // On very easy queries nearly all base models match the ensemble (the
  // redundancy the paper measures: 78.3% of samples solvable by any model).
  EXPECT_GT(agree, n * 3 / 4);
}

TEST(SyntheticTaskTest, HardQueriesYieldDisagreement) {
  SyntheticTask task = MakeTextMatchingTask(13);
  int disagree = 0;
  const int n = 500;
  for (int i = 0; i < n; ++i) {
    const Query q = task.GenerateQuery(1000 + i, 0.95);
    const int first = Argmax(q.model_output(0));
    bool all_same = true;
    for (int k = 1; k < task.num_models(); ++k) {
      all_same &= Argmax(q.model_output(k)) == first;
    }
    if (!all_same) ++disagree;
  }
  EXPECT_GT(disagree, n / 3);
}

TEST(SyntheticTaskTest, AccuracyVsTrueLabelMatchesProfileCurve) {
  SyntheticTask task = MakeTextMatchingTask(15);
  const double h = 0.4;
  for (int k = 0; k < task.num_models(); ++k) {
    int correct = 0;
    const int n = 4000;
    for (int i = 0; i < n; ++i) {
      const Query q = task.GenerateQuery(10000 + i, h);
      if (Argmax(q.model_output(k)) == q.true_label) ++correct;
    }
    const double expected = task.profile(k).CorrectProbability(h);
    EXPECT_NEAR(static_cast<double>(correct) / n, expected, 0.03)
        << task.profile(k).name;
  }
}

TEST(SyntheticTaskTest, RegressionOutputsTrackTrueValue) {
  SyntheticTask task = MakeVehicleCountingTask(17);
  EXPECT_EQ(task.output_dim(), 1);
  double err_easy = 0.0;
  double err_hard = 0.0;
  const int n = 1000;
  for (int i = 0; i < n; ++i) {
    const Query qe = task.GenerateQuery(i, 0.05);
    const Query qh = task.GenerateQuery(n + i, 0.95);
    err_easy += std::fabs(qe.model_output(1)[0] - qe.true_value);
    err_hard += std::fabs(qh.model_output(1)[0] - qh.true_value);
  }
  EXPECT_LT(err_easy / n, err_hard / n);
}

TEST(SyntheticTaskTest, RegressionValuesNonNegative) {
  SyntheticTask task = MakeVehicleCountingTask(19);
  for (int i = 0; i < 500; ++i) {
    const Query q = task.GenerateQuery(i, 0.9);
    EXPECT_GE(q.true_value, 0.0);
    for (int k = 0; k < task.num_models(); ++k) {
      EXPECT_GE(q.model_output(k)[0], 0.0);
    }
  }
}

TEST(SyntheticTaskTest, RetrievalShapesAndRelevantSet) {
  SyntheticTask task = MakeImageRetrievalTask(21);
  EXPECT_EQ(task.output_dim(), 16);
  const Query q = task.GenerateQuery(3, 0.2);
  EXPECT_EQ(q.relevant.size(), 4u);
  for (int c : q.relevant) {
    EXPECT_GE(c, 0);
    EXPECT_LT(c, 16);
  }
  EXPECT_EQ(q.model_output(0).size(), 16u);
}

TEST(SyntheticTaskTest, RetrievalEasyQueriesScoreHighMap) {
  SyntheticTask task = MakeImageRetrievalTask(23);
  double ap_easy = 0.0;
  double ap_hard = 0.0;
  const int n = 400;
  for (int i = 0; i < n; ++i) {
    const Query qe = task.GenerateQuery(i, 0.05);
    const Query qh = task.GenerateQuery(n + i, 0.95);
    ap_easy += task.TrueScore(qe.ensemble_output(), qe);
    ap_hard += task.TrueScore(qh.ensemble_output(), qh);
  }
  EXPECT_GT(ap_easy / n, 0.9);
  EXPECT_LT(ap_hard / n, ap_easy / n);
}

TEST(SyntheticTaskTest, AggregateSubsetOfAllEqualsEnsembleOutput) {
  SyntheticTask task = MakeTextMatchingTask(25);
  const Query q = task.GenerateQuery(77, 0.4);
  const std::vector<double> agg = task.AggregateSubset(q, {0, 1, 2});
  ASSERT_EQ(agg.size(), q.ensemble_output().size());
  for (size_t i = 0; i < agg.size(); ++i) {
    EXPECT_NEAR(agg[i], q.ensemble_output()[i], 1e-12);
  }
}

TEST(SyntheticTaskTest, SingleModelSubsetEqualsModelOutput) {
  SyntheticTask task = MakeTextMatchingTask(27);
  const Query q = task.GenerateQuery(88, 0.4);
  const std::vector<double> agg = task.AggregateSubset(q, {1});
  for (size_t i = 0; i < agg.size(); ++i) {
    EXPECT_NEAR(agg[i], q.model_output(1)[i], 1e-12);
  }
}

TEST(SyntheticTaskTest, MatchScoreClassification) {
  SyntheticTask task = MakeTextMatchingTask(29);
  EXPECT_DOUBLE_EQ(task.MatchScore(std::vector<double>{0.8, 0.2},
                                   std::vector<double>{0.6, 0.4}), 1.0);
  EXPECT_DOUBLE_EQ(task.MatchScore(std::vector<double>{0.2, 0.8},
                                   std::vector<double>{0.6, 0.4}), 0.0);
}

TEST(SyntheticTaskTest, MatchScoreRegressionTolerance) {
  SyntheticTask task = MakeVehicleCountingTask(31);
  EXPECT_DOUBLE_EQ(task.MatchScore(std::vector<double>{10.0},
                                   std::vector<double>{10.9}), 1.0);
  EXPECT_DOUBLE_EQ(task.MatchScore(std::vector<double>{10.0},
                                   std::vector<double>{11.5}), 0.0);
}

TEST(SyntheticTaskTest, EnsembleBeatsSingleModelOnTrueLabels) {
  SyntheticTask task = MakeTextMatchingTask(33);
  auto data = task.GenerateDataset(4000, DifficultyDistribution::UniformFull(),
                                   555);
  double ens = 0.0;
  std::vector<double> single(task.num_models(), 0.0);
  for (const Query& q : data) {
    ens += task.TrueScore(q.ensemble_output(), q);
    for (int k = 0; k < task.num_models(); ++k) {
      single[k] += task.TrueScore(q.model_output(k), q);
    }
  }
  for (int k = 0; k < task.num_models(); ++k) {
    EXPECT_GT(ens, single[k]) << "ensemble should beat " << task.profile(k).name;
  }
}

TEST(SyntheticTaskTest, GenerateDatasetRespectsSizeAndIds) {
  SyntheticTask task = MakeTextMatchingTask(35);
  auto data = task.GenerateDataset(100, DifficultyDistribution::Realistic(),
                                   777, /*first_id=*/500);
  ASSERT_EQ(data.size(), 100u);
  EXPECT_EQ(data.front().id, 500);
  EXPECT_EQ(data.back().id, 599);
}

TEST(AveragePrecisionTest, PerfectRankingIsOne) {
  // Relevant items hold the top scores.
  EXPECT_DOUBLE_EQ(
      AveragePrecision(std::vector<double>{0.9, 0.8, 0.1, 0.0}, {0, 1}), 1.0);
}

TEST(AveragePrecisionTest, WorstRankingIsLow) {
  const double ap =
      AveragePrecision(std::vector<double>{0.0, 0.1, 0.8, 0.9}, {0, 1});
  // Relevant at ranks 3 and 4: AP = (1/3 + 2/4)/2.
  EXPECT_NEAR(ap, (1.0 / 3.0 + 0.5) / 2.0, 1e-12);
}

TEST(Cifar100TaskTest, HundredWayOutputs) {
  SyntheticTask task = MakeCifar100StyleTask(41);
  EXPECT_EQ(task.num_models(), 6);
  EXPECT_EQ(task.output_dim(), 100);
  const Query q = task.GenerateQuery(1, 0.3);
  EXPECT_EQ(q.model_output(0).size(), 100u);
  EXPECT_GE(q.true_label, 0);
  EXPECT_LT(q.true_label, 100);
}

TEST(Cifar100TaskTest, DifferentModelSeedsChangeErrors) {
  SyntheticTask a = MakeCifar100StyleTask(43, /*model_seed=*/1);
  SyntheticTask b = MakeCifar100StyleTask(43, /*model_seed=*/2);
  int diff = 0;
  for (int i = 0; i < 200; ++i) {
    const Query qa = a.GenerateQuery(i, 0.6);
    const Query qb = b.GenerateQuery(i, 0.6);
    if (Argmax(qa.model_output(0)) != Argmax(qb.model_output(0))) ++diff;
  }
  EXPECT_GT(diff, 10);
}

}  // namespace
}  // namespace schemble
