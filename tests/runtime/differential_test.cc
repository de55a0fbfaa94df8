// Differential test: the wall-clock runtime against the discrete-event
// simulator, which is the executable spec of the paper's serving loop.
// Both drive their queries through the same QueryLifecycle and the same
// ServingPolicy; the trace, policy and seed are shared, so at low load with
// generous deadlines their outcomes can differ only where thread timing
// feeds a decision.

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "baselines/original_policy.h"
#include "baselines/static_policy.h"
#include "core/discrepancy.h"
#include "core/schemble_policy.h"
#include "models/task_factory.h"
#include "runtime/concurrent_server.h"
#include "serving/server.h"
#include "workload/trace.h"
#include "workload/traffic.h"

#if defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define SCHEMBLE_SANITIZED_BUILD 1
#endif
#elif defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define SCHEMBLE_SANITIZED_BUILD 1
#endif

namespace schemble {
namespace {

#ifdef SCHEMBLE_SANITIZED_BUILD
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif

/// Schemble's agreement bounds on the trace below. Over 60 runs on a
/// 4-vCPU host (30 idle, 30 beside a parallel `ctest -L runtime`), the
/// runtime's accuracy and miss rate equalled the simulator's every time
/// (1.0 and 0.0: with oracle scores every subset it picks is right), while
/// its executed subsets differed on up to 6 of 93 queries, which moved the
/// mean subset size by at most 0.13. The bounds allow two queries' worth
/// of accuracy and misses, and about twice the observed subset drift.
constexpr double kAccuracyTolerance = 0.02;
constexpr double kMissRateTolerance = 0.02;
constexpr double kMeanSubsetSizeTolerance = 0.3;

double MeanSubsetSize(const ServingMetrics& metrics) {
  int64_t models = 0;
  int64_t queries = 0;
  for (size_t size = 1; size < metrics.subset_size_counts.size(); ++size) {
    models += static_cast<int64_t>(size) * metrics.subset_size_counts[size];
    queries += metrics.subset_size_counts[size];
  }
  return queries > 0 ? static_cast<double>(models) / queries : 0.0;
}

class DifferentialTest : public ::testing::Test {
 protected:
  void SetUp() override {
    task_ = std::make_unique<SyntheticTask>(MakeTextMatchingTask(3));
    // 5 qps against ~20-40 ms models keeps every executor mostly idle, and
    // 60 s deadlines leave the runtime 0.6 s of real slack at speedup 100.
    PoissonTraffic traffic(5.0);
    ConstantDeadline deadlines(60 * kSecond);
    TraceOptions options;
    options.seed = 23;
    trace_ = BuildTrace(*task_, traffic, deadlines, 20 * kSecond, options);
    ASSERT_GT(trace_.size(), 50);
  }

  ServingMetrics Simulate(ServingPolicy* policy) const {
    ServerOptions options;
    options.seed = kSeed;
    return EnsembleServer(*task_, policy, options).Run(trace_);
  }

  ServingMetrics RunRuntime(ServingPolicy* policy) const {
    ConcurrentServerOptions options;
    options.seed = kSeed;
    options.speedup = 100.0;
    return ConcurrentServer(*task_, policy, options).Run(trace_);
  }

  /// Timing cannot change a decision of a policy that picks its subset at
  /// arrival from the query alone, so the outcomes must match exactly; the
  /// accuracy sum is compared within FP noise because the two servers
  /// finalize in different orders.
  static void ExpectSameOutcomes(const ServingMetrics& sim,
                                 const ServingMetrics& rt) {
    EXPECT_EQ(rt.total, sim.total);
    EXPECT_EQ(rt.processed, sim.processed);
    EXPECT_EQ(rt.missed, sim.missed);
    EXPECT_EQ(rt.subset_size_counts, sim.subset_size_counts);
    EXPECT_NEAR(rt.accuracy_sum, sim.accuracy_sum, 1e-9);
  }

  static constexpr uint64_t kSeed = 97;
  std::unique_ptr<SyntheticTask> task_;
  QueryTrace trace_;
};

TEST_F(DifferentialTest, OriginalMatchesSimulatorExactly) {
  OriginalPolicy sim_policy;
  OriginalPolicy rt_policy;
  const ServingMetrics sim = Simulate(&sim_policy);
  EXPECT_EQ(sim.processed, trace_.size());
  ExpectSameOutcomes(sim, RunRuntime(&rt_policy));
}

TEST_F(DifferentialTest, StaticMatchesSimulatorExactly) {
  StaticDeployment deployment;
  deployment.subset = 0b011;
  deployment.replicas = {1, 1, 0};
  StaticPolicy sim_policy(deployment);
  StaticPolicy rt_policy(deployment);
  const ServingMetrics sim = Simulate(&sim_policy);
  EXPECT_EQ(sim.processed, trace_.size());
  ExpectSameOutcomes(sim, RunRuntime(&rt_policy));
}

TEST_F(DifferentialTest, SchembleOracleAgreesWithSimulator) {
  const std::vector<Query> history = task_->GenerateDataset(
      2000, DifficultyDistribution::UniformFull(), 5);
  auto scorer = DiscrepancyScorer::Fit(*task_, history);
  ASSERT_TRUE(scorer.ok());
  const DiscrepancyScorer fitted = std::move(scorer).value();
  auto built =
      AccuracyProfile::Build(*task_, history, fitted.ScoreAll(history));
  ASSERT_TRUE(built.ok());
  const AccuracyProfile profile = std::move(built).value();
  SchembleConfig config;
  config.score_source = ScoreSource::kOracle;
  SchemblePolicy sim_policy(*task_, profile, nullptr, &fitted, config);
  SchemblePolicy rt_policy(*task_, profile, nullptr, &fitted, config);

  const ServingMetrics sim = Simulate(&sim_policy);
  const ServingMetrics rt = RunRuntime(&rt_policy);
  EXPECT_EQ(rt.total, sim.total);
  EXPECT_EQ(rt.processed + rt.missed, rt.total);
  // Schemble buffers and plans when executors idle, and the runtime's
  // service times, planning delay and wake-ups are real, so its subsets
  // may differ from the simulator's; the bounds are derived above.
  // Sanitizers slow every thread 2-20x, so there only conservation holds.
  if (!kSanitized) {
    EXPECT_NEAR(rt.accuracy(), sim.accuracy(), kAccuracyTolerance);
    EXPECT_NEAR(rt.deadline_miss_rate(), sim.deadline_miss_rate(),
                kMissRateTolerance);
    EXPECT_NEAR(MeanSubsetSize(rt), MeanSubsetSize(sim),
                kMeanSubsetSizeTolerance);
  }
}

}  // namespace
}  // namespace schemble
