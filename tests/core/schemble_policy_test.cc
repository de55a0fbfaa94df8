#include "core/schemble_policy.h"

#include <gtest/gtest.h>

#include <memory>

#include "core/discrepancy.h"
#include "models/task_factory.h"

namespace schemble {
namespace {

class SchemblePolicyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    task_ = std::make_unique<SyntheticTask>(MakeTextMatchingTask(3));
    history_ = task_->GenerateDataset(
        3000, DifficultyDistribution::UniformFull(), 5);
    auto scorer = DiscrepancyScorer::Fit(*task_, history_);
    ASSERT_TRUE(scorer.ok());
    scorer_ =
        std::make_unique<DiscrepancyScorer>(std::move(scorer).value());
    const auto scores = scorer_->ScoreAll(history_);
    auto profile = AccuracyProfile::Build(*task_, history_, scores);
    ASSERT_TRUE(profile.ok());
    profile_ =
        std::make_unique<AccuracyProfile>(std::move(profile).value());
  }

  ServerView IdleView() const {
    ServerView view;
    view.now = 0;
    view.allow_rejection = true;
    for (int k = 0; k < task_->num_models(); ++k) {
      view.executors.push_back({k, k, 0, 0});
      view.model_exec_time.push_back(task_->profile(k).latency_us);
      view.model_available_at.push_back(0);
    }
    return view;
  }

  TracedQuery MakeTraced(int64_t id, double difficulty, SimTime arrival,
                         SimTime deadline) const {
    TracedQuery tq;
    tq.query = task_->GenerateQuery(id, difficulty);
    tq.arrival_time = arrival;
    tq.deadline = deadline;
    return tq;
  }

  /// Plans `buffer` through PlanOnView on a fresh CreatePlanState()
  /// workspace, the way both servers do.
  static PolicyOutput Plan(const SchemblePolicy& policy,
                           const ServerView& view,
                           const std::vector<const TracedQuery*>& buffer) {
    PlanWorkspace ws;
    ws.state = policy.CreatePlanState();
    for (const TracedQuery* tq : buffer) ws.buffer.push_back({tq, 0, 0});
    policy.PlanOnView(view, &ws);
    return ws.output;
  }

  SchemblePolicy MakeOraclePolicy(SchembleConfig config = {}) const {
    config.score_source = ScoreSource::kOracle;
    return SchemblePolicy(*task_, *profile_, nullptr, scorer_.get(),
                          std::move(config));
  }

  std::unique_ptr<SyntheticTask> task_;
  std::vector<Query> history_;
  std::unique_ptr<DiscrepancyScorer> scorer_;
  std::unique_ptr<AccuracyProfile> profile_;
};

TEST_F(SchemblePolicyTest, EstimateCompletionUsesLeastLoadedPath) {
  ServerView view = IdleView();
  view.model_available_at = {100, 0, 0};
  // Subset {0}: starts at 100 + 15ms exec.
  EXPECT_EQ(view.EstimateCompletion(0b001),
            100 + task_->profile(0).latency_us);
  // Subset {0,1}: max of both paths.
  EXPECT_EQ(view.EstimateCompletion(0b011),
            std::max<SimTime>(100 + task_->profile(0).latency_us,
                              task_->profile(1).latency_us));
}

TEST_F(SchemblePolicyTest, AllIdleFastPathAssignsFullEnsemble) {
  SchemblePolicy policy = MakeOraclePolicy();
  const TracedQuery tq =
      MakeTraced(1, 0.1, 0, /*deadline=*/100 * kMillisecond);
  const ArrivalDecision decision = policy.OnArrival(tq, IdleView());
  EXPECT_EQ(decision.action, ArrivalDecision::Action::kAssign);
  // With idle models and a generous deadline the highest-utility subset is
  // the full ensemble (utility 1.0 by construction).
  EXPECT_EQ(decision.subset, FullMask(task_->num_models()));
}

TEST_F(SchemblePolicyTest, BusyModelsBufferArrivals) {
  SchemblePolicy policy = MakeOraclePolicy();
  ServerView view = IdleView();
  view.model_available_at = {50 * kMillisecond, 60 * kMillisecond,
                             70 * kMillisecond};
  const TracedQuery tq = MakeTraced(2, 0.1, 0, 100 * kMillisecond);
  const ArrivalDecision decision = policy.OnArrival(tq, view);
  EXPECT_EQ(decision.action, ArrivalDecision::Action::kBuffer);
}

TEST_F(SchemblePolicyTest, ImpossibleDeadlineRejectedWhenAllowed) {
  SchemblePolicy policy = MakeOraclePolicy();
  const TracedQuery tq = MakeTraced(3, 0.1, 0, /*deadline=*/1 * kMillisecond);
  const ArrivalDecision decision = policy.OnArrival(tq, IdleView());
  EXPECT_EQ(decision.action, ArrivalDecision::Action::kReject);
}

TEST_F(SchemblePolicyTest, OnIdleCommitsPlanEntries) {
  SchemblePolicy policy = MakeOraclePolicy();
  ServerView view = IdleView();
  // Models 1 and 2 busy; model 0 idle.
  view.model_available_at = {0, 200 * kMillisecond, 200 * kMillisecond};
  const TracedQuery tq1 = MakeTraced(10, 0.05, 0, 40 * kMillisecond);
  const TracedQuery tq2 = MakeTraced(11, 0.05, 0, 300 * kMillisecond);
  policy.OnArrival(tq1, view);
  policy.OnArrival(tq2, view);
  std::vector<const TracedQuery*> buffer = {&tq1, &tq2};
  const PolicyOutput output = Plan(policy, view, buffer);
  ASSERT_FALSE(output.assignments.empty());
  // The earliest-deadline query must be dispatched on the idle model.
  EXPECT_EQ(output.assignments[0].query_id, 10);
  EXPECT_TRUE(output.assignments[0].subset & 0b001);
  EXPECT_GT(policy.scheduler_runs(), 0);
}

TEST_F(SchemblePolicyTest, DpOverheadChargedAndAccumulated) {
  SchembleConfig config;
  config.scheduler_ops_per_us = 1.0;  // make overhead visible
  SchemblePolicy policy = MakeOraclePolicy(config);
  ServerView view = IdleView();
  view.model_available_at = {0, 100 * kMillisecond, 100 * kMillisecond};
  const TracedQuery tq = MakeTraced(20, 0.2, 0, 500 * kMillisecond);
  policy.OnArrival(tq, view);
  std::vector<const TracedQuery*> buffer = {&tq};
  const PolicyOutput output = Plan(policy, view, buffer);
  EXPECT_GT(output.overhead_us, 0);
  EXPECT_EQ(policy.total_overhead_us(), output.overhead_us);
}

TEST_F(SchemblePolicyTest, GreedyVariantProducesAssignments) {
  SchembleConfig config;
  config.scheduler = BufferScheduler::kGreedyFifo;
  config.name = "Greedy+FIFO";
  SchemblePolicy policy = MakeOraclePolicy(config);
  EXPECT_EQ(policy.name(), "Greedy+FIFO");
  ServerView view = IdleView();
  view.model_available_at = {0, 0, 100 * kMillisecond};
  const TracedQuery tq = MakeTraced(30, 0.3, 0, 200 * kMillisecond);
  policy.OnArrival(tq, view);
  std::vector<const TracedQuery*> buffer = {&tq};
  const PolicyOutput output = Plan(policy, view, buffer);
  EXPECT_FALSE(output.assignments.empty());
  EXPECT_EQ(output.overhead_us, 0);  // greedy is charged as free
}

TEST_F(SchemblePolicyTest, ConstantScoreVariantIgnoresQueryContent) {
  SchembleConfig config;
  config.score_source = ScoreSource::kConstant;
  config.constant_score = 0.4;
  SchemblePolicy policy(*task_, *profile_, nullptr, nullptr, config);
  const TracedQuery easy = MakeTraced(40, 0.01, 0, 100 * kMillisecond);
  const TracedQuery hard = MakeTraced(41, 0.99, 0, 100 * kMillisecond);
  policy.OnArrival(easy, IdleView());
  policy.OnArrival(hard, IdleView());
  EXPECT_DOUBLE_EQ(policy.ScoreOf(40), 0.4);
  EXPECT_DOUBLE_EQ(policy.ScoreOf(41), 0.4);
  EXPECT_EQ(policy.ArrivalProcessingDelay(), 0);
}

TEST_F(SchemblePolicyTest, OracleScoresSeparateEasyFromHard) {
  SchemblePolicy policy = MakeOraclePolicy();
  const TracedQuery easy = MakeTraced(50, 0.02, 0, 100 * kMillisecond);
  const TracedQuery hard = MakeTraced(51, 0.95, 0, 100 * kMillisecond);
  policy.OnArrival(easy, IdleView());
  policy.OnArrival(hard, IdleView());
  EXPECT_LT(policy.ScoreOf(50), policy.ScoreOf(51));
}

TEST_F(SchemblePolicyTest, PlanEntriesCarryTheirSnapshotPosition) {
  for (BufferScheduler scheduler :
       {BufferScheduler::kDp, BufferScheduler::kGreedyEdf}) {
    SchembleConfig config;
    config.scheduler = scheduler;
    SchemblePolicy policy = MakeOraclePolicy(config);
    ServerView view = IdleView();
    view.model_available_at = {0, 0, 30 * kMillisecond};
    std::vector<TracedQuery> backlog;
    // Deadlines descend with arrival order, so the plan's EDF order is the
    // reverse of the snapshot order.
    for (int i = 0; i < 8; ++i) {
      backlog.push_back(MakeTraced(100 + i, 0.1 * i, 0,
                                   (400 - 40 * i) * kMillisecond));
    }
    PlanWorkspace ws;
    ws.state = policy.CreatePlanState();
    for (const TracedQuery& tq : backlog) ws.buffer.push_back({&tq, 0, 0});
    policy.PlanOnView(view, &ws);
    ASSERT_FALSE(ws.output.assignments.empty());
    for (const BufferedAssignment& a : ws.output.assignments) {
      EXPECT_EQ(&ws.SnapshotOf(a), &ws.buffer[static_cast<size_t>(a.snapshot)]);
      EXPECT_EQ(ws.buffer[static_cast<size_t>(a.snapshot)].traced->query.id,
                a.query_id);
    }
  }
}

TEST_F(SchemblePolicyTest, ReusedPlanWorkspaceMatchesFreshOne) {
  // One workspace reused across snapshots that grow and shrink must plan
  // exactly what a fresh workspace plans: reused query slots may not leak
  // the previous snapshot's state.
  SchemblePolicy policy = MakeOraclePolicy();
  ServerView view = IdleView();
  view.model_available_at = {0, 20 * kMillisecond, 45 * kMillisecond};
  std::vector<TracedQuery> backlog;
  for (int i = 0; i < 12; ++i) {
    backlog.push_back(MakeTraced(200 + i, (i % 5) * 0.2, 0,
                                 (60 + 25 * (i % 7)) * kMillisecond));
  }
  PlanWorkspace reused;
  reused.state = policy.CreatePlanState();
  for (size_t size : {size_t{12}, size_t{3}, size_t{9}, size_t{1}, size_t{12}}) {
    std::vector<const TracedQuery*> buffer;
    reused.buffer.clear();
    for (size_t i = backlog.size() - size; i < backlog.size(); ++i) {
      buffer.push_back(&backlog[i]);
      reused.buffer.push_back({&backlog[i], 0, 0});
    }
    policy.PlanOnView(view, &reused);
    const PolicyOutput fresh = Plan(policy, view, buffer);
    EXPECT_FALSE(fresh.assignments.empty());  // model 0 is idle
    ASSERT_EQ(reused.output.assignments.size(), fresh.assignments.size())
        << "snapshot of " << size;
    for (size_t j = 0; j < fresh.assignments.size(); ++j) {
      EXPECT_EQ(reused.output.assignments[j].query_id,
                fresh.assignments[j].query_id);
      EXPECT_EQ(reused.output.assignments[j].subset,
                fresh.assignments[j].subset);
      EXPECT_EQ(reused.output.assignments[j].snapshot,
                fresh.assignments[j].snapshot);
    }
    EXPECT_EQ(reused.output.overhead_us, fresh.overhead_us);
  }
}

TEST_F(SchemblePolicyTest, UtilityRowIsAReferenceIntoTheProfile) {
  EXPECT_EQ(&profile_->UtilityRow(0.3), &profile_->UtilityRow(0.3));
}

TEST(PlanWorkspaceDeathTest, CommitOutsideTheSnapshotDies) {
  TracedQuery tq;
  tq.query.id = 7;
  PlanWorkspace ws;
  ws.buffer.push_back({&tq, 0, 0});
  EXPECT_DEATH(ws.SnapshotOf({7, 1, 1}), "outside its snapshot");
  EXPECT_DEATH(ws.SnapshotOf({7, 1, -1}), "outside its snapshot");
  EXPECT_DEATH(ws.SnapshotOf({8, 1, 0}), "holds another query");
  EXPECT_EQ(&ws.SnapshotOf({7, 1, 0}), &ws.buffer[0]);
}

}  // namespace
}  // namespace schemble
