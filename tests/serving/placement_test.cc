// The placement rule both servers share (serving/placement.h): the
// availability projection, backlog pricing, and the least-available choice
// with its projection advance.

#include "serving/placement.h"

#include <gtest/gtest.h>

#include <vector>

#include "models/task_factory.h"

namespace schemble {
namespace {

constexpr SimTime kNow = 1000 * kMillisecond;

class PlacementTest : public ::testing::Test {
 protected:
  PlacementTest() : task_(MakeTextMatchingTask()) {}

  SimTime Latency(int model) const { return task_.profile(model).latency_us; }

  void Begin(std::span<const BatchLatencyModel> batch = {}) {
    BeginProjection(task_, batch, kNow, /*allow_rejection=*/true, &view_);
  }

  /// Batch curves for every model of the task, capped at `max_batch`.
  std::vector<BatchLatencyModel> BatchModels(int max_batch) const {
    std::vector<BatchLatencyModel> models;
    for (int k = 0; k < task_.num_models(); ++k) {
      BatchLatencyModel bm = task_.profile(k).batch_latency();
      bm.max_batch = max_batch;
      models.push_back(bm);
    }
    return models;
  }

  const ExecutorView& Executor(int executor_id) const {
    for (const ExecutorView& ex : view_.executors) {
      if (ex.executor_id == executor_id) return ex;
    }
    ADD_FAILURE() << "executor " << executor_id << " not in the view";
    return view_.executors.front();
  }

  SyntheticTask task_;
  ServerView view_;
};

TEST_F(PlacementTest, ProjectsBusyUntilPlusPerTaskBacklog) {
  Begin();
  ProjectExecutor(0, {0, true, kNow + 7, 2}, &view_);
  ASSERT_EQ(view_.executors.size(), 1u);
  EXPECT_EQ(view_.executors[0].available_at, kNow + 7 + 2 * Latency(0));
  EXPECT_EQ(view_.executors[0].queue_length, 2);
  EXPECT_EQ(view_.model_available_at[0], kNow + 7 + 2 * Latency(0));
  EXPECT_EQ(view_.model_available_at[1], kSimTimeMax);
  EXPECT_EQ(view_.model_exec_time[1], Latency(1));
  EXPECT_FALSE(view_.batching());
}

TEST_F(PlacementTest, BusyUntilBeforeNowClampsToNow) {
  Begin();
  ProjectExecutor(0, {0, true, kNow - 5 * kMillisecond, 0}, &view_);
  ProjectExecutor(1, {0, true, 0, 1}, &view_);
  EXPECT_EQ(Executor(0).available_at, kNow);
  EXPECT_EQ(Executor(1).available_at, kNow + Latency(0));
  EXPECT_EQ(view_.model_available_at[0], kNow);
}

TEST_F(PlacementTest, TiesGoToTheLowestIndex) {
  Begin();
  ProjectExecutor(0, {1, true, kNow + 9, 0}, &view_);
  ProjectExecutor(1, {0, true, kNow + 3, 0}, &view_);
  ProjectExecutor(2, {0, true, kNow + 3, 0}, &view_);
  ProjectExecutor(3, {0, true, kNow + 3, 0}, &view_);
  EXPECT_EQ(PlaceTask(0, &view_), 1);
  EXPECT_EQ(PlaceTask(0, &view_), 2);
  EXPECT_EQ(PlaceTask(0, &view_), 3);
  // All three advanced by one task: the tie is back at the lowest index.
  EXPECT_EQ(PlaceTask(0, &view_), 1);
}

TEST_F(PlacementTest, ChoosesTheLeastAvailableExecutorOfTheModel) {
  Begin();
  ProjectExecutor(0, {0, true, kNow + 50, 0}, &view_);
  ProjectExecutor(1, {1, true, kNow, 0}, &view_);
  ProjectExecutor(2, {0, true, kNow + 10, 0}, &view_);
  EXPECT_EQ(PlaceTask(0, &view_), 2);
  EXPECT_EQ(PlaceTask(1, &view_), 1);
}

TEST_F(PlacementTest, ExecutorsThatAreNotLiveAreNeverChosen) {
  Begin();
  ProjectExecutor(0, {0, /*live=*/false, 0, 0}, &view_);
  ProjectExecutor(1, {0, true, kNow + 40 * kMillisecond, 5}, &view_);
  ASSERT_EQ(view_.executors.size(), 1u);
  EXPECT_EQ(view_.model_available_at[0], Executor(1).available_at);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(PlaceTask(0, &view_), 1);
}

TEST_F(PlacementTest, AdvancesByOneTaskAndRefreshesTheModel) {
  Begin();
  ProjectExecutor(0, {2, true, kNow, 0}, &view_);
  ProjectExecutor(1, {2, true, kNow + 10, 0}, &view_);
  EXPECT_EQ(PlaceTask(2, &view_), 0);
  EXPECT_EQ(Executor(0).available_at, kNow + Latency(2));
  EXPECT_EQ(Executor(0).queue_length, 1);
  // The model's earliest availability is now the other executor.
  EXPECT_EQ(view_.model_available_at[2], kNow + 10);
  EXPECT_EQ(PlaceTask(2, &view_), 1);
  EXPECT_EQ(view_.model_available_at[2], kNow + Latency(2));
  EXPECT_TRUE(view_.model_queued.empty());
}

TEST_F(PlacementTest, BatchingAdvancesByTheMarginalBacklog) {
  const std::vector<BatchLatencyModel> batch = BatchModels(4);
  Begin(batch);
  ASSERT_TRUE(view_.batching());
  ProjectExecutor(0, {1, true, kNow, 2}, &view_);
  ProjectExecutor(1, {1, true, kNow + kSecond, 0}, &view_);
  const BatchLatencyModel& bm = batch[1];
  EXPECT_EQ(Executor(0).available_at, kNow + bm.BacklogUs(2));
  EXPECT_EQ(view_.model_queued[1], 2);
  for (int q = 2; q < 9; ++q) {
    const SimTime before = Executor(0).available_at;
    ASSERT_EQ(PlaceTask(1, &view_), 0) << "q=" << q;
    EXPECT_EQ(Executor(0).available_at - before,
              bm.BacklogUs(q + 1) - bm.BacklogUs(q))
        << "q=" << q;
    EXPECT_EQ(Executor(0).queue_length, q + 1);
    EXPECT_EQ(view_.model_queued[1], q + 1);
    EXPECT_EQ(view_.model_available_at[1], Executor(0).available_at);
  }
  // Models with no placement keep their projection.
  EXPECT_EQ(view_.model_queued[0], 0);
  EXPECT_EQ(view_.model_available_at[0], kSimTimeMax);
}

TEST_F(PlacementTest, BeginProjectionResetsAReusedView) {
  const std::vector<BatchLatencyModel> batch = BatchModels(16);
  Begin(batch);
  ProjectExecutor(0, {0, true, kNow, 3}, &view_);
  PlaceTask(0, &view_);
  Begin();
  EXPECT_TRUE(view_.executors.empty());
  EXPECT_FALSE(view_.batching());
  EXPECT_TRUE(view_.model_queued.empty());
  EXPECT_EQ(view_.model_available_at,
            std::vector<SimTime>(task_.num_models(), kSimTimeMax));
}

TEST_F(PlacementTest, ModelWithNoLiveExecutorDies) {
  Begin();
  ProjectExecutor(0, {0, true, kNow, 0}, &view_);
  ProjectExecutor(1, {1, /*live=*/false, kNow, 0}, &view_);
  EXPECT_DEATH(PlaceTask(1, &view_), "no live executor for model 1");
}

}  // namespace
}  // namespace schemble
