// The per-query state machine both servers drive (serving/query_lifecycle.h):
// every legal transition with its side effects, a death test for each
// illegal source phase, and the buffer's arrival order.

#include "serving/query_lifecycle.h"

#include <gtest/gtest.h>

#include <vector>

namespace schemble {
namespace {

constexpr SubsetMask kSubset = 0b101;  // models 0 and 2

class QueryLifecycleTest : public ::testing::Test {
 protected:
  QueryLifecycleTest() { lifecycle_.Reset(4); }

  /// Drives query `index` from Pending into `phase`.
  void MoveTo(int index, QueryPhase phase) {
    switch (phase) {
      case QueryPhase::kPending:
        return;
      case QueryPhase::kBuffered:
        lifecycle_.Buffer(index);
        return;
      case QueryPhase::kAssigned:
        lifecycle_.Assign(index, kSubset);
        return;
      case QueryPhase::kFinalized:
        lifecycle_.Finalize(index);
        return;
    }
  }

  QueryLifecycle lifecycle_;
};

TEST_F(QueryLifecycleTest, ResetStartsEveryQueryPending) {
  for (int i = 0; i < 4; ++i) {
    const QueryLifecycle::QueryState& s = lifecycle_.state(i);
    EXPECT_EQ(s.phase(), QueryPhase::kPending);
    EXPECT_EQ(s.assigned(), 0u);
    EXPECT_EQ(s.done(), 0u);
    EXPECT_EQ(s.generation(), 0u);
  }
  EXPECT_TRUE(lifecycle_.buffer().empty());
}

TEST_F(QueryLifecycleTest, BufferAppendsInArrivalOrder) {
  lifecycle_.Buffer(2);
  lifecycle_.Buffer(0);
  lifecycle_.Buffer(3);
  EXPECT_EQ(lifecycle_.phase(2), QueryPhase::kBuffered);
  EXPECT_EQ(lifecycle_.buffer(), (std::vector<int>{2, 0, 3}));
  EXPECT_EQ(lifecycle_.state(2).generation(), 0u);
}

TEST_F(QueryLifecycleTest, AssignFromPendingBumpsGeneration) {
  lifecycle_.Assign(1, kSubset);
  const QueryLifecycle::QueryState& s = lifecycle_.state(1);
  EXPECT_EQ(s.phase(), QueryPhase::kAssigned);
  EXPECT_EQ(s.assigned(), kSubset);
  EXPECT_EQ(s.generation(), 1u);
  EXPECT_TRUE(lifecycle_.buffer().empty());
}

TEST_F(QueryLifecycleTest, AssignFromBufferedUnbuffersAndKeepsOrder) {
  lifecycle_.Buffer(0);
  lifecycle_.Buffer(1);
  lifecycle_.Buffer(2);
  lifecycle_.Buffer(3);
  lifecycle_.Assign(1, kSubset);
  EXPECT_EQ(lifecycle_.phase(1), QueryPhase::kAssigned);
  EXPECT_EQ(lifecycle_.state(1).generation(), 1u);
  EXPECT_EQ(lifecycle_.buffer(), (std::vector<int>{0, 2, 3}));
  // Unbuffering from the front and the back keeps the rest in order.
  lifecycle_.Assign(0, kSubset);
  lifecycle_.Finalize(3);
  EXPECT_EQ(lifecycle_.buffer(), (std::vector<int>{2}));
}

TEST_F(QueryLifecycleTest, TaskDoneReportsWhenEveryAssignedModelIsDone) {
  lifecycle_.Assign(0, kSubset);
  EXPECT_FALSE(lifecycle_.TaskDone(0, 2, 700));
  EXPECT_EQ(lifecycle_.state(0).done(), 0b100u);
  EXPECT_EQ(lifecycle_.state(0).last_done_time(), 700);
  EXPECT_TRUE(lifecycle_.TaskDone(0, 0, 500));
  // last_done_time is the time passed to the last fold.
  EXPECT_EQ(lifecycle_.state(0).last_done_time(), 500);
  EXPECT_EQ(lifecycle_.phase(0), QueryPhase::kAssigned);
  EXPECT_EQ(lifecycle_.state(0).generation(), 1u);
}

TEST_F(QueryLifecycleTest, FinalizeFromEveryPhaseOnce) {
  const QueryPhase sources[] = {QueryPhase::kPending, QueryPhase::kBuffered,
                                QueryPhase::kAssigned};
  for (int i = 0; i < 3; ++i) {
    MoveTo(i, sources[i]);
    const uint64_t generation = lifecycle_.state(i).generation();
    EXPECT_TRUE(lifecycle_.Finalize(i));
    EXPECT_EQ(lifecycle_.phase(i), QueryPhase::kFinalized);
    EXPECT_EQ(lifecycle_.state(i).generation(), generation + 1);
    // A second finalize is a no-op that reports false.
    EXPECT_FALSE(lifecycle_.Finalize(i));
    EXPECT_EQ(lifecycle_.state(i).generation(), generation + 1);
  }
  EXPECT_TRUE(lifecycle_.buffer().empty());
}

TEST_F(QueryLifecycleTest, ReleaseReturnsAnAssignedQueryToPending) {
  lifecycle_.Assign(2, kSubset);
  lifecycle_.TaskDone(2, 0, 300);
  lifecycle_.Release(2);
  const QueryLifecycle::QueryState& s = lifecycle_.state(2);
  EXPECT_EQ(s.phase(), QueryPhase::kPending);
  EXPECT_EQ(s.assigned(), 0u);
  EXPECT_EQ(s.done(), 0u);
  EXPECT_EQ(s.generation(), 2u);
  // Released queries are admitted again like new arrivals.
  lifecycle_.Buffer(2);
  EXPECT_EQ(lifecycle_.buffer(), (std::vector<int>{2}));
}

TEST_F(QueryLifecycleTest, DeadlineOutcomeServesWhatIsDone) {
  lifecycle_.Assign(0, kSubset);
  EXPECT_EQ(lifecycle_.DeadlineOutcome(0, 900),
            (std::pair<SubsetMask, SimTime>{0, 900}));
  lifecycle_.TaskDone(0, 2, 400);
  EXPECT_EQ(lifecycle_.DeadlineOutcome(0, 900),
            (std::pair<SubsetMask, SimTime>{0b100, 400}));
  // A never-assigned query has nothing to serve.
  EXPECT_EQ(lifecycle_.DeadlineOutcome(1, 900),
            (std::pair<SubsetMask, SimTime>{0, 900}));
}

using QueryLifecycleDeathTest = QueryLifecycleTest;

TEST_F(QueryLifecycleDeathTest, BufferRequiresPending) {
  for (QueryPhase phase : {QueryPhase::kBuffered, QueryPhase::kAssigned,
                           QueryPhase::kFinalized}) {
    MoveTo(0, phase);
    EXPECT_DEATH(lifecycle_.Buffer(0), "Buffer: query 0 is not pending");
    lifecycle_.Reset(4);
  }
}

TEST_F(QueryLifecycleDeathTest, AssignRequiresPendingOrBuffered) {
  for (QueryPhase phase : {QueryPhase::kAssigned, QueryPhase::kFinalized}) {
    MoveTo(0, phase);
    EXPECT_DEATH(lifecycle_.Assign(0, kSubset),
                 "Assign: query 0 is assigned or finalized");
    lifecycle_.Reset(4);
  }
}

TEST_F(QueryLifecycleDeathTest, AssignRejectsTheEmptySubset) {
  EXPECT_DEATH(lifecycle_.Assign(0, 0), "Check failed");
}

TEST_F(QueryLifecycleDeathTest, TaskDoneRequiresAssigned) {
  for (QueryPhase phase : {QueryPhase::kPending, QueryPhase::kBuffered,
                           QueryPhase::kFinalized}) {
    MoveTo(0, phase);
    EXPECT_DEATH(lifecycle_.TaskDone(0, 0, 100),
                 "TaskDone: query 0 is not assigned");
    lifecycle_.Reset(4);
  }
}

TEST_F(QueryLifecycleDeathTest, ReleaseRequiresAssigned) {
  // A buffered query has no tasks to requeue, so releasing one is a bug.
  for (QueryPhase phase : {QueryPhase::kPending, QueryPhase::kBuffered,
                           QueryPhase::kFinalized}) {
    MoveTo(0, phase);
    EXPECT_DEATH(lifecycle_.Release(0), "Release: query 0 is not assigned");
    lifecycle_.Reset(4);
  }
}

}  // namespace
}  // namespace schemble
