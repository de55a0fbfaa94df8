// Unit tests for the lock-order graph and the per-thread held-lock stack
// (common/lock_order.h). Everything here drives PRIVATE LockOrderGraph
// instances — the process-global graph accumulates edges from all runtime
// activity in this test binary, so asserting on its contents would be
// order-dependent. The end-to-end validator behaviour (CHECK-failure on a
// real inversion through Mutex::Lock) lives in
// tests/runtime/lock_order_validator_test.cc as death tests.

#include "common/lock_order.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>

#include "common/thread_annotations.h"

namespace schemble {
namespace lock_order {
namespace {

Site TestSite(const char* name) { return Site{name, "lock_order_test.cc", 1}; }

TEST(LockOrderGraphTest, RecordsEdgeAndReportsIt) {
  LockOrderGraph graph;
  EXPECT_FALSE(graph.HasEdge(LockRank::kDomain, LockRank::kInbox));
  EXPECT_TRUE(graph.RecordEdge(LockRank::kDomain, TestSite("domain"),
                               LockRank::kInbox, TestSite("inbox"), nullptr));
  EXPECT_TRUE(graph.HasEdge(LockRank::kDomain, LockRank::kInbox));
  // Only the witnessed direction exists.
  EXPECT_FALSE(graph.HasEdge(LockRank::kInbox, LockRank::kDomain));
}

TEST(LockOrderGraphTest, DuplicateEdgeIsConsistent) {
  LockOrderGraph graph;
  ASSERT_TRUE(graph.RecordEdge(LockRank::kDomain, TestSite("domain"),
                               LockRank::kClock, TestSite("clock"), nullptr));
  EXPECT_TRUE(graph.RecordEdge(LockRank::kDomain, TestSite("domain2"),
                               LockRank::kClock, TestSite("clock2"), nullptr));
}

TEST(LockOrderGraphTest, SameRankNestingIsRefused) {
  LockOrderGraph graph;
  std::string violation;
  EXPECT_FALSE(graph.RecordEdge(LockRank::kLeaf, TestSite("leaf_a"),
                                LockRank::kLeaf, TestSite("leaf_b"),
                                &violation));
  EXPECT_NE(violation.find("same-rank"), std::string::npos) << violation;
  EXPECT_NE(violation.find("leaf_a"), std::string::npos) << violation;
  EXPECT_NE(violation.find("leaf_b"), std::string::npos) << violation;
  // A refused edge is not recorded.
  EXPECT_FALSE(graph.HasEdge(LockRank::kLeaf, LockRank::kLeaf));
}

TEST(LockOrderGraphTest, DirectInversionIsRefusedWithBothSites) {
  LockOrderGraph graph;
  ASSERT_TRUE(graph.RecordEdge(LockRank::kDomain, TestSite("domain_first"),
                               LockRank::kDone, TestSite("done_second"),
                               nullptr));
  std::string violation;
  EXPECT_FALSE(graph.RecordEdge(LockRank::kDone, TestSite("done_held"),
                                LockRank::kDomain, TestSite("domain_blocked"),
                                &violation));
  // The report names the current nesting AND the previously witnessed
  // inverse edge, so both sides of the cycle are actionable.
  EXPECT_NE(violation.find("inversion"), std::string::npos) << violation;
  EXPECT_NE(violation.find("done_held"), std::string::npos) << violation;
  EXPECT_NE(violation.find("domain_blocked"), std::string::npos) << violation;
  EXPECT_NE(violation.find("domain_first"), std::string::npos) << violation;
  EXPECT_NE(violation.find("done_second"), std::string::npos) << violation;
}

TEST(LockOrderGraphTest, TransitiveCycleIsRefusedWithEveryHop) {
  LockOrderGraph graph;
  // kDomain -> kInbox -> kClock recorded by two independent "threads";
  // closing kClock -> kDomain must walk the whole witnessed path.
  ASSERT_TRUE(graph.RecordEdge(LockRank::kDomain, TestSite("hop1_held"),
                               LockRank::kInbox, TestSite("hop1_acq"),
                               nullptr));
  ASSERT_TRUE(graph.RecordEdge(LockRank::kInbox, TestSite("hop2_held"),
                               LockRank::kClock, TestSite("hop2_acq"),
                               nullptr));
  std::string violation;
  EXPECT_FALSE(graph.RecordEdge(LockRank::kClock, TestSite("closer_held"),
                                LockRank::kDomain, TestSite("closer_acq"),
                                &violation));
  EXPECT_NE(violation.find("kDomain -> kInbox"), std::string::npos)
      << violation;
  EXPECT_NE(violation.find("kInbox -> kClock"), std::string::npos)
      << violation;
  EXPECT_NE(violation.find("hop1_held"), std::string::npos) << violation;
  EXPECT_NE(violation.find("hop2_acq"), std::string::npos) << violation;
}

TEST(LockOrderGraphTest, ResetDropsAllEdges) {
  LockOrderGraph graph;
  ASSERT_TRUE(graph.RecordEdge(LockRank::kDomain, TestSite("domain"),
                               LockRank::kDone, TestSite("done"), nullptr));
  graph.Reset();
  EXPECT_FALSE(graph.HasEdge(LockRank::kDomain, LockRank::kDone));
  // The previously refused inverse direction is legal again.
  EXPECT_TRUE(graph.RecordEdge(LockRank::kDone, TestSite("done"),
                               LockRank::kDomain, TestSite("domain"),
                               nullptr));
}

TEST(LockRankTest, NamesCoverEveryRank) {
  EXPECT_STREQ(LockRankName(LockRank::kServer), "kServer");
  EXPECT_STREQ(LockRankName(LockRank::kDomain), "kDomain");
  EXPECT_STREQ(LockRankName(LockRank::kInbox), "kInbox");
  EXPECT_STREQ(LockRankName(LockRank::kExecutorQueue), "kExecutorQueue");
  EXPECT_STREQ(LockRankName(LockRank::kClock), "kClock");
  EXPECT_STREQ(LockRankName(LockRank::kDone), "kDone");
  EXPECT_STREQ(LockRankName(LockRank::kLeaf), "kLeaf");
}

#if SCHEMBLE_LOCK_ORDER_CHECKS

// The held-lock stack is per-thread bookkeeping behind the validator; these
// tests exercise it through the real Mutex hooks. Nested acquisitions below
// follow the real rank table (kDomain before kDone) so the edges they record
// in the global graph are the ones the runtime itself establishes.

TEST(HeldLockStackTest, LockAndUnlockTrackDepth) {
  Mutex mu{LockRank::kLeaf, "heldstack.single"};
  EXPECT_EQ(HeldLockCount(), 0);
  {
    MutexLock lock(&mu);
    EXPECT_EQ(HeldLockCount(), 1);
  }
  EXPECT_EQ(HeldLockCount(), 0);
}

TEST(HeldLockStackTest, NestedAcquisitionsStack) {
  Mutex outer{LockRank::kDomain, "heldstack.outer"};
  Mutex inner{LockRank::kDone, "heldstack.inner"};
  MutexLock outer_lock(&outer);
  EXPECT_EQ(HeldLockCount(), 1);
  {
    MutexLock inner_lock(&inner);
    EXPECT_EQ(HeldLockCount(), 2);
  }
  EXPECT_EQ(HeldLockCount(), 1);
}

TEST(HeldLockStackTest, OutOfOrderReleaseRemovesFromTheMiddle) {
  // MutexLock::Release on the OUTER guard while the inner lock is still
  // held: legal, and the stack must remove the middle entry, not the top.
  Mutex outer{LockRank::kDomain, "heldstack.release_outer"};
  Mutex inner{LockRank::kDone, "heldstack.release_inner"};
  MutexLock outer_lock(&outer);
  MutexLock inner_lock(&inner);
  EXPECT_EQ(HeldLockCount(), 2);
  outer_lock.Release();
  EXPECT_EQ(HeldLockCount(), 1);
  inner_lock.Release();
  EXPECT_EQ(HeldLockCount(), 0);
}

TEST(HeldLockStackTest, StackIsPerThread) {
  Mutex mu{LockRank::kLeaf, "heldstack.cross_thread"};
  MutexLock lock(&mu);
  int other_thread_depth = -1;
  std::thread observer(
      [&other_thread_depth] { other_thread_depth = HeldLockCount(); });
  observer.join();
  EXPECT_EQ(other_thread_depth, 0);
  EXPECT_EQ(HeldLockCount(), 1);
}

#else  // !SCHEMBLE_LOCK_ORDER_CHECKS

TEST(HeldLockStackTest, HooksCompiledOutInThisBuild) {
  GTEST_SKIP() << "lock-order validator compiled out "
                  "(release build without SCHEMBLE_LOCK_ORDER)";
}

#endif  // SCHEMBLE_LOCK_ORDER_CHECKS

}  // namespace
}  // namespace lock_order
}  // namespace schemble
