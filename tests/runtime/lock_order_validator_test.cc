// Death tests for the runtime lock-order validator: a seeded rank
// inversion through the real Mutex::Lock path must CHECK-fail, naming both
// acquisition sites, BEFORE the underlying lock() call could deadlock.
// This is the dynamic layer of the deadlock-freedom story; the clang
// acquired_before/after analysis (tests/static/lock_order_violation.cc)
// is the static one, and the stress matrix runs the whole runtime under
// this validator in the Debug and sanitizer lanes.
//
// Every violation happens inside EXPECT_DEATH, i.e. in a forked child, so
// the edges it records never pollute the parent's process-global graph.
// Edges the PARENT establishes (to seed an order) are real rank-table
// edges the runtime itself witnesses, so they are harmless to later tests.

#include <gtest/gtest.h>

#include "common/lock_order.h"
#include "common/thread_annotations.h"

namespace schemble {
namespace {

#if SCHEMBLE_LOCK_ORDER_CHECKS

TEST(LockOrderValidatorDeathTest, SeededInversionDiesNamingBothSites) {
  // Establish the legal order first: kDomain before kDone (the real
  // finalization order — domain mutex, then the completion latch).
  Mutex domain_mu{LockRank::kDomain, "validator.domain_mu"};
  Mutex done_mu{LockRank::kDone, "validator.done_mu"};
  {
    MutexLock domain_lock(&domain_mu);
    MutexLock done_lock(&done_mu);
  }
  // Now invert it: blocking on the domain lock while holding the
  // completion latch closes a cycle against the witnessed order. The
  // report must carry the names of both locks involved.
  EXPECT_DEATH(
      {
        MutexLock done_lock(&done_mu);
        MutexLock domain_lock(&domain_mu);
      },
      "lock-order inversion.*validator.domain_mu.*validator.done_mu");
}

TEST(LockOrderValidatorDeathTest, SameRankNestingDies) {
  // Two distinct locks of equal rank have no defined order between them;
  // nesting them is refused outright, no prior edge needed.
  // Parenthesized construction: a brace-init comma would split the
  // EXPECT_DEATH macro arguments.
  EXPECT_DEATH(
      {
        Mutex leaf_a(LockRank::kLeaf, "validator.leaf_a");
        Mutex leaf_b(LockRank::kLeaf, "validator.leaf_b");
        MutexLock lock_a(&leaf_a);
        MutexLock lock_b(&leaf_b);
      },
      "same-rank.*validator.leaf_a");
}

TEST(LockOrderValidatorTest, RankOrderedNestingIsClean) {
  // The full legal chain in one thread: strictly increasing ranks never
  // trip the validator, whatever order the edges were first witnessed in.
  Mutex domain_mu{LockRank::kDomain, "validator.chain_domain"};
  Mutex inbox_mu{LockRank::kInbox, "validator.chain_inbox"};
  Mutex clock_mu{LockRank::kClock, "validator.chain_clock"};
  Mutex done_mu{LockRank::kDone, "validator.chain_done"};
  MutexLock domain_lock(&domain_mu);
  MutexLock inbox_lock(&inbox_mu);
  MutexLock clock_lock(&clock_mu);
  MutexLock done_lock(&done_mu);
  SUCCEED();
}

#else  // !SCHEMBLE_LOCK_ORDER_CHECKS

TEST(LockOrderValidatorTest, ValidatorCompiledOutInThisBuild) {
  GTEST_SKIP() << "lock-order validator compiled out "
                  "(release build without SCHEMBLE_LOCK_ORDER)";
}

#endif  // SCHEMBLE_LOCK_ORDER_CHECKS

}  // namespace
}  // namespace schemble
