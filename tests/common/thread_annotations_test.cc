// Functional tests for the annotated lock primitives
// (common/thread_annotations.h): Mutex owner tracking, MutexLock
// Release/Acquire, CondVar hand-off, and opt-in contention statistics. The
// deliberate-violation death tests live in
// tests/runtime/lock_discipline_test.cc.

#include "common/thread_annotations.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

namespace schemble {
namespace {

TEST(MutexTest, LockUnlockTracksOwnership) {
  Mutex mu{LockRank::kLeaf, "test.mu"};
  EXPECT_FALSE(mu.HeldByCurrentThread());
  mu.Lock();
  EXPECT_TRUE(mu.HeldByCurrentThread());
  mu.Unlock();
  EXPECT_FALSE(mu.HeldByCurrentThread());
}

TEST(MutexTest, AssertHeldPassesWhileHolding) {
  Mutex mu{LockRank::kLeaf, "test.mu"};
  MutexLock lock(&mu);
  mu.AssertHeld();
}

TEST(MutexTest, StatsDisabledByDefault) {
  Mutex mu{LockRank::kLeaf, "test.mu"};
  for (int i = 0; i < 3; ++i) {
    MutexLock lock(&mu);
  }
  const Mutex::Stats stats = mu.stats();
  EXPECT_EQ(stats.acquisitions, 0);
  EXPECT_EQ(stats.held_ns, 0);
}

TEST(MutexTest, StatsCountAcquisitionsAndHeldTime) {
  Mutex mu(LockRank::kLeaf, "test.mu", Mutex::StatsMode::kEnabled);
  for (int i = 0; i < 5; ++i) {
    MutexLock lock(&mu);
  }
  const Mutex::Stats stats = mu.stats();
  EXPECT_EQ(stats.acquisitions, 5);
  EXPECT_GE(stats.held_ns, 0);
}

TEST(MutexLockTest, ReleaseAcquireRoundTrip) {
  Mutex mu{LockRank::kLeaf, "test.mu"};
  MutexLock lock(&mu);
  EXPECT_TRUE(mu.HeldByCurrentThread());
  lock.Release();
  EXPECT_FALSE(mu.HeldByCurrentThread());
  lock.Acquire();
  EXPECT_TRUE(mu.HeldByCurrentThread());
}

TEST(MutexLockTest, DestructionAfterReleaseIsANoOp) {
  Mutex mu{LockRank::kLeaf, "test.mu"};
  {
    MutexLock lock(&mu);
    lock.Release();
  }
  // The lock must be free: a fresh guard acquires without deadlock.
  MutexLock lock(&mu);
  EXPECT_TRUE(mu.HeldByCurrentThread());
}

struct Signal {
  Mutex mu{LockRank::kLeaf, "test.mu"};
  CondVar cv;
  bool ready SCHEMBLE_GUARDED_BY(mu) = false;
};

TEST(CondVarTest, WaitWakesOnNotify) {
  Signal s;
  std::thread producer([&s] {
    MutexLock lock(&s.mu);
    s.ready = true;
    s.cv.NotifyOne();
  });
  {
    MutexLock lock(&s.mu);
    while (!s.ready) s.cv.Wait(s.mu);
    EXPECT_TRUE(s.ready);
    // Ownership is restored after the wait returns.
    EXPECT_TRUE(s.mu.HeldByCurrentThread());
  }
  producer.join();
}

TEST(CondVarTest, WaitForTimesOutWithoutNotify) {
  Signal s;
  MutexLock lock(&s.mu);
  EXPECT_FALSE(s.cv.WaitFor(s.mu, std::chrono::milliseconds(1)));
  EXPECT_TRUE(s.mu.HeldByCurrentThread());
}

TEST(CondVarTest, WaitSuspendsOwnershipForTheProducer) {
  // While the consumer is parked in Wait, the producer must be able to take
  // the lock and see itself as the owner — i.e. ownership tracking follows
  // the real std::condition_variable hand-off.
  Signal s;
  bool producer_owned = false;
  std::thread producer([&s, &producer_owned] {
    MutexLock lock(&s.mu);
    producer_owned = s.mu.HeldByCurrentThread();
    s.ready = true;
    s.cv.NotifyOne();
  });
  {
    MutexLock lock(&s.mu);
    while (!s.ready) s.cv.Wait(s.mu);
  }
  producer.join();
  EXPECT_TRUE(producer_owned);
}

TEST(CondVarTest, WaitCountsAsAReacquisitionInStats) {
  // Lock (1), WaitFor suspends and resumes ownership (2), then the guard
  // unlocks: exactly two acquisitions, deterministically.
  Mutex mu(LockRank::kLeaf, "test.mu", Mutex::StatsMode::kEnabled);
  CondVar cv;
  {
    MutexLock lock(&mu);
    cv.WaitFor(mu, std::chrono::milliseconds(1));
  }
  EXPECT_EQ(mu.stats().acquisitions, 2);
}

struct Counter {
  Mutex mu{LockRank::kLeaf, "test.mu"};
  int value SCHEMBLE_GUARDED_BY(mu) = 0;
};

TEST(MutexTest, ContendedCountingIsExclusive) {
  Counter c;
  constexpr int kThreads = 4;
  constexpr int kIncrements = 1000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&c] {
      for (int i = 0; i < kIncrements; ++i) {
        MutexLock lock(&c.mu);
        ++c.value;
      }
    });
  }
  for (std::thread& w : workers) w.join();
  MutexLock lock(&c.mu);
  EXPECT_EQ(c.value, kThreads * kIncrements);
}

}  // namespace
}  // namespace schemble
