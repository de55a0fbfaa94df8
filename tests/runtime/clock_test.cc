#include "simcore/clock.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

namespace schemble {
namespace {

TEST(SteadyClockTest, AdvancesMonotonically) {
  SteadyClock clock;
  const SimTime a = clock.Now();
  const SimTime b = clock.Now();
  EXPECT_GE(b, a);
}

TEST(SteadyClockTest, SleepUntilReachesDeadline) {
  SteadyClock clock(1.0);
  const SimTime target = clock.Now() + 2 * kMillisecond;
  clock.SleepUntil(target);
  EXPECT_GE(clock.Now(), target);
}

TEST(SteadyClockTest, SleepUntilPastReturnsImmediately) {
  SteadyClock clock;
  clock.SleepFor(kMillisecond);
  const SimTime before = clock.Now();
  clock.SleepUntil(0);
  // No sleep happened: well under a millisecond elapsed.
  EXPECT_LT(clock.Now() - before, kMillisecond);
}

TEST(SteadyClockTest, SpeedupCompressesRealTime) {
  // 100 virtual ms at 100x elapses in ~1 real ms.
  SteadyClock wall(1.0);
  SteadyClock fast(100.0);
  const SimTime real_before = wall.Now();
  fast.SleepFor(100 * kMillisecond);
  const SimTime real_elapsed = wall.Now() - real_before;
  EXPECT_LT(real_elapsed, 50 * kMillisecond);
  EXPECT_GE(fast.Now(), 100 * kMillisecond);
}

TEST(SteadyClockTest, WaitsUnderOneRealNanosecondNeverSleep) {
  // At speedup 1e8 a 20 ms virtual wait is 0.2 ns of real time: it must
  // end by re-reading the clock, not by paying an OS timer sleep (~55 us
  // each with the default timer slack, so 550 ms for the loop).
  SteadyClock wall(1.0);
  SteadyClock fast(1e8);
  const SimTime real_before = wall.Now();
  for (int i = 0; i < 10000; ++i) fast.SleepFor(20 * kMillisecond);
  EXPECT_LT(wall.Now() - real_before, 100 * kMillisecond);
}

TEST(SteadyClockTest, ResolvesSubMicrosecondRealIntervals) {
  // One real microsecond is one virtual second at speedup 1e6. Back-to-back
  // reads are well under a real microsecond apart, so some step between
  // two readings must be a fraction of a virtual second; a clock that
  // counted whole real microseconds would only ever step by 1e6.
  constexpr double kSpeedup = 1e6;
  SteadyClock clock(kSpeedup);
  SimTime previous = clock.Now();
  bool sub_microsecond_step = false;
  for (int i = 0; i < 100000 && !sub_microsecond_step; ++i) {
    const SimTime now = clock.Now();
    ASSERT_GE(now, previous);
    sub_microsecond_step = now > previous && now - previous < kSecond;
    previous = now;
  }
  EXPECT_TRUE(sub_microsecond_step);
}

TEST(SteadyClockTest, RealDurationTruncatesToNanoseconds) {
  EXPECT_EQ(RealDuration(kMillisecond, 1.0).count(), 1000000);
  EXPECT_EQ(RealDuration(10 * kMillisecond, 1e4).count(), 1000);
  // Under one real nanosecond is zero, never clamped up to a sleep.
  EXPECT_EQ(RealDuration(20 * kMillisecond, 1e8).count(), 0);
  EXPECT_EQ(RealDuration(0, 1.0).count(), 0);
}

TEST(ManualClockTest, StartsAtConfiguredTime) {
  ManualClock clock(5 * kSecond);
  EXPECT_EQ(clock.Now(), 5 * kSecond);
  clock.Advance(kSecond);
  EXPECT_EQ(clock.Now(), 6 * kSecond);
}

TEST(ManualClockTest, SleepUntilBlocksUntilAdvanced) {
  ManualClock clock;
  std::atomic<bool> woke{false};
  std::thread sleeper([&] {
    clock.SleepUntil(10 * kMillisecond);
    woke.store(true);
  });
  // Not enough: the sleeper must still be blocked.
  clock.AdvanceTo(9 * kMillisecond);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_FALSE(woke.load());
  clock.AdvanceTo(10 * kMillisecond);
  sleeper.join();
  EXPECT_TRUE(woke.load());
}

TEST(ManualClockTest, AdvanceWakesAllSleepers) {
  ManualClock clock;
  std::atomic<int> woke{0};
  std::vector<std::thread> sleepers;
  for (int i = 1; i <= 4; ++i) {
    sleepers.emplace_back([&, i] {
      clock.SleepUntil(i * kMillisecond);
      woke.fetch_add(1);
    });
  }
  clock.AdvanceTo(4 * kMillisecond);
  for (std::thread& t : sleepers) t.join();
  EXPECT_EQ(woke.load(), 4);
}

}  // namespace
}  // namespace schemble
