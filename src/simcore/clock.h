#ifndef SCHEMBLE_SIMCORE_CLOCK_H_
#define SCHEMBLE_SIMCORE_CLOCK_H_

#include <chrono>

#include "common/thread_annotations.h"
#include "simcore/simulation.h"

namespace schemble {

/// Source of virtual time (SimTime microseconds) for components that must
/// run both under the deterministic discrete-event simulator and on real
/// hardware. The discrete-event `Simulation` keeps its own logical clock
/// (events never sleep); `Clock` serves the thread-based runtime, where
/// real threads block until a virtual instant passes.
///
/// Thread-safety contract: `Now` and `SleepUntil` may be called from any
/// thread concurrently.
class Clock {
 public:
  virtual ~Clock() = default;

  /// Current virtual time.
  virtual SimTime Now() const = 0;

  /// Blocks the calling thread until `Now() >= when`. Returns immediately
  /// when `when` is already in the past.
  virtual void SleepUntil(SimTime when) = 0;

  /// Blocks for `duration` of virtual time from now.
  void SleepFor(SimTime duration) { SleepUntil(Now() + duration); }
};

/// Real-clock duration of `virtual_us` at the given speedup, in whole
/// nanoseconds (truncated, never clamped up: a wait shorter than 1 ns real
/// is 0 and must not sleep). The one virtual-to-real conversion of every
/// timed wait in the runtime.
std::chrono::nanoseconds RealDuration(SimTime virtual_us, double speedup);

/// Sets the calling thread's timer slack to 1 ns (Linux; a no-op
/// elsewhere). The kernel's default 50 us slack lets every timed wait
/// overrun its deadline by up to 50 real us, which at speedup s is 50 * s
/// virtual us. Every runtime thread calls this first thing.
void SetExactTimerSlack();

/// Wall-clock time source backed by std::chrono::steady_clock. Virtual
/// time advances `speedup` microseconds per real microsecond elapsed since
/// construction, so a trace spanning 60 virtual seconds replays in 60/s
/// real seconds. speedup == 1 is real time. Now() counts elapsed real
/// nanoseconds, so each real ns advances virtual time by speedup / 1000 us:
/// at speedup 1e6 a 100 ns real interval reads as 100 virtual ms, not 0.
class SteadyClock final : public Clock {
 public:
  explicit SteadyClock(double speedup = 1.0);

  SimTime Now() const override;
  /// Sleeps on the OS timer for the remaining real nanoseconds; when the
  /// remainder rounds to 0 ns it re-reads the clock instead of sleeping.
  void SleepUntil(SimTime when) override;

  double speedup() const { return speedup_; }

 private:
  std::chrono::steady_clock::time_point epoch_;
  double speedup_;
};

/// Manually advanced clock for deterministic unit tests of blocking
/// runtime components: `SleepUntil` blocks on a condition variable until a
/// controlling thread calls `AdvanceTo`/`Advance` far enough.
class ManualClock final : public Clock {
 public:
  explicit ManualClock(SimTime start = 0) : now_(start) {}

  SimTime Now() const override;
  void SleepUntil(SimTime when) override;

  /// Moves time forward and wakes every sleeper whose deadline passed.
  /// Time never moves backwards (CHECK-enforced).
  void AdvanceTo(SimTime when);
  void Advance(SimTime delta);

 private:
  /// Rank kClock: Now() is called under a domain mutex when the runtime
  /// runs on simulated time, so the clock orders after every scheduler
  /// lock (and before done_mu_, which never wraps a clock read).
  mutable Mutex mu_ SCHEMBLE_ACQUIRED_AFTER(lock_ranks::executor_queue_anchor){
      LockRank::kClock, "manual_clock.mu"};
  CondVar cv_;
  SimTime now_ SCHEMBLE_GUARDED_BY(mu_) = 0;
};

}  // namespace schemble

#endif  // SCHEMBLE_SIMCORE_CLOCK_H_
