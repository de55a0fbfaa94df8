#include "simcore/clock.h"

#include <thread>

#if defined(__linux__)
#include <sys/prctl.h>
#endif

#include "common/logging.h"

namespace schemble {

std::chrono::nanoseconds RealDuration(SimTime virtual_us, double speedup) {
  return std::chrono::nanoseconds(
      static_cast<int64_t>(static_cast<double>(virtual_us) * 1e3 / speedup));
}

void SetExactTimerSlack() {
#if defined(__linux__)
  // 0 would restore the default slack; 1 ns is the smallest exact value.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
#endif
}

SteadyClock::SteadyClock(double speedup)
    : epoch_(std::chrono::steady_clock::now()), speedup_(speedup) {
  SCHEMBLE_CHECK_GT(speedup_, 0.0);
}

SimTime SteadyClock::Now() const {
  const auto elapsed = std::chrono::steady_clock::now() - epoch_;
  const auto ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count();
  return static_cast<SimTime>(static_cast<double>(ns) * 1e-3 * speedup_);
}

void SteadyClock::SleepUntil(SimTime when) {
  // Convert the virtual deadline back to a real instant and block on the
  // OS timer; no polling. The loop guards against early wakeups and the
  // double rounding. A remainder under 1 ns real (at speedup 1e8, any wait
  // under 100 virtual ms) re-reads the clock instead of paying a timer
  // sleep for nothing.
  while (true) {
    const SimTime now = Now();
    if (now >= when) return;
    const std::chrono::nanoseconds real = RealDuration(when - now, speedup_);
    if (real.count() > 0) std::this_thread::sleep_for(real);
  }
}

SimTime ManualClock::Now() const {
  MutexLock lock(&mu_);
  return now_;
}

void ManualClock::SleepUntil(SimTime when) {
  MutexLock lock(&mu_);
  while (now_ < when) cv_.Wait(mu_);
}

void ManualClock::AdvanceTo(SimTime when) {
  {
    MutexLock lock(&mu_);
    SCHEMBLE_CHECK_GE(when, now_);
    now_ = when;
  }
  cv_.NotifyAll();
}

void ManualClock::Advance(SimTime delta) {
  SCHEMBLE_CHECK_GE(delta, 0);
  {
    MutexLock lock(&mu_);
    now_ += delta;
  }
  cv_.NotifyAll();
}

}  // namespace schemble
