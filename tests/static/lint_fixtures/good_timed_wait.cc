// lint-path: src/runtime/fixture_timed_wait_ok.cc
// lint-expect: none
//
// The approved timed-wait shapes: sleeps go through Clock, CondVar waits
// take a RealDuration (inline, or through a variable initialized from an
// expression that calls it, such as a floored tick), and every spawned
// thread sets exact timer slack as its first statement.

namespace schemble {

struct TimedWaitOkFixture {
  void Serve() { clock_->SleepUntil(when_); }

  void Tick() {
    const std::chrono::nanoseconds tick =
        std::max(RealDuration(period_, speedup_), kTickFloor);
    MutexLock lock(&mu_);
    cv_.WaitFor(mu_, tick);
    cv_.WaitFor(mu_, RealDuration(when_ - clock_->Now(), speedup_));
  }

  void Start() {
    threads_.emplace_back([this] {
      SetExactTimerSlack();
      Tick();
    });
    std::thread helper([this] {
      SetExactTimerSlack();
      Serve();
    });
    helper.join();
    for (std::thread& t : threads_) t.join();
  }

  Clock* clock_ = nullptr;
  Mutex mu_{LockRank::kLeaf, "fixture.mu"};
  CondVar cv_;
  SimTime period_ = 10;
  SimTime when_ = 0;
  double speedup_ = 1.0;
  std::vector<std::thread> threads_;
};

}  // namespace schemble
