// lint-path: src/runtime/fixture_timed_wait.cc
// lint-expect: timed-wait
// lint-expect: timed-wait
// lint-expect: timed-wait
// lint-expect: timed-wait
// lint-expect: timed-wait
// lint-expect: timed-wait
//
// Every way a runtime wait can outlive its virtual deadline: raw OS
// sleeps, CondVar waits whose duration skips RealDuration (a literal and
// a variable built without it), and threads whose lambda never sets exact
// timer slack or sets it only after other work. There is no marker escape.

namespace schemble {

struct TimedWaitFixture {
  void Pause() {
    std::this_thread::sleep_for(std::chrono::microseconds(1));  // fires
    std::this_thread::sleep_until(deadline_);  // fires
  }

  void Tick() {
    const auto tick = std::chrono::microseconds(period_us_);
    MutexLock lock(&mu_);
    cv_.WaitFor(mu_, std::chrono::microseconds(5));  // fires: literal
    cv_.WaitFor(mu_, tick);  // fires: not built by RealDuration
  }

  void Start() {
    threads_.emplace_back([this] { Tick(); });  // fires: no slack call
    std::thread late([this] {  // fires: slack is not the first statement
      Tick();
      SetExactTimerSlack();
    });
    late.join();
  }

  Mutex mu_{LockRank::kLeaf, "fixture.mu"};
  CondVar cv_;
  int64_t period_us_ = 10;
  std::chrono::steady_clock::time_point deadline_;
  std::vector<std::thread> threads_;
};

}  // namespace schemble
