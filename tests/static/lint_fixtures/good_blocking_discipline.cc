// lint-path: src/runtime/fixture_blocking_ok.cc
// lint-expect: none
//
// The sanctioned patterns the blocking-under-lock rule must NOT flag:
// waiting on the mutex the scope itself holds (the CV pattern), blocking
// inside a guard's Release()/Acquire() window, a justified
// `// blocking-ok:` marker, and Try* variants (never block by contract).

namespace schemble {

class BlockingOkFixture {
 public:
  void WaitOnOwnMutex() {
    MutexLock lock(&mu_);
    while (!ready_) cv_.Wait(mu_);  // waits on the held mutex: allowed
  }

  void BlockInReleaseWindow() {
    MutexLock lock(&mu_);
    lock.Release();
    queue_.Push(1);  // off-lock: the guard is released here
    lock.Acquire();
  }

  void JustifiedBlocking() {
    MutexLock lock(&mu_);
    // blocking-ok: fixture-only justification for the marker escape
    queue_.Push(2);
  }

  void TryVariantsNeverBlock() SCHEMBLE_REQUIRES(mu_) {
    queue_.TryPush(3);
    queue_.TryPop();
    queue_.TryPopN(&drain_, 4);
  }

 private:
  Mutex mu_{LockRank::kLeaf, "fixture.mu"};
  CondVar cv_;
  MpmcQueue<int> queue_{8};
  std::vector<int> drain_;
  bool ready_ = false;
};

}  // namespace schemble
