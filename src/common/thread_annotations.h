#ifndef SCHEMBLE_COMMON_THREAD_ANNOTATIONS_H_
#define SCHEMBLE_COMMON_THREAD_ANNOTATIONS_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <source_location>
#include <thread>
#include <utility>

#include "common/lock_order.h"
#include "common/logging.h"

/// Clang thread-safety-analysis attribute macros plus the annotated lock
/// primitives every schemble component must use instead of naked
/// std::mutex / std::condition_variable (tools/lint.py enforces this; the
/// only exception is this header's own implementation).
///
/// Under clang the annotations turn lock-discipline violations — touching a
/// SCHEMBLE_GUARDED_BY member off-lock, calling a SCHEMBLE_REQUIRES
/// function without the capability, forgetting to release — into build
/// errors (-Werror=thread-safety in the static-analysis CI job). Under gcc
/// they compile away; the runtime owner-tracking CHECKs below and the TSan
/// CI job remain as the dynamic backstop.
///
/// Conventions (see DESIGN.md "Static analysis & lock discipline"):
///  - every mutex-protected member is declared SCHEMBLE_GUARDED_BY(mu_);
///  - private *Locked() helpers are declared SCHEMBLE_REQUIRES(mu_);
///  - functions that block on a queue or run completion work are declared
///    SCHEMBLE_EXCLUDES(mu_) so holding the lock across them is an error;
///  - SCHEMBLE_NO_THREAD_SAFETY_ANALYSIS must not appear outside this
///    header (lint-enforced: the analysis is meant to be satisfied, not
///    silenced).

#if defined(__clang__)
#define SCHEMBLE_THREAD_ANNOTATION__(x) __attribute__((x))
#else
#define SCHEMBLE_THREAD_ANNOTATION__(x)  // no-op outside clang
#endif

/// Declares a type as a lockable capability ("mutex" names the kind in
/// diagnostics).
#define SCHEMBLE_CAPABILITY(x) SCHEMBLE_THREAD_ANNOTATION__(capability(x))

/// Declares an RAII type whose lifetime acquires/releases a capability.
#define SCHEMBLE_SCOPED_CAPABILITY \
  SCHEMBLE_THREAD_ANNOTATION__(scoped_lockable)

/// Data member readable/writable only while holding `x`.
#define SCHEMBLE_GUARDED_BY(x) SCHEMBLE_THREAD_ANNOTATION__(guarded_by(x))

/// Pointer member whose *pointee* is guarded by `x`.
#define SCHEMBLE_PT_GUARDED_BY(x) \
  SCHEMBLE_THREAD_ANNOTATION__(pt_guarded_by(x))

/// Lock-ordering edges (deadlock detection).
#define SCHEMBLE_ACQUIRED_BEFORE(...) \
  SCHEMBLE_THREAD_ANNOTATION__(acquired_before(__VA_ARGS__))
#define SCHEMBLE_ACQUIRED_AFTER(...) \
  SCHEMBLE_THREAD_ANNOTATION__(acquired_after(__VA_ARGS__))

/// Caller must hold the capability (exclusively / shared) on entry.
#define SCHEMBLE_REQUIRES(...) \
  SCHEMBLE_THREAD_ANNOTATION__(requires_capability(__VA_ARGS__))
#define SCHEMBLE_REQUIRES_SHARED(...) \
  SCHEMBLE_THREAD_ANNOTATION__(requires_shared_capability(__VA_ARGS__))

/// Function acquires / releases the capability.
#define SCHEMBLE_ACQUIRE(...) \
  SCHEMBLE_THREAD_ANNOTATION__(acquire_capability(__VA_ARGS__))
#define SCHEMBLE_ACQUIRE_SHARED(...) \
  SCHEMBLE_THREAD_ANNOTATION__(acquire_shared_capability(__VA_ARGS__))
#define SCHEMBLE_RELEASE(...) \
  SCHEMBLE_THREAD_ANNOTATION__(release_capability(__VA_ARGS__))
#define SCHEMBLE_RELEASE_SHARED(...) \
  SCHEMBLE_THREAD_ANNOTATION__(release_shared_capability(__VA_ARGS__))

/// Caller must NOT hold the capability (the function blocks or re-acquires).
#define SCHEMBLE_EXCLUDES(...) \
  SCHEMBLE_THREAD_ANNOTATION__(locks_excluded(__VA_ARGS__))

/// Runtime assertion that the calling thread holds the capability; informs
/// the analysis without acquiring.
#define SCHEMBLE_ASSERT_CAPABILITY(x) \
  SCHEMBLE_THREAD_ANNOTATION__(assert_capability(x))

/// Function returns a reference to the named capability.
#define SCHEMBLE_RETURN_CAPABILITY(x) \
  SCHEMBLE_THREAD_ANNOTATION__(lock_returned(x))

/// Escape hatch for code the analysis cannot model. Must not appear outside
/// this header (lint-enforced).
#define SCHEMBLE_NO_THREAD_SAFETY_ANALYSIS \
  SCHEMBLE_THREAD_ANNOTATION__(no_thread_safety_analysis)

namespace schemble {

/// Annotated exclusive mutex over std::mutex.
///
/// Beyond the compile-time capability, it keeps the dynamic discipline the
/// PR-3 PolicyLock pioneered, now for every lock in the codebase:
///  - every Mutex is constructed with a mandatory LockRank and name
///    (common/lock_order.h): in checked builds every blocking Lock()
///    validates against the thread's held-lock stack and the global
///    lock-order graph BEFORE touching the underlying mutex, so the first
///    rank inversion CHECK-fails with both acquisition sites instead of
///    deadlocking;
///  - the owning thread id is tracked (release/acquire atomics), so
///    re-entrant Lock() and Unlock()-by-non-owner are CHECK failures in
///    every build type instead of undefined behaviour, and components can
///    turn "must (not) hold the lock here" comments into
///    HeldByCurrentThread() DCHECKs;
///  - optional contention statistics (acquisition count + total held time)
///    for locks worth reporting, e.g. the ConcurrentServer policy mutex in
///    bench_runtime. Stats collection costs two steady_clock reads per
///    critical section, so it is off by default.
class SCHEMBLE_CAPABILITY("mutex") Mutex {
 public:
  enum class StatsMode { kDisabled, kEnabled };

  /// Rank and name are mandatory: the rank places the lock in the global
  /// acquisition order (src/common/lock_order.h), the name appears in
  /// inversion reports and contention stats. Standalone locks with no
  /// runtime ordering relationship use LockRank::kLeaf.
  Mutex(LockRank rank, const char* name,
        StatsMode stats = StatsMode::kDisabled)
      : rank_(rank),
        name_(name),
        collect_stats_(stats == StatsMode::kEnabled) {}

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock(const std::source_location& loc =
                std::source_location::current()) SCHEMBLE_ACQUIRE() {
    SCHEMBLE_CHECK(!HeldByCurrentThread())
        << "re-entrant Mutex::Lock (std::mutex would deadlock or worse)";
#if SCHEMBLE_LOCK_ORDER_CHECKS
    // Before mu_.lock(): past that point an actual inversion is already a
    // deadlock and no post-acquire check would ever run.
    lock_order::ValidateBlockingAcquire(this, rank_, name_, loc);
#endif
    mu_.lock();
    MarkAcquired(loc);
  }

  void Unlock() SCHEMBLE_RELEASE() {
    SCHEMBLE_CHECK(HeldByCurrentThread())
        << "Mutex::Unlock by a thread that does not hold the lock";
    MarkReleased();
    mu_.unlock();
  }

  /// Documents (and dynamically checks) that the calling thread holds the
  /// lock, for paths where the analysis cannot see the acquisition.
  void AssertHeld() const SCHEMBLE_ASSERT_CAPABILITY(this) {
    SCHEMBLE_CHECK(HeldByCurrentThread());
  }

  /// True when the calling thread is inside the critical section. The
  /// negative form turns "must not hold the lock here" into a DCHECKable
  /// invariant (ConcurrentServer's off-lock completion contract).
  bool HeldByCurrentThread() const {
    return owner_.load(std::memory_order_acquire) ==
           std::this_thread::get_id();
  }

  /// Contention statistics; zeros unless constructed with kEnabled.
  struct Stats {
    int64_t acquisitions = 0;
    int64_t held_ns = 0;
  };
  Stats stats() const {
    // relaxed-ok: monotonic counters read for reporting only; the mutex
    // itself orders the writes that matter.
    return {acquisitions_.load(std::memory_order_relaxed),
            held_ns_.load(std::memory_order_relaxed)};
  }

  LockRank rank() const { return rank_; }
  const char* name() const { return name_; }

 private:
  friend class CondVar;

  /// Bookkeeping on lock acquisition/release. Also used by CondVar to
  /// suspend ownership for the duration of a wait (the underlying
  /// std::mutex is released inside std::condition_variable::wait), which
  /// is why the held-lock stack push/pop lives here: a waiting thread
  /// genuinely does not hold the lock, and the re-acquisition on wakeup
  /// re-joins the stack without re-validating (its rank edge was recorded
  /// by the original Lock).
  void MarkAcquired([[maybe_unused]] const std::source_location& loc) {
    owner_.store(std::this_thread::get_id(), std::memory_order_release);
#if SCHEMBLE_LOCK_ORDER_CHECKS
    lock_order::NoteAcquired(this, rank_, name_, loc);
#endif
    if (collect_stats_) {
      // relaxed-ok: stats counter; never synchronizes anything.
      acquisitions_.fetch_add(1, std::memory_order_relaxed);
      acquired_at_ = std::chrono::steady_clock::now();
    }
  }
  void MarkReleased() {
#if SCHEMBLE_LOCK_ORDER_CHECKS
    lock_order::NoteReleased(this);
#endif
    owner_.store(std::thread::id{}, std::memory_order_release);
    if (collect_stats_) {
      const auto held = std::chrono::steady_clock::now() - acquired_at_;
      held_ns_.fetch_add(
          std::chrono::duration_cast<std::chrono::nanoseconds>(held).count(),
          std::memory_order_relaxed);  // relaxed-ok: stats counter.
    }
  }

  const LockRank rank_;
  const char* const name_;
  std::mutex mu_;
  /// Thread currently inside the critical section (empty id: none).
  std::atomic<std::thread::id> owner_{};
  const bool collect_stats_ = false;
  std::atomic<int64_t> acquisitions_{0};
  std::atomic<int64_t> held_ns_{0};
  /// Written after acquiring and read before releasing, always by the
  /// owning thread, so no synchronization beyond the mutex is needed.
  std::chrono::steady_clock::time_point acquired_at_{};
};

/// RAII guard over Mutex, with explicit Release()/Acquire() for the
/// drop-the-lock-mid-scan pattern (ConcurrentServer::DeadlineLoop records
/// outcomes off-lock between deadline scans).
class SCHEMBLE_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu, const std::source_location& loc =
                                    std::source_location::current())
      SCHEMBLE_ACQUIRE(mu) : mu_(mu) {
    mu_->Lock(loc);
  }
  ~MutexLock() SCHEMBLE_RELEASE() {
    if (held_) mu_->Unlock();
  }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  /// Temporarily leaves the critical section; the guard must currently
  /// hold the lock. Destruction after Release() is a no-op.
  void Release() SCHEMBLE_RELEASE() {
    SCHEMBLE_CHECK(held_) << "MutexLock::Release without the lock held";
    held_ = false;
    mu_->Unlock();
  }

  /// Re-enters the critical section after Release().
  void Acquire(const std::source_location& loc =
                   std::source_location::current()) SCHEMBLE_ACQUIRE() {
    SCHEMBLE_CHECK(!held_) << "MutexLock::Acquire while already held";
    mu_->Lock(loc);
    held_ = true;
  }

 private:
  friend class CondVar;

  Mutex* mu_;
  bool held_ = true;
};

/// Condition variable bound to the annotated Mutex. All waits require the
/// capability; ownership tracking (and held-time accounting, when enabled)
/// is suspended for the duration of the underlying wait, matching the real
/// std::condition_variable semantics — wait predicates therefore must not
/// rely on Mutex::HeldByCurrentThread().
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(Mutex& mu, const std::source_location& loc =
                           std::source_location::current())
      SCHEMBLE_REQUIRES(mu) {
    auto lock = SuspendOwnership(mu);
    cv_.wait(lock);
    ResumeOwnership(mu, lock, loc);
  }

  template <typename Pred>
  void Wait(Mutex& mu, Pred pred,
            const std::source_location& loc = std::source_location::current())
      SCHEMBLE_REQUIRES(mu) {
    auto lock = SuspendOwnership(mu);
    cv_.wait(lock, std::move(pred));
    ResumeOwnership(mu, lock, loc);
  }

  /// Returns false on timeout (like std::condition_variable::wait_for).
  template <typename Rep, typename Period>
  bool WaitFor(Mutex& mu, std::chrono::duration<Rep, Period> timeout,
               const std::source_location& loc =
                   std::source_location::current()) SCHEMBLE_REQUIRES(mu) {
    auto lock = SuspendOwnership(mu);
    const std::cv_status status = cv_.wait_for(lock, timeout);
    ResumeOwnership(mu, lock, loc);
    return status == std::cv_status::no_timeout;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  /// Hands the already-held std::mutex to a unique_lock for the wait and
  /// pauses the annotated bookkeeping; the capability stays held from the
  /// analysis' point of view (REQUIRES on the callers).
  static std::unique_lock<std::mutex> SuspendOwnership(Mutex& mu) {
    SCHEMBLE_CHECK(mu.HeldByCurrentThread())
        << "CondVar wait requires the associated Mutex to be held";
    mu.MarkReleased();
    return std::unique_lock<std::mutex>(mu.mu_, std::adopt_lock);
  }
  static void ResumeOwnership(Mutex& mu, std::unique_lock<std::mutex>& lock,
                              const std::source_location& loc) {
    lock.release();  // the Mutex wrapper owns the lock again
    mu.MarkAcquired(loc);
  }

  std::condition_variable cv_;
};

/// Machine-readable encoding of the global rank table
/// (src/common/lock_order.h) for clang's acquired_before/after analysis:
/// one never-locked "anchor" mutex per rank, each declared
/// SCHEMBLE_ACQUIRED_AFTER the previous, forming the total order
/// server < domain < inbox < executor-queue < clock < done < leaf. Real
/// locks sandwich themselves into the chain by declaring
/// SCHEMBLE_ACQUIRED_AFTER(the anchor of the preceding rank) — see
/// SchedulerDomain::mu_, MpmcQueue::mu_, ConcurrentServer::done_mu_.
///
/// Clang's -Wthread-safety-beta enforcement of acquired_before/after is
/// intraprocedural, so cross-class inversions are caught by the runtime
/// validator (lock_order.h), not this chain; the chain keeps the table in
/// the one form the analysis CAN check (tests/static/
/// lock_order_violation.cc is the WILL_FAIL proof that it fires), and
/// tools/lint.py `lock-rank` cross-checks it against the enum and
/// DESIGN.md. The anchors are never locked at runtime; kLeaf terminates
/// the chain so utility/test locks have an explicit last position.
namespace lock_ranks {

inline Mutex server_anchor{LockRank::kServer, "rank.server"};
inline Mutex domain_anchor SCHEMBLE_ACQUIRED_AFTER(server_anchor){
    LockRank::kDomain, "rank.domain"};
inline Mutex inbox_anchor SCHEMBLE_ACQUIRED_AFTER(domain_anchor){
    LockRank::kInbox, "rank.inbox"};
inline Mutex executor_queue_anchor SCHEMBLE_ACQUIRED_AFTER(inbox_anchor){
    LockRank::kExecutorQueue, "rank.executor_queue"};
inline Mutex clock_anchor SCHEMBLE_ACQUIRED_AFTER(executor_queue_anchor){
    LockRank::kClock, "rank.clock"};
inline Mutex done_anchor SCHEMBLE_ACQUIRED_AFTER(clock_anchor){
    LockRank::kDone, "rank.done"};
inline Mutex leaf_anchor SCHEMBLE_ACQUIRED_AFTER(done_anchor){
    LockRank::kLeaf, "rank.leaf"};

}  // namespace lock_ranks

/// Test-only escapes for the lock-discipline death tests: they deliberately
/// violate the discipline (re-entrant Lock, Unlock without holding) so the
/// runtime CHECKs can be exercised. The static analysis would — correctly —
/// reject those call sites at compile time, hence the suppression, which is
/// permitted only inside this header (tools/lint.py `ts-suppression`).
namespace thread_annotations_internal {

inline void LockIgnoringAnalysis(Mutex& mu)
    SCHEMBLE_NO_THREAD_SAFETY_ANALYSIS {
  mu.Lock();
}

inline void UnlockIgnoringAnalysis(Mutex& mu)
    SCHEMBLE_NO_THREAD_SAFETY_ANALYSIS {
  mu.Unlock();
}

}  // namespace thread_annotations_internal

}  // namespace schemble

#endif  // SCHEMBLE_COMMON_THREAD_ANNOTATIONS_H_
