#ifndef SCHEMBLE_RUNTIME_MPMC_QUEUE_H_
#define SCHEMBLE_RUNTIME_MPMC_QUEUE_H_

#include <algorithm>
#include <cstddef>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/thread_annotations.h"

namespace schemble {

/// Bounded multi-producer/multi-consumer queue over a fixed ring buffer.
/// All blocking is condition-variable based (no spinning): producers block
/// while full, consumers block while empty. `Close` wakes every waiter;
/// after close, pushes fail and pops drain the remaining items before
/// reporting exhaustion. Safe for any number of concurrent producers and
/// consumers: every state transition happens under mu_, and the
/// thread-safety annotations make any future off-lock access a clang build
/// error.
template <typename T>
class MpmcQueue {
 public:
  /// `rank`/`name` place this queue's internal mutex in the global lock
  /// order (common/lock_order.h): scheduler-domain inboxes pass
  /// LockRank::kInbox, per-executor task queues LockRank::kExecutorQueue;
  /// standalone queues (tests, benches) keep the kLeaf default.
  explicit MpmcQueue(size_t capacity, LockRank rank = LockRank::kLeaf,
                     const char* name = "mpmc_queue.mu")
      : capacity_(capacity), mu_(rank, name), ring_(capacity) {
    SCHEMBLE_CHECK_GT(capacity, 0u);
  }

  MpmcQueue(const MpmcQueue&) = delete;
  MpmcQueue& operator=(const MpmcQueue&) = delete;

  /// Blocks until space frees up; returns false (dropping `value`) when the
  /// queue is closed before space is available.
  bool Push(T value) SCHEMBLE_EXCLUDES(mu_) {
    {
      MutexLock lock(&mu_);
      while (size_ == capacity_ && !closed_) not_full_.Wait(mu_);
      if (closed_) return false;
      PushLocked(std::move(value));
    }
    not_empty_.NotifyOne();
    return true;
  }

  /// Batched push: transfers all of `items` in order using one lock
  /// round-trip per capacity chunk (a batch no larger than the free space
  /// costs exactly one). Blocks while the ring is full, like Push; a batch
  /// larger than the whole capacity still completes in chunks. Returns the
  /// number of items actually pushed — items.size() unless the queue is
  /// closed mid-batch, which drops the remainder.
  size_t PushAll(std::span<const T> items) SCHEMBLE_EXCLUDES(mu_) {
    size_t pushed = 0;
    while (pushed < items.size()) {
      size_t chunk = 0;
      {
        MutexLock lock(&mu_);
        while (size_ == capacity_ && !closed_) not_full_.Wait(mu_);
        if (closed_) break;
        chunk = std::min(items.size() - pushed, capacity_ - size_);
        for (size_t i = 0; i < chunk; ++i) PushLocked(items[pushed + i]);
      }
      pushed += chunk;
      // A batch can satisfy several blocked consumers at once.
      not_empty_.NotifyAll();
    }
    return pushed;
  }

  /// Non-blocking batched push: transfers a prefix of `items` in order,
  /// bounded by the free space observed in one lock round-trip. Returns
  /// the number pushed — 0 when full or closed, items.size() when the
  /// whole batch fit. Its one caller is the own-queue guard in
  /// SchedulerDomain::PushRuns: a worker that planned never blocks on its
  /// own full queue, and keeps the remainder in its local run instead.
  size_t TryPushAll(std::span<const T> items) SCHEMBLE_EXCLUDES(mu_) {
    size_t pushed = 0;
    {
      MutexLock lock(&mu_);
      if (closed_) return 0;
      pushed = std::min(items.size(), capacity_ - size_);
      for (size_t i = 0; i < pushed; ++i) PushLocked(items[i]);
    }
    // A batch can satisfy several blocked consumers at once.
    if (pushed > 0) not_empty_.NotifyAll();
    return pushed;
  }

  /// Non-blocking push; false when full or closed.
  bool TryPush(T value) SCHEMBLE_EXCLUDES(mu_) {
    {
      MutexLock lock(&mu_);
      if (closed_ || size_ == capacity_) return false;
      PushLocked(std::move(value));
    }
    not_empty_.NotifyOne();
    return true;
  }

  /// Blocks until an item arrives; nullopt once the queue is closed and
  /// drained (the consumer-side shutdown signal).
  std::optional<T> Pop() SCHEMBLE_EXCLUDES(mu_) {
    std::optional<T> value;
    {
      MutexLock lock(&mu_);
      while (size_ == 0 && !closed_) not_empty_.Wait(mu_);
      if (size_ == 0) return std::nullopt;
      value = PopLocked();
    }
    not_full_.NotifyOne();
    return value;
  }

  /// Blocking batch pop: waits until at least one item is available (or
  /// the queue closes), then drains up to `max_items` into `out`
  /// (appended) in one lock round-trip. Returns the number taken; 0 only
  /// once the queue is closed and fully drained.
  size_t PopN(std::vector<T>* out, size_t max_items) SCHEMBLE_EXCLUDES(mu_) {
    size_t taken = 0;
    {
      MutexLock lock(&mu_);
      while (size_ == 0 && !closed_) not_empty_.Wait(mu_);
      taken = std::min(max_items, size_);
      for (size_t i = 0; i < taken; ++i) out->push_back(PopLocked());
    }
    if (taken > 0) not_full_.NotifyAll();
    return taken;
  }

  /// Non-blocking batch pop: drains up to `max_items` into `out`
  /// (appended); returns the number taken, 0 when currently empty.
  size_t TryPopN(std::vector<T>* out, size_t max_items)
      SCHEMBLE_EXCLUDES(mu_) {
    size_t taken = 0;
    {
      MutexLock lock(&mu_);
      taken = std::min(max_items, size_);
      for (size_t i = 0; i < taken; ++i) out->push_back(PopLocked());
    }
    if (taken > 0) not_full_.NotifyAll();
    return taken;
  }

  /// Non-blocking pop; nullopt when currently empty.
  std::optional<T> TryPop() SCHEMBLE_EXCLUDES(mu_) {
    std::optional<T> value;
    {
      MutexLock lock(&mu_);
      if (size_ == 0) return std::nullopt;
      value = PopLocked();
    }
    not_full_.NotifyOne();
    return value;
  }

  /// Irreversibly stops accepting new items and wakes all blocked threads.
  void Close() SCHEMBLE_EXCLUDES(mu_) {
    {
      MutexLock lock(&mu_);
      closed_ = true;
    }
    not_empty_.NotifyAll();
    not_full_.NotifyAll();
  }

  /// Atomically closes the queue AND drains everything still buffered into
  /// `out` (appended), in FIFO order, in one critical section. The
  /// fail-stop primitive: a failing consumer takes ownership of its whole
  /// backlog with no window in which a concurrent producer could slip an
  /// item into a queue that will never be drained again (a Close();
  /// TryPopN() sequence would leave exactly that gap for a producer
  /// blocked in PushAll). Blocked producers wake and observe closed_,
  /// reporting their un-pushed remainder back to the caller, so every item
  /// is accounted for on exactly one side. Returns the number drained.
  size_t CloseAndDrain(std::vector<T>* out) SCHEMBLE_EXCLUDES(mu_) {
    size_t taken = 0;
    {
      MutexLock lock(&mu_);
      closed_ = true;
      taken = size_;
      for (size_t i = 0; i < taken; ++i) out->push_back(PopLocked());
    }
    not_empty_.NotifyAll();
    not_full_.NotifyAll();
    return taken;
  }

  size_t size() const SCHEMBLE_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return size_;
  }
  /// Immutable after construction; lock-free by design.
  size_t capacity() const { return capacity_; }
  bool closed() const SCHEMBLE_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return closed_;
  }

 private:
  void PushLocked(T value) SCHEMBLE_REQUIRES(mu_) {
    ring_[(head_ + size_) % capacity_] = std::move(value);
    ++size_;
  }
  T PopLocked() SCHEMBLE_REQUIRES(mu_) {
    T value = std::move(ring_[head_]);
    head_ = (head_ + 1) % capacity_;
    --size_;
    return value;
  }

  /// Stored outside the guarded state so capacity() needs no lock (the
  /// ring itself never resizes after construction).
  const size_t capacity_;

  /// Ranked kInbox or kExecutorQueue inside the runtime (see constructor);
  /// both positions order after the domain mutex, which the anchor
  /// annotation encodes for the static analysis.
  // ranked: constructor parameter (kInbox / kExecutorQueue / kLeaf)
  mutable Mutex mu_ SCHEMBLE_ACQUIRED_AFTER(lock_ranks::domain_anchor);
  CondVar not_empty_;
  CondVar not_full_;
  std::vector<T> ring_ SCHEMBLE_GUARDED_BY(mu_);
  size_t head_ SCHEMBLE_GUARDED_BY(mu_) = 0;
  size_t size_ SCHEMBLE_GUARDED_BY(mu_) = 0;
  bool closed_ SCHEMBLE_GUARDED_BY(mu_) = false;
};

}  // namespace schemble

#endif  // SCHEMBLE_RUNTIME_MPMC_QUEUE_H_
