#ifndef SCHEMBLE_SERVING_QUERY_LIFECYCLE_H_
#define SCHEMBLE_SERVING_QUERY_LIFECYCLE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "core/profiling.h"
#include "simcore/simulation.h"

namespace schemble {

/// Where one query stands in the serving node that tracks it.
enum class QueryPhase : uint8_t {
  /// Not admitted here: before its arrival, or (runtime only) released to
  /// be admitted again after a fail-stop requeue.
  kPending,
  /// Admitted and waiting in the arrival-ordered buffer for a subset.
  kBuffered,
  /// A subset was committed; one task per model runs or waits to run.
  kAssigned,
  /// Served or missed. Terminal.
  kFinalized,
};

/// The per-query state machine of the paper's serving loop, shared by the
/// discrete-event EnsembleServer and the runtime's SchedulerDomain. It owns
/// every query's state and the buffer of admitted, unassigned queries in
/// arrival order; the transitions below are the only writers, and each
/// CHECKs its source phase:
///
///   Buffer    Pending            -> Buffered
///   Assign    Pending | Buffered -> Assigned   (unbuffers, bumps generation)
///   TaskDone  Assigned           -> Assigned   (returns "all tasks done")
///   Finalize  any                -> Finalized  (false if already finalized;
///                                               unbuffers, bumps generation)
///   Release   Assigned           -> Pending    (clears both masks, bumps
///                                               generation; runtime only)
///
/// The generation lets the runtime tell stale plan entries and tasks from
/// live ones; the simulator never reads it. Not thread-safe: the runtime
/// guards its instance with the domain mutex.
class QueryLifecycle {
 public:
  struct QueryState {
    QueryPhase phase() const { return phase_; }
    SubsetMask assigned() const { return assigned_; }
    SubsetMask done() const { return done_; }
    SimTime last_done_time() const { return last_done_time_; }
    uint64_t generation() const { return generation_; }

   private:
    friend class QueryLifecycle;
    QueryPhase phase_ = QueryPhase::kPending;
    SubsetMask assigned_ = 0;
    SubsetMask done_ = 0;
    SimTime last_done_time_ = 0;
    uint64_t generation_ = 0;
  };

  /// Every query of an `n`-query trace back to kPending, buffer empty.
  void Reset(size_t n) {
    states_.assign(n, QueryState{});
    buffer_.clear();
  }

  const QueryState& state(int index) const {
    return states_[static_cast<size_t>(index)];
  }
  QueryPhase phase(int index) const { return state(index).phase_; }
  /// Buffered query indices in arrival order.
  const std::vector<int>& buffer() const { return buffer_; }

  void Buffer(int index) {
    QueryState& s = At(index);
    SCHEMBLE_CHECK(s.phase_ == QueryPhase::kPending)
        << "Buffer: query " << index << " is not pending";
    s.phase_ = QueryPhase::kBuffered;
    buffer_.push_back(index);
  }

  void Assign(int index, SubsetMask subset) {
    QueryState& s = At(index);
    SCHEMBLE_CHECK(s.phase_ == QueryPhase::kPending ||
                   s.phase_ == QueryPhase::kBuffered)
        << "Assign: query " << index << " is assigned or finalized";
    SCHEMBLE_CHECK_NE(subset, 0u);
    Unbuffer(index, &s);
    s.phase_ = QueryPhase::kAssigned;
    s.assigned_ = subset;
    ++s.generation_;
  }

  /// Folds the completed task of `model` in at `now`; true when every
  /// model of the assigned subset is done.
  bool TaskDone(int index, int model, SimTime now) {
    QueryState& s = At(index);
    SCHEMBLE_CHECK(s.phase_ == QueryPhase::kAssigned)
        << "TaskDone: query " << index << " is not assigned";
    s.done_ |= SubsetMask{1} << model;
    s.last_done_time_ = now;
    return s.done_ == s.assigned_;
  }

  bool Finalize(int index) {
    QueryState& s = At(index);
    if (s.phase_ == QueryPhase::kFinalized) return false;
    Unbuffer(index, &s);
    s.phase_ = QueryPhase::kFinalized;
    ++s.generation_;
    return true;
  }

  /// Hands an assigned query back for re-admission (a fail-stop requeue:
  /// only a task whose query is still assigned can be requeued).
  void Release(int index) {
    QueryState& s = At(index);
    SCHEMBLE_CHECK(s.phase_ == QueryPhase::kAssigned)
        << "Release: query " << index << " is not assigned";
    s.phase_ = QueryPhase::kPending;
    s.assigned_ = 0;
    s.done_ = 0;
    ++s.generation_;
  }

  /// What a deadline serves: the outputs done so far with the time the
  /// last of them finished, or nothing at `now`.
  std::pair<SubsetMask, SimTime> DeadlineOutcome(int index,
                                                 SimTime now) const {
    const QueryState& s = state(index);
    if (s.done_ == 0) return {0, now};
    return {s.done_, s.last_done_time_};
  }

 private:
  QueryState& At(int index) { return states_[static_cast<size_t>(index)]; }

  void Unbuffer(int index, QueryState* s) {
    if (s->phase_ != QueryPhase::kBuffered) return;
    buffer_.erase(std::find(buffer_.begin(), buffer_.end(), index));
  }

  std::vector<QueryState> states_;
  std::vector<int> buffer_;
};

}  // namespace schemble

#endif  // SCHEMBLE_SERVING_QUERY_LIFECYCLE_H_
