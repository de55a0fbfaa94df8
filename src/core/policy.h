#ifndef SCHEMBLE_CORE_POLICY_H_
#define SCHEMBLE_CORE_POLICY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/profiling.h"
#include "models/model_profile.h"
#include "simcore/simulation.h"
#include "workload/trace.h"

namespace schemble {

/// State of one deployed executor (a model instance with its own task
/// queue) as exposed to policies. In the sharded concurrent runtime each
/// scheduler domain owns a disjoint slice of the deployment and builds
/// views over that slice only: `executor_id` is the index *within the
/// domain's slice* (dense, 0-based), not a server-global id, and the
/// executors of one view all belong to the same domain. The discrete-event
/// EnsembleServer is the degenerate single-domain case where the slice is
/// the whole deployment. Policies therefore plan against exactly the
/// executors their caller can dispatch to; other domains' replicas are
/// reachable only by routing a query there, never through a view.
struct ExecutorView {
  int executor_id = 0;
  int model_index = 0;
  /// Time at which a task enqueued now would start executing (== now when
  /// the executor is idle). Under batching the owner projects this with
  /// coalesced service time (BatchLatencyModel::BacklogUs), not the
  /// per-task sum.
  SimTime available_at = 0;
  int queue_length = 0;
};

/// Snapshot of the server (in the sharded runtime: of one scheduler
/// domain's slice — see ExecutorView) a policy decides against.
struct ServerView {
  SimTime now = 0;
  std::vector<ExecutorView> executors;
  /// Mean service time per base model (the scheduler's T_k).
  std::vector<SimTime> model_exec_time;
  /// Earliest availability per base model (min over its executors).
  std::vector<SimTime> model_available_at;
  /// Batch-aware composition, populated only when the owning runtime has
  /// ConcurrentServerOptions::batching on (empty otherwise, so callers that
  /// never batch — e.g. the discrete-event EnsembleServer — see identical
  /// views and produce bit-identical plans). `model_queued[k]` is the total
  /// backlog queued across model k's executors in this slice;
  /// `model_batch[k]` its calibrated batch latency curve.
  std::vector<int> model_queued;
  std::vector<BatchLatencyModel> model_batch;
  bool allow_rejection = true;

  int num_models() const { return static_cast<int>(model_exec_time.size()); }

  /// True when the view carries batch composition (see above).
  bool batching() const { return !model_batch.empty(); }

  /// Service time a planner should charge one task of model k: the plain
  /// per-task mean when batching is off; under batching, the amortized
  /// per-item cost of the batch this task would join (current backlog plus
  /// itself, capped at max_batch). At low load the backlog is empty, the
  /// projected batch is 1, and this equals model_exec_time[k] exactly.
  SimTime PlannedExecTime(int k) const;

  /// Estimated completion time of running `subset` starting now, using the
  /// least-loaded executor of each member model.
  SimTime EstimateCompletion(SubsetMask subset) const;
};

/// Immediate decision at query arrival.
struct ArrivalDecision {
  enum class Action {
    kAssign,  // enqueue `subset` tasks now
    kBuffer,  // hold in the central query buffer (Schemble)
    kReject,  // count as a deadline miss immediately
  };
  Action action = Action::kAssign;
  SubsetMask subset = 0;

  static ArrivalDecision Assign(SubsetMask subset) {
    return {Action::kAssign, subset};
  }
  static ArrivalDecision Buffer() { return {Action::kBuffer, 0}; }
  static ArrivalDecision Reject() { return {Action::kReject, 0}; }
};

/// A commitment produced while draining the buffer. `snapshot` is the
/// query's position in PlanWorkspace::buffer, so committing an assignment
/// is O(1); `query_id` must match that entry (checked at commit).
struct BufferedAssignment {
  int64_t query_id = 0;
  SubsetMask subset = 0;
  int snapshot = -1;
};

struct PolicyOutput {
  std::vector<BufferedAssignment> assignments;
  /// Simulated scheduling cost; the simulator delays the dispatched
  /// tasks' start by this much (how small delta values hurt in Fig.
  /// 12/21). The ConcurrentServer ignores it: it pays the real planning
  /// time instead.
  SimTime overhead_us = 0;
};

/// Opaque per-caller planning scratch. A policy that plans keeps ALL
/// mutable planning state (DP workspaces, score caches) behind this
/// interface instead of in policy members, so PlanOnView can run
/// concurrently with OnArrival. Each
/// planning context owns exactly one instance (via CreatePlanState) and
/// never uses it from two threads at once.
class PolicyPlanState {
 public:
  virtual ~PolicyPlanState() = default;
};

/// One buffered query as captured in a planning snapshot. `traced` points
/// into the caller's immutable QueryTrace; `index` (the trace position)
/// and `generation` are caller bookkeeping echoed back at commit time to
/// map plan entries to queries and, in the runtime, to detect queries
/// that were assigned or finalized while planning ran off-lock (policies
/// ignore both fields).
struct SnapshotQuery {
  const TracedQuery* traced = nullptr;
  int index = 0;
  uint64_t generation = 0;
};

/// Reusable snapshot-plus-plan workspace. The caller fills `buffer` (and
/// its own ServerView) — in the runtime inside a short critical section,
/// reusing vector capacity so steady-state snapshots allocate nothing —
/// then calls PlanOnView (in the runtime outside the lock), which writes
/// `output`. `state` holds the policy's scratch from CreatePlanState.
struct PlanWorkspace {
  std::vector<SnapshotQuery> buffer;
  PolicyOutput output;
  std::unique_ptr<PolicyPlanState> state;

  /// The snapshot entry `assignment` was planned for; CHECK-fails when
  /// its position is outside the snapshot or holds a different query.
  const SnapshotQuery& SnapshotOf(const BufferedAssignment& assignment) const;
};

/// Decision interface between the serving drivers and a selection/
/// scheduling strategy. The server owns queues, executors, aggregation and
/// metrics; policies only decide which tasks run where and when.
///
/// Thread-safety contract: OnArrival may touch unguarded mutable members
/// (score caches) and need NOT be thread-safe — callers serialize it. The
/// discrete-event EnsembleServer is single-threaded; the ConcurrentServer
/// serializes it under each scheduler domain's mutex. PlanOnView, the one
/// planning entry point of both servers, is const, keeps all its scratch
/// in the caller-owned PlanWorkspace, and MUST be safe to run
/// concurrently with OnArrival calls on the same policy object (any
/// counters it advances must be atomic). In the ConcurrentServer it may
/// run on any runtime thread (the admitter, a worker, the arrival pump that
/// runs the tail round), but never concurrently with another PlanOnView
/// call of the same domain: the domain's planner token serializes them,
/// and hands over under the domain mutex, so plain members written only
/// by PlanOnView are safe.
/// Objects a policy only reads (SyntheticTask, AccuracyProfile,
/// Aggregator, DiscrepancyPredictor) expose const, state-free read paths
/// that ARE safe to share across threads.
class ServingPolicy {
 public:
  virtual ~ServingPolicy() = default;

  virtual std::string name() const = 0;

  /// Decision for a newly arrived query.
  virtual ArrivalDecision OnArrival(const TracedQuery& query,
                                    const ServerView& view) = 0;

  /// Legacy serialized planning hook, not called by either server: both
  /// plan through PlanOnView. Kept only so existing overrides compile.
  virtual PolicyOutput OnIdle(
      const ServerView& /*view*/,
      const std::vector<const TracedQuery*>& /*buffer*/) {
    return {};
  }

  /// Legacy capability query, not called by either server: planning is
  /// always off-lock. Kept only so existing overrides compile.
  virtual bool SupportsOffLockPlanning() const { return false; }

  /// Creates the caller-owned scratch PlanOnView works against. Callers
  /// create one per planning context (one per runtime domain) and reuse
  /// it across calls. Policies
  /// that never buffer may return null.
  virtual std::unique_ptr<PolicyPlanState> CreatePlanState() const {
    return nullptr;
  }

  /// The one planning entry point of both servers, called when capacity
  /// frees up while the buffer is non-empty: reads `view` and
  /// `ws->buffer` (a snapshot of the central query buffer in arrival
  /// order), writes `ws->output`, and keeps every piece of mutable scratch
  /// inside `ws`. An empty output leaves the buffer untouched. The base
  /// implementation plans nothing.
  virtual void PlanOnView(const ServerView& view, PlanWorkspace* ws) const;

  /// Per-query latency charged before an arriving query becomes visible to
  /// OnArrival (the difficulty predictor's inference time in Schemble).
  virtual SimTime ArrivalProcessingDelay() const { return 0; }
};

}  // namespace schemble

#endif  // SCHEMBLE_CORE_POLICY_H_
