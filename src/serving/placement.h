#ifndef SCHEMBLE_SERVING_PLACEMENT_H_
#define SCHEMBLE_SERVING_PLACEMENT_H_

#include <cstdint>
#include <span>

#include "core/policy.h"
#include "models/synthetic_task.h"

namespace schemble {

// Placement: which executor runs a committed task. One rule, shared by the
// discrete-event EnsembleServer and the runtime's SchedulerDomain, in three
// parts:
//
//   Projection  an executor is available at
//                 max(busy_until, now) + backlog(queued);
//               a model at the earliest of its executors.
//   Pricing     backlog(q) = q * latency_us, or the coalesced
//               BatchLatencyModel::BacklogUs(q) when the view carries batch
//               composition (ServerView::batching()).
//   Choice      PlaceTask picks the least available live executor of the
//               task's model (ties to the lowest executor id) and advances
//               its projection by the marginal backlog, so the next task
//               placed against the same view sees the load this one added.
//
// The same projected view is what policies decide against, so a policy's
// estimate and the placement that follows it never disagree.

/// One executor's load as its server tracks it.
struct ExecutorLoad {
  int model = 0;
  /// Fail-stopped executors are left out of the view and never chosen.
  bool live = true;
  /// End of the task in service; anything at or before `now` means idle.
  SimTime busy_until = 0;
  /// Tasks waiting in its queue, excluding the one in service.
  int64_t queued = 0;
};

/// Resets `view` to an empty projection at `now`: per-model service times
/// from `task`, every model unavailable until an executor is projected, and,
/// when `batch` holds one curve per model, the batch composition with
/// model_queued zeroed (empty `batch`: no batch fields). Reuses the view's
/// capacity.
void BeginProjection(const SyntheticTask& task,
                     std::span<const BatchLatencyModel> batch, SimTime now,
                     bool allow_rejection, ServerView* view);

/// Appends executor `executor_id` to `view` with its projected
/// availability and folds it into its model's model_available_at (and
/// model_queued under batching). Executors that are not live are skipped.
void ProjectExecutor(int executor_id, const ExecutorLoad& load,
                     ServerView* view);

/// Places one task of `model`: returns the executor_id of the model's least
/// available executor in `view` and advances that executor's projection
/// (available_at, queue_length) and the model's model_queued and
/// model_available_at. CHECK-fails when the model has no live executor.
int PlaceTask(int model, ServerView* view);

}  // namespace schemble

#endif  // SCHEMBLE_SERVING_PLACEMENT_H_
