#include "serving/placement.h"

#include <algorithm>

#include "common/hot_path.h"
#include "common/logging.h"

namespace schemble {
namespace {

/// Service time of `queued` tasks waiting on one executor of `model`.
SimTime BacklogServiceUs(const ServerView& view, int model, int64_t queued) {
  if (!view.batching()) return queued * view.model_exec_time[model];
  return view.model_batch[static_cast<size_t>(model)].BacklogUs(queued);
}

}  // namespace

SCHEMBLE_HOT void BeginProjection(const SyntheticTask& task,
                                  std::span<const BatchLatencyModel> batch,
                                  SimTime now, bool allow_rejection,
                                  ServerView* view) {
  const size_t models = static_cast<size_t>(task.num_models());
  view->now = now;
  view->allow_rejection = allow_rejection;
  // Capacities pin after the first call (fixed model and executor counts),
  // so a reused view projects without allocating.
  view->model_exec_time.resize(models);  // hot-ok: capacity pinned
  for (size_t k = 0; k < models; ++k) {
    view->model_exec_time[k] = task.profile(static_cast<int>(k)).latency_us;
  }
  view->model_available_at.assign(models, kSimTimeMax);  // hot-ok: pinned
  view->model_batch.assign(batch.begin(), batch.end());  // hot-ok: pinned
  if (batch.empty()) {
    view->model_queued.clear();
  } else {
    view->model_queued.assign(models, 0);  // hot-ok: capacity pinned
  }
  view->executors.clear();
}

SCHEMBLE_HOT void ProjectExecutor(int executor_id, const ExecutorLoad& load,
                                  ServerView* view) {
  if (!load.live) return;
  const SimTime available = std::max(load.busy_until, view->now) +
                            BacklogServiceUs(*view, load.model, load.queued);
  view->executors.push_back(  // hot-ok: bounded by the executor count
      {executor_id, load.model, available, static_cast<int>(load.queued)});
  SimTime& model_available = view->model_available_at[load.model];
  model_available = std::min(model_available, available);
  if (view->batching()) {
    view->model_queued[static_cast<size_t>(load.model)] +=
        static_cast<int>(load.queued);
  }
}

int PlaceTask(int model, ServerView* view) {
  // One pass finds the least available executor of the model and the
  // earliest availability among the others, which is all the refreshed
  // model_available_at needs.
  ExecutorView* best = nullptr;
  SimTime others = kSimTimeMax;
  for (ExecutorView& ex : view->executors) {
    if (ex.model_index != model) continue;
    if (best == nullptr || ex.available_at < best->available_at) {
      if (best != nullptr) others = std::min(others, best->available_at);
      best = &ex;
    } else {
      others = std::min(others, ex.available_at);
    }
  }
  SCHEMBLE_CHECK(best != nullptr)
      << "no live executor for model " << model
      << " (fault scenarios must keep >= 1 replica per model alive)";
  const int64_t queued = best->queue_length;
  best->available_at += BacklogServiceUs(*view, model, queued + 1) -
                        BacklogServiceUs(*view, model, queued);
  ++best->queue_length;
  if (view->batching()) ++view->model_queued[static_cast<size_t>(model)];
  view->model_available_at[model] = std::min(others, best->available_at);
  return best->executor_id;
}

}  // namespace schemble
