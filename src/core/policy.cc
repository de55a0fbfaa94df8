#include "core/policy.h"

#include <algorithm>

#include "common/logging.h"

namespace schemble {

SimTime ServerView::PlannedExecTime(int k) const {
  if (model_batch.empty()) return model_exec_time[k];
  const BatchLatencyModel& bm = model_batch[k];
  const int queued = model_queued.empty() ? 0 : model_queued[k];
  const int b = std::clamp(queued + 1, 1, bm.max_batch);
  return bm.ServiceUs(b) / b;
}

SimTime ServerView::EstimateCompletion(SubsetMask subset) const {
  SCHEMBLE_CHECK_NE(subset, 0u);
  SimTime completion = 0;
  for (int k = 0; k < num_models(); ++k) {
    if (!(subset & (SubsetMask{1} << k))) continue;
    const SimTime start = std::max(model_available_at[k], now);
    completion = std::max(completion, start + PlannedExecTime(k));
  }
  return completion;
}

const SnapshotQuery& PlanWorkspace::Find(int64_t query_id) const {
  for (const SnapshotQuery& snap : buffer) {
    if (snap.traced->query.id == query_id) return snap;
  }
  SCHEMBLE_CHECK(false) << "plan references query " << query_id
                        << " outside its snapshot";
  return buffer.front();
}

void ServingPolicy::PlanOnView(const ServerView& /*view*/,
                               PlanWorkspace* ws) const {
  ws->output.assignments.clear();
  ws->output.overhead_us = 0;
}

}  // namespace schemble
