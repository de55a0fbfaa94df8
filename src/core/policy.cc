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

const SnapshotQuery& PlanWorkspace::SnapshotOf(
    const BufferedAssignment& assignment) const {
  SCHEMBLE_CHECK(assignment.snapshot >= 0 &&
                 static_cast<size_t>(assignment.snapshot) < buffer.size())
      << "plan references query " << assignment.query_id
      << " outside its snapshot";
  const SnapshotQuery& snap = buffer[static_cast<size_t>(assignment.snapshot)];
  SCHEMBLE_CHECK_EQ(snap.traced->query.id, assignment.query_id)
      << "plan entry's snapshot position holds another query";
  return snap;
}

void ServingPolicy::PlanOnView(const ServerView& /*view*/,
                               PlanWorkspace* ws) const {
  ws->output.assignments.clear();
  ws->output.overhead_us = 0;
}

}  // namespace schemble
