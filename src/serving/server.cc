#include "serving/server.h"

#include <utility>

#include "common/logging.h"
#include "serving/completion.h"
#include "serving/placement.h"

namespace schemble {

EnsembleServer::EnsembleServer(const SyntheticTask& task,
                               ServingPolicy* policy, ServerOptions options)
    : task_(&task),
      policy_(policy),
      options_(std::move(options)),
      rng_(HashSeed("server", options_.seed)) {
  SCHEMBLE_CHECK(policy_ != nullptr);
  if (options_.executor_models.empty()) {
    for (int k = 0; k < task_->num_models(); ++k) {
      options_.executor_models.push_back(k);
    }
  }
  for (int model : options_.executor_models) {
    SCHEMBLE_CHECK_GE(model, 0);
    SCHEMBLE_CHECK_LT(model, task_->num_models());
    Executor e;
    e.model = model;
    executors_.push_back(e);
  }
}

SimTime EnsembleServer::DrawServiceTime(int model) {
  const ModelProfile& profile = task_->profile(model);
  return static_cast<SimTime>(static_cast<double>(profile.latency_us) *
                              profile.DrawServiceFactor(rng_));
}

bool EnsembleServer::AnyExecutorIdle() const {
  for (const Executor& e : executors_) {
    if (!e.busy && e.queue.empty()) return true;
  }
  return false;
}

void EnsembleServer::BuildView() {
  BeginProjection(*task_, {}, sim_.now(), options_.allow_rejection, &view_);
  for (size_t e = 0; e < executors_.size(); ++e) {
    const Executor& ex = executors_[e];
    ProjectExecutor(static_cast<int>(e),
                    {ex.model, /*live=*/true, ex.busy ? ex.busy_until : 0,
                     static_cast<int64_t>(ex.queue.size())},
                    &view_);
  }
}

ServingMetrics EnsembleServer::Run(const QueryTrace& trace) {
  SCHEMBLE_CHECK(!ran_) << "EnsembleServer::Run is one-shot";
  ran_ = true;
  trace_ = &trace;
  lifecycle_.Reset(trace.items.size());
  metrics_ = ServingMetrics{};
  metrics_.latency_ms.Reserve(trace.items.size());
  plan_ws_.state = policy_->CreatePlanState();

  const SimTime processing_delay = policy_->ArrivalProcessingDelay();
  for (size_t i = 0; i < trace.items.size(); ++i) {
    const int index = static_cast<int>(i);
    sim_.ScheduleAt(trace.items[i].arrival_time + processing_delay,
                    [this, index] { HandleArrival(index); });
    if (options_.allow_rejection) {
      sim_.ScheduleAt(trace.items[i].deadline,
                      [this, index] { HandleDeadline(index); });
    }
  }
  sim_.Run();

  // Force mode: the buffer must have drained through completion events.
  SCHEMBLE_CHECK(lifecycle_.buffer().empty());
  for (size_t i = 0; i < trace.items.size(); ++i) {
    SCHEMBLE_CHECK(lifecycle_.phase(static_cast<int>(i)) ==
                   QueryPhase::kFinalized)
        << "query " << i << " unfinalized";
  }
  return metrics_;
}

void EnsembleServer::HandleArrival(int index) {
  const TracedQuery& tq = trace_->items[index];
  // Deadline expired during predictor delay.
  if (lifecycle_.phase(index) == QueryPhase::kFinalized) return;
  BuildView();
  const ArrivalDecision decision = policy_->OnArrival(tq, view_);
  switch (decision.action) {
    case ArrivalDecision::Action::kAssign:
      SCHEMBLE_CHECK_NE(decision.subset, 0u);
      Commit(index, decision.subset, 0);
      break;
    case ArrivalDecision::Action::kReject:
      Finalize(index, 0, sim_.now());
      break;
    case ArrivalDecision::Action::kBuffer:
      lifecycle_.Buffer(index);
      break;
  }
  if (!lifecycle_.buffer().empty() && AnyExecutorIdle()) DrainBuffer();
}

void EnsembleServer::Commit(int index, SubsetMask subset, SimTime overhead) {
  lifecycle_.Assign(index, subset);
  if (overhead > 0) {
    sim_.ScheduleAfter(overhead,
                       [this, index, subset] { EnqueueTasks(index, subset); });
  } else {
    EnqueueTasks(index, subset);
  }
}

void EnsembleServer::EnqueueTasks(int index, SubsetMask subset) {
  // Deadline passed while waiting.
  if (lifecycle_.phase(index) == QueryPhase::kFinalized) return;
  // Executors serve one model each, so one projection places every task
  // of the subset exactly as a fresh projection per task would.
  BuildView();
  for (int k = 0; k < task_->num_models(); ++k) {
    if (!(subset & (SubsetMask{1} << k))) continue;
    const int e = PlaceTask(k, &view_);
    executors_[e].queue.push_back(index);
    TryStart(e);
  }
}

void EnsembleServer::TryStart(int executor_id) {
  Executor& ex = executors_[executor_id];
  if (ex.busy || ex.queue.empty()) return;
  const int index = ex.queue.front();
  ex.queue.pop_front();
  ex.busy = true;
  const SimTime service = DrawServiceTime(ex.model);
  ex.busy_until = sim_.now() + service;
  sim_.ScheduleAt(ex.busy_until, [this, executor_id, index] {
    HandleCompletion(executor_id, index);
  });
}

void EnsembleServer::HandleCompletion(int executor_id, int index) {
  Executor& ex = executors_[executor_id];
  ex.busy = false;
  if (lifecycle_.phase(index) != QueryPhase::kFinalized &&
      lifecycle_.TaskDone(index, ex.model, sim_.now())) {
    Finalize(index, lifecycle_.state(index).done(), sim_.now());
  }
  TryStart(executor_id);
  if (!lifecycle_.buffer().empty() && AnyExecutorIdle()) DrainBuffer();
}

void EnsembleServer::HandleDeadline(int index) {
  if (lifecycle_.phase(index) == QueryPhase::kFinalized) return;
  // Partial results are served with whatever completed by the deadline; no
  // output at all is a miss.
  const auto [outputs, completion] =
      lifecycle_.DeadlineOutcome(index, sim_.now());
  Finalize(index, outputs, completion);
}

void EnsembleServer::DrainBuffer() {
  if (draining_) return;
  draining_ = true;
  BuildView();
  plan_ws_.buffer.clear();
  for (int index : lifecycle_.buffer()) {
    plan_ws_.buffer.push_back({&trace_->items[index], index, 0});
  }
  policy_->PlanOnView(view_, &plan_ws_);
  const PolicyOutput& output = plan_ws_.output;
  for (const BufferedAssignment& assignment : output.assignments) {
    SCHEMBLE_CHECK_NE(assignment.subset, 0u);
    Commit(plan_ws_.SnapshotOf(assignment).index, assignment.subset,
           output.overhead_us);
  }
  draining_ = false;
}

void EnsembleServer::Finalize(int index, SubsetMask outputs,
                              SimTime completion) {
  const TracedQuery& tq = trace_->items[index];
  const bool first = lifecycle_.Finalize(index);
  SCHEMBLE_CHECK(first) << "query " << index << " finalized twice";

  const QueryOutcome outcome =
      EvaluateCompletion(*task_, options_.aggregator, tq, outputs, completion,
                         options_.allow_rejection, &completion_ws_);
  RecordOutcome(outcome, tq, options_.segment_duration, &metrics_);
}

}  // namespace schemble
