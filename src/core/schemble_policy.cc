#include "core/schemble_policy.h"

#include <algorithm>
#include <span>

#include "common/logging.h"

namespace schemble {
namespace {

/// Schemble's planning scratch, one instance per planning caller, so the
/// concurrent runtime can solve the DP outside its domain mutex while
/// OnArrival keeps running against the policy's own members.
struct SchemblePlanState final : PolicyPlanState {
  explicit SchemblePlanState(const DpScheduler::Options& dp_options)
      : dp(dp_options) {}

  DpScheduler dp;
  /// Planning-path score memo (disjoint from the policy's OnArrival
  /// cache; scores are deterministic per query so the split cannot change
  /// decisions).
  std::unordered_map<int64_t, double> scores;
  /// Reused per plan: the scheduler's query slots (grown to the largest
  /// snapshot, never shrunk, so each slot keeps its utilities capacity),
  /// the plan, and the working availability.
  std::vector<SchedulerQuery> queries;
  SchedulePlan plan;
  SchedulerEnv env;
  std::vector<SimTime> avail;
  /// Per-model coalescing headroom for the batch-aware commit gate (empty
  /// when the view carries no batch composition).
  std::vector<int> batch_budget;
};

}  // namespace

SchemblePolicy::SchemblePolicy(const SyntheticTask& task,
                               const AccuracyProfile& profile,
                               const DiscrepancyPredictor* predictor,
                               const DiscrepancyScorer* scorer,
                               SchembleConfig config)
    : task_(&task),
      profile_(&profile),
      predictor_(predictor),
      scorer_(scorer),
      config_(std::move(config)) {
  if (config_.score_source == ScoreSource::kPredictor) {
    SCHEMBLE_CHECK(predictor_ != nullptr);
  }
  if (config_.score_source == ScoreSource::kOracle) {
    SCHEMBLE_CHECK(scorer_ != nullptr);
  }
}

std::unique_ptr<PolicyPlanState> SchemblePolicy::CreatePlanState() const {
  return std::make_unique<SchemblePlanState>(config_.dp);
}

double SchemblePolicy::LookupScore(
    const Query& query, std::unordered_map<int64_t, double>* cache) const {
  auto it = cache->find(query.id);
  if (it != cache->end()) return it->second;
  double score = config_.constant_score;
  switch (config_.score_source) {
    case ScoreSource::kPredictor:
      score = predictor_->Predict(query);
      break;
    case ScoreSource::kOracle:
      score = scorer_->Score(query);
      break;
    case ScoreSource::kConstant:
      break;
  }
  cache->emplace(query.id, score);
  return score;
}

double SchemblePolicy::ComputeScore(const Query& query) {
  return LookupScore(query, &score_cache_);
}

double SchemblePolicy::ScoreOf(int64_t query_id) const {
  auto it = score_cache_.find(query_id);
  return it == score_cache_.end() ? config_.constant_score : it->second;
}

SimTime SchemblePolicy::ArrivalProcessingDelay() const {
  if (config_.score_source == ScoreSource::kPredictor &&
      predictor_ != nullptr) {
    return predictor_->inference_latency_us();
  }
  return 0;
}

SubsetMask SchemblePolicy::BestImmediateSubset(double score, SimTime deadline,
                                               const ServerView& view) const {
  const std::vector<double>& utilities = profile_->UtilityRow(score);
  SubsetMask best = 0;
  double best_utility = -1.0;
  int best_size = -1;
  for (SubsetMask mask = 1; mask < utilities.size(); ++mask) {
    if (view.EstimateCompletion(mask) > deadline) continue;
    // Utility first; on ties prefer the larger subset — with idle capacity
    // the extra executions are free accuracy insurance (the paper's
    // light-traffic behaviour of running all three models).
    const int size = SubsetSize(mask);
    if (utilities[mask] > best_utility ||
        (utilities[mask] == best_utility && size > best_size)) {
      best = mask;
      best_utility = utilities[mask];
      best_size = size;
    }
  }
  return best;
}

ArrivalDecision SchemblePolicy::OnArrival(const TracedQuery& query,
                                          const ServerView& view) {
  const double score = ComputeScore(query.query);
  // Fast path (§VIII implementation notes): with every model idle there is
  // nothing to schedule against; assign the best feasible subset directly.
  bool all_idle = true;
  for (int k = 0; k < view.num_models(); ++k) {
    all_idle &= view.model_available_at[k] <= view.now;
  }
  if (all_idle || !config_.use_buffer) {
    const SubsetMask best = BestImmediateSubset(score, query.deadline, view);
    if (best != 0) return ArrivalDecision::Assign(best);
    if (view.allow_rejection) return ArrivalDecision::Reject();
    if (!config_.use_buffer) {
      // No buffer to fall back to: run the fastest model regardless.
      int fastest = 0;
      for (int k = 1; k < view.num_models(); ++k) {
        if (view.model_exec_time[k] < view.model_exec_time[fastest]) {
          fastest = k;
        }
      }
      return ArrivalDecision::Assign(SubsetMask{1} << fastest);
    }
    return ArrivalDecision::Buffer();
  }
  return ArrivalDecision::Buffer();
}

void SchemblePolicy::PlanOnView(const ServerView& view,
                                PlanWorkspace* ws) const {
  PolicyOutput& output = ws->output;
  output.assignments.clear();
  output.overhead_us = 0;
  if (ws->buffer.empty()) return;
  auto* state = static_cast<SchemblePlanState*>(ws->state.get());
  SCHEMBLE_CHECK(state != nullptr)
      << "PlanOnView needs a workspace state from CreatePlanState";

  // Slot i holds snapshot entry i, so a decision's query_index is also
  // its snapshot position.
  if (state->queries.size() < ws->buffer.size()) {
    state->queries.resize(ws->buffer.size());
  }
  const std::span<SchedulerQuery> queries =
      std::span(state->queries).first(ws->buffer.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    const TracedQuery* tq = ws->buffer[i].traced;
    SchedulerQuery& sq = queries[i];
    sq.id = tq->query.id;
    sq.arrival = tq->arrival_time;
    sq.deadline = tq->deadline;
    sq.predicted_score = LookupScore(tq->query, &state->scores);
    const std::vector<double>& row = profile_->UtilityRow(sq.predicted_score);
    sq.utilities.assign(row.begin(), row.end());
  }

  SchedulerEnv& env = state->env;
  env.now = view.now;
  env.model_available_at = view.model_available_at;
  env.model_exec_time = view.model_exec_time;
  if (view.batching()) {
    // Batch-aware planning: charge each model the amortized per-item cost
    // of the batch a new task would join, so the DP sees coalesced service
    // time instead of the per-task sum. Empty backlog gives a batch of 1
    // and the plain per-task time — low-load plans are unchanged.
    for (int k = 0; k < view.num_models(); ++k) {
      env.model_exec_time[k] = view.PlannedExecTime(k);
    }
  }

  SchedulePlan& plan = state->plan;
  // relaxed-ok: monotonic scheduler telemetry counter
  scheduler_runs_.fetch_add(1, std::memory_order_relaxed);
  switch (config_.scheduler) {
    case BufferScheduler::kDp:
      state->dp.ScheduleInto(queries, env, &plan);
      output.overhead_us = static_cast<SimTime>(
          static_cast<double>(state->dp.last_ops()) /
          config_.scheduler_ops_per_us);
      break;
    case BufferScheduler::kGreedyEdf:
      plan = GreedyScheduler(GreedyScheduler::Order::kEdf)
                 .Schedule(queries, env);
      break;
    case BufferScheduler::kGreedyFifo:
      plan = GreedyScheduler(GreedyScheduler::Order::kFifo)
                 .Schedule(queries, env);
      break;
    case BufferScheduler::kGreedySjf:
      plan = GreedyScheduler(GreedyScheduler::Order::kSjf)
                 .Schedule(queries, env);
      break;
  }
  // relaxed-ok: monotonic scheduler telemetry counter
  total_overhead_us_.fetch_add(output.overhead_us, std::memory_order_relaxed);

  // Commit plan entries, in plan (EDF) order, while idle capacity remains:
  // a query is dispatched when at least one of its models can start it now.
  // Everything else stays buffered so later arrivals can reshape the plan.
  std::vector<SimTime>& avail = state->avail;
  avail = env.model_available_at;
  for (SimTime& t : avail) t = std::max(t, view.now);
  // Under batching, idle capacity is not the only dispatch opportunity:
  // each executor can absorb up to one full batch of backlog that its
  // worker drains as a single coalesced execution. Budget the commit loop
  // with that headroom (sum over executors of max_batch - queued, per
  // model) so the planner fills coalescing windows under load. At low load
  // the backlog is zero, at most one batch window is open per replica, and
  // the extra commits just land on idle executors — p50 is unchanged.
  std::vector<int>& budget = state->batch_budget;
  budget.clear();
  if (view.batching()) {
    budget.assign(static_cast<size_t>(view.num_models()), 0);
    for (const ExecutorView& ex : view.executors) {
      const size_t k = static_cast<size_t>(ex.model_index);
      budget[k] +=
          std::max(0, view.model_batch[k].max_batch - ex.queue_length);
    }
  }
  bool any_idle = false;
  for (int k = 0; k < view.num_models(); ++k) {
    any_idle |= avail[k] <= view.now;
    any_idle |= !budget.empty() && budget[static_cast<size_t>(k)] > 0;
  }
  // Force-processing mode: a query the plan leaves unscheduled (deadline
  // infeasible) still has to run; fall back to the fastest single model.
  SubsetMask fallback = 0;
  if (!view.allow_rejection) {
    int fastest = 0;
    for (int k = 1; k < view.num_models(); ++k) {
      if (view.model_exec_time[k] < view.model_exec_time[fastest]) {
        fastest = k;
      }
    }
    fallback = SubsetMask{1} << fastest;
  }
  for (ScheduleDecision decision : plan.decisions) {
    if (!any_idle) break;
    if (decision.subset == 0) {
      if (fallback == 0) continue;
      decision.subset = fallback;
    }
    bool starts_now = false;
    for (int k = 0; k < view.num_models(); ++k) {
      if ((decision.subset & (SubsetMask{1} << k)) == 0) continue;
      if (avail[k] <= view.now ||
          (!budget.empty() && budget[static_cast<size_t>(k)] > 0)) {
        starts_now = true;
        break;
      }
    }
    if (!starts_now) continue;
    if (!budget.empty()) {
      for (int k = 0; k < view.num_models(); ++k) {
        if (decision.subset & (SubsetMask{1} << k)) {
          --budget[static_cast<size_t>(k)];
        }
      }
    }
    ApplySubset(decision.subset, env.model_exec_time, avail);
    output.assignments.push_back(
        {decision.query_id, decision.subset, decision.query_index});
    any_idle = false;
    for (int k = 0; k < view.num_models(); ++k) {
      any_idle |= avail[k] <= view.now;
      any_idle |= !budget.empty() && budget[static_cast<size_t>(k)] > 0;
    }
  }
}

}  // namespace schemble
