#ifndef SCHEMBLE_CORE_SCHEMBLE_POLICY_H_
#define SCHEMBLE_CORE_SCHEMBLE_POLICY_H_

#include <atomic>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/discrepancy.h"
#include "core/discrepancy_predictor.h"
#include "core/policy.h"
#include "core/profiling.h"
#include "core/scheduler.h"

namespace schemble {

/// Where per-query difficulty comes from.
enum class ScoreSource {
  kPredictor,  // the trained discrepancy-prediction network (Schemble)
  kOracle,     // ground-truth scores from recorded outputs (Schemble*(Oracle))
  kConstant,   // one score for everything (Schemble(t) ablation)
};

/// Which scheduling algorithm drains the query buffer (Exp-4 ablations).
enum class BufferScheduler { kDp, kGreedyEdf, kGreedyFifo, kGreedySjf };

struct SchembleConfig {
  std::string name = "Schemble";
  ScoreSource score_source = ScoreSource::kPredictor;
  double constant_score = 0.5;
  BufferScheduler scheduler = BufferScheduler::kDp;
  DpScheduler::Options dp;
  /// Simulated scheduling throughput: DP transitions per microsecond. The
  /// resulting overhead delays dispatched tasks (Fig. 12/21's small-delta
  /// penalty).
  double scheduler_ops_per_us = 200.0;
  /// Ablation of the central query buffer (DESIGN.md decision 5): when
  /// false the policy commits a subset immediately at arrival, like the
  /// selection-only baselines, instead of deferring to the scheduler.
  bool use_buffer = true;
};

/// The full Schemble serving policy (§IV): discrepancy-score prediction +
/// profiled utility rewards + DP task scheduling over the query buffer,
/// with the paper's fast path (all models idle -> assign directly, skipping
/// the scheduler).
class SchemblePolicy : public ServingPolicy {
 public:
  /// `predictor` is required for kPredictor, `scorer` for kOracle; both may
  /// otherwise be null. All referenced objects must outlive the policy.
  SchemblePolicy(const SyntheticTask& task, const AccuracyProfile& profile,
                 const DiscrepancyPredictor* predictor,
                 const DiscrepancyScorer* scorer, SchembleConfig config);

  std::string name() const override { return config_.name; }

  ArrivalDecision OnArrival(const TracedQuery& query,
                            const ServerView& view) override;

  std::unique_ptr<PolicyPlanState> CreatePlanState() const override;
  void PlanOnView(const ServerView& view, PlanWorkspace* ws) const override;

  SimTime ArrivalProcessingDelay() const override;

  /// The score this policy used for a query (tests/diagnostics); returns
  /// the constant when unseen. Only reflects scores computed by OnArrival;
  /// planning-path scores live in the caller's PlanWorkspace.
  double ScoreOf(int64_t query_id) const;

  /// Cumulative simulated scheduling overhead charged so far (across every
  /// planning caller).
  SimTime total_overhead_us() const {
    // relaxed-ok: telemetry read; callers want totals, not ordering
    return total_overhead_us_.load(std::memory_order_relaxed);
  }
  int64_t scheduler_runs() const {
    // relaxed-ok: telemetry read; callers want totals, not ordering
    return scheduler_runs_.load(std::memory_order_relaxed);
  }

 private:
  double ComputeScore(const Query& query);
  /// Scores `query` through `cache` without touching policy members; the
  /// concurrency-safe core both score paths share.
  double LookupScore(const Query& query,
                     std::unordered_map<int64_t, double>* cache) const;
  /// Highest-utility subset meeting `deadline` from an idle start.
  SubsetMask BestImmediateSubset(double score, SimTime deadline,
                                 const ServerView& view) const;

  const SyntheticTask* task_;
  const AccuracyProfile* profile_;
  const DiscrepancyPredictor* predictor_;
  const DiscrepancyScorer* scorer_;
  SchembleConfig config_;
  /// OnArrival's score memo. Guarded by the caller's serialization of
  /// OnArrival; PlanOnView never reads it (it has its own cache inside the
  /// PlanWorkspace so planning can run concurrently with arrivals).
  std::unordered_map<int64_t, double> score_cache_;
  /// Scheduling telemetry, advanced from const PlanOnView — atomics per
  /// the ServingPolicy planning contract.
  mutable std::atomic<SimTime> total_overhead_us_{0};
  mutable std::atomic<int64_t> scheduler_runs_{0};
};

}  // namespace schemble

#endif  // SCHEMBLE_CORE_SCHEMBLE_POLICY_H_
