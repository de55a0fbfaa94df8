#ifndef SCHEMBLE_CORE_SCHEDULER_H_
#define SCHEMBLE_CORE_SCHEDULER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/small_vector.h"
#include "core/profiling.h"
#include "simcore/simulation.h"

namespace schemble {

/// Hard cap on ensemble size supported by the schedulers' inline load
/// vectors. 2^m subset enumeration makes larger ensembles impractical long
/// before this limit binds (m = 8 DP runs already take seconds); keeping
/// the inline capacity tight keeps the solution arena cache-resident.
inline constexpr int kMaxSchedulerModels = 8;

/// Per-model next-free times stored inline (no heap) inside DP solutions.
using LoadVector = SmallVector<SimTime, kMaxSchedulerModels>;

/// One buffered query as the scheduler sees it.
struct SchedulerQuery {
  int64_t id = 0;
  SimTime arrival = 0;
  SimTime deadline = 0;  // absolute
  /// Predicted discrepancy score (SJF ordering key).
  double predicted_score = 0.0;
  /// Reward of executing each model subset for this query, indexed by
  /// SubsetMask (size 2^m); utilities[0] must be 0.
  std::vector<double> utilities;
};

/// Scheduler-visible resource state.
struct SchedulerEnv {
  SimTime now = 0;
  /// Absolute time each base model's executor frees up (>= now when busy).
  std::vector<SimTime> model_available_at;
  /// Per-task service time of each base model.
  std::vector<SimTime> model_exec_time;

  int num_models() const {
    return static_cast<int>(model_available_at.size());
  }
};

/// Chosen subset per query, in execution (consistent) order. subset == 0
/// means the query is skipped/rejected.
struct ScheduleDecision {
  int64_t query_id = 0;
  SubsetMask subset = 0;
  /// Projected completion time under the plan (0 when skipped).
  SimTime completion = 0;
  /// Position of the query in the Schedule() input, so callers map a
  /// decision back to their own records without searching by id.
  int query_index = -1;
};

struct SchedulePlan {
  std::vector<ScheduleDecision> decisions;
  /// Sum of (unquantized) utilities of the scheduled subsets.
  double total_utility = 0.0;
};

/// Applies `subset` for one query on top of `avail` (per-model next-free
/// times, already clamped to >= now), mutating avail; returns the query's
/// completion time (the latest finishing task), or 0 for the empty subset.
SimTime ApplySubset(SubsetMask subset, const std::vector<SimTime>& exec_time,
                    std::vector<SimTime>& avail);

/// Fills work[mask] = total service time of `mask`'s models for every mask
/// in [0, 2^m). Incremental over masks (O(2^m) adds), shared by both
/// schedulers so the popcount-weighted sum is computed once per call.
void ComputeSubsetWork(const std::vector<SimTime>& exec_time,
                       std::vector<SimTime>& work);

/// The paper's Alg. 1: dynamic programming over (queries x quantized
/// utility) with per-cell Pareto pruning of model-load vectors, queries
/// processed in EDF order (Theorems 1-2 justify the consistent EDF order).
///
/// This is the optimized hot path: all DP solutions live in a reusable flat
/// workspace (load vectors inline via LoadVector, cells as fixed-size slot
/// blocks in one arena), each query's subset transitions iterate a
/// pre-filtered candidate list instead of all 2^m masks, and per-cell
/// min/max total-load bounds early-out most dominance scans. Steady-state
/// Schedule calls perform zero heap allocations in the DP transition loop
/// (see WorkspaceStats). ReferenceDpScheduler retains the seed algorithm;
/// in equivalence mode the optimized DP provably returns identical plans.
///
/// Not thread-safe: the workspace is per-instance; use one DpScheduler per
/// thread.
class DpScheduler {
 public:
  struct Options {
    /// Utility quantization step (delta). Smaller = closer to optimal but
    /// more work (Theorem 3: (1 - eps)-approximation with delta = eps/N).
    double delta = 0.01;
    /// Only the max_queries earliest-deadline buffered queries enter the
    /// DP; later ones are deferred to the next run (keeps bursts bounded).
    int max_queries = 24;
    /// Pareto-set cap per cell; overflow drops the largest total load.
    int max_solutions_per_cell = 8;
    /// When true, candidate pre-filtering only applies drops that provably
    /// cannot change the plan (deadline lower bounds), so Schedule returns
    /// bit-identical plans to ReferenceDpScheduler. The default also drops
    /// candidates whose proper subset has equal-or-higher utility, which
    /// preserves achievable utility but may pick a different tie.
    bool equivalence_mode = false;
  };

  /// Telemetry of the reusable scratch workspace. `grow_events` counts
  /// buffer-capacity growths since construction: steady-state Schedule
  /// calls (same or smaller instance shape) must not add any, which is the
  /// zero-allocation invariant the equivalence test asserts.
  struct WorkspaceStats {
    int64_t grow_events = 0;
    int64_t schedule_calls = 0;
  };

  DpScheduler() : options_(Options{}) {}
  explicit DpScheduler(Options options) : options_(options) {}

  /// Computes a near-optimal plan for the buffered queries. Queries may be
  /// passed in any order; the plan lists them in EDF order.
  SchedulePlan Schedule(std::span<const SchedulerQuery> queries,
                        const SchedulerEnv& env) const;
  /// Schedule into a caller-reused plan: steady-state calls reuse the
  /// capacity of plan->decisions instead of allocating a new plan.
  void ScheduleInto(std::span<const SchedulerQuery> queries,
                    const SchedulerEnv& env, SchedulePlan* plan) const;

  /// DP transitions examined by the last Schedule call (the overhead proxy
  /// charged into the serving timeline).
  int64_t last_ops() const { return last_ops_; }

  const Options& options() const { return options_; }
  const WorkspaceStats& workspace_stats() const { return ws_.stats; }

 private:
  /// One pre-filtered subset transition for the current query.
  struct Candidate {
    SubsetMask mask = 0;
    int du = 0;              // quantized utility gain
    double raw_utility = 0.0;
    SimTime work = 0;        // total service time of the mask
  };

  /// Reconstruction metadata of one DP solution. Kept out of the dominance
  /// scan path on purpose: scans read only the parallel total/load arrays.
  struct SlotMeta {
    int parent_u = -1;       // utility index in the previous stage
    int parent_sol = -1;     // solution index within that cell
    SubsetMask subset = 0;   // subset chosen for the stage's query
    SimTime completion = 0;
  };

  /// Pareto cell: a lazily activated block of max_solutions_per_cell + 1
  /// slots. Deliberately tiny (8 bytes) so a whole DP stage's cell table
  /// stays in a few cache lines.
  struct Cell {
    int begin = -1;          // slot index; -1 until first insertion
    int count = 0;
  };

  /// DP solutions live in structure-of-arrays flat storage, reused across
  /// Schedule calls: slot s holds its total load in slot_total[s], its m
  /// per-model loads at slot_load[s * m] (runtime stride) and its
  /// back-pointers in slot_meta[s]. Cells own lazily activated fixed-size
  /// slot blocks, so the transition loop performs no heap allocation once
  /// the buffers reach their high-water marks.
  struct Workspace {
    std::vector<SimTime> slot_total;
    std::vector<SimTime> slot_load;
    std::vector<SlotMeta> slot_meta;
    int slots_used = 0;
    std::vector<Cell> cells;
    int cells_used = 0;
    /// stage_begin[i] / stage_size[i]: cells of DP stage i (utility index
    /// u lives at cells[stage_begin[i] + u]).
    std::vector<int> stage_begin;
    std::vector<int> stage_size;
    std::vector<SimTime> mask_work;
    std::vector<Candidate> candidates;
    std::vector<const SchedulerQuery*> sorted;
    WorkspaceStats stats;
  };

  /// The DP specialized on the model count: the per-load loops get
  /// compile-time trip counts, which matters at this loop depth.
  template <int M>
  void ScheduleImpl(std::span<const SchedulerQuery> queries,
                    const SchedulerEnv& env, SchedulePlan* plan) const;
  /// Pareto insertion into cells[cell_index], fused into a single pass
  /// over the cell (dominance test, stable compaction and eviction
  /// bookkeeping). In equivalence mode the pass replicates the seed's
  /// insertion order exactly; otherwise it delegates to InsertSorted.
  /// `trial` points at the candidate's M loads.
  template <int M>
  void InsertPruned(int cell_index, const SimTime* trial, SimTime total,
                    SimTime completion, int parent_u, int parent_sol,
                    SubsetMask subset) const;
  /// Default-mode insertion keeping cell entries sorted by total load, so
  /// each side of the scan needs one directional dominance compare and
  /// eviction drops the (last) heaviest entry in O(1). Same Pareto set as
  /// the seed order; only tie-breaking may differ.
  template <int M>
  void InsertSorted(Cell& cell, const SimTime* trial, SimTime total,
                    SimTime completion, int parent_u, int parent_sol,
                    SubsetMask subset) const;
  void BuildCandidates(const SchedulerQuery& query, const SchedulerEnv& env,
                       const SimTime* init_avail, SubsetMask full) const;
  int ActivateCell(Cell& cell, int m) const;

  Options options_;
  /// Schedule() is const but reuses this scratch state across calls, so a
  /// DpScheduler instance must not be shared between threads (each
  /// SchemblePolicy owns one; the concurrent runtime serializes policy
  /// calls — see ServingPolicy's thread-safety contract).
  mutable int64_t last_ops_ = 0;
  mutable Workspace ws_;
};

/// Greedy baselines of Exp-4: fix an execution order, then give each query
/// the highest-reward subset that still meets its deadline.
class GreedyScheduler {
 public:
  enum class Order {
    kEdf,   // earliest deadline first
    kFifo,  // earliest arrival first
    kSjf,   // smallest predicted discrepancy score first
  };

  explicit GreedyScheduler(Order order) : order_(order) {}

  SchedulePlan Schedule(std::span<const SchedulerQuery> queries,
                        const SchedulerEnv& env) const;

  Order order() const { return order_; }

 private:
  Order order_;
};

}  // namespace schemble

#endif  // SCHEMBLE_CORE_SCHEDULER_H_
