#include "core/scheduler.h"

#include "common/hot_path.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/logging.h"

// The DP transition loop calls InsertPruned once per examined transition;
// SCHEMBLE_ALWAYS_INLINE keeps the trial loads in registers across the call
// boundary.

namespace schemble {

SimTime ApplySubset(SubsetMask subset, const std::vector<SimTime>& exec_time,
                    std::vector<SimTime>& avail) {
  SimTime completion = 0;
  for (size_t k = 0; k < avail.size(); ++k) {
    if (subset & (SubsetMask{1} << k)) {
      avail[k] += exec_time[k];
      completion = std::max(completion, avail[k]);
    }
  }
  return completion;
}

void ComputeSubsetWork(const std::vector<SimTime>& exec_time,
                       std::vector<SimTime>& work) {
  const SubsetMask full = FullMask(static_cast<int>(exec_time.size()));
  work.assign(static_cast<size_t>(full) + 1, 0);
  for (SubsetMask mask = 1; mask <= full; ++mask) {
    const SubsetMask low = mask & (~mask + 1);
    work[mask] = work[mask ^ low] + exec_time[std::countr_zero(mask)];
  }
}

namespace {

LoadVector ClampedAvail(const SchedulerEnv& env) {
  LoadVector avail;
  avail.resize(env.num_models());
  for (int k = 0; k < avail.size(); ++k) {
    avail[k] = std::max(env.model_available_at[k], env.now);
  }
  return avail;
}

bool Before(const SchedulerQuery* a, const SchedulerQuery* b,
            GreedyScheduler::Order order) {
  switch (order) {
    case GreedyScheduler::Order::kEdf:
      if (a->deadline != b->deadline) return a->deadline < b->deadline;
      break;
    case GreedyScheduler::Order::kFifo:
      if (a->arrival != b->arrival) return a->arrival < b->arrival;
      break;
    case GreedyScheduler::Order::kSjf:
      if (a->predicted_score != b->predicted_score) {
        return a->predicted_score < b->predicted_score;
      }
      break;
  }
  return a->id < b->id;  // stable tiebreak
}

void SortQueriesInto(std::span<const SchedulerQuery> queries,
                     GreedyScheduler::Order order,
                     std::vector<const SchedulerQuery*>& sorted) {
  sorted.clear();
  sorted.reserve(queries.size());
  for (const auto& q : queries) sorted.push_back(&q);
  std::sort(sorted.begin(), sorted.end(),
            [order](const SchedulerQuery* a, const SchedulerQuery* b) {
              return Before(a, b, order);
            });
}

/// Grows `v` to hold at least `n` elements, counting capacity growths (the
/// zero-allocation invariant tracks these). Capacity is never released, so
/// steady-state calls stay within the high-water mark.
template <typename V>
void GrowTo(V& v, size_t n, DpScheduler::WorkspaceStats& stats) {
  if (v.size() >= n) return;
  if (v.capacity() < n) {
    ++stats.grow_events;
    v.reserve(std::max(n, v.capacity() * 2));
  }
  v.resize(n);
}

}  // namespace

SCHEMBLE_HOT int DpScheduler::ActivateCell(Cell& cell, int m) const {
  const int slots = options_.max_solutions_per_cell + 1;
  cell.begin = ws_.slots_used;
  const size_t new_used = static_cast<size_t>(ws_.slots_used) + slots;
  GrowTo(ws_.slot_total, new_used, ws_.stats);
  GrowTo(ws_.slot_meta, new_used, ws_.stats);
  GrowTo(ws_.slot_load, new_used * static_cast<size_t>(m), ws_.stats);
  ws_.slots_used = static_cast<int>(new_used);
  return cell.begin;
}

void DpScheduler::BuildCandidates(const SchedulerQuery& query,
                                  const SchedulerEnv& env,
                                  const SimTime* init_avail,
                                  SubsetMask full) const {
  std::vector<Candidate>& cand = ws_.candidates;
  cand.clear();
  // The empty subset (defer the query) is always a transition.
  cand.push_back(Candidate{});
  const double delta = options_.delta;
  for (SubsetMask mask = 1; mask <= full; ++mask) {
    // Loads only grow as the DP advances through queries, so a completion
    // bound computed from the initial availability is a true lower bound:
    // masks failing it would be skipped by every transition anyway.
    SimTime lower_bound = 0;
    SubsetMask bits = mask;
    while (bits != 0) {
      const int k = std::countr_zero(bits);
      bits &= bits - 1;
      lower_bound =
          std::max(lower_bound, init_avail[k] + env.model_exec_time[k]);
    }
    if (lower_bound > query.deadline) continue;
    Candidate c;
    c.mask = mask;
    c.raw_utility = query.utilities[mask];
    c.du = static_cast<int>(c.raw_utility / delta);
    c.work = ws_.mask_work[mask];
    cand.push_back(c);
  }
  if (options_.equivalence_mode) return;
  // Dominance filter on (work, utility): drop mask A when a proper subset
  // B of A has utility(B) >= utility(A). B's per-model load contribution is
  // component-wise <= A's from any DP state, so every plan using A maps to
  // a feasible plan using B with no less utility — the achievable optimum
  // is unchanged (only tie-breaking may differ; equivalence mode disables
  // this filter).
  size_t keep = 0;
  for (size_t a = 0; a < cand.size(); ++a) {
    bool dominated = false;
    for (size_t b = 0; b < cand.size() && !dominated; ++b) {
      if (b == a) continue;
      const bool proper_subset =
          (cand[b].mask & cand[a].mask) == cand[b].mask &&
          cand[b].mask != cand[a].mask;
      dominated = proper_subset && cand[b].raw_utility >= cand[a].raw_utility;
    }
    if (!dominated) cand[keep++] = cand[a];
  }
  cand.resize(keep);
}

template <int M>
SCHEMBLE_HOT void DpScheduler::InsertSorted(Cell& cell, const SimTime* trial,
                                            SimTime total, SimTime completion,
                                            int parent_u, int parent_sol,
                                            SubsetMask subset) const {
  // Cell entries stay sorted by total load (ascending). Componentwise
  // dominance implies total-load ordering, so entries with a smaller total
  // can only dominate the candidate and entries with a larger total can
  // only be dominated by it: one directional compare per entry instead of
  // two, and the heaviest entry (the eviction victim) is always last.
  //
  // O(1) rejection: a candidate strictly heavier than everything in a full
  // cell dominates no entry (dominance implies total <=), so the cell would
  // stay unchanged and the candidate — the unique heaviest entry — would be
  // the eviction victim. About a fifth of all insertions in a saturated DP
  // exit here without touching the load rows.
  if (cell.count == options_.max_solutions_per_cell &&
      total > ws_.slot_total[cell.begin + cell.count - 1]) {
    return;
  }
  int write = 0;
  int pos = -1;  // insertion position: first kept entry heavier than us
  if (cell.count > 0) {
    SimTime* totals = ws_.slot_total.data() + cell.begin;
    SimTime* loads = ws_.slot_load.data() + static_cast<size_t>(cell.begin) * M;
    SlotMeta* meta = ws_.slot_meta.data() + cell.begin;
    for (int s = 0; s < cell.count; ++s) {
      const SimTime t = totals[s];
      const SimTime* row = loads + static_cast<size_t>(s) * M;
      if (t <= total) {
        bool exist_le = true;  // row <= trial componentwise
        for (int k = 0; k < M; ++k) exist_le &= row[k] <= trial[k];
        // Safe to return mid-pass: a drop before this point would mean the
        // candidate dominates a cell entry while being dominated itself,
        // which transitivity forbids in a mutually non-dominated cell.
        if (exist_le) return;
        if (t == total) {
          bool cand_le = true;  // trial <= row componentwise
          for (int k = 0; k < M; ++k) cand_le &= trial[k] <= row[k];
          if (cand_le) continue;  // candidate dominates: drop
        }
      } else {
        bool cand_le = true;
        for (int k = 0; k < M; ++k) cand_le &= trial[k] <= row[k];
        if (cand_le) continue;  // candidate dominates: drop
        if (pos < 0) pos = write;
      }
      if (write != s) {
        totals[write] = t;
        meta[write] = meta[s];
        SimTime* dst = loads + static_cast<size_t>(write) * M;
        for (int k = 0; k < M; ++k) dst[k] = row[k];
      }
      ++write;
    }
  }
  if (cell.begin < 0) ActivateCell(cell, M);
  if (pos < 0) pos = write;
  if (write == options_.max_solutions_per_cell) {
    if (pos == write) {
      // The candidate itself is the heaviest entry: evict it unwritten.
      cell.count = write;
      return;
    }
    --write;  // evict the last (heaviest) kept entry in place
  }
  SimTime* totals = ws_.slot_total.data() + cell.begin;
  SimTime* loads = ws_.slot_load.data() + static_cast<size_t>(cell.begin) * M;
  SlotMeta* meta = ws_.slot_meta.data() + cell.begin;
  for (int s = write; s > pos; --s) {
    totals[s] = totals[s - 1];
    meta[s] = meta[s - 1];
    SimTime* dst = loads + static_cast<size_t>(s) * M;
    const SimTime* src = loads + static_cast<size_t>(s - 1) * M;
    for (int k = 0; k < M; ++k) dst[k] = src[k];
  }
  totals[pos] = total;
  SimTime* dst = loads + static_cast<size_t>(pos) * M;
  for (int k = 0; k < M; ++k) dst[k] = trial[k];
  SlotMeta& m = meta[pos];
  m.parent_u = parent_u;
  m.parent_sol = parent_sol;
  m.subset = subset;
  m.completion = completion;
  cell.count = write + 1;
}

template <int M>
SCHEMBLE_HOT SCHEMBLE_ALWAYS_INLINE void DpScheduler::InsertPruned(
    int cell_index, const SimTime* trial, SimTime total, SimTime completion,
    int parent_u, int parent_sol, SubsetMask subset) const {
  Cell& cell = ws_.cells[cell_index];
  if (!options_.equivalence_mode) {
    InsertSorted<M>(cell, trial, total, completion, parent_u, parent_sol,
                    subset);
    return;
  }
  // Single fused pass: dominance test, stable compaction and largest-total
  // tracking for the eviction policy. Fusing is exact: if some existing
  // entry dominates the candidate, then (cell entries being mutually
  // non-dominated) the candidate dominates no entry — transitivity would
  // otherwise make that existing entry dominate another — so no compaction
  // has happened by the time we return.
  int write = 0;
  int argmax = -1;       // first kept entry with the largest total load
  SimTime kept_max = -1;
  if (cell.count > 0) {
    SimTime* totals = ws_.slot_total.data() + cell.begin;
    SimTime* loads = ws_.slot_load.data() + static_cast<size_t>(cell.begin) * M;
    SlotMeta* meta = ws_.slot_meta.data() + cell.begin;
    for (int s = 0; s < cell.count; ++s) {
      const SimTime* row = loads + static_cast<size_t>(s) * M;
      // Branchless componentwise comparison in both directions: with M
      // known at compile time this is a short flag chain, cheaper than the
      // early-exit loop's unpredictable branches.
      bool exist_le = true;  // row <= trial componentwise
      bool cand_le = true;   // trial <= row componentwise
      for (int k = 0; k < M; ++k) {
        exist_le &= row[k] <= trial[k];
        cand_le &= trial[k] <= row[k];
      }
      if (exist_le) {
        SCHEMBLE_DCHECK(write == s);  // see fusing argument above
        return;                       // dominated: cell unchanged
      }
      if (cand_le) continue;  // candidate dominates: drop (stable)
      const SimTime t = totals[s];
      if (write != s) {
        totals[write] = t;
        meta[write] = meta[s];
        SimTime* dst = loads + static_cast<size_t>(write) * M;
        for (int k = 0; k < M; ++k) dst[k] = row[k];
      }
      if (t > kept_max) {
        kept_max = t;
        argmax = write;
      }
      ++write;
    }
  }
  if (cell.begin < 0) ActivateCell(cell, M);
  if (write == options_.max_solutions_per_cell) {
    // The cell is full: the reference algorithm appends, then drops the
    // first entry with the largest total load.
    if (total > kept_max) {
      // That largest entry is the candidate itself — skip the slot write.
      cell.count = write;
      return;
    }
    // Evict the kept argmax (on a total tie it precedes the candidate, so
    // it is the one the reference drops); shift the tail left one slot.
    SimTime* totals = ws_.slot_total.data() + cell.begin;
    SimTime* loads = ws_.slot_load.data() + static_cast<size_t>(cell.begin) * M;
    SlotMeta* meta = ws_.slot_meta.data() + cell.begin;
    for (int s = argmax + 1; s < write; ++s) {
      totals[s - 1] = totals[s];
      meta[s - 1] = meta[s];
      SimTime* dst = loads + static_cast<size_t>(s - 1) * M;
      const SimTime* src = loads + static_cast<size_t>(s) * M;
      for (int k = 0; k < M; ++k) dst[k] = src[k];
    }
    --write;
  }
  const int slot = cell.begin + write;
  ws_.slot_total[slot] = total;
  SimTime* dst = ws_.slot_load.data() + static_cast<size_t>(slot) * M;
  for (int k = 0; k < M; ++k) dst[k] = trial[k];
  SlotMeta& m = ws_.slot_meta[slot];
  m.parent_u = parent_u;
  m.parent_sol = parent_sol;
  m.subset = subset;
  m.completion = completion;
  cell.count = write + 1;
}

template <int M>
void DpScheduler::ScheduleImpl(std::span<const SchedulerQuery> queries,
                               const SchedulerEnv& env,
                               SchedulePlan* plan) const {
  const SubsetMask full = FullMask(M);

  SortQueriesInto(queries, GreedyScheduler::Order::kEdf, ws_.sorted);
  // Queries beyond the window are deferred (subset 0) this round; they stay
  // in the tail of ws_.sorted.
  const int n = std::min(static_cast<int>(ws_.sorted.size()),
                         options_.max_queries);
  const int num_deferred = static_cast<int>(ws_.sorted.size()) - n;

  // Quantized utilities; total quantized reward <= n / delta.
  const double delta = options_.delta;
  SCHEMBLE_CHECK_GT(delta, 0.0);
  const int max_u = static_cast<int>(std::ceil(n / delta)) + 1;
  const int max_du = static_cast<int>(1.0 / delta) + 1;

  ComputeSubsetWork(env.model_exec_time, ws_.mask_work);

  const LoadVector init_avail = ClampedAvail(env);
  SimTime init_total = 0;
  for (int k = 0; k < M; ++k) init_total += init_avail[k];

  // Reset the workspace (capacity is kept across calls).
  ws_.slots_used = 0;
  ws_.cells_used = 0;
  GrowTo(ws_.stage_begin, static_cast<size_t>(n) + 1, ws_.stats);
  GrowTo(ws_.stage_size, static_cast<size_t>(n) + 1, ws_.stats);

  // Stage 0: one cell holding the initial availability.
  ws_.stage_begin[0] = 0;
  ws_.stage_size[0] = 1;
  GrowTo(ws_.cells, 1, ws_.stats);
  ws_.cells[0] = Cell{};
  ws_.cells_used = 1;
  InsertPruned<M>(0, init_avail.data(), init_total, /*completion=*/0,
                  /*parent_u=*/-1, /*parent_sol=*/-1, /*subset=*/0);

  SimTime exec[M > 0 ? M : 1] = {};
  for (int k = 0; k < M; ++k) exec[k] = env.model_exec_time[k];

  int64_t ops = 0;          // accumulated in a register, flushed at the end
  int reachable_u = 0;      // highest utility index reached in the last stage
  for (int i = 0; i < n; ++i) {
    const SchedulerQuery& query = *ws_.sorted[i];
    SCHEMBLE_CHECK_EQ(query.utilities.size(), static_cast<size_t>(full) + 1);
    BuildCandidates(query, env, init_avail.data(), full);
    const int prev_reachable = reachable_u;
    const int stage_max_u = std::min(max_u, prev_reachable + max_du);

    const int next_begin = ws_.cells_used;
    GrowTo(ws_.cells, static_cast<size_t>(next_begin) + stage_max_u + 1,
           ws_.stats);
    for (int u = 0; u <= stage_max_u; ++u) {
      ws_.cells[next_begin + u] = Cell{};
    }
    ws_.cells_used = next_begin + stage_max_u + 1;
    ws_.stage_begin[i + 1] = next_begin;
    ws_.stage_size[i + 1] = stage_max_u + 1;

    const int cur_begin = ws_.stage_begin[i];
    const int u_limit = std::min(prev_reachable, ws_.stage_size[i] - 1);
    const Candidate* candidates = ws_.candidates.data();
    const int num_candidates = static_cast<int>(ws_.candidates.size());
    const SimTime deadline = query.deadline;
    for (int u = 0; u <= u_limit; ++u) {
      const Cell src = ws_.cells[cur_begin + u];
      for (int s = 0; s < src.count; ++s) {
        // Copy the source loads to the stack: InsertPruned may grow the
        // slot arrays when it activates a fresh cell, invalidating
        // pointers into them.
        SimTime src_avail[M > 0 ? M : 1] = {};
        SimTime src_finish[M > 0 ? M : 1] = {};  // avail + exec, per model
        {
          const SimTime* src_loads =
              ws_.slot_load.data() + static_cast<size_t>(src.begin + s) * M;
          for (int k = 0; k < M; ++k) {
            src_avail[k] = src_loads[k];
            src_finish[k] = src_loads[k] + exec[k];
          }
        }
        const SimTime src_total = ws_.slot_total[src.begin + s];
        for (int c = 0; c < num_candidates; ++c) {
          const Candidate& cand = candidates[c];
          ++ops;
          SimTime trial[M > 0 ? M : 1];
          SimTime total = src_total;
          SimTime completion = 0;
          int nu = u;
          if (cand.mask != 0) {
            // Completion needs only the touched models: reject before
            // materializing the trial loads.
            SubsetMask bits = cand.mask;
            while (bits != 0) {
              const int k = std::countr_zero(bits);
              bits &= bits - 1;
              if (src_finish[k] > completion) completion = src_finish[k];
            }
            if (completion > deadline) continue;
            for (int k = 0; k < M; ++k) trial[k] = src_avail[k];
            bits = cand.mask;
            while (bits != 0) {
              const int k = std::countr_zero(bits);
              bits &= bits - 1;
              trial[k] = src_finish[k];
            }
            total += cand.work;
            nu = u + cand.du;
          } else {
            for (int k = 0; k < M; ++k) trial[k] = src_avail[k];
          }
          if (nu > stage_max_u) nu = stage_max_u;
          InsertPruned<M>(next_begin + nu, trial, total, completion, u, s,
                          cand.mask);
          if (nu > reachable_u) reachable_u = nu;
        }
      }
    }
  }
  last_ops_ = ops;

  // Best non-empty cell in the final stage.
  const int last_begin = ws_.stage_begin[n];
  int best_u = -1;
  for (int u = ws_.stage_size[n] - 1; u >= 0; --u) {
    if (ws_.cells[last_begin + u].count > 0) {
      best_u = u;
      break;
    }
  }
  SCHEMBLE_CHECK_GE(best_u, 0);
  // Among solutions of the best cell prefer the lightest load.
  const Cell& best_cell = ws_.cells[last_begin + best_u];
  int best_sol = 0;
  SimTime best_load = kSimTimeMax;
  for (int s = 0; s < best_cell.count; ++s) {
    const SimTime load = ws_.slot_total[best_cell.begin + s];
    if (load < best_load) {
      best_load = load;
      best_sol = s;
    }
  }

  // Reconstruct decisions back to front.
  plan->decisions.resize(n + num_deferred);
  int u = best_u;
  int s = best_sol;
  for (int i = n; i >= 1; --i) {
    const Cell& cell = ws_.cells[ws_.stage_begin[i] + u];
    const SlotMeta& sol = ws_.slot_meta[cell.begin + s];
    const SchedulerQuery* query = ws_.sorted[i - 1];
    plan->decisions[i - 1] = {query->id, sol.subset, sol.completion,
                              static_cast<int>(query - queries.data())};
    if (sol.subset != 0) {
      plan->total_utility += query->utilities[sol.subset];
    }
    u = sol.parent_u;
    s = sol.parent_sol;
  }
  for (int d = 0; d < num_deferred; ++d) {
    const SchedulerQuery* query = ws_.sorted[n + d];
    plan->decisions[n + d] = {query->id, 0, 0,
                              static_cast<int>(query - queries.data())};
  }
}

SchedulePlan DpScheduler::Schedule(std::span<const SchedulerQuery> queries,
                                   const SchedulerEnv& env) const {
  SchedulePlan plan;
  ScheduleInto(queries, env, &plan);
  return plan;
}

void DpScheduler::ScheduleInto(std::span<const SchedulerQuery> queries,
                               const SchedulerEnv& env,
                               SchedulePlan* plan) const {
  last_ops_ = 0;
  ++ws_.stats.schedule_calls;
  plan->decisions.clear();
  plan->total_utility = 0.0;
  if (queries.empty()) return;
  const int m = env.num_models();
  SCHEMBLE_CHECK_GE(m, 0);
  SCHEMBLE_CHECK_LE(m, kMaxSchedulerModels);
  // Dispatch to the DP specialized on the model count (compile-time trip
  // counts for the per-load loops).
  switch (m) {
    case 0: return ScheduleImpl<0>(queries, env, plan);
    case 1: return ScheduleImpl<1>(queries, env, plan);
    case 2: return ScheduleImpl<2>(queries, env, plan);
    case 3: return ScheduleImpl<3>(queries, env, plan);
    case 4: return ScheduleImpl<4>(queries, env, plan);
    case 5: return ScheduleImpl<5>(queries, env, plan);
    case 6: return ScheduleImpl<6>(queries, env, plan);
    case 7: return ScheduleImpl<7>(queries, env, plan);
    default: return ScheduleImpl<8>(queries, env, plan);
  }
}

SchedulePlan GreedyScheduler::Schedule(
    std::span<const SchedulerQuery> queries, const SchedulerEnv& env) const {
  SchedulePlan plan;
  if (queries.empty()) return plan;
  const int m = env.num_models();
  const SubsetMask full = FullMask(m);
  std::vector<const SchedulerQuery*> sorted;
  SortQueriesInto(queries, order_, sorted);
  std::vector<SimTime> avail(env.model_available_at.size());
  for (size_t k = 0; k < avail.size(); ++k) {
    avail[k] = std::max(env.model_available_at[k], env.now);
  }
  // Per-mask total work, computed once per call (not per mask per query).
  std::vector<SimTime> mask_work;
  ComputeSubsetWork(env.model_exec_time, mask_work);

  for (const SchedulerQuery* query : sorted) {
    SCHEMBLE_CHECK_EQ(query->utilities.size(), static_cast<size_t>(full) + 1);
    SubsetMask best = 0;
    double best_utility = 0.0;
    SimTime best_work = kSimTimeMax;
    for (SubsetMask mask = 1; mask <= full; ++mask) {
      // Completion under `mask` read directly off avail — no trial copy.
      SimTime completion = 0;
      SubsetMask bits = mask;
      while (bits != 0) {
        const int k = std::countr_zero(bits);
        bits &= bits - 1;
        completion = std::max(completion, avail[k] + env.model_exec_time[k]);
      }
      if (completion > query->deadline) continue;
      const SimTime work = mask_work[mask];
      const double utility = query->utilities[mask];
      if (utility > best_utility ||
          (utility == best_utility && work < best_work)) {
        best = mask;
        best_utility = utility;
        best_work = work;
      }
    }
    SimTime completion = 0;
    if (best != 0) {
      completion = ApplySubset(best, env.model_exec_time, avail);
      plan.total_utility += best_utility;
    }
    plan.decisions.push_back({query->id, best, completion,
                              static_cast<int>(query - queries.data())});
  }
  return plan;
}

}  // namespace schemble
