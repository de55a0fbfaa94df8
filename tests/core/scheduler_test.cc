#include "core/scheduler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "common/rng.h"

namespace schemble {
namespace {

// ---------------------------------------------------------------------------
// Helpers: random instances and brute-force reference schedulers.
// ---------------------------------------------------------------------------

// Monotone utility row over subsets with diminishing marginal gains
// (assumption 1): U(mask) = 1 - prod_{k in mask} (1 - p_k).
std::vector<double> MonotoneUtilities(const std::vector<double>& p) {
  const int m = static_cast<int>(p.size());
  const SubsetMask full = FullMask(m);
  std::vector<double> row(full + 1, 0.0);
  for (SubsetMask mask = 1; mask <= full; ++mask) {
    double miss = 1.0;
    for (int k = 0; k < m; ++k) {
      if (mask & (SubsetMask{1} << k)) miss *= 1.0 - p[k];
    }
    row[mask] = 1.0 - miss;
  }
  return row;
}

SchedulerQuery MakeQuery(int64_t id, SimTime arrival, SimTime deadline,
                         std::vector<double> utilities, double score = 0.5) {
  SchedulerQuery q;
  q.id = id;
  q.arrival = arrival;
  q.deadline = deadline;
  q.predicted_score = score;
  q.utilities = std::move(utilities);
  return q;
}

// Exhaustive optimum over consistent-order schedules: all query
// permutations x all subset assignments.
double BruteForceConsistent(const std::vector<SchedulerQuery>& queries,
                            const SchedulerEnv& env) {
  const int n = static_cast<int>(queries.size());
  const SubsetMask full = FullMask(env.num_models());
  std::vector<int> order(n);
  for (int i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end());
  double best = 0.0;
  do {
    // Enumerate subset assignments in this order.
    std::vector<SubsetMask> assignment(n, 0);
    std::function<void(int, std::vector<SimTime>, double)> rec =
        [&](int idx, std::vector<SimTime> avail, double utility) {
          if (idx == n) {
            best = std::max(best, utility);
            return;
          }
          const SchedulerQuery& q = queries[order[idx]];
          for (SubsetMask mask = 0; mask <= full; ++mask) {
            std::vector<SimTime> next = avail;
            double u = utility;
            if (mask != 0) {
              const SimTime completion =
                  ApplySubset(mask, env.model_exec_time, next);
              if (completion > q.deadline) continue;
              u += q.utilities[mask];
            }
            rec(idx + 1, std::move(next), u);
          }
        };
    std::vector<SimTime> avail = env.model_available_at;
    for (SimTime& t : avail) t = std::max(t, env.now);
    rec(0, avail, 0.0);
  } while (std::next_permutation(order.begin(), order.end()));
  return best;
}

// Exhaustive optimum allowing *inconsistent* per-model execution orders:
// assign subsets, then try every per-model permutation of its tasks.
double BruteForceInconsistent(const std::vector<SchedulerQuery>& queries,
                              const SchedulerEnv& env) {
  const int n = static_cast<int>(queries.size());
  const int m = env.num_models();
  const SubsetMask full = FullMask(m);
  double best = 0.0;

  std::vector<SubsetMask> assignment(n, 0);
  std::function<void(int)> assign = [&](int idx) {
    if (idx < n) {
      for (SubsetMask mask = 0; mask <= full; ++mask) {
        assignment[idx] = mask;
        assign(idx + 1);
      }
      return;
    }
    // Tasks per model.
    std::vector<std::vector<int>> tasks(m);
    for (int i = 0; i < n; ++i) {
      for (int k = 0; k < m; ++k) {
        if (assignment[i] & (SubsetMask{1} << k)) tasks[k].push_back(i);
      }
    }
    // Enumerate per-model orders recursively.
    std::vector<std::vector<int>> orders(m);
    std::function<void(int)> order_rec = [&](int model) {
      if (model == m) {
        std::vector<SimTime> completion(n, 0);
        for (int k = 0; k < m; ++k) {
          SimTime t = std::max(env.model_available_at[k], env.now);
          for (int q : orders[k]) {
            t += env.model_exec_time[k];
            completion[q] = std::max(completion[q], t);
          }
        }
        double utility = 0.0;
        for (int i = 0; i < n; ++i) {
          if (assignment[i] == 0) continue;
          if (completion[i] <= queries[i].deadline) {
            utility += queries[i].utilities[assignment[i]];
          }
        }
        best = std::max(best, utility);
        return;
      }
      std::vector<int> perm = tasks[model];
      std::sort(perm.begin(), perm.end());
      do {
        orders[model] = perm;
        order_rec(model + 1);
      } while (std::next_permutation(perm.begin(), perm.end()));
    };
    order_rec(0);
  };
  assign(0);
  return best;
}

SchedulerEnv TwoModelEnv(SimTime now = 0) {
  SchedulerEnv env;
  env.now = now;
  env.model_available_at = {now, now};
  env.model_exec_time = {10, 20};
  return env;
}

// ---------------------------------------------------------------------------
// ApplySubset
// ---------------------------------------------------------------------------

TEST(ApplySubsetTest, UpdatesLoadsAndReturnsCompletion) {
  std::vector<SimTime> avail = {5, 7, 0};
  const std::vector<SimTime> exec = {10, 20, 30};
  const SimTime completion = ApplySubset(0b011, exec, avail);
  EXPECT_EQ(avail, (std::vector<SimTime>{15, 27, 0}));
  EXPECT_EQ(completion, 27);
}

TEST(ApplySubsetTest, EmptySubsetIsNoop) {
  std::vector<SimTime> avail = {5, 7};
  const std::vector<SimTime> exec = {10, 20};
  EXPECT_EQ(ApplySubset(0, exec, avail), 0);
  EXPECT_EQ(avail, (std::vector<SimTime>{5, 7}));
}

// ---------------------------------------------------------------------------
// DpScheduler basics
// ---------------------------------------------------------------------------

TEST(DpSchedulerTest, EmptyBufferEmptyPlan) {
  DpScheduler dp;
  const SchedulePlan plan = dp.Schedule({}, TwoModelEnv());
  EXPECT_TRUE(plan.decisions.empty());
  EXPECT_EQ(plan.total_utility, 0.0);
}

TEST(DpSchedulerTest, SingleQueryGetsFullEnsembleWhenFeasible) {
  DpScheduler dp;
  std::vector<SchedulerQuery> queries = {
      MakeQuery(1, 0, 100, MonotoneUtilities({0.7, 0.8}))};
  const SchedulePlan plan = dp.Schedule(queries, TwoModelEnv());
  ASSERT_EQ(plan.decisions.size(), 1u);
  EXPECT_EQ(plan.decisions[0].subset, 0b11u);
  EXPECT_NEAR(plan.total_utility, 1.0 - 0.3 * 0.2, 1e-9);
}

TEST(DpSchedulerTest, InfeasibleDeadlineIsSkipped) {
  DpScheduler dp;
  std::vector<SchedulerQuery> queries = {
      MakeQuery(1, 0, 5, MonotoneUtilities({0.7, 0.8}))};
  const SchedulePlan plan = dp.Schedule(queries, TwoModelEnv());
  ASSERT_EQ(plan.decisions.size(), 1u);
  EXPECT_EQ(plan.decisions[0].subset, 0u);
  EXPECT_EQ(plan.total_utility, 0.0);
}

TEST(DpSchedulerTest, TightDeadlineFallsBackToFastModel) {
  DpScheduler dp;
  // Only model 0 (exec 10) fits a deadline of 12.
  std::vector<SchedulerQuery> queries = {
      MakeQuery(1, 0, 12, MonotoneUtilities({0.7, 0.8}))};
  const SchedulePlan plan = dp.Schedule(queries, TwoModelEnv());
  EXPECT_EQ(plan.decisions[0].subset, 0b01u);
}

TEST(DpSchedulerTest, RespectsBusyModels) {
  DpScheduler dp;
  SchedulerEnv env = TwoModelEnv();
  env.model_available_at = {50, 0};  // model 0 busy until t=50
  std::vector<SchedulerQuery> queries = {
      MakeQuery(1, 0, 30, MonotoneUtilities({0.7, 0.8}))};
  const SchedulePlan plan = dp.Schedule(queries, env);
  // Model 0 cannot finish by 30; model 1 (exec 20) can.
  EXPECT_EQ(plan.decisions[0].subset, 0b10u);
}

TEST(DpSchedulerTest, SharesCapacityAcrossQueriesUnderPressure) {
  DpScheduler dp;
  // Two queries, deadline 25: both on both models is infeasible
  // (model1 twice = 40); splitting one per model maximizes utility.
  std::vector<SchedulerQuery> queries = {
      MakeQuery(1, 0, 25, MonotoneUtilities({0.6, 0.7})),
      MakeQuery(2, 0, 25, MonotoneUtilities({0.6, 0.7}))};
  const SchedulePlan plan = dp.Schedule(queries, TwoModelEnv());
  double utility = 0.0;
  for (const auto& d : plan.decisions) {
    EXPECT_NE(d.subset, 0u);
    utility += d.subset == 0b11 ? 0.88 : (d.subset == 0b10 ? 0.7 : 0.6);
  }
  // Best split: one query on model 0 (10), other on model 1 (20) -> 1.3;
  // or first query on both (20) + second on model 0 (20) -> 0.88+0.6=1.48.
  EXPECT_NEAR(plan.total_utility, 1.48, 0.02);
}

TEST(DpSchedulerTest, PlanListsQueriesInEdfOrder) {
  DpScheduler dp;
  std::vector<SchedulerQuery> queries = {
      MakeQuery(1, 0, 300, MonotoneUtilities({0.5, 0.5})),
      MakeQuery(2, 0, 100, MonotoneUtilities({0.5, 0.5})),
      MakeQuery(3, 0, 200, MonotoneUtilities({0.5, 0.5}))};
  const SchedulePlan plan = dp.Schedule(queries, TwoModelEnv());
  ASSERT_EQ(plan.decisions.size(), 3u);
  EXPECT_EQ(plan.decisions[0].query_id, 2);
  EXPECT_EQ(plan.decisions[1].query_id, 3);
  EXPECT_EQ(plan.decisions[2].query_id, 1);
}

TEST(DpSchedulerTest, DecisionsIndexTheirInputPosition) {
  DpScheduler::Options options;
  options.max_queries = 2;  // deferred decisions carry their index too
  std::vector<SchedulerQuery> queries;
  for (int i = 0; i < 5; ++i) {
    queries.push_back(MakeQuery(10 + i, 0, 500 - 50 * i,
                                MonotoneUtilities({0.5, 0.5})));
  }
  const SchedulePlan dp = DpScheduler(options).Schedule(queries, TwoModelEnv());
  const SchedulePlan greedy = GreedyScheduler(GreedyScheduler::Order::kEdf)
                                  .Schedule(queries, TwoModelEnv());
  for (const SchedulePlan* plan : {&dp, &greedy}) {
    ASSERT_EQ(plan->decisions.size(), queries.size());
    for (const ScheduleDecision& d : plan->decisions) {
      ASSERT_GE(d.query_index, 0);
      EXPECT_EQ(queries[static_cast<size_t>(d.query_index)].id, d.query_id);
    }
  }
}

TEST(DpSchedulerTest, ScheduleIntoReusesThePlan) {
  DpScheduler dp;
  std::vector<SchedulerQuery> queries;
  for (int i = 0; i < 6; ++i) {
    queries.push_back(
        MakeQuery(i, 0, 40 + 7 * i, MonotoneUtilities({0.6, 0.7})));
  }
  SchedulePlan plan;
  dp.ScheduleInto(queries, TwoModelEnv(), &plan);
  const ScheduleDecision* storage = plan.decisions.data();
  for (size_t n : {size_t{3}, size_t{6}, size_t{1}}) {
    const std::span<const SchedulerQuery> window =
        std::span(queries).first(n);
    dp.ScheduleInto(window, TwoModelEnv(), &plan);
    const SchedulePlan fresh = dp.Schedule(window, TwoModelEnv());
    EXPECT_EQ(plan.decisions.data(), storage) << "plan reallocated at " << n;
    ASSERT_EQ(plan.decisions.size(), fresh.decisions.size());
    for (size_t i = 0; i < fresh.decisions.size(); ++i) {
      EXPECT_EQ(plan.decisions[i].query_id, fresh.decisions[i].query_id);
      EXPECT_EQ(plan.decisions[i].subset, fresh.decisions[i].subset);
      EXPECT_EQ(plan.decisions[i].completion, fresh.decisions[i].completion);
    }
    EXPECT_EQ(plan.total_utility, fresh.total_utility);
  }
}

TEST(DpSchedulerTest, MaxQueriesWindowDefersTail) {
  DpScheduler::Options options;
  options.max_queries = 2;
  DpScheduler dp(options);
  std::vector<SchedulerQuery> queries;
  for (int i = 0; i < 5; ++i) {
    queries.push_back(
        MakeQuery(i, 0, 1000 + i, MonotoneUtilities({0.5, 0.5})));
  }
  const SchedulePlan plan = dp.Schedule(queries, TwoModelEnv());
  ASSERT_EQ(plan.decisions.size(), 5u);
  int scheduled = 0;
  for (const auto& d : plan.decisions) {
    if (d.subset != 0) ++scheduled;
  }
  EXPECT_LE(scheduled, 2);
}

TEST(DpSchedulerTest, OpsCounterPositiveAndGrowsWithDelta) {
  DpScheduler::Options coarse;
  coarse.delta = 0.1;
  DpScheduler::Options fine;
  fine.delta = 0.001;
  DpScheduler dp_coarse(coarse);
  DpScheduler dp_fine(fine);
  std::vector<SchedulerQuery> queries;
  for (int i = 0; i < 6; ++i) {
    queries.push_back(
        MakeQuery(i, 0, 40 + 7 * i, MonotoneUtilities({0.6, 0.7})));
  }
  dp_coarse.Schedule(queries, TwoModelEnv());
  dp_fine.Schedule(queries, TwoModelEnv());
  EXPECT_GT(dp_coarse.last_ops(), 0);
  EXPECT_GT(dp_fine.last_ops(), dp_coarse.last_ops());
}

TEST(DpSchedulerTest, DeterministicAcrossRuns) {
  DpScheduler dp;
  std::vector<SchedulerQuery> queries = {
      MakeQuery(1, 0, 35, MonotoneUtilities({0.6, 0.7})),
      MakeQuery(2, 5, 55, MonotoneUtilities({0.4, 0.9})),
      MakeQuery(3, 9, 45, MonotoneUtilities({0.8, 0.3}))};
  const SchedulePlan a = dp.Schedule(queries, TwoModelEnv());
  const SchedulePlan b = dp.Schedule(queries, TwoModelEnv());
  ASSERT_EQ(a.decisions.size(), b.decisions.size());
  for (size_t i = 0; i < a.decisions.size(); ++i) {
    EXPECT_EQ(a.decisions[i].subset, b.decisions[i].subset);
  }
  EXPECT_DOUBLE_EQ(a.total_utility, b.total_utility);
}

// ---------------------------------------------------------------------------
// GreedyScheduler
// ---------------------------------------------------------------------------

TEST(GreedySchedulerTest, PicksHighestUtilityFeasibleSubset) {
  GreedyScheduler greedy(GreedyScheduler::Order::kEdf);
  std::vector<SchedulerQuery> queries = {
      MakeQuery(1, 0, 100, MonotoneUtilities({0.7, 0.8}))};
  const SchedulePlan plan = greedy.Schedule(queries, TwoModelEnv());
  EXPECT_EQ(plan.decisions[0].subset, 0b11u);
}

TEST(GreedySchedulerTest, GreedyOverCommitsUnderPressure) {
  // The classic failure: greedy gives query 1 the full ensemble, leaving
  // nothing feasible for query 2; DP splits.
  std::vector<SchedulerQuery> queries = {
      MakeQuery(1, 0, 20, MonotoneUtilities({0.6, 0.7})),
      MakeQuery(2, 0, 20, MonotoneUtilities({0.6, 0.7}))};
  const SchedulePlan greedy =
      GreedyScheduler(GreedyScheduler::Order::kEdf)
          .Schedule(queries, TwoModelEnv());
  const SchedulePlan dp = DpScheduler().Schedule(queries, TwoModelEnv());
  EXPECT_GE(dp.total_utility, greedy.total_utility);
}

TEST(GreedySchedulerTest, FifoOrdersByArrival) {
  GreedyScheduler greedy(GreedyScheduler::Order::kFifo);
  std::vector<SchedulerQuery> queries = {
      MakeQuery(1, 50, 300, MonotoneUtilities({0.5, 0.5})),
      MakeQuery(2, 10, 400, MonotoneUtilities({0.5, 0.5}))};
  const SchedulePlan plan = greedy.Schedule(queries, TwoModelEnv());
  EXPECT_EQ(plan.decisions[0].query_id, 2);
}

TEST(GreedySchedulerTest, SjfOrdersByPredictedScore) {
  GreedyScheduler greedy(GreedyScheduler::Order::kSjf);
  std::vector<SchedulerQuery> queries = {
      MakeQuery(1, 0, 300, MonotoneUtilities({0.5, 0.5}), 0.9),
      MakeQuery(2, 0, 400, MonotoneUtilities({0.5, 0.5}), 0.1)};
  const SchedulePlan plan = greedy.Schedule(queries, TwoModelEnv());
  EXPECT_EQ(plan.decisions[0].query_id, 2);
}

TEST(GreedySchedulerTest, RejectsInfeasibleQuery) {
  GreedyScheduler greedy(GreedyScheduler::Order::kEdf);
  std::vector<SchedulerQuery> queries = {
      MakeQuery(1, 0, 2, MonotoneUtilities({0.5, 0.5}))};
  const SchedulePlan plan = greedy.Schedule(queries, TwoModelEnv());
  EXPECT_EQ(plan.decisions[0].subset, 0u);
}

// ---------------------------------------------------------------------------
// Theory: Theorems 1-3 as randomized property tests.
// ---------------------------------------------------------------------------

struct RandomInstance {
  std::vector<SchedulerQuery> queries;
  SchedulerEnv env;
};

RandomInstance MakeRandomInstance(Rng& rng, int n, int m) {
  RandomInstance inst;
  inst.env.now = 0;
  for (int k = 0; k < m; ++k) {
    inst.env.model_available_at.push_back(rng.UniformInt(0, 15));
    inst.env.model_exec_time.push_back(rng.UniformInt(5, 25));
  }
  for (int i = 0; i < n; ++i) {
    std::vector<double> p(m);
    for (double& v : p) v = rng.Uniform(0.3, 0.9);
    inst.queries.push_back(MakeQuery(i, rng.UniformInt(0, 10),
                                     rng.UniformInt(20, 90),
                                     MonotoneUtilities(p)));
  }
  return inst;
}

// Theorem 1: restricting to consistent query orders loses nothing.
TEST(SchedulingTheoryTest, ConsistentOrderMatchesInconsistentOptimum) {
  Rng rng(101);
  for (int trial = 0; trial < 20; ++trial) {
    RandomInstance inst = MakeRandomInstance(rng, 3, 2);
    const double consistent = BruteForceConsistent(inst.queries, inst.env);
    const double inconsistent = BruteForceInconsistent(inst.queries, inst.env);
    EXPECT_NEAR(consistent, inconsistent, 1e-9) << "trial " << trial;
  }
}

// Theorem 2: if a fixed task set is feasible under some order, it is
// feasible under EDF.
TEST(SchedulingTheoryTest, EdfFeasibleWheneverAnyOrderFeasible) {
  Rng rng(202);
  for (int trial = 0; trial < 200; ++trial) {
    const int n = 3 + static_cast<int>(rng.UniformInt(0, 1));
    const int m = 2;
    RandomInstance inst = MakeRandomInstance(rng, n, m);
    // Fix subsets randomly (non-empty).
    std::vector<SubsetMask> subset(n);
    for (int i = 0; i < n; ++i) {
      subset[i] = static_cast<SubsetMask>(rng.UniformInt(1, FullMask(m)));
    }
    auto feasible_in_order = [&](const std::vector<int>& order) {
      std::vector<SimTime> avail = inst.env.model_available_at;
      for (SimTime& t : avail) t = std::max(t, inst.env.now);
      for (int idx : order) {
        const SimTime completion =
            ApplySubset(subset[idx], inst.env.model_exec_time, avail);
        if (completion > inst.queries[idx].deadline) return false;
      }
      return true;
    };
    std::vector<int> order(n);
    for (int i = 0; i < n; ++i) order[i] = i;
    bool any_feasible = false;
    std::vector<int> perm = order;
    std::sort(perm.begin(), perm.end());
    do {
      if (feasible_in_order(perm)) {
        any_feasible = true;
        break;
      }
    } while (std::next_permutation(perm.begin(), perm.end()));
    if (!any_feasible) continue;
    // EDF order must also be feasible.
    std::vector<int> edf = order;
    std::sort(edf.begin(), edf.end(), [&](int a, int b) {
      return inst.queries[a].deadline < inst.queries[b].deadline;
    });
    EXPECT_TRUE(feasible_in_order(edf)) << "trial " << trial;
  }
}

// Theorem 3: the DP is a (1 - eps) approximation of the local optimum with
// delta = eps / N.
TEST(SchedulingTheoryTest, DpWithinEpsilonOfBruteForce) {
  Rng rng(303);
  const int n = 4;
  for (int trial = 0; trial < 15; ++trial) {
    RandomInstance inst = MakeRandomInstance(rng, n, 2);
    const double opt = BruteForceConsistent(inst.queries, inst.env);
    DpScheduler::Options options;
    options.delta = 0.01;  // eps = delta * N = 0.04
    options.max_solutions_per_cell = 64;
    DpScheduler dp(options);
    const SchedulePlan plan = dp.Schedule(inst.queries, inst.env);
    EXPECT_GE(plan.total_utility, (1.0 - options.delta * n) * opt - 1e-9)
        << "trial " << trial;
    // And never better than the optimum.
    EXPECT_LE(plan.total_utility, opt + 1e-9);
  }
}

// Finer quantization never yields a worse plan (up to quantization slack).
TEST(SchedulingTheoryTest, SmallerDeltaDoesNotDegradeUtility) {
  Rng rng(404);
  for (int trial = 0; trial < 10; ++trial) {
    RandomInstance inst = MakeRandomInstance(rng, 5, 2);
    DpScheduler::Options coarse;
    coarse.delta = 0.1;
    DpScheduler::Options fine;
    fine.delta = 0.005;
    const double u_coarse =
        DpScheduler(coarse).Schedule(inst.queries, inst.env).total_utility;
    const double u_fine =
        DpScheduler(fine).Schedule(inst.queries, inst.env).total_utility;
    EXPECT_GE(u_fine, u_coarse - 0.1 * inst.queries.size());
  }
}

// DP dominates every greedy variant on random instances.
TEST(SchedulingTheoryTest, DpDominatesGreedy) {
  Rng rng(505);
  int dp_wins = 0;
  for (int trial = 0; trial < 40; ++trial) {
    RandomInstance inst = MakeRandomInstance(rng, 5, 3);
    DpScheduler::Options options;
    options.max_solutions_per_cell = 32;
    const double dp_u =
        DpScheduler(options).Schedule(inst.queries, inst.env).total_utility;
    for (auto order :
         {GreedyScheduler::Order::kEdf, GreedyScheduler::Order::kFifo,
          GreedyScheduler::Order::kSjf}) {
      const double g_u =
          GreedyScheduler(order).Schedule(inst.queries, inst.env).total_utility;
      EXPECT_GE(dp_u, g_u - 0.06) << "trial " << trial;
      if (dp_u > g_u + 1e-9) ++dp_wins;
    }
  }
  EXPECT_GT(dp_wins, 10);
}

}  // namespace
}  // namespace schemble
