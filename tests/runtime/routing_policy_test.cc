#include "runtime/routing_policy.h"

#include <gtest/gtest.h>

#include <vector>


namespace schemble {
namespace {

TracedQuery MakeQuery(int64_t id, SimTime arrival = 0,
                      SimTime deadline = kSimTimeMax) {
  TracedQuery tq;
  tq.query.id = id;
  tq.arrival_time = arrival;
  tq.deadline = deadline;
  return tq;
}

std::vector<DomainLoad> UniformDomains(int n, int executors = 2) {
  std::vector<DomainLoad> domains(static_cast<size_t>(n));
  for (int d = 0; d < n; ++d) {
    domains[static_cast<size_t>(d)].domain = d;
    domains[static_cast<size_t>(d)].executors = executors;
  }
  return domains;
}

TEST(RoundRobinRoutingTest, CyclesThroughDomainsInOrder) {
  RoundRobinRouting policy;
  const auto domains = UniformDomains(3);
  for (int i = 0; i < 9; ++i) {
    // Placement depends only on the call sequence, never on the id.
    EXPECT_EQ(policy.Route(MakeQuery(1000 - i), 0, domains), i % 3);
  }
}

TEST(LeastLoadedRoutingTest, PicksLowestNormalizedPressure) {
  LeastLoadedRouting policy;
  auto domains = UniformDomains(3, /*executors=*/2);
  domains[0].inbox = 6;      // 3 items per executor
  domains[1].buffered = 2;   // 1 item per executor
  domains[2].queued_tasks = 8;
  EXPECT_EQ(policy.Route(MakeQuery(1), 0, domains), 1);
}

TEST(LeastLoadedRoutingTest, NormalizesByExecutorCount) {
  LeastLoadedRouting policy;
  auto domains = UniformDomains(2);
  // 6 items over 4 executors (1.5 each) beats 2 items over 1 executor —
  // the comparison is per-executor pressure, not raw backlog.
  domains[0].inbox = 6;
  domains[0].executors = 4;
  domains[1].inbox = 2;
  domains[1].executors = 1;
  EXPECT_EQ(policy.Route(MakeQuery(1), 0, domains), 0);
}

TEST(LeastLoadedRoutingTest, TiesBreakToLowestIndex) {
  LeastLoadedRouting policy;
  auto domains = UniformDomains(4, /*executors=*/2);
  for (auto& d : domains) d.inbox = 4;  // identical pressure everywhere
  EXPECT_EQ(policy.Route(MakeQuery(42), 0, domains), 0);
  // An exact pressure tie between unequal executor counts (4/2 vs 2/1)
  // still resolves to the lower index deterministically.
  domains[1].inbox = 2;
  domains[1].executors = 1;
  EXPECT_EQ(policy.Route(MakeQuery(42), 0, domains), 0);
}

TEST(RoutingPolicyFactoryTest, MakesEveryKindWithMatchingName) {
  EXPECT_EQ(MakeRoutingPolicy(RoutingPolicyKind::kRoundRobin)->name(),
            "round-robin");
  EXPECT_EQ(MakeRoutingPolicy(RoutingPolicyKind::kLeastLoaded)->name(),
            "least-loaded");
}

TEST(StrictlyLessLoadedTest, NormalizesByExecutors) {
  std::vector<DomainLoad> loads = UniformDomains(2);
  loads[0].buffered = 4;  // 2 items per executor
  loads[1].executors = 4;
  loads[1].queued_tasks = 12;  // 3 items per executor
  EXPECT_TRUE(StrictlyLessLoaded(loads[0], loads[1]));
  EXPECT_FALSE(StrictlyLessLoaded(loads[1], loads[0]));
  // Equal pressure is never strictly less.
  EXPECT_FALSE(StrictlyLessLoaded(loads[0], loads[0]));
}

TEST(RoutingPolicyFactoryTest, SingleDomainAlwaysRoutesToZero) {
  const auto domains = UniformDomains(1);
  for (RoutingPolicyKind kind :
       {RoutingPolicyKind::kRoundRobin, RoutingPolicyKind::kLeastLoaded}) {
    auto policy = MakeRoutingPolicy(kind);
    for (int64_t id = 0; id < 8; ++id) {
      EXPECT_EQ(policy->Route(MakeQuery(id, 0, 100 * kMillisecond), 0,
                              domains),
                0)
          << policy->name();
    }
  }
}

}  // namespace
}  // namespace schemble
