#include "runtime/routing_policy.h"

#include "common/logging.h"

namespace schemble {
namespace {

int64_t WorkItems(const DomainLoad& d) {
  return d.inbox + d.buffered + d.queued_tasks;
}

int64_t Executors(const DomainLoad& d) {
  return d.executors > 0 ? d.executors : 1;
}

}  // namespace

bool StrictlyLessLoaded(const DomainLoad& a, const DomainLoad& b) {
  return WorkItems(a) * Executors(b) < WorkItems(b) * Executors(a);
}

int RoundRobinRouting::Route(const TracedQuery& /*query*/, SimTime /*now*/,
                             std::span<const DomainLoad> domains) {
  const int pick = static_cast<int>(
      static_cast<uint64_t>(cursor_) % domains.size());
  ++cursor_;
  return pick;
}

int LeastLoadedRouting::Route(const TracedQuery& /*query*/, SimTime /*now*/,
                              std::span<const DomainLoad> domains) {
  int best = 0;
  for (size_t d = 1; d < domains.size(); ++d) {
    // Strict comparison: equal normalized loads keep the earlier (lowest
    // index) domain, making tie-breaking deterministic.
    if (StrictlyLessLoaded(domains[d], domains[static_cast<size_t>(best)])) {
      best = static_cast<int>(d);
    }
  }
  return best;
}

std::unique_ptr<RoutingPolicy> MakeRoutingPolicy(RoutingPolicyKind kind) {
  switch (kind) {
    case RoutingPolicyKind::kRoundRobin:
      return std::make_unique<RoundRobinRouting>();
    case RoutingPolicyKind::kLeastLoaded:
      return std::make_unique<LeastLoadedRouting>();
  }
  SCHEMBLE_CHECK(false) << "unknown RoutingPolicyKind";
  return nullptr;
}

}  // namespace schemble
