#include "runtime/routing_policy.h"

#include <utility>

#include "common/logging.h"

namespace schemble {
namespace {

/// splitmix64 finalizer: cheap, well-mixed, and endianness-free, so hash
/// placement is identical across platforms.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

int64_t WorkItems(const DomainLoad& d) {
  return d.inbox + d.buffered + d.queued_tasks;
}

int64_t Executors(const DomainLoad& d) {
  return d.executors > 0 ? d.executors : 1;
}

}  // namespace

bool StrictlyLessLoaded(const DomainLoad& a, const DomainLoad& b,
                        int64_t factor) {
  return factor * WorkItems(a) * Executors(b) <
         WorkItems(b) * Executors(a);
}

int64_t LevellingTransfer(const DomainLoad& from, const DomainLoad& to) {
  const int64_t excess =
      WorkItems(from) * Executors(to) - WorkItems(to) * Executors(from);
  return excess > 0 ? excess / (Executors(from) + Executors(to)) : 0;
}

int HashRouting::Route(const TracedQuery& query, SimTime /*now*/,
                       std::span<const DomainLoad> domains) {
  return static_cast<int>(Mix64(static_cast<uint64_t>(query.query.id)) %
                          domains.size());
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

DeadlineClassRouting::DeadlineClassRouting(std::vector<SimTime> boundaries)
    : boundaries_(std::move(boundaries)) {
  for (size_t i = 1; i < boundaries_.size(); ++i) {
    SCHEMBLE_CHECK_GT(boundaries_[i], boundaries_[i - 1])
        << "deadline class boundaries must be strictly ascending";
  }
}

DeadlineClassRouting::DeadlineClassRouting()
    : DeadlineClassRouting(
          {100 * kMillisecond, 500 * kMillisecond, 2 * kSecond}) {}

int DeadlineClassRouting::Route(const TracedQuery& query, SimTime now,
                                std::span<const DomainLoad> domains) {
  const SimTime slack = query.deadline - now;
  size_t cls = boundaries_.size();
  for (size_t c = 0; c < boundaries_.size(); ++c) {
    if (slack < boundaries_[c]) {
      cls = c;
      break;
    }
  }
  const size_t last = domains.size() - 1;
  return static_cast<int>(cls < last ? cls : last);
}

std::unique_ptr<RoutingPolicy> MakeRoutingPolicy(RoutingPolicyKind kind) {
  switch (kind) {
    case RoutingPolicyKind::kHash:
      return std::make_unique<HashRouting>();
    case RoutingPolicyKind::kRoundRobin:
      return std::make_unique<RoundRobinRouting>();
    case RoutingPolicyKind::kLeastLoaded:
      return std::make_unique<LeastLoadedRouting>();
    case RoutingPolicyKind::kDeadlineClass:
      return std::make_unique<DeadlineClassRouting>();
  }
  SCHEMBLE_CHECK(false) << "unknown RoutingPolicyKind";
  return nullptr;
}

}  // namespace schemble
