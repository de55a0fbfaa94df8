#ifndef SCHEMBLE_RUNTIME_ROUTING_POLICY_H_
#define SCHEMBLE_RUNTIME_ROUTING_POLICY_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "simcore/simulation.h"
#include "workload/trace.h"

namespace schemble {

/// Load summary of one scheduler domain, filled by the arrival pump from
/// SchedulerDomain::Load(). All counts are instantaneous approximations
/// (each atomic is read independently), which is exactly what a routing
/// heuristic needs — never read them expecting a consistent cross-field
/// snapshot.
struct DomainLoad {
  int domain = 0;
  /// Queries routed to the domain but not yet admitted by its scheduler.
  int64_t inbox = 0;
  /// Queries admitted and sitting in the domain's central buffer.
  int64_t buffered = 0;
  /// Tasks in the domain's executor queues (including undrained run
  /// tails, see WorkerLoop).
  int64_t queued_tasks = 0;
  /// Executors of the domain; immutable after construction.
  int executors = 0;
};

/// True when a's work items per executor (inbox + buffered + queued
/// tasks) are strictly below b's: the least-loaded comparison. Exact
/// integer cross-multiplication: no FP, no rounding ties.
bool StrictlyLessLoaded(const DomainLoad& a, const DomainLoad& b);

/// Pluggable admission-side query placement: picks the scheduler domain an
/// arriving query is routed to (the minimal child-picker idiom of the
/// Pating scheduler xlators — a struct per strategy, one "pick a child"
/// entry point).
///
/// Threading contract: an instance is called by exactly one thread (the
/// server's arrival pump), so implementations may keep unguarded mutable
/// state (round-robin cursors). Implementations must be
/// deterministic functions of (query, now, domains) and their own call
/// history — the routing unit tests replay fixed sequences. The load span
/// an instance sees is a pump-local copy of the domains' Load() read once
/// per batch: slightly stale by design, mutated only by the pump's own
/// in-batch compensation.
class RoutingPolicy {
 public:
  virtual ~RoutingPolicy() = default;

  virtual std::string name() const = 0;

  /// Returns the target domain index in [0, domains.size()). `now` is the
  /// current virtual time (a policy may route on deadline slack).
  /// `domains` is never empty.
  virtual int Route(const TracedQuery& query, SimTime now,
                    std::span<const DomainLoad> domains) = 0;
};

/// Cyclic placement: domain (i mod n) for the i-th routed query.
class RoundRobinRouting final : public RoutingPolicy {
 public:
  std::string name() const override { return "round-robin"; }
  int Route(const TracedQuery& query, SimTime now,
            std::span<const DomainLoad> domains) override;

 private:
  int64_t cursor_ = 0;
};

/// Load-aware placement: the domain with the fewest outstanding work items
/// (inbox + buffered + queued tasks) per executor wins; exact integer
/// cross-multiplication avoids FP rounding and ties break to the lowest
/// domain index, so the decision is deterministic for a given load vector.
class LeastLoadedRouting final : public RoutingPolicy {
 public:
  std::string name() const override { return "least-loaded"; }
  int Route(const TracedQuery& query, SimTime now,
            std::span<const DomainLoad> domains) override;
};

enum class RoutingPolicyKind {
  kRoundRobin,
  kLeastLoaded,
};

std::unique_ptr<RoutingPolicy> MakeRoutingPolicy(RoutingPolicyKind kind);

}  // namespace schemble

#endif  // SCHEMBLE_RUNTIME_ROUTING_POLICY_H_
