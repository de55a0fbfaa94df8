#ifndef SCHEMBLE_PERFBENCH_TRACING_H_
#define SCHEMBLE_PERFBENCH_TRACING_H_

// Decorators for the traced (per-layer) run. They time every call the
// servers make into a policy or a router, from the benchmark's own
// files, and forward everything else unchanged so the traced run takes the
// same code paths as the untraced one. The untraced runs never construct
// them, which also keeps planning/routing entry points the roadmap plans
// to remove (the serialized planning hook, the off-lock capability query,
// the explicit routing kind) out of every end-to-end measurement.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/policy.h"
#include "perfbench.h"
#include "runtime/routing_policy.h"

namespace schemble {
namespace perfbench {

/// Times OnArrival and every planning call of `inner` (borrowed).
///
/// Threading: the runtime calls OnArrival under its domain mutex and
/// PlanOnView from the domain's single scheduler thread, possibly at the
/// same time; each call site writes only its own members, and one
/// decorator wraps one domain's policy.
class TimedPolicy final : public ServingPolicy {
 public:
  explicit TimedPolicy(ServingPolicy* inner) : inner_(inner) {}

  std::string name() const override { return inner_->name(); }
  ArrivalDecision OnArrival(const TracedQuery& query,
                            const ServerView& view) override;
  PolicyOutput OnIdle(const ServerView& view,
                      const std::vector<const TracedQuery*>& buffer) override;
  bool SupportsOffLockPlanning() const override {
    return inner_->SupportsOffLockPlanning();
  }
  std::unique_ptr<PolicyPlanState> CreatePlanState() const override {
    return inner_->CreatePlanState();
  }
  void PlanOnView(const ServerView& view, PlanWorkspace* ws) const override;
  SimTime ArrivalProcessingDelay() const override {
    return inner_->ArrivalProcessingDelay();
  }

  const Samples& arrival_us() const { return arrival_us_; }
  const Samples& plan_us() const { return plan_us_; }
  /// Buffered queries offered to planning calls, and assignments returned.
  int64_t offered() const { return offered_; }
  int64_t assigned() const { return assigned_; }

 private:
  void RecordPlan(double us, size_t buffered, size_t assignments) const;

  ServingPolicy* inner_;
  Samples arrival_us_;
  mutable Samples plan_us_;
  mutable int64_t offered_ = 0;
  mutable int64_t assigned_ = 0;
};

/// Times Route on the runtime's default routing kind; installed through
/// ConcurrentServerOptions::router (single arrival pump).
class TimedRouter final : public RoutingPolicy {
 public:
  TimedRouter();

  std::string name() const override { return inner_->name(); }
  int Route(const TracedQuery& query, SimTime now,
            std::span<const DomainLoad> domains) override;

  const Samples& route_ns() const { return route_ns_; }

 private:
  std::unique_ptr<RoutingPolicy> inner_;
  Samples route_ns_;
};

}  // namespace perfbench
}  // namespace schemble

#endif  // SCHEMBLE_PERFBENCH_TRACING_H_
