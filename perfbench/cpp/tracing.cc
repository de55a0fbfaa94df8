#include "tracing.h"

#include <chrono>

#include "runtime/concurrent_server.h"

namespace schemble {
namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double MicrosSince(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

}  // namespace

ArrivalDecision TimedPolicy::OnArrival(const TracedQuery& query,
                                       const ServerView& view) {
  const Clock::time_point start = Clock::now();
  const ArrivalDecision decision = inner_->OnArrival(query, view);
  arrival_us_.Add(MicrosSince(start));
  return decision;
}

PolicyOutput TimedPolicy::OnIdle(
    const ServerView& view, const std::vector<const TracedQuery*>& buffer) {
  const Clock::time_point start = Clock::now();
  PolicyOutput output = inner_->OnIdle(view, buffer);
  RecordPlan(MicrosSince(start), buffer.size(), output.assignments.size());
  return output;
}

void TimedPolicy::PlanOnView(const ServerView& view,
                             PlanWorkspace* ws) const {
  const Clock::time_point start = Clock::now();
  inner_->PlanOnView(view, ws);
  RecordPlan(MicrosSince(start), ws->buffer.size(),
             ws->output.assignments.size());
}

void TimedPolicy::RecordPlan(double us, size_t buffered,
                             size_t assignments) const {
  plan_us_.Add(us);
  offered_ += static_cast<int64_t>(buffered);
  assigned_ += static_cast<int64_t>(assignments);
}

TimedRouter::TimedRouter()
    : inner_(MakeRoutingPolicy(ConcurrentServerOptions{}.routing)) {}

int TimedRouter::Route(const TracedQuery& query, SimTime now,
                       std::span<const DomainLoad> domains) {
  const Clock::time_point start = Clock::now();
  const int domain = inner_->Route(query, now, domains);
  route_ns_.Add(
      std::chrono::duration<double, std::nano>(Clock::now() - start).count());
  return domain;
}

}  // namespace perfbench
}  // namespace schemble
