#ifndef SCHEMBLE_RUNTIME_CONCURRENT_SERVER_H_
#define SCHEMBLE_RUNTIME_CONCURRENT_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "common/thread_annotations.h"
#include "core/aggregation.h"
#include "core/policy.h"
#include "models/synthetic_task.h"
#include "runtime/routing_policy.h"
#include "runtime/scheduler_domain.h"
#include "serving/metric_sink.h"
#include "serving/metrics.h"
#include "simcore/clock.h"
#include "workload/trace.h"

namespace schemble {

struct ConcurrentServerOptions {
  /// One entry per deployed executor: the base-model index it serves. An
  /// empty list deploys exactly one executor per base model, matching the
  /// discrete-event ServerOptions default.
  std::vector<int> executor_models;
  /// Rejection mode drops queries whose deadline passes with no output;
  /// force mode processes everything and reports lateness.
  bool allow_rejection = true;
  SimTime segment_duration = 60 * kSecond;
  /// Optional aggregation module; null uses the task's reference weighted
  /// average. Must be thread-safe (const, state-free — see completion.h).
  const Aggregator* aggregator = nullptr;
  uint64_t seed = 97;
  /// Virtual microseconds per real microsecond of the run's SteadyClock: a
  /// 60-virtual-second trace replays in 60/speedup real seconds. Model
  /// "inference" consumes virtual service time, so higher speedups
  /// compress the run without changing queueing behaviour.
  double speedup = 1.0;
  /// Bounded capacity of each executor's task queue; dispatching threads
  /// block (no spinning) when an executor falls this far behind.
  int queue_capacity = 4096;

  /// Independent scheduler domains the buffer/scheduler/executors are
  /// sharded into. 1 (the default) reproduces the single-domain runtime.
  /// Every model with at least one executor must have >= num_domains
  /// replicas so each domain can serve whole subsets (CHECK-enforced).
  int num_domains = 1;
  /// Admission-side placement across domains (ignored for one domain).
  RoutingPolicyKind routing = RoutingPolicyKind::kLeastLoaded;
  /// Custom routing policy; overrides `routing` when non-null. Borrowed;
  /// must outlive the server. RoutingPolicy instances are single-caller by
  /// contract, so a custom router requires num_arrival_threads == 1
  /// (CHECK-enforced); the built-in kinds get one instance per pump.
  RoutingPolicy* router = nullptr;
  /// Arrival pumps replaying the trace concurrently. Each pump owns a
  /// deterministic partition of the trace (round-robin by trace index, so
  /// per-pump arrival order is preserved and the split is independent of
  /// seeds and wall-clock timing), paces its own SleepUntil and routes
  /// directly into domain inboxes. 1 (the default) reproduces the
  /// single-admission-thread runtime exactly. Must be in [1, 64] and, for
  /// non-empty traces, <= the trace size (CHECK-enforced).
  int num_arrival_threads = 1;
  /// Optional per-pump partition weights (size num_arrival_threads, each
  /// > 0): trace index i belongs to the pump owning slot (i mod sum) of
  /// the weighted round-robin cycle. Empty means equal weights. {4, 1}
  /// gives pump 0 80% of the trace — the stress harness's skewed-pump
  /// scenario.
  std::vector<int> arrival_pump_weights;
  /// Bounded capacity of each domain's routed-arrival inbox.
  int inbox_capacity = 4096;
  /// Per-executor fault injection for stress scenarios, indexed like
  /// executor_models (global executor id). Empty = every executor clean.
  /// Fail-stop scenarios must leave >= 1 live replica per model per domain
  /// (the dispatch path CHECK-fails otherwise).
  std::vector<ExecutorFault> executor_faults;

  /// Cross-query task batching (see DESIGN.md "Cross-query batching"):
  /// workers coalesce compatible same-model tasks from their queue into
  /// one batched execution priced by the model's BatchLatencyModel, and
  /// the planning/dispatch layers project availability with coalesced
  /// service time (ServerView gains model_queued/model_batch). Off (the
  /// default) keeps the runtime bit-identical to the pre-batching per-task
  /// path.
  bool batching = false;
  /// Caps every model's batch size when > 0 (0 keeps each profile's own
  /// max_batch; 1 forces unbatched semantics on the batched path).
  int max_batch = 0;
};

/// Wall-clock, multi-threaded counterpart of the discrete-event
/// EnsembleServer: same ServingPolicy decision interface, same
/// EvaluateCompletion aggregation/accuracy path, same ServingMetrics
/// output, but real concurrency — sharded into N independent scheduler
/// domains (see SchedulerDomain), each owning a slice of the executor/
/// worker pool, its own policy instance, its own mutex and its own
/// snapshot -> plan -> validate/commit planning round, run on whichever
/// thread's event made it useful.
///
/// Threading model (see DESIGN.md "Sharded runtime" / "Arrival pipeline"):
///  - num_arrival_threads arrival pumps replay disjoint round-robin
///    partitions of the trace, each placing its queries on domains via its
///    own RoutingPolicy instance routed against the domains' lock-free
///    Load() atomics, pushing batches into bounded per-domain MPMC
///    inboxes — pumps never touch a domain mutex (lint-enforced).
///  - Each domain plans over its shard on the thread that saw the event:
///    the admitter after an admission batch, a worker after publishing
///    completions, as the simulator plans inside HandleArrival and
///    HandleCompletion. A per-domain planner token keeps one round at a
///    time (PlanOnView stays serialized per domain); query-state
///    transitions and OnArrival stay serialized under that domain's
///    annotated mutex. No thread exists only to plan.
///  - Every domain runs the same threads, whatever num_domains is: its
///    admitter, one worker per executor and, in rejection mode, a
///    deadline thread. Routing is the only cross-domain mechanism: a
///    query stays in the domain it was routed to, and no domain thread
///    touches a peer.
///  - Workers publish completions in one domain-lock round trip per log
///    of ended tasks, right before they would block. Completion work runs
///    outside every mutex and records into per-thread MetricSink shards
///    (plain counters, no shared atomics), merged into one ServingMetrics
///    after the run; a global exactly-once finalize claim per query turns
///    any cross-domain double dispatch into a CHECK failure.
///  - All blocking is condition-variable/timer based; nothing spins.
class ConcurrentServer : private DomainHost {
 public:
  /// Single-policy constructor: requires num_domains == 1 (stateful policy
  /// calls are serialized per domain, so N domains need N instances).
  ConcurrentServer(const SyntheticTask& task, ServingPolicy* policy,
                   ConcurrentServerOptions options);
  /// Sharded constructor: one policy instance per domain
  /// (policies.size() == num_domains, CHECK-enforced). Instances must
  /// agree on ArrivalProcessingDelay.
  ConcurrentServer(const SyntheticTask& task,
                   std::vector<ServingPolicy*> policies,
                   ConcurrentServerOptions options);
  ~ConcurrentServer() override;

  ConcurrentServer(const ConcurrentServer&) = delete;
  ConcurrentServer& operator=(const ConcurrentServer&) = delete;

  /// Replays `trace` against a fresh SteadyClock and blocks until every
  /// query is finalized. One-shot, like EnsembleServer::Run
  /// (CHECK-enforced).
  ServingMetrics Run(const QueryTrace& trace);

  int num_executors() const;
  int num_domains() const { return static_cast<int>(domains_.size()); }

  /// Aggregate domain-mutex statistics (bench_runtime reports these): how
  /// often the critical sections were entered and total wall-clock time
  /// they were held, summed over domains. Read after Run() returns.
  struct LockStatsSnapshot {
    int64_t acquisitions = 0;
    double held_ms = 0.0;
  };
  LockStatsSnapshot lock_stats() const;

  /// Scheduler telemetry (bench_runtime and the runtime tests read these
  /// after Run() returns); see SchedulerDomain::StatsSnapshot.
  using SchedulerStatsSnapshot = SchedulerDomain::StatsSnapshot;
  /// Summed over all domains.
  SchedulerStatsSnapshot scheduler_stats() const;
  /// One domain's counters (bench_runtime's per-domain stats).
  SchedulerStatsSnapshot scheduler_stats(int domain) const;

  int num_arrival_pumps() const { return options_.num_arrival_threads; }
  /// Queries routed by one arrival pump; valid after Run() returns (each
  /// slot has a single writer — its pump — and the join is the
  /// happens-before edge to this read).
  int64_t pump_routed(int pump) const {
    return pump_routed_[static_cast<size_t>(pump)];
  }

 private:
  // DomainHost interface (domain threads call these).
  const QueryTrace& trace() const override { return *trace_; }
  Clock& clock() override { return *clock_; }
  MetricSink* NewMetricShard() override;
  void FinalizeQueries(std::span<const Finalization> batch,
                       MetricSink* shard) override;

  /// One arrival pump: replays its slots of the weighted round-robin
  /// partition (see Run) with its own SleepUntil pacing, routing against
  /// lock-free domain Load() reads and pushing batches of at most
  /// inbox_capacity into domain inboxes. Never acquires a domain mutex
  /// (lint rule arrival-pump); the last pump to finish signals
  /// ArrivalsDone.
  void ArrivalPumpLoop(int pump);

  const SyntheticTask* task_;
  std::vector<ServingPolicy*> policies_;
  ConcurrentServerOptions options_;
  /// Domains read options_ by reference, so it is declared (and thus
  /// destroyed) before them.
  std::vector<std::unique_ptr<SchedulerDomain>> domains_;
  /// Borrowed custom router (options_.router; single pump only), or null.
  RoutingPolicy* router_ = nullptr;
  /// One built-in router instance per pump (RoutingPolicy instances are
  /// single-caller); empty when router_ is set or num_domains == 1.
  std::vector<std::unique_ptr<RoutingPolicy>> pump_routers_;
  /// Queries routed per pump; single writer (the pump), read after join.
  std::vector<int64_t> pump_routed_;
  /// Last pump to finish flips this to 0 and broadcasts ArrivalsDone.
  std::atomic<int> pumps_remaining_{0};

  std::unique_ptr<SteadyClock> clock_;
  const QueryTrace* trace_ = nullptr;

  /// Run-completion tracking: FinalizeQueries counts finalizations once
  /// per batch and the last batch flips done_ under done_mu_ so Run() can
  /// wait on a CondVar.
  /// Rank kDone: always the final lock on a finalization path, acquired
  /// with nothing else held and never held across other work.
  Mutex done_mu_ SCHEMBLE_ACQUIRED_AFTER(lock_ranks::clock_anchor){
      LockRank::kDone, "concurrent_server.done_mu"};
  CondVar done_cv_;
  bool done_ SCHEMBLE_GUARDED_BY(done_mu_) = false;
  std::atomic<int64_t> finalized_total_{0};
  /// Global exactly-once finalize claim per query (0 -> 1 exactly once; a
  /// second claim is a CHECK failure — the cross-domain double-dispatch
  /// detector).
  std::vector<std::atomic<uint8_t>> finalize_claims_;

  /// One metric shard per domain thread (NewMetricShard), created on the
  /// Run() thread before the thread that records into it starts, merged
  /// after the run joins.
  std::vector<std::unique_ptr<MetricSink>> shards_;
  /// Shape of every shard, fixed in Run() before any domain starts.
  size_t num_segments_ = 0;
  /// Structure-immutable-after-start: sized in Run() before any thread is
  /// spawned and never resized while they run. Each slot is written at
  /// most once, by whichever thread finalizes that query (slots are
  /// disjoint), and only read back after Run() joins everything.
  std::vector<double> latency_slots_;

  std::vector<std::thread> threads_;
  bool ran_ = false;
};

}  // namespace schemble

#endif  // SCHEMBLE_RUNTIME_CONCURRENT_SERVER_H_
