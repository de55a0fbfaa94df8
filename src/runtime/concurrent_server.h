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
  /// must outlive the server. Only the arrival pump calls it.
  RoutingPolicy* router = nullptr;
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
///  - One arrival pump replays the trace, placing its queries on domains
///    through the RoutingPolicy against the domains' lock-free Load()
///    atomics and pushing batches into bounded per-domain MPMC inboxes —
///    the pump never touches a domain mutex (lint-enforced).
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
class ConcurrentServer {
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
  ~ConcurrentServer();

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

  /// Always 1, and pump_routed(0) is the number of queries the pump
  /// routed (valid after Run() returns; the join is the happens-before
  /// edge). Kept until the benchmark's probes stop reading them, like the
  /// zero `steals` fields of SchedulerStatsSnapshot.
  int num_arrival_pumps() const { return 1; }
  int64_t pump_routed(int /*pump*/) const { return pump_routed_; }

 private:
  // Domains reach the trace, the clock, the metric shards and
  // FinalizeQueries directly.
  friend class SchedulerDomain;

  /// A metric shard for one domain thread, owned here and merged after
  /// the run joins. Called only by SchedulerDomain::Start, on the thread
  /// running Run(), before the shard's thread records into it.
  MetricSink* NewMetricShard();
  /// Records the final outcomes of `batch` (aggregation, accuracy,
  /// metrics into `shard`, run-completion accounting). `shard` belongs to
  /// the calling thread; called from any domain thread with NO domain
  /// mutex held. Exactly-once per query across ALL domains — a second
  /// finalization of the same index is a CHECK failure, which turns a
  /// cross-domain double dispatch into a loud failure instead of silent
  /// metric corruption.
  void FinalizeQueries(std::span<const Finalization> batch,
                       MetricSink* shard);

  /// The arrival pump: replays the trace in order with SleepUntil pacing,
  /// routing against lock-free domain Load() reads and pushing batches of
  /// at most inbox_capacity into domain inboxes. Never acquires a domain
  /// mutex (lint rule arrival-pump); signals ArrivalsDone once the whole
  /// trace is routed.
  void ArrivalPumpLoop();

  const SyntheticTask* task_;
  std::vector<ServingPolicy*> policies_;
  ConcurrentServerOptions options_;
  /// Domains read options_ by reference, so it is declared (and thus
  /// destroyed) before them.
  std::vector<std::unique_ptr<SchedulerDomain>> domains_;
  /// The pump's router: options_.router, or the built-in kind owned by
  /// owned_router_; null for one domain.
  RoutingPolicy* router_ = nullptr;
  std::unique_ptr<RoutingPolicy> owned_router_;
  /// Queries routed by the pump; single writer (the pump), read after join.
  int64_t pump_routed_ = 0;

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

  std::thread pump_;
  bool ran_ = false;
};

}  // namespace schemble

#endif  // SCHEMBLE_RUNTIME_CONCURRENT_SERVER_H_
