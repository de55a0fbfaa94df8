#ifndef SCHEMBLE_RUNTIME_SCHEDULER_DOMAIN_H_
#define SCHEMBLE_RUNTIME_SCHEDULER_DOMAIN_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <queue>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "common/thread_annotations.h"
#include "core/policy.h"
#include "models/synthetic_task.h"
#include "runtime/mpmc_queue.h"
#include "runtime/routing_policy.h"
#include "serving/metric_sink.h"
#include "serving/query_lifecycle.h"
#include "simcore/clock.h"
#include "workload/trace.h"

namespace schemble {

class ConcurrentServer;
struct ConcurrentServerOptions;

/// Fault-injection profile of one executor (the stress harness's scenario
/// dimensions; see DESIGN.md "Randomized stress harness"). The default is
/// a clean executor, so pre-existing configurations are unaffected.
struct ExecutorFault {
  /// Throughput multiplier: service time is divided by this, so 2.0 is a
  /// 2x-faster executor and 0.5 a 2x-slower one (heterogeneous fleets).
  double speed = 1.0;
  /// Straggler injection: once the virtual clock passes `straggle_after`
  /// (> 0 to enable), service times are inflated by `straggle_factor`.
  SimTime straggle_after = 0;
  double straggle_factor = 1.0;
  /// Fail-stop injection: the executor dies at the first task it examines
  /// once the virtual clock passes `fail_at` (> 0 to enable). The queries
  /// of its in-flight and queued tasks are released and re-admitted
  /// through the domain's AdmitBatch, so no query is ever lost to a
  /// failure.
  SimTime fail_at = 0;

  bool clean() const {
    return speed == 1.0 && straggle_after == 0 && fail_at == 0;
  }
};

/// One query leaving the run: the outputs it is served with and the
/// virtual time the last of them finished (0 outputs = a miss).
struct Finalization {
  int index = 0;
  SubsetMask outputs = 0;
  SimTime completion = 0;
};

/// The part of the deployment one domain owns. Everything else a domain
/// reads from the server's ConcurrentServerOptions.
struct DomainSlice {
  int domain_id = 0;
  /// Global base-model index per executor of this domain.
  std::vector<int> executor_models;
  /// Matching global executor ids (seed the per-worker RNG streams so the
  /// single-domain configuration reproduces the pre-sharding streams).
  std::vector<int> executor_ids;
  /// Per-executor fault profile, parallel to executor_models. Empty means
  /// every executor is clean.
  std::vector<ExecutorFault> faults;
};

/// One scheduling domain of the sharded concurrent runtime: a shard of the
/// query buffer, its own policy instance and mutex, its own admitter
/// thread draining the routed-arrival inbox into OnArrival decisions, a
/// slice of the executor/worker pool, and (in rejection mode) its own
/// deadline thread. There is no planning thread: like the simulator, the
/// domain runs its snapshot -> plan -> validate/commit round on the thread
/// whose event made it useful — the admitter after a batch, a worker after
/// publishing completions — under a single-planner token (see DESIGN.md
/// "Snapshot planning & batched dispatch"). Every domain, one or many, runs
/// the same thread kinds — admitter, workers, deadline thread — and plans
/// only on events. Queries enter through a bounded MPMC inbox so the
/// admission path never touches the domain mutex on the fast path (the
/// inbox's internal queue lock is the only synchronization, and the
/// blocking admitter is woken by the queue's own condition variable), and
/// leave through the server's FinalizeQueries exactly once.
///
/// Domains never interact (see DESIGN.md "Sharded runtime"): the arrival
/// pump routes each query into exactly one domain's inbox, reading the
/// domains' published load atomics, and the query stays in that domain
/// until it is finalized. Every way into a domain goes through AdmitBatch,
/// so a query is admitted (not kPending) at most once at a time; the
/// server's exactly-once finalize CHECK turns any double dispatch into a
/// loud failure. The owning ConcurrentServer holds everything global —
/// the trace, the clock, the metric shards, the run-completion doorbell —
/// and the domain reads it directly, as a friend.
class SchedulerDomain {
 public:
  /// `server` owns the domain; `options` is its configuration and must
  /// outlive the domain.
  SchedulerDomain(const SyntheticTask& task, ServingPolicy* policy,
                  ConcurrentServer* server,
                  const ConcurrentServerOptions& options, DomainSlice slice);
  ~SchedulerDomain();

  SchedulerDomain(const SchedulerDomain&) = delete;
  SchedulerDomain& operator=(const SchedulerDomain&) = delete;

  /// Spawns the admitter, the deadline thread (rejection mode) and the
  /// workers. The server's trace/clock must be live; one-shot.
  void Start();
  /// Flags shutdown, closes the inbox and executor queues, wakes every
  /// blocked thread. Idempotent.
  void Shutdown() SCHEMBLE_EXCLUDES(mu_);
  void Join();

  /// Routes a batch of trace indices into this domain (bounded blocking
  /// push; the domain's admitter thread wakes through the inbox's own
  /// condition variable). The arrival pump's side of ingest: never
  /// touches the domain mutex.
  void PushRouted(std::span<const int> indices);
  /// Signals that the arrival pump has routed the whole trace, and runs
  /// the tail planning round on the calling thread, so the force-mode
  /// stuck check gets its round even when no further event arrives.
  /// Called once per domain.
  void ArrivalsDone() SCHEMBLE_EXCLUDES(mu_);

  /// This domain's load, read straight from the atomics its threads
  /// already maintain (inbox depth, buffered count, executor queue
  /// depths). Lock-free and individually approximate: each counter is
  /// read independently, never as a consistent snapshot. The arrival pump
  /// routes on it.
  DomainLoad Load() const;
  int num_executors() const { return static_cast<int>(executors_.size()); }

  /// Scheduler telemetry; safe to read after the run drains (or any time,
  /// with per-counter consistency only).
  struct StatsSnapshot {
    /// Planning rounds run outside the domain mutex.
    int64_t plans = 0;
    /// Plan entries that passed generation validation and were committed.
    int64_t plan_commits = 0;
    /// Plan entries dropped at commit because the query was assigned,
    /// finalized or re-queued while planning ran off-lock.
    int64_t plans_invalidated = 0;
    /// Immediate re-plan rounds triggered by invalidated entries.
    int64_t replans = 0;
    /// Always 0: domains no longer skip rounds, steal or donate. Kept
    /// until the benchmark drops its runtime.replans_skipped/steals/
    /// stolen/rebalances/donated rows.
    int64_t replans_skipped = 0;
    int64_t steals = 0;
    int64_t stolen = 0;
    int64_t rebalances = 0;
    int64_t donated = 0;
    /// Fault-injection telemetry: executors that fail-stopped, queries
    /// re-admitted after losing a task to a failure, and stale tasks
    /// dropped because their query had already been re-queued or
    /// finalized.
    int64_t failstops = 0;
    int64_t requeues = 0;
    int64_t stale_tasks_dropped = 0;
    /// Batched executions performed and tasks they carried. Advance on
    /// every execution (a batch of 1 when batching is off), so
    /// tasks_batched / batches_executed is the mean batch occupancy —
    /// exactly 1.0 on the unbatched path.
    int64_t batches_executed = 0;
    int64_t tasks_batched = 0;
    /// Force-mode rounds after the last arrival that committed nothing
    /// while the buffer was non-empty and every live executor idle: a
    /// policy leaving queries stuck (each one is also logged). The stress
    /// invariants require 0.
    int64_t stuck_rounds = 0;

    /// Mean tasks per execution; 1.0 when nothing coalesced (or ran).
    double mean_batch_occupancy() const {
      return batches_executed > 0 ? static_cast<double>(tasks_batched) /
                                        static_cast<double>(batches_executed)
                                  : 1.0;
    }
    /// Field-wise sum (the server's all-domain totals).
    StatsSnapshot& operator+=(const StatsSnapshot& other);
  };
  StatsSnapshot stats() const;
  Mutex::Stats lock_stats() const { return mu_.stats(); }

 private:
  /// Per-query task; executed by the worker owning `executor`. Carries the
  /// query's generation at dispatch time: a completion (or a fail-stop
  /// re-queue) only applies while the generation still matches, so tasks
  /// orphaned by a re-queue-and-reassign cycle are dropped instead of
  /// corrupting the new assignment's done mask.
  struct Task {
    int index = 0;
    uint64_t generation = 0;
  };

  struct Executor {
    int model = 0;
    /// Global executor id (RNG stream seed), from slice_.executor_ids.
    int global_id = 0;
    /// Fault profile (clean by default), from slice_.faults.
    ExecutorFault fault;
    std::unique_ptr<MpmcQueue<Task>> queue;
    /// Virtual time when the in-flight task (if any) finishes; 0 if idle.
    std::atomic<SimTime> busy_until{0};
    std::atomic<bool> busy{false};
    /// Fail-stopped: excluded from views and dispatch placement; its queue
    /// is closed and drained.
    std::atomic<bool> failed{false};
    std::atomic<int64_t> queued{0};
    /// The worker thread serving this executor, published by the worker
    /// itself first thing, so a thread reading its own id here IS the
    /// worker. PushRuns uses it to never block on the caller's own queue.
    std::atomic<std::thread::id> worker{};
    /// The worker's local run: tasks taken from the queue and not yet
    /// serviced, plus whatever a round planned on the worker could not
    /// push into its own full queue. Touched only by the worker thread.
    std::vector<Task> run;
  };

  /// Reusable per-worker batch workspace: the tasks of one coalesced
  /// execution (each carrying its dispatch-time generation, so stale
  /// completions are still dropped per task) plus a growth counter the
  /// coalescing drain is grow-guarded against. Workers construct exactly
  /// one, reserved to the coalescing cap, outside their drain loop
  /// (lint rule batch-workspace) — steady-state coalescing performs no
  /// per-batch heap allocation.
  struct TaskBatch {
    std::vector<Task> tasks;
    int64_t grow_events = 0;
  };

  /// Reusable scratch for the admit/plan phases, plus the metric shard of
  /// the thread using it. `runs` holds one task run per executor of the
  /// slice (sized at the first placement), placed under mu_ and pushed
  /// off-lock; every run is empty between dispatches. All vectors reach a
  /// stable capacity after the first few batches, so steady-state dispatch
  /// performs no heap allocation.
  struct SchedulerScratch {
    explicit SchedulerScratch(MetricSink* thread_shard) : shard(thread_shard) {}
    MetricSink* shard;
    std::vector<int> incoming;
    std::vector<Finalization> rejects;
    std::vector<std::vector<Task>> runs;
  };

  /// A worker's completions not yet published to the domain: tasks whose
  /// service has ended, each with its exact virtual end time. The worker
  /// publishes the whole log in one critical section right before it
  /// would block (PublishCompletions), so a run of zero-length services
  /// costs one domain-lock round trip instead of one per task. Capacity
  /// is reserved to one run's worth up front; steady state never
  /// allocates.
  struct CompletionLog {
    struct Ended {
      Task task;
      SimTime end = 0;
    };
    std::vector<Ended> ended;
    std::vector<Finalization> finalizes;
    /// Executions logged since the last publish (batch telemetry).
    int64_t executions = 0;
  };

  /// Each loop runs on its own thread and records every query it
  /// finalizes into `shard`, that thread's metric shard.
  void AdmitterLoop(MetricSink* shard) SCHEMBLE_EXCLUDES(mu_);
  void DeadlineLoop(MetricSink* shard) SCHEMBLE_EXCLUDES(mu_);
  void WorkerLoop(int executor_id, MetricSink* shard) SCHEMBLE_EXCLUDES(mu_);
  /// Applies every completion a worker of `model` logged in one critical
  /// section — per task: the generation check, the stale-task drop,
  /// TaskDone at the task's own end time and the finalize claim — then
  /// finalizes the finished queries off-lock into `shard` and clears the
  /// log. Returns whether the worker took the planner token (queries are
  /// buffered): it runs PlanRounds before it next blocks, overlapping its
  /// own next service when it has one.
  bool PublishCompletions(int model, CompletionLog* log, MetricSink* shard)
      SCHEMBLE_EXCLUDES(mu_);

  /// Admits a batch of kPending trace indices — routed or fail-stop
  /// requeues; the one way into a domain. One critical section runs the
  /// policy's OnArrival per query, places each assigned task against the
  /// same view (so later queries in the batch see the load earlier ones
  /// added) and arms the deadlines; the runs are pushed and rejects
  /// finalized off-lock.
  void AdmitBatch(std::span<const int> indices, ServerView* view,
                  SchedulerScratch* s) SCHEMBLE_EXCLUDES(mu_);
  /// One snapshot -> plan -> validate/commit round over the buffered
  /// shard, through the planning context; the caller holds the planner
  /// token. The critical section that takes the snapshot also clears
  /// replan_requested_: every request made before it is answered by this
  /// round. Commits are placed in the validating critical section and
  /// pushed before returning. Returns whether commit-time validation
  /// dropped entries while queries stay buffered (the round asks for its
  /// own re-plan).
  bool PlanAndDispatch() SCHEMBLE_EXCLUDES(mu_);
  /// Under mu_: takes the planner token, or, when another thread holds
  /// it, leaves that holder a replan request. Returns whether the caller
  /// now holds the token (and must call PlanRounds).
  bool TakePlannerLocked() SCHEMBLE_REQUIRES(mu_);
  /// With the planner token held: runs rounds on the calling thread,
  /// recording finalizations into its `shard`, until no round is
  /// requested, then releases the token. Requests left after a round's
  /// snapshot are re-checked under mu_ in the section that releases it,
  /// so no round is lost.
  void PlanRounds(MetricSink* shard) SCHEMBLE_EXCLUDES(mu_);

  /// Fills `batch` with up to `cap` tasks of `ex`'s model: the local run
  /// remainder starting at `start` first, then a non-blocking top-up from
  /// the executor queue (coalesce what already waits, never wait for
  /// more). Returns the new run cursor. cap == 1 reproduces the per-task
  /// path exactly.
  size_t CoalesceBatch(Executor& ex, const std::vector<Task>& run,
                       size_t start, size_t cap, TaskBatch* batch);
  /// Projects this domain's executor slice into `view` (serving/
  /// placement.h), reusing its vector capacity. Fail-stopped executors are
  /// left out.
  void BuildViewInto(ServerView* view) const SCHEMBLE_REQUIRES(mu_);
  /// Captures the buffered queries (arrival order) with their generations
  /// into the plan workspace, reusing its capacity.
  void SnapshotBufferLocked(PlanWorkspace* ws) const SCHEMBLE_REQUIRES(mu_);
  /// Assigns `subset` (QueryLifecycle::Assign), republishes the buffer
  /// count and returns the query's post-commit generation.
  uint64_t CommitLocked(int index, SubsetMask subset) SCHEMBLE_REQUIRES(mu_);
  /// Claims finalization (QueryLifecycle::Finalize); returns false if
  /// already finalized here.
  bool ClaimFinalizeLocked(int index) SCHEMBLE_REQUIRES(mu_);
  /// Places one task per model of `subset` (PlaceTask against `view`) into
  /// s->runs, each stamped with the query's post-commit `generation`.
  void PlaceTasks(int index, SubsetMask subset, uint64_t generation,
                  ServerView* view, SchedulerScratch* s);
  /// Pushes s->runs onto the executor queues (one PushAll per run) and
  /// re-queues any shortfall left by a fail-stop. Blocks when another
  /// executor's queue is full, hence must not hold mu_; never blocks on
  /// the calling worker's own queue, which only that worker drains.
  void PushRuns(SchedulerScratch* s) SCHEMBLE_EXCLUDES(mu_);
  /// Fail-stop recovery: marks the executor failed, closes-and-drains its
  /// queue into `backlog` (which already holds the worker's un-started run
  /// remainder, in-flight task included) and re-queues every affected
  /// query. Called by the failing worker, which exits afterwards.
  void FailStopExecutor(int executor_id, std::vector<Task>* backlog,
                        MetricSink* shard) SCHEMBLE_EXCLUDES(mu_);
  /// Re-queues the queries of `tasks`: each query whose generation still
  /// matches is released to kPending and re-admitted through AdmitBatch,
  /// so the policy decides afresh against post-failure capacity. Stale
  /// tasks (query re-queued by a sibling failure, finalized, or
  /// re-assigned since dispatch) are dropped and counted. Queries the
  /// re-admission finalizes are recorded into `shard`.
  void RequeueTasks(std::span<const Task> tasks, MetricSink* shard)
      SCHEMBLE_EXCLUDES(mu_);
  void PublishBufferedLocked() SCHEMBLE_REQUIRES(mu_) {
    buffered_count_.store(static_cast<int64_t>(lifecycle_.buffer().size()),
                          // relaxed-ok: advisory load hint; readers tolerate staleness by design
                          std::memory_order_relaxed);
  }

  const SyntheticTask* task_;
  ServingPolicy* policy_;
  ConcurrentServer* server_;
  const ConcurrentServerOptions& options_;
  DomainSlice slice_;
  std::vector<Executor> executors_;
  /// Per-model batch latency curves (profile-calibrated, max_batch clamped
  /// by options_.max_batch). Built iff options_.batching; empty means every
  /// batch-aware code path falls back to the exact per-task arithmetic.
  std::vector<BatchLatencyModel> batch_models_;
  const QueryTrace* trace_ = nullptr;
  Clock* clock_ = nullptr;

  /// Routed-but-unadmitted trace indices: the only write path into a
  /// domain from outside (the arrival pump), drained by the admitter.
  MpmcQueue<int> inbox_;
  /// Published inbox occupancy for lock-free load reads. Pushers add AFTER
  /// the push lands and drainers subtract AFTER the pop, so the count can
  /// be transiently negative or stale; consumers treat <= 0 as empty.
  /// Wakeups never depend on it — the blocking admitter is driven by the
  /// inbox's own condition variable.
  std::atomic<int64_t> inbox_depth_{0};
  std::atomic<int64_t> buffered_count_{0};

  /// Guards policy calls, lifecycle_, deadline_heap_. Stats
  /// collection is on: bench_runtime reports per-domain critical-section
  /// pressure. Owner tracking keeps "completion work runs off-lock" a
  /// DCHECKed invariant. Rank kDomain: the first runtime lock on every
  /// scheduling path — queue locks, the clock, and done_mu_ all order
  /// after it (and in today's runtime are never even held together with
  /// it; the rank guards the future cancellation paths).
  Mutex mu_ SCHEMBLE_ACQUIRED_AFTER(lock_ranks::server_anchor){
      LockRank::kDomain, "scheduler_domain.mu", Mutex::StatsMode::kEnabled};
  /// Per-query states and this domain's shard of the buffer. Generations
  /// are recorded per query by off-lock planning snapshots and stamped on
  /// dispatched tasks; a mismatch later means the query moved on, so the
  /// plan entry or task is dropped.
  QueryLifecycle lifecycle_ SCHEMBLE_GUARDED_BY(mu_);
  /// Min-heap of (deadline, index) over queries admitted here (rejection
  /// mode only). Entries go stale when a query is finalized or released;
  /// the deadline thread drops them on pop.
  std::priority_queue<std::pair<SimTime, int>,
                      std::vector<std::pair<SimTime, int>>,
                      std::greater<std::pair<SimTime, int>>>
      deadline_heap_ SCHEMBLE_GUARDED_BY(mu_);
  bool arrivals_done_ SCHEMBLE_GUARDED_BY(mu_) = false;
  bool shutdown_ SCHEMBLE_GUARDED_BY(mu_) = false;
  /// The planner token: set while a thread runs PlanRounds. A thread whose
  /// event makes a round useful while it is set leaves replan_requested_
  /// for the holder instead, the way the simulator's draining_ guard keeps
  /// DrainBuffer from re-entering.
  bool planning_ SCHEMBLE_GUARDED_BY(mu_) = false;
  bool replan_requested_ SCHEMBLE_GUARDED_BY(mu_) = false;

  /// The domain's one planning context. Only the holder of the planner
  /// token (planning_) touches these, and the token changes hands under
  /// mu_, so PlanOnView stays serialized per domain whichever thread
  /// plans. The scratch's shard is the holder's own, set per PlanRounds.
  PlanWorkspace plan_ws_;
  ServerView plan_view_;
  SchedulerScratch plan_scratch_{nullptr};
  /// The metric shard of the tail round ArrivalsDone runs on its caller.
  MetricSink* tail_shard_ = nullptr;

  /// Wakes the deadline thread for newly admitted (earlier) deadlines and
  /// at shutdown.
  CondVar deadline_cv_;

  /// Telemetry (see StatsSnapshot). Atomics so tests/benches read them
  /// without the domain mutex; workers add their batch counters once per
  /// published completion log, not once per execution.
  std::atomic<int64_t> plans_{0};
  std::atomic<int64_t> plan_commits_{0};
  std::atomic<int64_t> plans_invalidated_{0};
  std::atomic<int64_t> replans_{0};
  std::atomic<int64_t> failstops_{0};
  std::atomic<int64_t> requeues_{0};
  std::atomic<int64_t> stale_tasks_dropped_{0};
  std::atomic<int64_t> batches_executed_{0};
  std::atomic<int64_t> tasks_batched_{0};
  std::atomic<int64_t> stuck_rounds_{0};

  std::vector<std::thread> threads_;
  std::atomic<bool> shutdown_requested_{false};
  bool started_ = false;
};

}  // namespace schemble

#endif  // SCHEMBLE_RUNTIME_SCHEDULER_DOMAIN_H_
