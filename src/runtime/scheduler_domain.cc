#include "runtime/scheduler_domain.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/hot_path.h"
#include "common/logging.h"
#include "common/rng.h"
#include "runtime/concurrent_server.h"
#include "serving/placement.h"

namespace schemble {
namespace {

/// Virtual period of the multi-domain scheduler tick, and the minimum gap
/// between rebalances on signal-driven rounds.
constexpr SimTime kRebalancePeriod = 10 * kMillisecond;

/// Real-time floor of the multi-domain scheduler tick. kRebalancePeriod is
/// 1 us real at speedup 1e4 and 0.1 ns at 1e8; unfloored, every
/// multi-domain scheduler would wake continuously just to find nothing to
/// steal.
constexpr std::chrono::nanoseconds kSchedulerTickFloor =
    std::chrono::microseconds(200);

}  // namespace

SchedulerDomain::SchedulerDomain(const SyntheticTask& task,
                                 ServingPolicy* policy, DomainHost* host,
                                 const ConcurrentServerOptions& options,
                                 DomainSlice slice)
    : task_(&task),
      policy_(policy),
      host_(host),
      options_(options),
      slice_(std::move(slice)),
      inbox_(static_cast<size_t>(options_.inbox_capacity), LockRank::kInbox,
             "scheduler_domain.inbox") {
  // The server validates the shared options; the domain checks its slice.
  SCHEMBLE_CHECK(policy_ != nullptr);
  SCHEMBLE_CHECK(host_ != nullptr);
  SCHEMBLE_CHECK(!slice_.executor_models.empty())
      << "a scheduler domain needs at least one executor";
  SCHEMBLE_CHECK_EQ(slice_.executor_models.size(),
                    slice_.executor_ids.size());
  SCHEMBLE_CHECK(slice_.faults.empty() ||
                 slice_.faults.size() == slice_.executor_models.size())
      << "executor fault list must be empty or match the executor count";
  executors_ = std::vector<Executor>(slice_.executor_models.size());
  for (size_t e = 0; e < executors_.size(); ++e) {
    executors_[e].model = slice_.executor_models[e];
    executors_[e].global_id = slice_.executor_ids[e];
    if (!slice_.faults.empty()) {
      const ExecutorFault& fault = slice_.faults[e];
      SCHEMBLE_CHECK_GT(fault.speed, 0.0);
      SCHEMBLE_CHECK_GE(fault.straggle_factor, 1.0);
      SCHEMBLE_CHECK_GE(fault.straggle_after, 0);
      SCHEMBLE_CHECK_GE(fault.fail_at, 0);
      executors_[e].fault = fault;
    }
    executors_[e].queue = std::make_unique<MpmcQueue<Task>>(
        static_cast<size_t>(options_.queue_capacity),
        LockRank::kExecutorQueue, "scheduler_domain.executor_queue");
  }
  if (options_.batching) {
    batch_models_.reserve(static_cast<size_t>(task_->num_models()));
    for (int k = 0; k < task_->num_models(); ++k) {
      BatchLatencyModel bm = task_->profile(k).batch_latency();
      if (options_.max_batch > 0) {
        bm.max_batch = std::min(bm.max_batch, options_.max_batch);
      }
      SCHEMBLE_CHECK_GE(bm.max_batch, 1);
      batch_models_.push_back(bm);
    }
  }
}

SchedulerDomain::~SchedulerDomain() {
  // The owning server joins every domain before destruction.
  SCHEMBLE_CHECK(threads_.empty());
}

DomainLoad SchedulerDomain::Load() const {
  DomainLoad load;
  load.domain = slice_.domain_id;
  load.inbox = inbox_depth_.load(std::memory_order_acquire);
  // relaxed-ok: advisory load hint; readers tolerate staleness by design
  load.buffered = buffered_count_.load(std::memory_order_relaxed);
  for (const Executor& ex : executors_) {
    load.queued_tasks += ex.queued.load(std::memory_order_acquire);
  }
  load.executors = num_executors();
  return load;
}

SchedulerDomain::StatsSnapshot SchedulerDomain::stats() const {
  StatsSnapshot s;
  // relaxed-ok: monotonic telemetry counter
  s.plans = plans_.load(std::memory_order_relaxed);
  s.plan_commits = plan_commits_.load(std::memory_order_relaxed);
  s.plans_invalidated = plans_invalidated_.load(std::memory_order_relaxed);
  s.replans = replans_.load(std::memory_order_relaxed);
  s.replans_skipped = replans_skipped_.load(std::memory_order_relaxed);
  s.steals = steals_.load(std::memory_order_relaxed);
  s.stolen = stolen_.load(std::memory_order_relaxed);
  s.rebalances = rebalances_.load(std::memory_order_relaxed);
  s.donated = donated_.load(std::memory_order_relaxed);
  s.failstops = failstops_.load(std::memory_order_relaxed);
  s.requeues = requeues_.load(std::memory_order_relaxed);
  s.stale_tasks_dropped =
      stale_tasks_dropped_.load(std::memory_order_relaxed);
  s.batches_executed = batches_executed_.load(std::memory_order_relaxed);
  s.tasks_batched = tasks_batched_.load(std::memory_order_relaxed);
  return s;
}

SchedulerDomain::StatsSnapshot& SchedulerDomain::StatsSnapshot::operator+=(
    const StatsSnapshot& other) {
  plans += other.plans;
  plan_commits += other.plan_commits;
  plans_invalidated += other.plans_invalidated;
  replans += other.replans;
  replans_skipped += other.replans_skipped;
  steals += other.steals;
  stolen += other.stolen;
  rebalances += other.rebalances;
  donated += other.donated;
  failstops += other.failstops;
  requeues += other.requeues;
  stale_tasks_dropped += other.stale_tasks_dropped;
  batches_executed += other.batches_executed;
  tasks_batched += other.tasks_batched;
  return *this;
}

void SchedulerDomain::Start() {
  SCHEMBLE_CHECK(!started_) << "SchedulerDomain::Start is one-shot";
  started_ = true;
  trace_ = &host_->trace();
  clock_ = &host_->clock();
  {
    MutexLock lock(&mu_);
    lifecycle_.Reset(trace_->items.size());
    PublishBufferedLocked();
  }
  // Every thread below may finalize queries, so each gets its own metric
  // shard, created here before the thread exists.
  MetricSink* shard = host_->NewMetricShard();
  threads_.emplace_back([this, shard] {
    SetExactTimerSlack();
    AdmitterLoop(shard);
  });
  shard = host_->NewMetricShard();
  threads_.emplace_back([this, shard] {
    SetExactTimerSlack();
    SchedulerLoop(shard);
  });
  if (options_.allow_rejection) {
    shard = host_->NewMetricShard();
    threads_.emplace_back([this, shard] {
      SetExactTimerSlack();
      DeadlineLoop(shard);
    });
  }
  for (int e = 0; e < num_executors(); ++e) {
    shard = host_->NewMetricShard();
    threads_.emplace_back([this, e, shard] {
      SetExactTimerSlack();
      WorkerLoop(e, shard);
    });
  }
}

void SchedulerDomain::Shutdown() {
  if (shutdown_requested_.exchange(true, std::memory_order_acq_rel)) return;
  {
    MutexLock lock(&mu_);
    shutdown_ = true;
  }
  scheduler_cv_.NotifyAll();
  deadline_cv_.NotifyAll();
  inbox_.Close();
  for (Executor& ex : executors_) ex.queue->Close();
}

void SchedulerDomain::Join() {
  for (std::thread& t : threads_) t.join();
  threads_.clear();
}

void SchedulerDomain::PushRouted(std::span<const int> indices) {
  const size_t pushed = inbox_.PushAll(indices);
  if (pushed == 0) return;  // closed: shutdown already decided
  inbox_depth_.fetch_add(static_cast<int64_t>(pushed),
                         std::memory_order_acq_rel);
}

size_t SchedulerDomain::TryPushRoutedAll(std::span<const int> indices) {
  const size_t pushed = inbox_.TryPushAll(indices);
  if (pushed > 0) {
    inbox_depth_.fetch_add(static_cast<int64_t>(pushed),
                           std::memory_order_acq_rel);
  }
  return pushed;
}

size_t SchedulerDomain::StealRouted(std::vector<int>* out, size_t max_items) {
  const size_t taken = inbox_.StealN(out, max_items);
  if (taken > 0) {
    inbox_depth_.fetch_sub(static_cast<int64_t>(taken),
                           std::memory_order_acq_rel);
  }
  return taken;
}

void SchedulerDomain::ArrivalsDone() {
  {
    MutexLock lock(&mu_);
    arrivals_done_ = true;
    scheduler_signal_ = true;
  }
  // Unconditional wake: the scheduler must observe arrivals_done_ even
  // with an empty buffer so the force-mode stuck check can fire.
  scheduler_cv_.NotifyOne();
}

SCHEMBLE_HOT void SchedulerDomain::BuildViewInto(ServerView* view) const {
  const SimTime now = clock_->Now();
  BeginProjection(*task_, batch_models_, now, options_.allow_rejection, view);
  for (size_t e = 0; e < executors_.size(); ++e) {
    const Executor& ex = executors_[e];
    // Fail-stopped executors are invisible to policies and placement:
    // anything routed to them would never complete. Scenarios must keep at
    // least one live replica per model per domain (PlaceTask CHECK-fails
    // otherwise).
    ProjectExecutor(static_cast<int>(e),
                    {ex.model, !ex.failed.load(std::memory_order_acquire),
                     ex.busy.load(std::memory_order_acquire)
                         ? ex.busy_until.load(std::memory_order_acquire)
                         : now,
                     ex.queued.load(std::memory_order_acquire)},
                    view);
  }
}

SCHEMBLE_HOT void SchedulerDomain::SnapshotBufferLocked(
    PlanWorkspace* ws) const {
  ws->buffer.clear();
  for (int index : lifecycle_.buffer()) {
    ws->buffer.push_back(  // hot-ok: capacity tracks the buffer high-water
        {&trace_->items[static_cast<size_t>(index)], index,
         lifecycle_.state(index).generation()});
  }
}

uint64_t SchedulerDomain::CommitLocked(int index, SubsetMask subset) {
  const bool buffered = lifecycle_.phase(index) == QueryPhase::kBuffered;
  lifecycle_.Assign(index, subset);
  if (buffered) PublishBufferedLocked();
  return lifecycle_.state(index).generation();
}

bool SchedulerDomain::ClaimFinalizeLocked(int index) {
  const bool buffered = lifecycle_.phase(index) == QueryPhase::kBuffered;
  if (!lifecycle_.Finalize(index)) return false;
  if (buffered) {
    PublishBufferedLocked();
    // Buffer membership changed under the planner's feet: the next
    // scheduler round must re-plan (never skip).
    ++view_generation_;
  }
  return true;
}

SCHEMBLE_HOT void SchedulerDomain::PlaceTasks(int index, SubsetMask subset,
                                              uint64_t generation,
                                              ServerView* view,
                                              SchedulerScratch* s) {
  s->runs.resize(executors_.size());  // hot-ok: fixed executor count
  for (int k = 0; k < view->num_models(); ++k) {
    if (!(subset & (SubsetMask{1} << k))) continue;
    const int e = PlaceTask(k, view);
    s->runs[static_cast<size_t>(e)].push_back(  // hot-ok: runs are reused
        Task{index, generation});
  }
}

SCHEMBLE_HOT void SchedulerDomain::EnqueueBatch(
    const std::vector<Commit>& commits, ServerView* view,
    SchedulerScratch* s) {
  if (commits.empty()) return;
  {
    MutexLock lock(&mu_);
    // The simulator enqueues after the overhead delay and drops queries
    // finalized meanwhile (deadline during scheduler overhead); so does
    // this section, placing the rest against the load as it is now.
    BuildViewInto(view);
    for (const Commit& commit : commits) {
      if (lifecycle_.state(commit.index).generation() != commit.generation) {
        continue;
      }
      PlaceTasks(commit.index, commit.subset, commit.generation, view, s);
    }
  }
  PushRuns(s);
}

SCHEMBLE_HOT void SchedulerDomain::PushRuns(SchedulerScratch* s) {
  SCHEMBLE_DCHECK(!mu_.HeldByCurrentThread())
      << "PushRuns blocks on executor queues and must not be called "
         "inside the policy critical section";
  for (size_t e = 0; e < s->runs.size(); ++e) {
    std::vector<Task>& run = s->runs[e];
    if (run.empty()) continue;
    Executor& ex = executors_[e];
    ex.queued.fetch_add(static_cast<int64_t>(run.size()),
                        std::memory_order_acq_rel);
    const size_t pushed =
        ex.queue->PushAll(std::span<const Task>(run.data(), run.size()));
    if (pushed < run.size()) {
      // Queue closed under us: either shutdown (all queries already
      // finalized, so the re-queue below is a no-op) or the executor
      // fail-stopped between placement and push. Re-queue the remainder —
      // conservation: every placed task either lands in a live queue or
      // flows back through RequeueTasks.
      ex.queued.fetch_sub(static_cast<int64_t>(run.size() - pushed),
                          std::memory_order_acq_rel);
      RequeueTasks(std::span<const Task>(run).subspan(pushed), s->shard);
    }
    run.clear();
  }
}

SCHEMBLE_HOT void SchedulerDomain::AdmitBatch(std::span<const int> indices,
                                              ServerView* view,
                                              SchedulerScratch* s) {
  s->rejects.clear();
  bool notify_deadline = false;
  bool notify_scheduler = false;
  bool view_changed = false;
  {
    MutexLock lock(&mu_);
    if (shutdown_) return;
    BuildViewInto(view);
    // The deadline thread sleeps until the earliest armed deadline, so it
    // needs a wake only when this batch arms an earlier one.
    const SimTime earliest_deadline =
        deadline_heap_.empty() ? kSimTimeMax : deadline_heap_.top().first;
    // Batched admission: every routed query gets its decision in this one
    // critical section, and every assigned task its executor. Placement
    // advances the view, so later queries in the batch see the load the
    // earlier ones just added.
    for (const int index : indices) {
      const TracedQuery& tq = trace_->items[static_cast<size_t>(index)];
      SCHEMBLE_CHECK(lifecycle_.phase(index) == QueryPhase::kPending)
          << "query " << tq.query.id << " routed to domain "
          << slice_.domain_id << " twice";
      if (options_.allow_rejection && view->now >= tq.deadline) {
        // The deadline beat admission (the query sat in an inbox or the
        // routing batch while its deadline passed): finalize as a miss
        // without consulting the policy, matching the pre-sharding
        // deadline-thread-beats-admission path.
        if (ClaimFinalizeLocked(index)) {
          s->rejects.push_back(  // hot-ok: bounded by batch size
              {index, 0, view->now});
        }
        continue;
      }
      const ArrivalDecision decision =
          policy_->OnArrival(tq, *view);  // serialized(mu_)
      switch (decision.action) {
        case ArrivalDecision::Action::kAssign: {
          SCHEMBLE_CHECK_NE(decision.subset, 0u);
          PlaceTasks(index, decision.subset,
                     CommitLocked(index, decision.subset), view, s);
          if (options_.allow_rejection) {
            deadline_heap_.push({tq.deadline, index});
          }
          view_changed = true;
          break;
        }
        case ArrivalDecision::Action::kReject:
          if (ClaimFinalizeLocked(index)) {
            s->rejects.push_back(  // hot-ok: bounded by batch size
                {index, 0, view->now});
          }
          break;
        case ArrivalDecision::Action::kBuffer:
          lifecycle_.Buffer(index);
          PublishBufferedLocked();
          if (options_.allow_rejection) {
            deadline_heap_.push({tq.deadline, index});
          }
          view_changed = true;
          break;
      }
    }
    notify_deadline = !deadline_heap_.empty() &&
                      deadline_heap_.top().first < earliest_deadline;
    // One generation bump per batch that assigned (capacity consumed) or
    // buffered (planning inputs grew) anything. A pure-reject batch leaves
    // the planner's world untouched, which is exactly what lets the
    // scheduler skip the redundant replan it would otherwise be woken for.
    if (view_changed) ++view_generation_;
    // Scheduler wakeup folded into the admission critical section (same
    // idiom as worker completions): anything buffered deserves a planning
    // round.
    if (!lifecycle_.buffer().empty()) {
      scheduler_signal_ = true;
      notify_scheduler = true;
    }
  }
  // Pushed at once, as the simulator enqueues a zero-overhead commit. A
  // query finalized since the critical section still gets its tasks run;
  // their completions are dropped by the generation check.
  PushRuns(s);
  if (!s->rejects.empty()) host_->FinalizeQueries(s->rejects, s->shard);
  if (notify_deadline) deadline_cv_.NotifyAll();
  if (notify_scheduler) scheduler_cv_.NotifyOne();
}

bool SchedulerDomain::PlanAndDispatch(bool allow_skip,
                                      uint64_t* last_planned_gen,
                                      PlanWorkspace* plan_ws,
                                      ServerView* view, SchedulerScratch* s) {
  s->commits.clear();
  SimTime overhead = 0;
  // Whether every live executor has nothing running or queued. Only then
  // is a round that commits nothing a stuck buffer: while any executor is
  // busy its completion triggers another round, so the policy is waiting
  // for capacity (coalescing headroom on a busy executor counts as busy).
  bool all_idle = false;
  bool idle_and_stuck = false;
  size_t stuck_buffered = 0;
  bool replanning = false;
  {
    MutexLock lock(&mu_);
    if (shutdown_) return false;
    if (lifecycle_.buffer().empty()) return true;
    // Replan avoidance: when nothing that feeds the planner changed since
    // the last planned snapshot (no admission assigned or buffered, no
    // batch completed, no buffered query finalized/donated/re-queued),
    // re-running PlanOnView could only reproduce the previous answer —
    // skip the whole snapshot -> plan -> commit round. Tick-driven rounds
    // (allow_skip false) and the arrivals-done drain tail always plan, so
    // the force-mode stuck diagnostic below can still fire.
    if (allow_skip && !arrivals_done_ &&
        view_generation_ == *last_planned_gen) {
      // relaxed-ok: monotonic telemetry counter
      replans_skipped_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
    BuildViewInto(view);
    bool any_idle = false;
    all_idle = !view->executors.empty();
    for (const ExecutorView& ex : view->executors) {
      if (ex.available_at <= view->now) {
        any_idle = true;
      } else {
        all_idle = false;
      }
    }
    if (!any_idle && !batch_models_.empty()) {
      // Batching: keep planning while any executor still has coalescing
      // headroom. Filling a busy executor's queue up to one full batch is
      // exactly what lets its worker drain the backlog as one coalesced
      // execution; waiting for idleness would pin queues at depth <= 1 and
      // no batch would ever form.
      for (const ExecutorView& ex : view->executors) {
        if (ex.queue_length <
            batch_models_[static_cast<size_t>(ex.model_index)].max_batch) {
          any_idle = true;
          break;
        }
      }
    }
    if (!any_idle) return true;
    // Snapshot -> plan -> validate/commit. The short critical section
    // only copies state; the policy plans against the immutable
    // snapshot with the mutex RELEASED, so arrivals and completions
    // keep flowing while the DP runs.
    SnapshotBufferLocked(plan_ws);
    // Remember the snapshot's generation, not the post-commit one: a
    // foreign bump during the off-lock plan (arrival, completion) must
    // force the next round to plan against the fresher state.
    const uint64_t snapshot_gen = view_generation_;
    lock.Release();
    // relaxed-ok: monotonic telemetry counter
    plans_.fetch_add(1, std::memory_order_relaxed);
    policy_->PlanOnView(*view, plan_ws);
    overhead = plan_ws->output.overhead_us;
    lock.Acquire();
    if (shutdown_) return false;
    // Validation: a plan entry is committable only if its query's
    // generation still matches the snapshot — otherwise the deadline
    // thread, a worker, or a donation moved the query while we planned,
    // and the entry is stale.
    int64_t invalidated = 0;
    for (const BufferedAssignment& assignment :
         plan_ws->output.assignments) {
      SCHEMBLE_CHECK_NE(assignment.subset, 0u);
      const SnapshotQuery& snap = plan_ws->SnapshotOf(assignment);
      if (lifecycle_.state(snap.index).generation() != snap.generation) {
        ++invalidated;
        continue;
      }
      s->commits.push_back({snap.index, assignment.subset,
                            CommitLocked(snap.index, assignment.subset)});
    }
    plan_commits_.fetch_add(static_cast<int64_t>(s->commits.size()),
                            // relaxed-ok: monotonic telemetry counter
                            std::memory_order_relaxed);
    if (invalidated > 0) {
      plans_invalidated_.fetch_add(invalidated, std::memory_order_relaxed);
      // Part of the plan went stale: immediately re-plan whatever is
      // still buffered against fresh state (self-signal).
      if (!lifecycle_.buffer().empty()) {
        // relaxed-ok: monotonic telemetry counter
        replans_.fetch_add(1, std::memory_order_relaxed);
        scheduler_signal_ = true;
        replanning = true;
      }
    }
    *last_planned_gen = snapshot_gen;
    // Snapshot for the off-lock error log below: the buffer is guarded and
    // workers may finalize (and un-buffer) queries concurrently.
    stuck_buffered = lifecycle_.buffer().size();
    idle_and_stuck = all_idle && s->commits.empty() && arrivals_done_ &&
                     stuck_buffered > 0;
  }
  if (!s->commits.empty()) {
    // The simulator charges scheduling overhead by delaying the
    // dispatched tasks' start; here the scheduler thread pays it in
    // (scaled) wall-clock time before enqueueing.
    if (overhead > 0) clock_->SleepFor(overhead);
    EnqueueBatch(s->commits, view, s);
  } else if (idle_and_stuck && !replanning && !options_.allow_rejection &&
             host_->num_domains() == 1) {
    // Force mode has no deadline thread to finalize abandoned queries; a
    // policy that leaves the buffer untouched forever would hang the run.
    // Multi-domain configurations suppress the log: a stuck shard is
    // expected to be drained by peer steals/donations instead.
    SCHEMBLE_LOG(kError) << "policy left " << stuck_buffered
                         << " buffered queries with idle executors in "
                            "force mode";
  }
  return true;
}

void SchedulerDomain::MaybeSteal(ServerView* view, SchedulerScratch* s) {
  // relaxed-ok: advisory load hint; a stale read only delays a steal
  if (buffered_count_.load(std::memory_order_relaxed) > 0) return;
  if (inbox_depth_.load(std::memory_order_acquire) > 0) return;
  bool any_idle = false;
  for (const Executor& ex : executors_) {
    // A fail-stopped executor is permanently not-busy with an empty queue;
    // without this skip it would read as idle capacity and drive steals
    // forever.
    if (ex.failed.load(std::memory_order_acquire)) continue;
    if (!ex.busy.load(std::memory_order_acquire) &&
        ex.queued.load(std::memory_order_acquire) == 0) {
      any_idle = true;
      break;
    }
  }
  if (!any_idle) return;
  // Victim selection: the peer with the deepest routed backlog. Published
  // depths are approximate; a stale pick just means a smaller (or empty)
  // steal.
  int victim = -1;
  int64_t deepest = 0;
  for (int d = 0; d < host_->num_domains(); ++d) {
    if (d == slice_.domain_id) continue;
    const int64_t depth = host_->peer(d).inbox_depth();  // crosses(domain)
    if (depth > deepest) {
      deepest = depth;
      victim = d;
    }
  }
  if (victim < 0) return;
  s->stolen.clear();
  const size_t got = host_->peer(victim).StealRouted(  // crosses(domain)
      &s->stolen, static_cast<size_t>(options_.steal_batch));
  if (got == 0) return;
  // relaxed-ok: monotonic telemetry counter
  steals_.fetch_add(1, std::memory_order_relaxed);
  stolen_.fetch_add(static_cast<int64_t>(got), std::memory_order_relaxed);
  AdmitBatch(s->stolen, view, s);
}

void SchedulerDomain::MaybeRebalance(ServerView* view, SchedulerScratch* s) {
  s->donations.clear();
  int target = -1;
  {
    MutexLock lock(&mu_);
    if (shutdown_) return;
    const std::vector<int>& buffer = lifecycle_.buffer();
    // Only shed load when the buffer is deep relative to our executor
    // slice — a couple of in-flight plans' worth stays local.
    if (buffer.size() <= 2 * executors_.size()) return;
    DomainLoad best;
    for (int d = 0; d < host_->num_domains(); ++d) {
      if (d == slice_.domain_id) continue;
      const DomainLoad load = host_->peer(d).Load();  // crosses(domain)
      if (target < 0 || StrictlyLessLoaded(load, best)) {
        target = d;
        best = load;
      }
    }
    // Donate only into a pronounced imbalance: the recipient must sit
    // under half our normalized pressure, so balanced systems never churn.
    const DomainLoad mine = Load();
    if (target < 0 || !StrictlyLessLoaded(best, mine, /*factor=*/2)) {
      return;
    }
    // Never past the level point: a batch that overshoots can leave us
    // under half the recipient's pressure, and its rebalancer then donates
    // the same queries straight back.
    const size_t batch = std::min(
        {static_cast<size_t>(options_.steal_batch),
         buffer.size() - executors_.size(),
         static_cast<size_t>(LevellingTransfer(mine, best))});
    // The newest queries leave, newest first. Release bumps each one's
    // generation, invalidating any in-flight plan entry for it.
    s->donations.assign(buffer.rbegin(),
                        buffer.rbegin() + static_cast<ptrdiff_t>(batch));
    for (const int index : s->donations) lifecycle_.Release(index);
    PublishBufferedLocked();
    // Donations shrank the buffer: invalidate any skip decision pending on
    // the old view.
    if (!s->donations.empty()) ++view_generation_;
  }
  if (s->donations.empty()) return;
  const std::span<const int> donations(s->donations);
  const size_t sent =
      host_->peer(target).TryPushRoutedAll(donations);  // crosses(domain)
  if (sent > 0) {
    // No explicit wakeup: the recipient's blocking admitter is woken by
    // its inbox's own condition variable.
    // relaxed-ok: monotonic telemetry counter
    rebalances_.fetch_add(1, std::memory_order_relaxed);
    donated_.fetch_add(static_cast<int64_t>(sent), std::memory_order_relaxed);
  }
  // Recipient inbox full or closed: re-admit the rest here.
  if (sent < donations.size()) AdmitBatch(donations.subspan(sent), view, s);
}

void SchedulerDomain::AdmitterLoop(MetricSink* shard) {
  // The admission half of the pre-sharding server, per domain: block on
  // the inbox (the queue's own condition variable provides the wakeup),
  // run the OnArrival decisions under mu_, dispatch/finalize off-lock.
  // Runs CONCURRENTLY with the scheduler thread's off-lock planning, so a
  // long DP round never delays admission — arrivals keep flowing into the
  // buffer (and their deadline-heap entries keep getting armed) while the
  // planner thinks.
  ServerView view;
  SchedulerScratch scratch(shard);
  while (true) {
    scratch.incoming.clear();
    const size_t drained = inbox_.PopN(
        &scratch.incoming, static_cast<size_t>(options_.inbox_capacity));
    if (drained == 0) return;  // closed and drained: shutdown
    inbox_depth_.fetch_sub(static_cast<int64_t>(drained),
                           std::memory_order_acq_rel);
    AdmitBatch(scratch.incoming, &view, &scratch);
  }
}

void SchedulerDomain::SchedulerLoop(MetricSink* shard) {
  const bool multi = host_->num_domains() > 1;
  const std::chrono::nanoseconds tick = std::max(
      RealDuration(kRebalancePeriod, options_.speedup), kSchedulerTickFloor);
  PlanWorkspace plan_ws;
  plan_ws.state = policy_->CreatePlanState();
  ServerView view;
  SchedulerScratch scratch(shard);
  SimTime last_rebalance = 0;
  // Generation of the last snapshot actually fed to PlanOnView; the
  // sentinel guarantees the first signalled round always plans.
  uint64_t last_planned_gen = ~uint64_t{0};
  while (true) {
    bool tick_fired = false;
    {
      MutexLock lock(&mu_);
      while (!scheduler_signal_ && !shutdown_) {
        if (multi) {
          // Multi-domain schedulers wake on a periodic tick to scan for
          // steal/rebalance opportunities even with no local signal.
          if (!scheduler_cv_.WaitFor(mu_, tick)) {
            tick_fired = true;
            break;
          }
        } else {
          scheduler_cv_.Wait(mu_);
        }
      }
      if (shutdown_) return;
      scheduler_signal_ = false;
    }

    // Snapshot -> plan -> validate/commit over the buffered shard.
    // Tick-driven rounds never skip: the periodic scan is also the
    // backstop that re-plans after pure time passage (availability
    // projections age even when no generation-bumping event fired).
    if (!PlanAndDispatch(!tick_fired, &last_planned_gen, &plan_ws, &view,
                         &scratch)) {
      return;
    }

    // Multi-domain: steal when starving, donate when drowning.
    if (multi) {
      MaybeSteal(&view, &scratch);
      const SimTime now = clock_->Now();
      if (tick_fired || now - last_rebalance >= kRebalancePeriod) {
        last_rebalance = now;
        MaybeRebalance(&view, &scratch);
      }
    }
  }
}

void SchedulerDomain::DeadlineLoop(MetricSink* shard) {
  // Deadlines are armed at admission (assign or buffer) and walked in
  // order. Sleeps on the domain mutex's condition variable until the
  // earliest live deadline; AdmitBatch wakes it only when it arms an
  // earlier one, and shutdown always does.
  MutexLock lock(&mu_);
  while (!shutdown_) {
    // Drop the entries that no longer matter before choosing how long to
    // wait, so the thread never sleeps toward a deadline only to discard
    // it: finalized queries, and pending ones — released to a peer (its
    // heap covers the deadline) or for re-admission here (AdmitBatch
    // re-arms the deadline, or finalizes the query at once if overdue).
    while (!deadline_heap_.empty()) {
      const QueryPhase phase = lifecycle_.phase(deadline_heap_.top().second);
      if (phase != QueryPhase::kPending && phase != QueryPhase::kFinalized) {
        break;
      }
      deadline_heap_.pop();
    }
    if (deadline_heap_.empty()) {
      deadline_cv_.Wait(mu_);
      continue;
    }
    const auto [when, index] = deadline_heap_.top();
    const SimTime now = clock_->Now();
    if (now < when) {
      deadline_cv_.WaitFor(mu_, RealDuration(when - now, options_.speedup));
      continue;
    }
    deadline_heap_.pop();
    // The top is buffered or assigned (stale entries were dropped above
    // under this same lock), so the claim succeeds.
    SCHEMBLE_CHECK(ClaimFinalizeLocked(index));
    const auto [outputs, completion] = lifecycle_.DeadlineOutcome(index, now);
    const Finalization finalization{index, outputs, completion};
    lock.Release();
    host_->FinalizeQueries({&finalization, 1}, shard);
    lock.Acquire();
  }
}

SCHEMBLE_HOT size_t SchedulerDomain::CoalesceBatch(Executor& ex,
                                                   const std::vector<Task>& run,
                                                   size_t start, size_t cap,
                                                   TaskBatch* batch) {
  batch->tasks.clear();
  const size_t capacity_before = batch->tasks.capacity();
  size_t t = start;
  while (t < run.size() && batch->tasks.size() < cap) {
    batch->tasks.push_back(run[t++]);
  }
  if (batch->tasks.size() < cap) {
    // Top up from the queue without blocking: coalesce whatever compatible
    // backlog is already waiting, never wait for more to arrive.
    ex.queue->TryPopN(&batch->tasks, cap - batch->tasks.size());
  }
  // The workspace is reserved to `cap` by the worker, so steady-state
  // coalescing never grows it; the counter feeds the caller's grow guard.
  if (batch->tasks.capacity() != capacity_before) ++batch->grow_events;
  return t;
}

void SchedulerDomain::WorkerLoop(int executor_id, MetricSink* shard) {
  // Longest task run drained from the queue per lock round-trip. Tasks in
  // the local run still count in `queued` (each is decremented at its own
  // service start), so load estimates keep seeing them.
  constexpr size_t kRunLength = 16;
  Executor& ex = executors_[static_cast<size_t>(executor_id)];
  const ModelProfile& profile = task_->profile(ex.model);
  const ExecutorFault& fault = ex.fault;
  const bool batching = !batch_models_.empty();
  const BatchLatencyModel batch_model =
      batching ? batch_models_[static_cast<size_t>(ex.model)]
               : BatchLatencyModel{};
  // Coalescing cap per execution. 1 (batching off) reproduces the per-task
  // path exactly: one jitter draw and one profile.latency_us service
  // interval per task.
  const size_t cap =
      batching ? static_cast<size_t>(batch_model.max_batch) : 1;
  Rng rng(HashSeed("worker", options_.seed + ex.global_id));
  std::vector<Task> run;
  run.reserve(kRunLength);
  TaskBatch batch;  // batch-workspace: one reusable workspace per worker
  batch.tasks.reserve(std::max(cap, size_t{1}));
  // Every execution takes at least one task of the run and at most `cap`,
  // so the log never holds more than one run's worth.
  CompletionLog log;
  log.ended.reserve(kRunLength * cap);
  log.finalizes.reserve(kRunLength * cap);
  while (true) {
    // About to block on the queue: publish first.
    PublishCompletions(ex.model, &log, shard);
    run.clear();
    if (ex.queue->PopN(&run, kRunLength) == 0) {
      return;  // closed and drained: shutdown
    }
    size_t t = 0;
    while (t < run.size()) {
      if (fault.fail_at > 0 && clock_->Now() >= fault.fail_at) {
        // Fail-stop: this executor dies at the first task (batch) examined
        // past fail_at. Tasks already serviced are published first; the
        // un-started local remainder plus everything still queued flows
        // back through RequeueTasks so no query is lost — the worker
        // thread then exits for good.
        PublishCompletions(ex.model, &log, shard);
        std::vector<Task> backlog(run.begin() + static_cast<ptrdiff_t>(t),
                                  run.end());
        FailStopExecutor(executor_id, &backlog, shard);
        return;
      }
      {
        // Steady state: the workspace was reserved to the coalescing cap
        // up front, so the drain may not grow it.
        ScopedGrowGuard grow_guard(batch.grow_events, "worker coalesce");
        t = CoalesceBatch(ex, run, t, cap, &batch);
      }
      const size_t n = batch.tasks.size();
      ex.queued.fetch_sub(static_cast<int64_t>(n),
                          std::memory_order_acq_rel);

      // One jitter draw per batched execution — per task when cap == 1,
      // the exact pre-batching RNG stream.
      double factor = profile.DrawServiceFactor(rng) / fault.speed;
      const SimTime start = clock_->Now();
      if (fault.straggle_after > 0 && start >= fault.straggle_after) {
        // Straggler injection: every task serviced past the onset time is
        // inflated, modelling thermal throttling / noisy-neighbour decay.
        factor *= fault.straggle_factor;
      }
      const SimTime nominal =
          batching ? batch_model.ServiceUs(static_cast<int>(n))
                   : profile.latency_us;
      const SimTime service =
          static_cast<SimTime>(static_cast<double>(nominal) * factor);
      const SimTime end = start + service;
      ex.busy_until.store(end, std::memory_order_release);
      ex.busy.store(true, std::memory_order_release);
      // About to sleep on the OS timer: publish the earlier executions'
      // completions while this one is in service. A service shorter than
      // 1 ns real never reaches the timer, so its completion just joins
      // the log.
      if (RealDuration(service, options_.speedup).count() > 0) {
        PublishCompletions(ex.model, &log, shard);
      }
      clock_->SleepUntil(end);
      ex.busy.store(false, std::memory_order_release);
      for (const Task& task : batch.tasks) {
        log.ended.push_back({task, end});
      }
      ++log.executions;
    }
  }
}

void SchedulerDomain::PublishCompletions(int model, CompletionLog* log,
                                         MetricSink* shard) {
  if (log->ended.empty()) return;
  log->finalizes.clear();
  int64_t stale = 0;
  bool notify = false;
  {
    MutexLock lock(&mu_);
    for (const CompletionLog::Ended& ended : log->ended) {
      const int index = ended.task.index;
      const QueryLifecycle::QueryState& state = lifecycle_.state(index);
      // Every finalize and release bumps the generation, so a match
      // means the query is still assigned to this task's subset.
      if (state.generation() == ended.task.generation) {
        // Publication order is not end-time order across executors, so
        // the query's completion is the latest end among its tasks.
        SimTime done_at = ended.end;
        if (state.done() != 0) {
          done_at = std::max(done_at, state.last_done_time());
        }
        if (lifecycle_.TaskDone(index, model, done_at) &&
            ClaimFinalizeLocked(index)) {
          log->finalizes.push_back(
              {index, state.done(), state.last_done_time()});
        }
      } else if (state.phase() != QueryPhase::kFinalized) {
        // Generation moved on while this task was in service: the query
        // was re-queued after a sibling executor fail-stopped (or donated
        // away and re-planned). Its new assignment owns the done mask
        // now; folding this stale completion in would corrupt it.
        ++stale;
      }
    }
    // Completed executions always free projected capacity, so any planning
    // skip pending on the old view is stale.
    ++view_generation_;
    // Scheduler wakeup folded into the completion critical section:
    // capacity just freed up, so if anything is buffered the planner
    // should look at it. No separate notify lock round-trip.
    if (!lifecycle_.buffer().empty()) {
      scheduler_signal_ = true;
      notify = true;
    }
  }
  // relaxed-ok: monotonic telemetry counters
  batches_executed_.fetch_add(log->executions, std::memory_order_relaxed);
  tasks_batched_.fetch_add(static_cast<int64_t>(log->ended.size()),
                           std::memory_order_relaxed);
  if (stale > 0) {
    stale_tasks_dropped_.fetch_add(stale, std::memory_order_relaxed);
  }
  log->ended.clear();
  log->executions = 0;
  if (!log->finalizes.empty()) host_->FinalizeQueries(log->finalizes, shard);
  if (notify) scheduler_cv_.NotifyOne();
}

void SchedulerDomain::FailStopExecutor(int executor_id,
                                       std::vector<Task>* backlog,
                                       MetricSink* shard) {
  Executor& ex = executors_[static_cast<size_t>(executor_id)];
  // Publish the failure first: dispatch/planning observe it and stop
  // routing here. A dispatcher that raced past the flag hits the closed
  // queue below and re-queues its own remainder (PushRuns shortfall
  // path), so the two sides never double-count a task.
  ex.failed.store(true, std::memory_order_release);
  ex.busy.store(false, std::memory_order_release);
  ex.queue->CloseAndDrain(backlog);
  // Everything in `backlog` — the worker's un-started local run remainder
  // plus the freshly drained queue — was still counted in `queued` (the
  // per-task decrement happens at service start, which none of them
  // reached). Conservation: each backlog task is decremented here exactly
  // once and re-queued exactly once.
  ex.queued.fetch_sub(static_cast<int64_t>(backlog->size()),
                      std::memory_order_acq_rel);
  // relaxed-ok: monotonic telemetry counter
  failstops_.fetch_add(1, std::memory_order_relaxed);
  RequeueTasks(*backlog, shard);
}

void SchedulerDomain::RequeueTasks(std::span<const Task> tasks,
                                   MetricSink* shard) {
  if (tasks.empty()) return;
  std::vector<int> readmit;
  readmit.reserve(tasks.size());
  {
    MutexLock lock(&mu_);
    for (const Task& task : tasks) {
      if (lifecycle_.state(task.index).generation() != task.generation) {
        // Finalized (deadline miss / shutdown drain) or already re-queued
        // via a sibling task of the same query: nothing left to recover.
        // relaxed-ok: monotonic telemetry counter
        stale_tasks_dropped_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      // Wipe the assignment: sibling in-flight tasks of the old subset
      // turn stale via the generation bump and are dropped at completion.
      lifecycle_.Release(task.index);
      readmit.push_back(task.index);
    }
    // The wiped assignments freed executor capacity the planner projected
    // as consumed: never let a pending skip hide the recovery replan.
    if (!readmit.empty()) ++view_generation_;
  }
  if (readmit.empty()) return;
  requeues_.fetch_add(static_cast<int64_t>(readmit.size()),
                      // relaxed-ok: monotonic telemetry counter
                      std::memory_order_relaxed);
  // Full re-admission: the policy decides afresh against post-failure
  // capacity. Fresh scratch and view, because a PushRuns further up this
  // call stack may still be iterating its own.
  ServerView view;
  SchedulerScratch scratch(shard);
  AdmitBatch(readmit, &view, &scratch);
}

}  // namespace schemble
