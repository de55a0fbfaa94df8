#ifndef SCHEMBLE_SERVING_SERVER_H_
#define SCHEMBLE_SERVING_SERVER_H_

#include <cstdint>
#include <deque>
#include <vector>

#include "core/aggregation.h"
#include "core/policy.h"
#include "models/synthetic_task.h"
#include "serving/completion.h"
#include "serving/metrics.h"
#include "serving/query_lifecycle.h"
#include "simcore/simulation.h"
#include "workload/trace.h"

namespace schemble {

struct ServerOptions {
  /// One entry per deployed executor: the base-model index it serves. An
  /// empty list deploys exactly one executor per base model (the paper's
  /// default pipeline); static selection passes replicas here.
  std::vector<int> executor_models;
  /// Rejection mode (Exp-1): queries that cannot produce any output by
  /// their deadline are dropped and counted as misses. Force mode (Exp-2)
  /// processes everything and reports latency.
  bool allow_rejection = true;
  /// Window for the per-segment series.
  SimTime segment_duration = 60 * kSecond;
  /// Optional aggregation module; when null, the task's reference weighted
  /// average over available outputs is used.
  const Aggregator* aggregator = nullptr;
  uint64_t seed = 97;
};

/// Discrete-event simulation of the ensemble-serving node: per-executor
/// FIFO task queues, non-preemptive execution with jittered service times,
/// the central query buffer, deadline bookkeeping, aggregation of whatever
/// outputs are ready, and metric collection. All decisions are delegated to
/// a ServingPolicy.
class EnsembleServer {
 public:
  EnsembleServer(const SyntheticTask& task, ServingPolicy* policy,
                 ServerOptions options);

  /// Replays the trace to completion and returns the metrics. One-shot:
  /// the simulation clock only moves forward, so construct a fresh server
  /// per run (CHECK-enforced).
  ServingMetrics Run(const QueryTrace& trace);

 private:
  struct Executor {
    int model = 0;
    bool busy = false;
    SimTime busy_until = 0;
    std::deque<int> queue;  // query indices awaiting this executor
  };

  void HandleArrival(int index);
  /// Applies `subset` for query `index`; `overhead` delays the enqueue.
  void Commit(int index, SubsetMask subset, SimTime overhead);
  void EnqueueTasks(int index, SubsetMask subset);
  void TryStart(int executor_id);
  void HandleCompletion(int executor_id, int index);
  void HandleDeadline(int index);
  void DrainBuffer();
  void Finalize(int index, SubsetMask outputs, SimTime completion);
  /// Projects every executor into view_ (serving/placement.h).
  void BuildView();
  SimTime DrawServiceTime(int model);
  bool AnyExecutorIdle() const;

  const SyntheticTask* task_;
  ServingPolicy* policy_;
  ServerOptions options_;
  Simulation sim_;
  Rng rng_;
  const QueryTrace* trace_ = nullptr;
  std::vector<Executor> executors_;
  /// Per-query states and the arrival-ordered buffer.
  QueryLifecycle lifecycle_;
  /// Reused by every projection: a policy call reads it before any commit
  /// re-projects it to place the committed tasks.
  ServerView view_;
  /// Reused by every DrainBuffer: the buffer snapshot PlanOnView reads,
  /// the plan it writes, and the policy's planning state for the run.
  PlanWorkspace plan_ws_;
  ServingMetrics metrics_;
  /// Reused across every Finalize call: the single-threaded simulator
  /// finalizes queries one at a time, so one workspace serves the run.
  CompletionWorkspace completion_ws_;
  bool draining_ = false;
  bool ran_ = false;
};

}  // namespace schemble

#endif  // SCHEMBLE_SERVING_SERVER_H_
