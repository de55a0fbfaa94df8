#include "runtime/concurrent_server.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <utility>

#include "common/hot_path.h"
#include "common/logging.h"
#include "serving/completion.h"

namespace schemble {

ConcurrentServer::ConcurrentServer(const SyntheticTask& task,
                                   ServingPolicy* policy,
                                   ConcurrentServerOptions options)
    : ConcurrentServer(task, std::vector<ServingPolicy*>{policy},
                       std::move(options)) {}

ConcurrentServer::ConcurrentServer(const SyntheticTask& task,
                                   std::vector<ServingPolicy*> policies,
                                   ConcurrentServerOptions options)
    : task_(&task),
      policies_(std::move(policies)),
      options_(std::move(options)) {
  SCHEMBLE_CHECK_GT(options_.num_domains, 0);
  SCHEMBLE_CHECK_EQ(policies_.size(),
                    static_cast<size_t>(options_.num_domains))
      << "one policy instance per scheduler domain (stateful policy calls "
         "are serialized per domain)";
  for (ServingPolicy* policy : policies_) {
    SCHEMBLE_CHECK(policy != nullptr);
    SCHEMBLE_CHECK_EQ(policy->ArrivalProcessingDelay(),
                      policies_[0]->ArrivalProcessingDelay())
        << "domain policies must agree on ArrivalProcessingDelay";
  }
  SCHEMBLE_CHECK_GT(options_.speedup, 0.0);
  SCHEMBLE_CHECK_GT(options_.queue_capacity, 0);
  SCHEMBLE_CHECK_GT(options_.inbox_capacity, 0);
  SCHEMBLE_CHECK_GE(options_.max_batch, 0);
  SCHEMBLE_CHECK_GT(options_.num_arrival_threads, 0)
      << "at least one arrival pump is required";
  SCHEMBLE_CHECK_LE(options_.num_arrival_threads, 64)
      << "arrival pump count capped at 64 (one OS thread each)";
  SCHEMBLE_CHECK(options_.arrival_pump_weights.empty() ||
                 options_.arrival_pump_weights.size() ==
                     static_cast<size_t>(options_.num_arrival_threads))
      << "arrival_pump_weights must be empty or have one entry per pump";
  for (const int w : options_.arrival_pump_weights) {
    SCHEMBLE_CHECK_GT(w, 0) << "arrival pump weights must be positive";
  }
  SCHEMBLE_CHECK(options_.router == nullptr ||
                 options_.num_arrival_threads == 1)
      << "a custom router is single-caller by contract; built-in routing "
         "kinds get one instance per arrival pump";
  if (options_.executor_models.empty()) {
    for (int k = 0; k < task_->num_models(); ++k) {
      options_.executor_models.push_back(k);
    }
  }
  SCHEMBLE_CHECK(options_.executor_faults.empty() ||
                 options_.executor_faults.size() ==
                     options_.executor_models.size())
      << "executor_faults must be empty or match the executor count";

  // Partition the executor pool: each model's replicas are dealt
  // round-robin across domains, so replica counts that are multiples of
  // num_domains split evenly and every domain can serve whole subsets.
  const int n_domains = options_.num_domains;
  std::vector<DomainSlice> slices(static_cast<size_t>(n_domains));
  std::vector<int> next_domain(static_cast<size_t>(task_->num_models()), 0);
  std::vector<int> model_replicas(static_cast<size_t>(task_->num_models()),
                                  0);
  for (size_t e = 0; e < options_.executor_models.size(); ++e) {
    const int model = options_.executor_models[e];
    SCHEMBLE_CHECK_GE(model, 0);
    SCHEMBLE_CHECK_LT(model, task_->num_models());
    const int d = next_domain[static_cast<size_t>(model)];
    next_domain[static_cast<size_t>(model)] = (d + 1) % n_domains;
    ++model_replicas[static_cast<size_t>(model)];
    DomainSlice& slice = slices[static_cast<size_t>(d)];
    slice.executor_models.push_back(model);
    slice.executor_ids.push_back(static_cast<int>(e));
    // Faults follow their executor into its domain slice.
    if (!options_.executor_faults.empty()) {
      slice.faults.push_back(options_.executor_faults[e]);
    }
  }
  for (int k = 0; k < task_->num_models(); ++k) {
    if (model_replicas[static_cast<size_t>(k)] == 0) continue;
    SCHEMBLE_CHECK_GE(model_replicas[static_cast<size_t>(k)], n_domains)
        << "model " << k << " has fewer replicas than scheduler domains; "
        << "every domain must be able to serve every deployed model";
  }

  if (n_domains > 1) {
    if (options_.router != nullptr) {
      router_ = options_.router;
    } else {
      // RoutingPolicy instances are single-caller by contract, so each
      // pump routes through its own instance — no cross-pump
      // synchronization exists at all for hash/round-robin, and the
      // load-aware kinds read the domains' atomics lock-free.
      for (int p = 0; p < options_.num_arrival_threads; ++p) {
        pump_routers_.push_back(MakeRoutingPolicy(options_.routing));
      }
    }
  }

  for (int d = 0; d < n_domains; ++d) {
    DomainSlice& slice = slices[static_cast<size_t>(d)];
    slice.domain_id = d;
    // The explicit cast happens here, inside a member, because the
    // DomainHost base is private (domains are the only callers).
    domains_.push_back(std::make_unique<SchedulerDomain>(
        *task_, policies_[static_cast<size_t>(d)],
        static_cast<DomainHost*>(this), options_, std::move(slice)));
  }
}

ConcurrentServer::~ConcurrentServer() {
  // Run() joins everything before returning; nothing outlives it.
  SCHEMBLE_CHECK(threads_.empty());
}

int ConcurrentServer::num_executors() const {
  int total = 0;
  for (const auto& domain : domains_) total += domain->num_executors();
  return total;
}

ConcurrentServer::LockStatsSnapshot ConcurrentServer::lock_stats() const {
  LockStatsSnapshot snapshot;
  for (const auto& domain : domains_) {
    const Mutex::Stats stats = domain->lock_stats();
    snapshot.acquisitions += stats.acquisitions;
    snapshot.held_ms += static_cast<double>(stats.held_ns) / 1e6;
  }
  return snapshot;
}

ConcurrentServer::SchedulerStatsSnapshot ConcurrentServer::scheduler_stats(
    int domain) const {
  return domains_[static_cast<size_t>(domain)]->stats();
}

ConcurrentServer::SchedulerStatsSnapshot ConcurrentServer::scheduler_stats()
    const {
  SchedulerStatsSnapshot total;
  for (const auto& domain : domains_) total += domain->stats();
  return total;
}

MetricSink* ConcurrentServer::NewMetricShard() {
  shards_.push_back(
      std::make_unique<MetricSink>(num_segments_, task_->num_models()));
  return shards_.back().get();
}

SCHEMBLE_HOT void ConcurrentServer::FinalizeQueries(
    std::span<const Finalization> batch, MetricSink* shard) {
  // One workspace per finalizing thread (admitters, workers, deadline
  // threads, the pump that runs the tail round):
  // the aggregation/fill/meta-classifier chain reuses it, so steady-state
  // completions perform no heap allocations.
  thread_local CompletionWorkspace completion_ws;
  for (const Finalization& f : batch) {
    const size_t index = static_cast<size_t>(f.index);
    const TracedQuery& tq = trace_->items[index];
    SCHEMBLE_CHECK_EQ(
        finalize_claims_[index].exchange(1, std::memory_order_acq_rel), 0)
        << "query " << tq.query.id
        << " finalized twice (cross-domain double dispatch)";
    const QueryOutcome outcome = EvaluateCompletion(
        *task_, options_.aggregator, tq, f.outputs, f.completion,
        options_.allow_rejection, &completion_ws);
    shard->Record(tq, outcome, options_.segment_duration,
                  &latency_slots_[index]);
  }
  const int64_t added = static_cast<int64_t>(batch.size());
  const int64_t count =
      finalized_total_.fetch_add(added, std::memory_order_acq_rel) + added;
  if (count == static_cast<int64_t>(trace_->items.size())) {
    {
      MutexLock lock(&done_mu_);
      done_ = true;
    }
    done_cv_.NotifyAll();
  }
}

SCHEMBLE_HOT void ConcurrentServer::ArrivalPumpLoop(int pump) {
  const SimTime processing_delay = policies_[0]->ArrivalProcessingDelay();
  const bool multi = domains_.size() > 1;
  RoutingPolicy* router = router_ != nullptr
                              ? router_
                              : (pump_routers_.empty()
                                     ? nullptr
                                     : pump_routers_[static_cast<size_t>(
                                                         pump)].get());
  const std::vector<TracedQuery>& items = trace_->items;
  const size_t n = items.size();
  // This pump's slots [slot_begin, slot_end) of the weighted round-robin
  // cycle; it replays trace index base + slot, walking slots in order and
  // moving `base` on by one cycle each lap, so its indices ascend.
  const std::vector<int>& weights = options_.arrival_pump_weights;
  size_t cycle = 0;
  size_t slot_begin = 0;
  auto weight = [&weights](int p) {
    return weights.empty()
               ? size_t{1}
               : static_cast<size_t>(weights[static_cast<size_t>(p)]);
  };
  for (int p = 0; p < options_.num_arrival_threads; ++p) {
    if (p == pump) slot_begin = cycle;
    cycle += weight(p);
  }
  const size_t slot_end = slot_begin + weight(pump);
  size_t base = 0;
  size_t slot = slot_begin;
  // One pass routes at most inbox_capacity arrivals in total: a larger
  // batch would only park in PushRouted. Buffers are reserved once, so a
  // pass never reallocates.
  const size_t max_batch = std::min(
      static_cast<size_t>(options_.inbox_capacity), std::max<size_t>(n, 1));
  std::vector<std::vector<int>> routed(domains_.size());
  for (std::vector<int>& r : routed) {
    r.reserve(max_batch);  // hot-ok: once per run, before the first pass
  }
  std::vector<DomainLoad> loads(multi ? domains_.size() : 0);
  int64_t routed_total = 0;
  while (base + slot < n) {
    // Each pump paces its own partition: its indices are ascending, so
    // per-pump arrival order is the trace order of its slice.
    clock_->SleepUntil(items[base + slot].arrival_time + processing_delay);
    const SimTime now = clock_->Now();
    for (std::vector<int>& r : routed) r.clear();
    // One lock-free load read per batch, not per query; the pump-local
    // copy is then advanced by in-batch compensation below.
    for (size_t d = 0; d < loads.size(); ++d) {
      loads[d] = domains_[d]->Load();  // crosses(domain)
    }
    // Batched routing: arrivals of this partition already due are placed
    // in this pass, up to max_batch.
    for (size_t batch = 0; batch < max_batch && base + slot < n; ++batch) {
      const int index = static_cast<int>(base + slot);
      const TracedQuery& tq = items[static_cast<size_t>(index)];
      if (tq.arrival_time + processing_delay > now) break;
      int d = 0;
      if (multi) {
        d = router->Route(tq, now, loads);
        SCHEMBLE_CHECK_GE(d, 0);
        SCHEMBLE_CHECK_LT(d, static_cast<int>(domains_.size()));
        // In-batch compensation: load-aware policies see the queries this
        // batch already placed.
        ++loads[static_cast<size_t>(d)].inbox;
      }
      std::vector<int>& out = routed[static_cast<size_t>(d)];
      out.push_back(index);  // hot-ok: bounded by inbox_capacity
      if (++slot == slot_end) {
        slot = slot_begin;
        base += cycle;
      }
    }
    for (size_t d = 0; d < domains_.size(); ++d) {
      if (routed[d].empty()) continue;
      routed_total += static_cast<int64_t>(routed[d].size());
      const std::span<const int> batch(routed[d].data(), routed[d].size());
      const size_t pushed =
          domains_[d]->TryPushRoutedAll(batch);  // crosses(domain)
      if (pushed < batch.size()) {
        // Inbox full: park on the blocking push for the remainder only —
        // the fast path above never waits on a domain.
        domains_[d]->PushRouted(batch.subspan(pushed));  // crosses(domain)
      }
    }
  }
  pump_routed_[static_cast<size_t>(pump)] = routed_total;
  // The last pump to drain its partition broadcasts end-of-arrivals, so
  // every domain sees ArrivalsDone exactly once, after ALL arrivals.
  if (pumps_remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    for (const auto& domain : domains_) domain->ArrivalsDone();
  }
}

ServingMetrics ConcurrentServer::Run(const QueryTrace& trace) {
  SCHEMBLE_CHECK(!ran_) << "ConcurrentServer::Run is one-shot";
  ran_ = true;
  trace_ = &trace;
  const size_t n = trace.items.size();
  SimTime horizon = 0;
  for (const TracedQuery& tq : trace.items) {
    horizon = std::max(horizon, tq.arrival_time);
  }
  num_segments_ = static_cast<size_t>(horizon / options_.segment_duration) + 1;
  finalize_claims_ = std::vector<std::atomic<uint8_t>>(n);
  // relaxed-ok: reset before worker threads exist; thread creation synchronizes
  finalized_total_.store(0, std::memory_order_relaxed);
  latency_slots_.assign(n, std::numeric_limits<double>::quiet_NaN());

  // Deterministic pump partition: trace index i belongs to the pump owning
  // slot (i mod cycle) of the weighted round-robin cycle. Equal weights
  // (the default) reduce to plain round-robin i % P. The split depends
  // only on the trace length and the options — never on seeds or timing —
  // and each pump walks its slice in ascending order (ArrivalPumpLoop),
  // preserving its arrival order.
  const int n_pumps = options_.num_arrival_threads;
  if (n > 0) {
    SCHEMBLE_CHECK_LE(static_cast<size_t>(n_pumps), n)
        << "more arrival pumps than trace queries: at least one pump "
           "would replay nothing";
  }
  pump_routed_.assign(static_cast<size_t>(n_pumps), 0);
  pumps_remaining_.store(n_pumps, std::memory_order_release);

  clock_ = std::make_unique<SteadyClock>(options_.speedup);
  for (const auto& domain : domains_) domain->Start();
  for (int p = 0; p < n_pumps; ++p) {
    threads_.emplace_back([this, p] {
      SetExactTimerSlack();
      ArrivalPumpLoop(p);
    });
  }

  {
    MutexLock lock(&done_mu_);
    while (!done_ && trace_->items.size() > 0) done_cv_.Wait(done_mu_);
  }
  for (const auto& domain : domains_) domain->Shutdown();
  for (const auto& domain : domains_) domain->Join();
  for (std::thread& t : threads_) t.join();
  threads_.clear();

  ServingMetrics metrics;
  for (const auto& shard : shards_) shard->AccumulateInto(&metrics);
  // Trim the subset-size histogram to the largest populated cell, like the
  // pre-sharding recorder did.
  size_t max_size = 0;
  for (size_t s = 0; s < metrics.subset_size_counts.size(); ++s) {
    if (metrics.subset_size_counts[s] > 0) max_size = s;
  }
  metrics.subset_size_counts.resize(max_size + 1);
  metrics.latency_ms.Reserve(n);
  for (double latency : latency_slots_) {
    if (!std::isnan(latency)) metrics.latency_ms.Add(latency);
  }
  return metrics;
}

}  // namespace schemble
