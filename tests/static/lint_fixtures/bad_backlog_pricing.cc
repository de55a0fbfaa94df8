// lint-path: src/runtime/fixture_backlog_pricing.cc
// lint-expect: backlog-pricing
// lint-expect: backlog-pricing
//
// BacklogUs( in src/ outside the batch latency model and the placement
// module: a qualified call and a member call both fire, with no marker
// escape; a comment naming BacklogUs(q) does not.

namespace schemble {

SimTime ProjectAgain(const BatchLatencyModel& bm, int64_t queued) {
  // A second availability projection: what the rule keeps out.
  const SimTime backlog = bm.BacklogUs(queued);
  return backlog + task_models_[0].BacklogUs(queued + 1);  // hot-ok: no
}

}  // namespace schemble
