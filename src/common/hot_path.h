#ifndef SCHEMBLE_COMMON_HOT_PATH_H_
#define SCHEMBLE_COMMON_HOT_PATH_H_

#include <atomic>
#include <cstdint>

#include "common/logging.h"

/// Marks a function as a steady-state hot path: it must perform no heap
/// allocation and no untracked container growth (reusable workspaces only).
///
/// The marker is load-bearing twice over:
///  - tools/lint.py scans every SCHEMBLE_HOT function body and rejects
///    allocation expressions (new / make_unique / malloc) outright, and
///    container-growth calls (push_back / resize / reserve / ...) unless
///    the function routes growth through the repo's grow-event telemetry
///    (ResizeTracked / GrowTo / an explicit grow_events increment) or the
///    line carries a `// hot-ok: <reason>` tag;
///  - the compiler attribute biases optimization toward these functions.
///
/// Convention: annotate the *definition* (where the body lives), between
/// the template/static specifiers and the return type, e.g.
///   SCHEMBLE_HOT double Dot(const double* x, const double* y, int n) {...}
/// See DESIGN.md "Static analysis & lock discipline".
#define SCHEMBLE_HOT __attribute__((hot))

/// Forces inlining of a small helper called once per element of a hot
/// loop, where a call per element would dominate the loop body.
#if defined(__GNUC__) || defined(__clang__)
#define SCHEMBLE_ALWAYS_INLINE inline __attribute__((always_inline))
#else
#define SCHEMBLE_ALWAYS_INLINE inline
#endif

namespace schemble {

/// Asserts that a grow-event counter does not advance during the guard's
/// lifetime: wrap a steady-state section (e.g. a warmed-up completion or
/// fill call) and any allocation that slipped into the hot path becomes a
/// CHECK failure — the death-test harness behind the zero-allocation
/// invariant (see tests/runtime/lock_discipline_test.cc).
///
/// Both counter flavours used in the repo are supported: process-wide
/// atomics (Matrix::OpStats) and per-workspace plain int64_t counters
/// (KnnIndex::Workspace, DpScheduler::WorkspaceStats).
class ScopedGrowGuard {
 public:
  explicit ScopedGrowGuard(const std::atomic<int64_t>& counter,
                           const char* what = "hot path")
      : atomic_(&counter), what_(what), baseline_(Current()) {}
  explicit ScopedGrowGuard(const int64_t& counter,
                           const char* what = "hot path")
      : plain_(&counter), what_(what), baseline_(Current()) {}

  ScopedGrowGuard(const ScopedGrowGuard&) = delete;
  ScopedGrowGuard& operator=(const ScopedGrowGuard&) = delete;

  ~ScopedGrowGuard() {
    const int64_t now = Current();
    SCHEMBLE_CHECK_EQ(now, baseline_)
        << "grow events inside " << what_ << ": " << (now - baseline_)
        << " buffer growth(s) in a section declared allocation-free";
  }

  int64_t baseline() const { return baseline_; }

 private:
  int64_t Current() const {
    // relaxed-ok: advisory telemetry read; no ordering needed
    return atomic_ != nullptr ? atomic_->load(std::memory_order_relaxed)
                              : *plain_;
  }

  const std::atomic<int64_t>* atomic_ = nullptr;
  const int64_t* plain_ = nullptr;
  const char* what_;
  int64_t baseline_;
};

}  // namespace schemble

#endif  // SCHEMBLE_COMMON_HOT_PATH_H_
