#ifndef SCHEMBLE_COMMON_LOCK_ORDER_H_
#define SCHEMBLE_COMMON_LOCK_ORDER_H_

#include <cstdint>
#include <mutex>
#include <source_location>
#include <sstream>
#include <string>

#include "common/logging.h"

/// Deadlock-freedom layer: the global lock-rank table plus the runtime
/// lock-order validator behind it (DESIGN.md "Static analysis & lock
/// discipline").
///
/// Every annotated Mutex (common/thread_annotations.h) is constructed with
/// one of the ranks below. The rule is a strict total order: a thread may
/// only BLOCK on a mutex whose rank is strictly greater than every rank it
/// already holds.
///
/// In checked builds (see SCHEMBLE_LOCK_ORDER_CHECKS) every blocking
/// acquisition validates against a thread-local held-lock stack and records
/// a rank-level edge in a global lock-order graph; the first edge that
/// closes a cycle — or nests two distinct same-rank locks — CHECK-fails
/// with both acquisition sites, so every test, stress scenario and TSan
/// lane doubles as a deadlock detector. Release builds compile the hooks
/// away entirely.
///
/// This header deliberately knows nothing about Mutex (it operates on
/// opaque pointers) so thread_annotations.h can include it without a
/// cycle. The raw std::mutex guarding the graph below is the one permitted
/// exception to the naked-mutex lint rule outside thread_annotations.h:
/// the validator cannot be built on the primitive it validates.

/// The validator is active whenever assertions are (Debug), under any
/// sanitizer (the ASan/UBSan/TSan CI lanes run the full suite), or when
/// forced via -DSCHEMBLE_LOCK_ORDER=ON at configure time.
#if defined(SCHEMBLE_FORCE_LOCK_ORDER)
#define SCHEMBLE_LOCK_ORDER_CHECKS 1
#elif !defined(NDEBUG)
#define SCHEMBLE_LOCK_ORDER_CHECKS 1
#elif defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define SCHEMBLE_LOCK_ORDER_CHECKS 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define SCHEMBLE_LOCK_ORDER_CHECKS 1
#else
#define SCHEMBLE_LOCK_ORDER_CHECKS 0
#endif
#else
#define SCHEMBLE_LOCK_ORDER_CHECKS 0
#endif

namespace schemble {

/// The global rank table. Acquisition order is strictly increasing: a
/// thread holding a lock of rank R may only block on ranks > R. Keep this
/// enum, the anchor chain in thread_annotations.h, and the DESIGN.md rank
/// table in sync — tools/lint.py (`lock-rank` rule) cross-checks all
/// three.
enum class LockRank : int {
  /// Reserved head of the order for a future server-global control-plane
  /// lock (admission reconfiguration, domain membership). Nothing holds it
  /// today; it exists so the table never needs renumbering when one lands.
  kServer = 0,
  /// SchedulerDomain::mu_ — the per-domain policy/buffer mutex.
  kDomain = 1,
  /// A scheduler domain's admission inbox (MpmcQueue<int> routing slots).
  kInbox = 2,
  /// A per-executor task queue (MpmcQueue<Task>).
  kExecutorQueue = 3,
  /// ManualClock::mu_ — Now() is called under a domain mutex in simulated
  /// time, so the clock must rank after every scheduler lock.
  kClock = 4,
  /// ConcurrentServer::done_mu_ — the completion latch; always the last
  /// lock on a finalization path, never held across anything.
  kDone = 5,
  /// Standalone utility and test locks with no ordering relationship to
  /// the runtime; must stay the tail of the order.
  kLeaf = 6,
};

inline constexpr int kNumLockRanks = 7;

inline const char* LockRankName(LockRank rank) {
  switch (rank) {
    case LockRank::kServer: return "kServer";
    case LockRank::kDomain: return "kDomain";
    case LockRank::kInbox: return "kInbox";
    case LockRank::kExecutorQueue: return "kExecutorQueue";
    case LockRank::kClock: return "kClock";
    case LockRank::kDone: return "kDone";
    case LockRank::kLeaf: return "kLeaf";
  }
  return "<invalid rank>";
}

namespace lock_order {

/// One acquisition site, durable for the process lifetime (name and file
/// point at string literals / static storage from std::source_location).
struct Site {
  const char* name = nullptr;  ///< Mutex name, e.g. "scheduler_domain.mu".
  const char* file = nullptr;
  uint32_t line = 0;
};

inline std::ostream& operator<<(std::ostream& os, const Site& s) {
  return os << "\"" << (s.name ? s.name : "?") << "\" at "
            << (s.file ? s.file : "?") << ":" << s.line;
}

/// Process-global rank-level lock-order graph. Nodes are LockRank values;
/// an edge A -> B means "some thread blocked on a rank-B lock while
/// holding a rank-A lock", with the first witnessing pair of acquisition
/// sites kept for diagnostics. RecordEdge refuses (returning false and a
/// report) any edge that nests two distinct same-rank locks or closes a
/// cycle — i.e. the first acquisition that could deadlock against an
/// order some other path already established.
///
/// Instantiable so unit tests can drive a private graph; the validator
/// uses the GlobalLockOrderGraph() singleton.
class LockOrderGraph {
 public:
  LockOrderGraph() = default;
  LockOrderGraph(const LockOrderGraph&) = delete;
  LockOrderGraph& operator=(const LockOrderGraph&) = delete;

  /// Records "a rank-`from` lock was held while blocking on rank `to`".
  /// Returns true when the edge is consistent with every edge recorded so
  /// far; on violation returns false and, when `violation` is non-null,
  /// fills it with a report naming both acquisition sites of the current
  /// nesting and the previously witnessed inverse path.
  bool RecordEdge(LockRank from, Site holder, LockRank to, Site acquiring,
                  std::string* violation) {
    const int a = static_cast<int>(from), b = static_cast<int>(to);
    std::lock_guard<std::mutex> g(graph_mu_);
    if (a == b) {
      if (violation) {
        std::ostringstream os;
        os << "lock-order violation: blocking on " << acquiring
           << " while holding the same-rank (" << LockRankName(from)
           << ") lock " << holder
           << "; two locks of equal rank have no defined order and may "
              "never nest (rank table: src/common/lock_order.h)";
        *violation = os.str();
      }
      return false;
    }
    if (edges_[a][b].present) return true;
    int parent[kNumLockRanks];
    if (PathLocked(b, a, parent)) {
      if (violation) {
        std::ostringstream os;
        os << "lock-order inversion: blocking on " << acquiring << " (rank "
           << LockRankName(to) << ") while holding " << holder << " (rank "
           << LockRankName(from) << ") would establish "
           << LockRankName(from) << " -> " << LockRankName(to)
           << ", but the inverse order is already witnessed:";
        // Walk the recorded path b -> ... -> a, printing each hop's first
        // witness so both sides of the cycle are actionable.
        for (int v = a; v != b;) {
          const int u = parent[v];
          const EdgeInfo& e = edges_[u][v];
          os << "\n  " << LockRankName(static_cast<LockRank>(u)) << " -> "
             << LockRankName(static_cast<LockRank>(v)) << ": held "
             << e.holder << ", then blocked on " << e.acquiring;
          v = u;
        }
        *violation = os.str();
      }
      return false;
    }
    edges_[a][b] = EdgeInfo{true, holder, acquiring};
    return true;
  }

  bool HasEdge(LockRank from, LockRank to) const {
    std::lock_guard<std::mutex> g(graph_mu_);
    return edges_[static_cast<int>(from)][static_cast<int>(to)].present;
  }

  /// Drops every recorded edge. Test-only: the process-global graph
  /// accumulates edges from all runtime activity, so tests that assert on
  /// graph contents must use their own instance instead.
  void Reset() {
    std::lock_guard<std::mutex> g(graph_mu_);
    for (auto& row : edges_) {
      for (auto& e : row) e = EdgeInfo{};
    }
  }

 private:
  struct EdgeInfo {
    bool present = false;
    Site holder;     ///< First witnessed acquisition of the held lock.
    Site acquiring;  ///< First witnessed blocking acquisition under it.
  };

  /// DFS reachability `from -> ... -> to` over recorded edges; fills
  /// `parent` so the caller can reconstruct the witnessing path.
  bool PathLocked(int from, int to, int parent[kNumLockRanks]) const {
    bool visited[kNumLockRanks] = {};
    int stack[kNumLockRanks];
    int top = 0;
    stack[top++] = from;
    visited[from] = true;
    while (top > 0) {
      const int u = stack[--top];
      if (u == to) return true;
      for (int v = 0; v < kNumLockRanks; ++v) {
        if (edges_[u][v].present && !visited[v]) {
          visited[v] = true;
          parent[v] = u;
          stack[top++] = v;
        }
      }
    }
    return false;
  }

  mutable std::mutex graph_mu_;
  EdgeInfo edges_[kNumLockRanks][kNumLockRanks] = {};
};

inline LockOrderGraph& GlobalLockOrderGraph() {
  static LockOrderGraph* graph = new LockOrderGraph();  // never destroyed
  return *graph;
}

/// Per-thread stack of currently held annotated locks. Fixed capacity: the
/// runtime never legitimately nests more than a handful (the rank table
/// has kNumLockRanks levels); blowing the cap is itself a discipline bug.
struct HeldLockStack {
  static constexpr int kMaxHeld = 16;
  struct Entry {
    const void* mu = nullptr;
    LockRank rank = LockRank::kLeaf;
    Site site;
  };
  Entry entries[kMaxHeld];
  int depth = 0;
};

inline HeldLockStack& ThisThreadHeldLocks() {
  thread_local HeldLockStack stack;
  return stack;
}

/// Number of annotated locks the calling thread currently holds (CondVar
/// waits temporarily vacate their mutex's slot). Exposed for tests.
inline int HeldLockCount() { return ThisThreadHeldLocks().depth; }

/// Validates a BLOCKING acquisition of `mu` against the locks this thread
/// already holds and records the rank edge; CHECK-fails on the first
/// inversion, printing both acquisition sites. Must run BEFORE the
/// underlying lock() call — after it, an actual inversion would already
/// be deadlocked and never reach the check.
inline void ValidateBlockingAcquire(
    const void* mu, LockRank rank, const char* name,
    const std::source_location& loc = std::source_location::current()) {
  HeldLockStack& held = ThisThreadHeldLocks();
  if (held.depth == 0) return;
  const HeldLockStack::Entry& top = held.entries[held.depth - 1];
  // Re-entrant self-lock is Mutex's own CHECK; don't double-report.
  if (top.mu == mu) return;
  std::string violation;
  const Site acquiring{name, loc.file_name(), loc.line()};
  if (!GlobalLockOrderGraph().RecordEdge(top.rank, top.site, rank, acquiring,
                                         &violation)) {
    SCHEMBLE_CHECK(false) << violation;
  }
}

/// Pushes a successfully acquired lock onto the held stack. Called for
/// every acquisition path (Lock, CondVar wait re-entry).
inline void NoteAcquired(
    const void* mu, LockRank rank, const char* name,
    const std::source_location& loc = std::source_location::current()) {
  HeldLockStack& held = ThisThreadHeldLocks();
  SCHEMBLE_CHECK(held.depth < HeldLockStack::kMaxHeld)
      << "held-lock stack overflow acquiring \"" << name << "\" at "
      << loc.file_name() << ":" << loc.line() << " (depth "
      << held.depth << "); no sane locking discipline nests this deep";
  held.entries[held.depth++] =
      HeldLockStack::Entry{mu, rank, Site{name, loc.file_name(), loc.line()}};
}

/// Removes `mu` from the held stack. Out-of-order release is legal
/// (MutexLock::Release on an outer guard), hence middle removal.
inline void NoteReleased(const void* mu) {
  HeldLockStack& held = ThisThreadHeldLocks();
  for (int i = held.depth - 1; i >= 0; --i) {
    if (held.entries[i].mu != mu) continue;
    for (int j = i; j + 1 < held.depth; ++j) {
      held.entries[j] = held.entries[j + 1];
    }
    --held.depth;
    return;
  }
  SCHEMBLE_CHECK(false)
      << "lock-order bookkeeping: released a mutex not on this thread's "
         "held stack (Unlock on a lock acquired by another thread?)";
}

}  // namespace lock_order
}  // namespace schemble

#endif  // SCHEMBLE_COMMON_LOCK_ORDER_H_
