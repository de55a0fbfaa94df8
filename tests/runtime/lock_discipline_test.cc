// Death tests for the project's two dynamic discipline layers:
//
//  - lock discipline: the annotated Mutex (common/thread_annotations.h)
//    turns re-entrant Lock and Unlock-by-non-owner — undefined behaviour on
//    a raw std::mutex — into CHECK failures in every build type. The
//    violations are issued through the thread_annotations_internal escapes
//    because the clang thread-safety analysis would otherwise (correctly)
//    reject them at compile time.
//
//  - hot-path allocation discipline: ScopedGrowGuard (common/hot_path.h)
//    pins a grow-event counter across a section declared allocation-free,
//    covering both counter flavours — the process-wide atomic
//    Matrix::op_stats().grow_events and the per-workspace plain int64_t of
//    KnnIndex::Workspace.
//
// These are the runtime teeth behind the static rules in tools/lint.py.

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "common/hot_path.h"
#include "common/thread_annotations.h"
#include "nn/knn.h"
#include "nn/matrix.h"

namespace schemble {
namespace {

using thread_annotations_internal::LockIgnoringAnalysis;
using thread_annotations_internal::UnlockIgnoringAnalysis;

TEST(LockDisciplineDeathTest, ReentrantLockDies) {
  Mutex mu{LockRank::kLeaf, "test.mu"};
  MutexLock lock(&mu);
  EXPECT_DEATH(LockIgnoringAnalysis(mu), "re-entrant Mutex::Lock");
}

TEST(LockDisciplineDeathTest, UnlockWithoutLockDies) {
  Mutex mu{LockRank::kLeaf, "test.mu"};
  EXPECT_DEATH(UnlockIgnoringAnalysis(mu),
               "does not hold the lock");
}

TEST(LockDisciplineDeathTest, UnlockByNonOwnerDies) {
  Mutex mu{LockRank::kLeaf, "test.mu"};
  MutexLock lock(&mu);
  std::thread thief([&mu] {
    EXPECT_DEATH(UnlockIgnoringAnalysis(mu), "does not hold the lock");
  });
  thief.join();
}

// NOTE: the remaining misuse modes (double MutexLock::Release, CondVar::Wait
// without the capability, ...) are compile-time errors under the clang
// thread-safety analysis, so they cannot appear here even inside
// EXPECT_DEATH — which is the point. The scratch-TU compile-fail test
// (tests/static/) proves the analysis rejects them.
TEST(LockDisciplineDeathTest, AssertHeldWithoutLockDies) {
  Mutex mu{LockRank::kLeaf, "test.mu"};
  EXPECT_DEATH(mu.AssertHeld(), "Check failed");
}

// --- hot-path grow-event guards -------------------------------------------

/// 64 records, so the k-d tree of an indexed mask has several levels.
KnnIndex BuildSmallIndex(const std::vector<std::vector<bool>>& indexed = {}) {
  std::vector<std::vector<double>> records;
  for (int r = 0; r < 64; ++r) {
    records.push_back({1.0 * r, 2.0 * (r % 7), 3.0 * r, 4.0 * (r % 5)});
  }
  auto built = KnnIndex::Build(std::move(records), indexed);
  SCHEMBLE_CHECK(built.ok());
  return std::move(built).value();
}

TEST(GrowGuardTest, SteadyStateMatrixApplyIsGrowFree) {
  const Matrix m(8, 4, 0.5);
  const std::vector<double> x(4, 1.0);
  std::vector<double> y;
  m.ApplyInto(x, &y);  // warm-up: y reaches capacity here
  {
    ScopedGrowGuard guard(Matrix::op_stats().grow_events, "Matrix::ApplyInto");
    for (int i = 0; i < 100; ++i) m.ApplyInto(x, &y);
  }
}

TEST(GrowGuardDeathTest, ColdMatrixApplyInsideGuardDies) {
  const Matrix m(8, 4, 0.5);
  const std::vector<double> x(4, 1.0);
  EXPECT_DEATH(
      {
        ScopedGrowGuard guard(Matrix::op_stats().grow_events,
                              "Matrix::ApplyInto");
        std::vector<double> cold;  // no capacity: ApplyInto must grow it
        m.ApplyInto(x, &cold);
      },
      "grow events inside Matrix::ApplyInto");
}

TEST(GrowGuardTest, SteadyStateKnnQueryIsGrowFree) {
  const std::vector<bool> mask = {true, true, false, true};
  // The same query on the scan path and on mask's k-d tree.
  for (const bool indexed : {false, true}) {
    const KnnIndex index =
        indexed ? BuildSmallIndex({mask}) : BuildSmallIndex();
    KnnIndex::Workspace ws;
    std::vector<KnnIndex::Neighbor> out;
    std::vector<double> point = {1.5, 3.0, 4.5, 6.0};
    index.QueryInto(point, mask, 3, &ws, &out);  // warm-up
    index.FillMissingInto(point, mask, 3, &ws, &point);
    {
      ScopedGrowGuard guard(ws.stats.grow_events, "KnnIndex::QueryInto");
      for (int i = 0; i < 100; ++i) {
        point[0] = 0.7 * i;  // walk the tree down different paths
        index.QueryInto(point, mask, 3, &ws, &out);
        index.FillMissingInto(point, mask, 3, &ws, &point);
      }
    }
    EXPECT_EQ(ws.stats.queries, 202);
    EXPECT_EQ(ws.stats.tree_queries, indexed ? 202 : 0);
  }
}

TEST(GrowGuardDeathTest, ColdKnnWorkspaceInsideGuardDies) {
  const std::vector<double> point = {1.5, 3.0, 4.5, 6.0};
  const std::vector<bool> mask = {true, true, false, true};
  for (const bool indexed : {false, true}) {
    const KnnIndex index =
        indexed ? BuildSmallIndex({mask}) : BuildSmallIndex();
    EXPECT_DEATH(
        {
          KnnIndex::Workspace cold;
          std::vector<KnnIndex::Neighbor> out;
          ScopedGrowGuard guard(cold.stats.grow_events,
                                "KnnIndex::QueryInto");
          index.QueryInto(point, mask, 3, &cold, &out);
        },
        "grow events inside KnnIndex::QueryInto");
  }
}

TEST(GrowGuardTest, BaselineIsCapturedAtConstruction) {
  int64_t counter = 7;
  ScopedGrowGuard guard(counter, "baseline check");
  EXPECT_EQ(guard.baseline(), 7);
}

}  // namespace
}  // namespace schemble
