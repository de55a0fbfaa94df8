#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "nn/knn.h"
#include "nn/knn_reference.h"
#include "nn/matrix.h"
#include "nn/mlp.h"

namespace schemble {
namespace {

// Randomized equivalence: the flat/heap/blocked KnnIndex must produce
// BIT-IDENTICAL neighbors and fills to the retained ReferenceKnnIndex
// (the pre-optimization algorithm) across a wide sweep of shapes, on both
// search paths: the blocked scan (no indexed masks) and the k-d tree
// (every query mask indexed at Build). Bitwise equality is the
// load-bearing contract — the serving regression test pins exact metrics
// downstream of these fills — so comparisons use EXPECT_EQ on doubles
// throughout.

struct EquivalenceCase {
  int n = 0;
  int dim = 0;
  int k = 0;
  double observed_density = 0.5;
  uint64_t seed = 0;
};

std::vector<EquivalenceCase> BuildCases() {
  std::vector<EquivalenceCase> cases;
  uint64_t seed = 1;
  // 5 sizes x 3 dims x 3 ks x 3 densities = 135 configurations. n = 1 is
  // a single record, 7 sits below one tree leaf, 17 just above it, and
  // k = 64 covers k >= n.
  for (int n : {1, 7, 17, 300, 1000}) {
    for (int dim : {1, 6, 16}) {
      for (int k : {1, 10, 64}) {
        for (double density : {0.2, 0.6, 1.0}) {
          cases.push_back({n, dim, k, density, seed++});
        }
      }
    }
  }
  return cases;
}

/// Draws record values from a small lattice so exact distance ties are
/// common and the (squared distance, index) tie-break is genuinely
/// exercised, not just dodged by fuzz.
std::vector<std::vector<double>> LatticeRecords(int n, int dim, Rng& rng) {
  std::vector<std::vector<double>> records(n, std::vector<double>(dim));
  for (auto& r : records) {
    for (double& v : r) v = static_cast<double>(rng.UniformInt(0, 4)) * 0.5;
  }
  return records;
}

std::vector<bool> RandomMask(int dim, double density, Rng& rng) {
  std::vector<bool> mask(dim, false);
  bool any = false;
  for (int d = 0; d < dim; ++d) {
    mask[d] = rng.NextDouble() < density;
    any |= mask[d];
  }
  if (!any) mask[rng.UniformInt(0, dim - 1)] = true;
  return mask;
}

TEST(KnnEquivalenceTest, QueryAndFillBitIdenticalToReferenceAcrossConfigs) {
  constexpr int kQueries = 6;
  int64_t tree_queries = 0;
  for (const EquivalenceCase& c : BuildCases()) {
    SCOPED_TRACE(::testing::Message() << "n=" << c.n << " dim=" << c.dim
                                      << " k=" << c.k << " density="
                                      << c.observed_density);
    Rng rng(c.seed);
    const auto records = LatticeRecords(c.n, c.dim, rng);
    std::vector<std::vector<double>> points(kQueries,
                                            std::vector<double>(c.dim));
    std::vector<std::vector<bool>> masks;
    for (int q = 0; q < kQueries; ++q) {
      // Odd queries draw from a wider lattice: points outside the data
      // range, where every box bound of the tree is non-zero.
      const int lo = q % 2 == 0 ? 0 : -4;
      const int hi = q % 2 == 0 ? 4 : 8;
      for (double& v : points[q]) {
        v = static_cast<double>(rng.UniformInt(lo, hi)) * 0.5;
      }
      masks.push_back(RandomMask(c.dim, c.observed_density, rng));
    }
    auto scan = KnnIndex::Build(records);
    auto tree = KnnIndex::Build(records, masks);
    auto reference = ReferenceKnnIndex::Build(records);
    ASSERT_TRUE(scan.ok());
    ASSERT_TRUE(tree.ok());
    ASSERT_TRUE(reference.ok());

    for (const KnnIndex* fast : {&scan.value(), &tree.value()}) {
      KnnIndex::Workspace ws;
      std::vector<KnnIndex::Neighbor> neighbors;
      std::vector<double> filled;
      for (int q = 0; q < kQueries; ++q) {
        SCOPED_TRACE(::testing::Message()
                     << (fast->HasTree(masks[q]) ? "tree" : "scan")
                     << " query " << q);
        const auto expected_nb =
            reference.value().Query(points[q], masks[q], c.k);
        fast->QueryInto(points[q], masks[q], c.k, &ws, &neighbors);
        ASSERT_EQ(neighbors.size(), expected_nb.size());
        for (size_t i = 0; i < neighbors.size(); ++i) {
          EXPECT_EQ(neighbors[i].index, expected_nb[i].index) << "rank " << i;
          EXPECT_EQ(neighbors[i].distance, expected_nb[i].distance)
              << "rank " << i;
        }

        const auto expected_fill =
            reference.value().FillMissing(points[q], masks[q], c.k);
        fast->FillMissingInto(points[q], masks[q], c.k, &ws, &filled);
        EXPECT_EQ(filled, expected_fill);
      }
      if (fast == &scan.value()) {
        EXPECT_EQ(ws.stats.tree_queries, 0);
      } else {
        tree_queries += ws.stats.tree_queries;
      }
    }
  }
  // The sweep must exercise the tree path broadly, not just compile it.
  EXPECT_GT(tree_queries, 1000);
}

TEST(KnnEquivalenceTest, BatchMatchesSingleQueryPath) {
  Rng rng(99);
  const auto records = LatticeRecords(400, 8, rng);
  const std::vector<bool> mask = {true, true, false, true,
                                  false, false, true, false};
  std::vector<std::vector<double>> points(32, std::vector<double>(8));
  for (auto& p : points) {
    for (double& v : p) v = static_cast<double>(rng.UniformInt(0, 4)) * 0.5;
  }

  for (const bool indexed : {false, true}) {
    SCOPED_TRACE(indexed ? "tree" : "scan");
    auto built = indexed ? KnnIndex::Build(records, {mask})
                         : KnnIndex::Build(records);
    ASSERT_TRUE(built.ok());
    const KnnIndex& index = built.value();
    ASSERT_EQ(index.HasTree(mask), indexed);

    KnnIndex::Workspace batch_ws;
    std::vector<std::vector<KnnIndex::Neighbor>> batch_neighbors;
    index.QueryBatch(points, mask, 10, &batch_ws, &batch_neighbors);
    std::vector<std::vector<double>> batch_filled;
    index.FillMissingBatch(points, mask, 10, &batch_ws, &batch_filled);
    EXPECT_EQ(batch_ws.stats.tree_queries, indexed ? 64 : 0);

    KnnIndex::Workspace single_ws;
    std::vector<KnnIndex::Neighbor> neighbors;
    std::vector<double> filled;
    ASSERT_EQ(batch_neighbors.size(), points.size());
    ASSERT_EQ(batch_filled.size(), points.size());
    for (size_t i = 0; i < points.size(); ++i) {
      index.QueryInto(points[i], mask, 10, &single_ws, &neighbors);
      ASSERT_EQ(batch_neighbors[i].size(), neighbors.size());
      for (size_t j = 0; j < neighbors.size(); ++j) {
        EXPECT_EQ(batch_neighbors[i][j].index, neighbors[j].index);
        EXPECT_EQ(batch_neighbors[i][j].distance, neighbors[j].distance);
      }
      index.FillMissingInto(points[i], mask, 10, &single_ws, &filled);
      EXPECT_EQ(batch_filled[i], filled);
    }
  }
}

TEST(KnnEquivalenceTest, BatchFillIsAllocationFreeInSteadyState) {
  Rng rng(7);
  const auto records = LatticeRecords(500, 8, rng);
  const std::vector<bool> wide = {true, true, true, true,
                                  false, true, true, true};
  const std::vector<bool> narrow = {false, true, false, true,
                                    false, false, true, false};
  // `wide` has more observed columns than a tree takes, so the index
  // serves it by scanning and `narrow` from its tree.
  auto built = KnnIndex::Build(records, {wide, narrow});
  ASSERT_TRUE(built.ok());
  const KnnIndex& index = built.value();
  ASSERT_FALSE(index.HasTree(wide));
  ASSERT_TRUE(index.HasTree(narrow));

  std::vector<std::vector<double>> points(64, std::vector<double>(8));
  for (auto& p : points) {
    for (double& v : p) v = rng.Normal();
  }

  KnnIndex::Workspace ws;
  std::vector<std::vector<double>> out;
  // Warm-up batches size every workspace buffer and every output row.
  index.FillMissingBatch(points, wide, 10, &ws, &out);
  index.FillMissingBatch(points, narrow, 10, &ws, &out);
  const int64_t warm = ws.stats.grow_events;
  for (int round = 0; round < 20; ++round) {
    for (auto& p : points) {
      for (double& v : p) v = rng.Normal();
    }
    index.FillMissingBatch(points, round % 2 == 0 ? narrow : wide, 10, &ws,
                           &out);
  }
  EXPECT_EQ(ws.stats.grow_events, warm)
      << "steady-state batch fill grew a workspace buffer";
  EXPECT_EQ(ws.stats.queries, 22 * 64);
  EXPECT_EQ(ws.stats.tree_queries, 11 * 64);
}

TEST(KnnEquivalenceTest, MatrixApplyIntoIsAllocationFreeDuringTraining) {
  // One MLP train step = ForwardCached (ApplyInto per layer) + Backward
  // (ApplyTransposedInto per hidden layer). After the first step warms the
  // caches, further steps must not grow any Matrix op buffer.
  MlpConfig config;
  config.layer_sizes = {12, 16, 8, 3};
  Mlp mlp(config, 5);
  MlpForwardCache cache;
  MlpGradients grads = mlp.InitGradients();
  Rng rng(21);
  std::vector<double> input(12);
  std::vector<double> dloss(3);

  auto step = [&] {
    for (double& v : input) v = rng.Normal();
    const std::vector<double>& out = mlp.ForwardCached(input, &cache);
    for (size_t i = 0; i < dloss.size(); ++i) dloss[i] = out[i] - 0.5;
    grads.Reset();
    mlp.Backward(cache, dloss, &grads);
    mlp.ApplySgd(grads, 1e-3);
  };

  step();  // warm-up sizes cache activations and delta buffers
  const int64_t warm_grows = Matrix::op_stats().grow_events.load();
  const int64_t warm_calls = Matrix::op_stats().apply_into_calls.load();
  for (int i = 0; i < 100; ++i) step();
  EXPECT_EQ(Matrix::op_stats().grow_events.load(), warm_grows)
      << "steady-state train steps grew an ApplyInto output buffer";
  // 3 forward + 2 backward ApplyInto/ApplyTransposedInto calls per step.
  EXPECT_EQ(Matrix::op_stats().apply_into_calls.load(), warm_calls + 500);
}

}  // namespace
}  // namespace schemble
