#include "nn/knn.h"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

namespace schemble {
namespace {

TEST(KnnIndexTest, BuildRejectsBadInput) {
  EXPECT_FALSE(KnnIndex::Build({}).ok());
  EXPECT_FALSE(KnnIndex::Build({{}}).ok());
  EXPECT_FALSE(KnnIndex::Build({{1.0}, {1.0, 2.0}}).ok());
  // Mismatch after a long valid prefix, and an empty row mid-list.
  EXPECT_FALSE(KnnIndex::Build({{1.0, 2.0}, {3.0, 4.0}, {5.0}}).ok());
  EXPECT_FALSE(KnnIndex::Build({{1.0}, {}, {2.0}}).ok());
}

TEST(KnnIndexTest, BuildRejectsNonFiniteRecords) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (double bad : {nan, inf, -inf}) {
    auto built = KnnIndex::Build({{1.0, 2.0}, {3.0, bad}});
    ASSERT_FALSE(built.ok()) << bad;
    EXPECT_EQ(built.status().code(), StatusCode::kInvalidArgument);
  }
  EXPECT_TRUE(KnnIndex::Build({{1.0, 2.0}, {3.0, 1e308}}).ok());
}

TEST(KnnIndexTest, BuildRejectsBadIndexedMasks) {
  const std::vector<std::vector<double>> records = {{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_FALSE(KnnIndex::Build(records, {{true}}).ok());
  EXPECT_FALSE(KnnIndex::Build(records, {{true, false, true}}).ok());
  EXPECT_FALSE(KnnIndex::Build(records, {{false, false}}).ok());
  EXPECT_TRUE(KnnIndex::Build(records, {{true, false}}).ok());
}

TEST(KnnIndexTest, TreesOnlyForNarrowIndexedMasks) {
  const int dim = KnnIndex::kMaxTreeColumns + 2;
  std::vector<std::vector<double>> records(40, std::vector<double>(dim));
  for (int r = 0; r < 40; ++r) {
    for (int d = 0; d < dim; ++d) records[r][d] = r * 0.25 - d;
  }
  std::vector<bool> narrow(dim, false);
  narrow[1] = narrow[3] = true;
  std::vector<bool> widest(dim, false);
  for (int d = 0; d < KnnIndex::kMaxTreeColumns; ++d) widest[d] = true;
  std::vector<bool> too_wide(dim, true);
  too_wide[0] = false;
  auto built = KnnIndex::Build(records, {narrow, widest, too_wide});
  ASSERT_TRUE(built.ok());
  const KnnIndex& index = built.value();
  EXPECT_TRUE(index.HasTree(narrow));
  EXPECT_TRUE(index.HasTree(widest));
  EXPECT_FALSE(index.HasTree(too_wide));
  EXPECT_FALSE(KnnIndex::Build(records).value().HasTree(narrow));

  KnnIndex::Workspace ws;
  std::vector<KnnIndex::Neighbor> out;
  const std::vector<double> point(dim, 0.5);
  index.QueryInto(point, narrow, 3, &ws, &out);
  EXPECT_EQ(ws.stats.tree_queries, 1);
  index.QueryInto(point, too_wide, 3, &ws, &out);
  EXPECT_EQ(ws.stats.tree_queries, 1);
  EXPECT_EQ(ws.stats.queries, 2);
}

TEST(KnnIndexTest, BuildRepacksRowMajor) {
  auto index = KnnIndex::Build({{1.0, 2.0}, {3.0, 4.0}, {5.0, 6.0}});
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(index.value().size(), 3);
  EXPECT_EQ(index.value().dim(), 2);
  // Records live in one flat row-major buffer.
  const double* row1 = index.value().row(1);
  EXPECT_DOUBLE_EQ(row1[0], 3.0);
  EXPECT_DOUBLE_EQ(row1[1], 4.0);
  EXPECT_EQ(index.value().row(2), index.value().row(0) + 4);
}

TEST(KnnIndexTest, DistanceTiesBreakByRecordIndex) {
  // Records 1 and 3 are equidistant from the query (distance 1 on each
  // side); so are 0 and 4 (distance 2). The deterministic ordering contract
  // ranks equal distances by ascending record index on every platform.
  auto index = KnnIndex::Build({{0.0}, {1.0}, {5.0}, {3.0}, {4.0}});
  ASSERT_TRUE(index.ok());
  auto neighbors = index.value().Query({2.0}, {true}, 4);
  ASSERT_EQ(neighbors.size(), 4u);
  EXPECT_EQ(neighbors[0].index, 1);
  EXPECT_EQ(neighbors[1].index, 3);
  EXPECT_EQ(neighbors[2].index, 0);
  EXPECT_EQ(neighbors[3].index, 4);
  // Ties must also resolve identically when they straddle the top-k
  // boundary: k=1 keeps the lower index of the {1, 3} pair.
  EXPECT_EQ(index.value().Query({2.0}, {true}, 1)[0].index, 1);
}

TEST(KnnIndexTest, QueryIntoReusesWorkspaceWithoutGrowth) {
  auto built = KnnIndex::Build(
      {{0.0, 0.0}, {1.0, 1.0}, {2.0, 2.0}, {3.0, 3.0}, {4.0, 4.0}});
  ASSERT_TRUE(built.ok());
  const KnnIndex& index = built.value();
  KnnIndex::Workspace ws;
  std::vector<KnnIndex::Neighbor> out;
  index.QueryInto({1.2, 1.2}, {true, true}, 3, &ws, &out);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].index, 1);
  const int64_t warm = ws.stats.grow_events;
  for (int i = 0; i < 50; ++i) {
    index.QueryInto({0.1 * i, 0.2 * i}, {true, true}, 3, &ws, &out);
  }
  EXPECT_EQ(ws.stats.grow_events, warm) << "steady-state queries allocated";
  EXPECT_EQ(ws.stats.queries, 51);
}

TEST(KnnIndexTest, FillMissingIntoSupportsInPlaceFill) {
  auto built = KnnIndex::Build({{1.0, 10.0}, {2.0, 20.0}, {3.0, 30.0}});
  ASSERT_TRUE(built.ok());
  const KnnIndex& index = built.value();
  const std::vector<double> expected =
      index.FillMissing({2.0, 0.0}, {true, false}, 1);
  KnnIndex::Workspace ws;
  std::vector<double> point = {2.0, 0.0};
  index.FillMissingInto(point, {true, false}, 1, &ws, &point);
  EXPECT_EQ(point, expected);
}

TEST(KnnIndexTest, FindsNearestNeighbor) {
  auto index = KnnIndex::Build({{0.0, 0.0}, {1.0, 1.0}, {5.0, 5.0}});
  ASSERT_TRUE(index.ok());
  auto neighbors =
      index.value().Query({0.9, 0.9}, {true, true}, 1);
  ASSERT_EQ(neighbors.size(), 1u);
  EXPECT_EQ(neighbors[0].index, 1);
}

TEST(KnnIndexTest, NeighborsSortedByDistance) {
  auto index = KnnIndex::Build({{0.0}, {2.0}, {10.0}});
  ASSERT_TRUE(index.ok());
  auto neighbors = index.value().Query({1.0}, {true}, 3);
  ASSERT_EQ(neighbors.size(), 3u);
  EXPECT_LE(neighbors[0].distance, neighbors[1].distance);
  EXPECT_LE(neighbors[1].distance, neighbors[2].distance);
  EXPECT_EQ(neighbors[0].index, 0);  // distance 1 vs 1: stable order
}

TEST(KnnIndexTest, KLargerThanIndexClamped) {
  auto index = KnnIndex::Build({{0.0}, {1.0}});
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(index.value().Query({0.0}, {true}, 10).size(), 2u);
}

TEST(KnnIndexTest, MaskedQueryIgnoresMissingDims) {
  // Record 0 matches the query on dim 0 but diverges wildly on dim 1;
  // with dim 1 masked out it must still be the nearest.
  auto index = KnnIndex::Build({{1.0, 100.0}, {2.0, 0.0}});
  ASSERT_TRUE(index.ok());
  auto neighbors = index.value().Query({1.0, 0.0}, {true, false}, 1);
  EXPECT_EQ(neighbors[0].index, 0);
}

TEST(KnnIndexTest, FillMissingUsesNeighborValues) {
  // Historic records pair dim0 with dim1 = 10*dim0.
  auto index = KnnIndex::Build({{1.0, 10.0}, {2.0, 20.0}, {3.0, 30.0}});
  ASSERT_TRUE(index.ok());
  std::vector<double> filled =
      index.value().FillMissing({2.0, 0.0}, {true, false}, 1);
  EXPECT_DOUBLE_EQ(filled[0], 2.0);  // observed dim untouched
  EXPECT_NEAR(filled[1], 20.0, 1e-6);
}

TEST(KnnIndexTest, FillMissingWeightsByInverseDistance) {
  auto index = KnnIndex::Build({{0.0, 0.0}, {10.0, 100.0}});
  ASSERT_TRUE(index.ok());
  // Query at 1.0: distances 1 and 9 -> weights 1 and 1/9.
  std::vector<double> filled =
      index.value().FillMissing({1.0, 0.0}, {true, false}, 2);
  const double w0 = 1.0 / 1.0;
  const double w1 = 1.0 / 9.0;
  const double expected = (w0 * 0.0 + w1 * 100.0) / (w0 + w1);
  EXPECT_NEAR(filled[1], expected, 1e-3);
}

TEST(KnnIndexTest, ExactMatchDominatesFill) {
  auto index = KnnIndex::Build({{1.0, 7.0}, {1.5, 50.0}});
  ASSERT_TRUE(index.ok());
  std::vector<double> filled =
      index.value().FillMissing({1.0, 0.0}, {true, false}, 2);
  EXPECT_NEAR(filled[1], 7.0, 0.01);
}

TEST(KnnIndexTest, FillMultipleMissingDims) {
  auto index = KnnIndex::Build({{1.0, 10.0, 100.0}, {2.0, 20.0, 200.0}});
  ASSERT_TRUE(index.ok());
  std::vector<double> filled =
      index.value().FillMissing({1.0, 0.0, 0.0}, {true, false, false}, 1);
  EXPECT_NEAR(filled[1], 10.0, 1e-6);
  EXPECT_NEAR(filled[2], 100.0, 1e-6);
}

}  // namespace
}  // namespace schemble
