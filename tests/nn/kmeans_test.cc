#include "nn/kmeans.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.h"

namespace schemble {
namespace {

std::vector<std::vector<double>> ThreeBlobs(int per_blob, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> points;
  const double centers[3][2] = {{0.0, 0.0}, {10.0, 0.0}, {0.0, 10.0}};
  for (int b = 0; b < 3; ++b) {
    for (int i = 0; i < per_blob; ++i) {
      points.push_back({rng.Normal(centers[b][0], 0.5),
                        rng.Normal(centers[b][1], 0.5)});
    }
  }
  return points;
}

TEST(KMeansTest, RejectsBadInput) {
  Rng rng(1);
  EXPECT_FALSE(KMeans::Fit({}, {.clusters = 2}, rng).ok());
  EXPECT_FALSE(KMeans::Fit({{1.0}}, {.clusters = 0}, rng).ok());
  EXPECT_FALSE(KMeans::Fit({{1.0}, {1.0, 2.0}}, {.clusters = 1}, rng).ok());
}

TEST(KMeansTest, RecoversWellSeparatedBlobs) {
  Rng rng(2);
  auto points = ThreeBlobs(100, 3);
  auto result = KMeans::Fit(points, {.clusters = 3}, rng);
  ASSERT_TRUE(result.ok());
  const KMeans& km = result.value();
  EXPECT_EQ(km.clusters(), 3);
  // Each blob maps to a single, consistent cluster.
  for (int b = 0; b < 3; ++b) {
    const int first = km.Assign(points[b * 100]);
    for (int i = 1; i < 100; ++i) {
      EXPECT_EQ(km.Assign(points[b * 100 + i]), first);
    }
  }
  // Distinct blobs map to distinct clusters.
  EXPECT_NE(km.Assign(points[0]), km.Assign(points[100]));
  EXPECT_NE(km.Assign(points[100]), km.Assign(points[200]));
}

TEST(KMeansTest, CentroidsNearBlobCenters) {
  Rng rng(5);
  auto points = ThreeBlobs(200, 7);
  auto result = KMeans::Fit(points, {.clusters = 3}, rng);
  ASSERT_TRUE(result.ok());
  for (const auto& c : result.value().centroids()) {
    // Each centroid should be within 1.0 of some blob center.
    const double d0 = std::hypot(c[0] - 0.0, c[1] - 0.0);
    const double d1 = std::hypot(c[0] - 10.0, c[1] - 0.0);
    const double d2 = std::hypot(c[0] - 0.0, c[1] - 10.0);
    EXPECT_LT(std::min({d0, d1, d2}), 1.0);
  }
}

TEST(KMeansTest, MoreClustersThanPointsClamped) {
  Rng rng(9);
  auto result = KMeans::Fit({{0.0}, {1.0}}, {.clusters = 10}, rng);
  ASSERT_TRUE(result.ok());
  EXPECT_LE(result.value().clusters(), 2);
}

TEST(KMeansTest, NearestDistanceSquaredIsZeroAtCentroid) {
  Rng rng(11);
  auto points = ThreeBlobs(50, 13);
  auto result = KMeans::Fit(points, {.clusters = 3}, rng);
  ASSERT_TRUE(result.ok());
  const auto& c = result.value().centroids()[0];
  EXPECT_NEAR(result.value().NearestDistanceSquared(c), 0.0, 1e-12);
}

TEST(KMeansTest, DuplicatePointsHandled) {
  Rng rng(15);
  std::vector<std::vector<double>> points(20, {1.0, 1.0});
  auto result = KMeans::Fit(points, {.clusters = 4}, rng);
  ASSERT_TRUE(result.ok());
  const std::vector<double> point = {1.0, 1.0};
  EXPECT_EQ(result.value().Assign(point), result.value().Assign(point));
}

}  // namespace
}  // namespace schemble
