#include "nn/kmeans.h"

#include <cmath>
#include <limits>

#include "common/logging.h"
#include "nn/kernels.h"

namespace schemble {

namespace {

double DistanceSquared(std::span<const double> a,
                       std::span<const double> b) {
  return kernels::SquaredDistance(a.data(), b.data(),
                                  static_cast<int>(a.size()));
}

}  // namespace

Result<KMeans> KMeans::Fit(const std::vector<std::vector<double>>& points,
                           const Options& options, Rng& rng) {
  if (points.empty()) {
    return Status::InvalidArgument("k-means needs at least one point");
  }
  if (options.clusters <= 0) {
    return Status::InvalidArgument("k-means needs clusters > 0");
  }
  const size_t dim = points[0].size();
  for (const auto& p : points) {
    if (p.size() != dim) {
      return Status::InvalidArgument("k-means points must share a dimension");
    }
  }
  const int k =
      std::min<int>(options.clusters, static_cast<int>(points.size()));

  // k-means++ seeding.
  std::vector<std::vector<double>> centroids;
  centroids.reserve(k);
  centroids.push_back(
      points[rng.UniformInt(0, static_cast<int64_t>(points.size()) - 1)]);
  std::vector<double> dist2(points.size(),
                            std::numeric_limits<double>::infinity());
  while (static_cast<int>(centroids.size()) < k) {
    for (size_t i = 0; i < points.size(); ++i) {
      dist2[i] =
          std::min(dist2[i], DistanceSquared(points[i], centroids.back()));
    }
    double total = 0.0;
    for (double d : dist2) total += d;
    if (total <= 0.0) {
      // All remaining points coincide with existing centroids.
      centroids.push_back(points[0]);
      continue;
    }
    double target = rng.NextDouble() * total;
    size_t chosen = points.size() - 1;
    for (size_t i = 0; i < points.size(); ++i) {
      target -= dist2[i];
      if (target < 0.0) {
        chosen = i;
        break;
      }
    }
    centroids.push_back(points[chosen]);
  }

  // Lloyd iterations.
  std::vector<int> assignment(points.size(), -1);
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    bool changed = false;
    for (size_t i = 0; i < points.size(); ++i) {
      int best = 0;
      double best_d = std::numeric_limits<double>::infinity();
      for (int c = 0; c < k; ++c) {
        const double d = DistanceSquared(points[i], centroids[c]);
        if (d < best_d) {
          best_d = d;
          best = c;
        }
      }
      if (assignment[i] != best) {
        assignment[i] = best;
        changed = true;
      }
    }
    if (!changed) break;
    std::vector<std::vector<double>> sums(k, std::vector<double>(dim, 0.0));
    std::vector<int64_t> counts(k, 0);
    for (size_t i = 0; i < points.size(); ++i) {
      const int c = assignment[i];
      ++counts[c];
      for (size_t d = 0; d < dim; ++d) sums[c][d] += points[i][d];
    }
    for (int c = 0; c < k; ++c) {
      if (counts[c] == 0) continue;  // keep the old centroid
      for (size_t d = 0; d < dim; ++d) {
        centroids[c][d] = sums[c][d] / static_cast<double>(counts[c]);
      }
    }
  }
  return KMeans(std::move(centroids));
}

int KMeans::Assign(std::span<const double> point) const {
  SCHEMBLE_CHECK(!centroids_.empty());
  int best = 0;
  double best_d = std::numeric_limits<double>::infinity();
  for (size_t c = 0; c < centroids_.size(); ++c) {
    const double d = DistanceSquared(point, centroids_[c]);
    if (d < best_d) {
      best_d = d;
      best = static_cast<int>(c);
    }
  }
  return best;
}

double KMeans::NearestDistanceSquared(const std::vector<double>& point) const {
  SCHEMBLE_CHECK(!centroids_.empty());
  double best_d = std::numeric_limits<double>::infinity();
  for (const auto& c : centroids_) {
    best_d = std::min(best_d, DistanceSquared(point, c));
  }
  return best_d;
}

}  // namespace schemble
