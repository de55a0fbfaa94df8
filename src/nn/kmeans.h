#ifndef SCHEMBLE_NN_KMEANS_H_
#define SCHEMBLE_NN_KMEANS_H_

#include <span>
#include <vector>

#include "common/rng.h"
#include "common/status.h"

namespace schemble {

/// Plain k-means with k-means++ initialization. The DES baseline uses it to
/// partition the feature space into regions for competence estimation
/// (paper §III-B: "a clustering method is applied to divide the input
/// space").
class KMeans {
 public:
  struct Options {
    int clusters = 8;
    int max_iterations = 50;
    /// Converged when no assignment changes in an iteration.
  };

  /// Fits centroids on `points` (all with equal dimension).
  static Result<KMeans> Fit(const std::vector<std::vector<double>>& points,
                            const Options& options, Rng& rng);

  /// Index of the nearest centroid.
  int Assign(std::span<const double> point) const;

  /// Squared Euclidean distance to the nearest centroid.
  double NearestDistanceSquared(const std::vector<double>& point) const;

  int clusters() const { return static_cast<int>(centroids_.size()); }
  const std::vector<std::vector<double>>& centroids() const {
    return centroids_;
  }

 private:
  explicit KMeans(std::vector<std::vector<double>> centroids)
      : centroids_(std::move(centroids)) {}

  std::vector<std::vector<double>> centroids_;
};

}  // namespace schemble

#endif  // SCHEMBLE_NN_KMEANS_H_
