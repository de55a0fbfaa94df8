#include "baselines/des_policy.h"

#include <algorithm>

#include "common/logging.h"

namespace schemble {

Result<DesPolicy> DesPolicy::Train(const SyntheticTask& task,
                                   const std::vector<Query>& history,
                                   const DesConfig& config) {
  if (history.empty()) {
    return Status::InvalidArgument("DES training needs history data");
  }
  if (config.clusters <= 0) {
    return Status::InvalidArgument("DES needs clusters > 0");
  }
  std::vector<std::vector<double>> features;
  features.reserve(history.size());
  for (const Query& q : history) {
    features.emplace_back(q.features().begin(), q.features().end());
  }
  Rng rng(HashSeed("des-train", config.seed));
  KMeans::Options km_options;
  km_options.clusters = config.clusters;
  auto kmeans = KMeans::Fit(features, km_options, rng);
  if (!kmeans.ok()) return kmeans.status();

  const int m = task.num_models();
  const int clusters = kmeans.value().clusters();
  std::vector<std::vector<double>> sums(clusters,
                                        std::vector<double>(m, 0.0));
  std::vector<int64_t> counts(clusters, 0);
  for (const Query& q : history) {
    const int cluster = kmeans.value().Assign(q.features());
    ++counts[cluster];
    for (int k = 0; k < m; ++k) {
      sums[cluster][k] +=
          task.MatchScore(q.model_output(k), q.ensemble_output());
    }
  }
  // Global competences back empty clusters.
  std::vector<double> global(m, 0.0);
  for (int c = 0; c < clusters; ++c) {
    for (int k = 0; k < m; ++k) global[k] += sums[c][k];
  }
  for (int k = 0; k < m; ++k) {
    global[k] /= static_cast<double>(history.size());
  }
  std::vector<std::vector<double>> competence(clusters,
                                              std::vector<double>(m, 0.0));
  for (int c = 0; c < clusters; ++c) {
    for (int k = 0; k < m; ++k) {
      competence[c][k] = counts[c] > 0
                             ? sums[c][k] / static_cast<double>(counts[c])
                             : global[k];
    }
  }
  return DesPolicy(config, std::move(kmeans).value(), std::move(competence));
}

SubsetMask DesPolicy::SelectSubset(const Query& query) const {
  const int cluster = kmeans_.Assign(query.features());
  const std::vector<double>& scores = competence_[cluster];
  const double best = *std::max_element(scores.begin(), scores.end());
  SubsetMask subset = 0;
  for (size_t k = 0; k < scores.size(); ++k) {
    if (scores[k] >= best - config_.competence_margin) {
      subset |= SubsetMask{1} << k;
    }
  }
  SCHEMBLE_DCHECK(subset != 0);
  return subset;
}

ArrivalDecision DesPolicy::OnArrival(const TracedQuery& query,
                                     const ServerView& view) {
  const SubsetMask subset = SelectSubset(query.query);
  if (view.allow_rejection &&
      view.EstimateCompletion(subset) > query.deadline) {
    return ArrivalDecision::Reject();
  }
  return ArrivalDecision::Assign(subset);
}

}  // namespace schemble
