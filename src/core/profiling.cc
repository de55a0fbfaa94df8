#include "core/profiling.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace schemble {

int SubsetSize(SubsetMask mask) { return __builtin_popcount(mask); }

std::vector<int> SubsetModels(SubsetMask mask) {
  std::vector<int> models;
  SubsetModelsInto(mask, &models);
  return models;
}

void SubsetModelsInto(SubsetMask mask, std::vector<int>* models) {
  models->clear();
  for (int k = 0; mask != 0; ++k, mask >>= 1) {
    if (mask & 1u) models->push_back(k);
  }
}

SubsetMask FullMask(int num_models) {
  return (SubsetMask{1} << num_models) - 1;
}

int AccuracyProfile::BinOf(double score) const {
  const int bin = static_cast<int>(score * bins());
  return std::clamp(bin, 0, bins() - 1);
}

Result<AccuracyProfile> AccuracyProfile::Build(
    const SyntheticTask& task, const std::vector<Query>& history,
    const std::vector<double>& scores, const Options& options) {
  if (history.empty() || history.size() != scores.size()) {
    return Status::InvalidArgument(
        "profiling needs matching, non-empty history and scores");
  }
  if (options.bins <= 0) {
    return Status::InvalidArgument("profiling needs bins > 0");
  }
  const int m = task.num_models();
  if (m > 16) {
    return Status::InvalidArgument("profiling supports at most 16 models");
  }
  const SubsetMask full = FullMask(m);
  const int max_size = options.max_profiled_subset > 0
                           ? options.max_profiled_subset
                           : m;

  AccuracyProfile profile;
  profile.num_models_ = m;
  profile.table_.assign(options.bins,
                        std::vector<double>(full + 1, 0.0));
  profile.bin_counts_.assign(options.bins, 0);
  std::vector<std::vector<double>> sums(options.bins,
                                        std::vector<double>(full + 1, 0.0));
  // Global sums provide fallbacks for empty bins.
  std::vector<double> global_sums(full + 1, 0.0);

  // The inner sweep evaluates every subset for every query; the unpacked
  // index list and the aggregation output are reused across all of them so
  // the profiling pass stays allocation-free in steady state.
  std::vector<int> subset;
  std::vector<double> produced;
  for (size_t i = 0; i < history.size(); ++i) {
    const Query& q = history[i];
    const int bin = profile.BinOf(scores[i]);
    ++profile.bin_counts_[bin];
    for (SubsetMask mask = 1; mask <= full; ++mask) {
      if (SubsetSize(mask) > max_size && mask != full) continue;
      SubsetModelsInto(mask, &subset);
      task.AggregateSubsetInto(q, subset, &produced);
      const double match = task.MatchScore(produced, q.ensemble_output());
      sums[bin][mask] += match;
      global_sums[mask] += match;
    }
  }

  const double n = static_cast<double>(history.size());
  for (int bin = 0; bin < options.bins; ++bin) {
    for (SubsetMask mask = 1; mask <= full; ++mask) {
      if (profile.bin_counts_[bin] > 0) {
        profile.table_[bin][mask] =
            sums[bin][mask] / static_cast<double>(profile.bin_counts_[bin]);
      } else {
        profile.table_[bin][mask] = global_sums[mask] / n;
      }
    }
    if (options.enforce_monotone) {
      // Ascending mask order visits subsets before supersets.
      for (SubsetMask mask = 1; mask <= full; ++mask) {
        for (int k = 0; k < m; ++k) {
          const SubsetMask bit = SubsetMask{1} << k;
          if ((mask & bit) && mask != bit) {
            profile.table_[bin][mask] = std::max(
                profile.table_[bin][mask], profile.table_[bin][mask ^ bit]);
          }
        }
      }
    }
  }
  return profile;
}

double AccuracyProfile::Utility(double score, SubsetMask subset) const {
  if (subset == 0) return 0.0;
  SCHEMBLE_DCHECK(subset < table_[0].size());
  return table_[BinOf(score)][subset];
}

const std::vector<double>& AccuracyProfile::UtilityRow(double score) const {
  return table_[BinOf(score)];
}

AccuracyProfile AccuracyProfile::CompletedWith(
    const MarginalUtilityEstimator& estimator) const {
  AccuracyProfile completed = *this;
  for (int bin = 0; bin < bins(); ++bin) {
    std::vector<double> truncated(table_[bin].size(), 0.0);
    for (SubsetMask mask = 1; mask < table_[bin].size(); ++mask) {
      if (SubsetSize(mask) <= 2) truncated[mask] = table_[bin][mask];
    }
    const std::vector<double> estimated = estimator.CompleteRow(truncated);
    for (SubsetMask mask = 1; mask < table_[bin].size(); ++mask) {
      if (SubsetSize(mask) > 2) {
        completed.table_[bin][mask] = estimated[mask];
      }
    }
  }
  return completed;
}

MarginalUtilityEstimator::MarginalUtilityEstimator(
    int num_models, std::vector<double> model_accuracy,
    std::vector<double> gammas)
    : num_models_(num_models),
      model_accuracy_(std::move(model_accuracy)),
      gammas_(std::move(gammas)) {
  SCHEMBLE_CHECK_EQ(static_cast<int>(model_accuracy_.size()), num_models_);
}

int MarginalUtilityEstimator::WeakestIn(SubsetMask mask) const {
  int weakest = -1;
  for (int k = 0; k < num_models_; ++k) {
    if (!(mask & (SubsetMask{1} << k))) continue;
    if (weakest < 0 || model_accuracy_[k] < model_accuracy_[weakest]) {
      weakest = k;
    }
  }
  SCHEMBLE_CHECK_GE(weakest, 0);
  return weakest;
}

double MarginalUtilityEstimator::Estimate(
    SubsetMask mask, std::vector<double>& memo,
    const std::vector<double>& row) const {
  if (mask == 0) return 0.0;
  if (memo[mask] >= 0.0) return memo[mask];
  if (SubsetSize(mask) <= 2) {
    memo[mask] = row[mask];
    return memo[mask];
  }
  // Peel the weakest member as m_{k+1} in Eq. 3.
  const int extra = WeakestIn(mask);
  const SubsetMask rest = mask ^ (SubsetMask{1} << extra);
  const int k = SubsetSize(rest);
  double marginal = 0.0;
  for (int q = 0; q < num_models_; ++q) {
    const SubsetMask qbit = SubsetMask{1} << q;
    if (!(rest & qbit)) continue;
    marginal += row[qbit | (SubsetMask{1} << extra)] - row[qbit];
  }
  marginal /= static_cast<double>(k);
  const double gamma =
      k < static_cast<int>(gammas_.size()) ? gammas_[k] : gammas_.back();
  const double value =
      std::clamp(Estimate(rest, memo, row) + gamma * marginal, 0.0, 1.0);
  memo[mask] = value;
  return value;
}

std::vector<double> MarginalUtilityEstimator::CompleteRow(
    const std::vector<double>& row) const {
  const SubsetMask full = FullMask(num_models_);
  SCHEMBLE_CHECK_EQ(row.size(), static_cast<size_t>(full) + 1);
  std::vector<double> memo(full + 1, -1.0);
  std::vector<double> out(full + 1, 0.0);
  for (SubsetMask mask = 1; mask <= full; ++mask) {
    out[mask] = Estimate(mask, memo, row);
  }
  return out;
}

std::vector<double> MarginalUtilityEstimator::FitGammas(
    const AccuracyProfile& profile) {
  const int m = profile.num_models();
  const SubsetMask full = FullMask(m);
  // Accuracy proxy: each model's singleton utility averaged over bins.
  std::vector<double> accuracy(m, 0.0);
  for (int k = 0; k < m; ++k) {
    for (int bin = 0; bin < profile.bins(); ++bin) {
      accuracy[k] += profile.CellUtility(bin, SubsetMask{1} << k);
    }
    accuracy[k] /= profile.bins();
  }
  MarginalUtilityEstimator helper(m, accuracy,
                                  std::vector<double>(std::max(m, 3), 1.0));
  // Least squares per extension size k: increment ~ gamma_k * predictor.
  std::vector<double> num(std::max(m, 3), 0.0);
  std::vector<double> den(std::max(m, 3), 0.0);
  for (int bin = 0; bin < profile.bins(); ++bin) {
    for (SubsetMask mask = 1; mask <= full; ++mask) {
      const int size = SubsetSize(mask);
      if (size < 3) continue;
      const int extra = helper.WeakestIn(mask);
      const SubsetMask rest = mask ^ (SubsetMask{1} << extra);
      const int k = size - 1;
      double predictor = 0.0;
      for (int q = 0; q < m; ++q) {
        const SubsetMask qbit = SubsetMask{1} << q;
        if (!(rest & qbit)) continue;
        predictor += profile.CellUtility(bin, qbit | (SubsetMask{1} << extra)) -
                     profile.CellUtility(bin, qbit);
      }
      predictor /= static_cast<double>(k);
      const double increment =
          profile.CellUtility(bin, mask) - profile.CellUtility(bin, rest);
      num[k] += increment * predictor;
      den[k] += predictor * predictor;
    }
  }
  std::vector<double> gammas(std::max(m, 3), 1.0);
  for (size_t k = 2; k < gammas.size(); ++k) {
    if (den[k] > 1e-12) gammas[k] = std::max(0.0, num[k] / den[k]);
  }
  return gammas;
}

}  // namespace schemble
