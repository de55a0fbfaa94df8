#ifndef SCHEMBLE_CORE_PROFILING_H_
#define SCHEMBLE_CORE_PROFILING_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "models/synthetic_task.h"

namespace schemble {

/// Model subsets are bitmasks over base-model indices (bit k = model k).
using SubsetMask = uint32_t;

int SubsetSize(SubsetMask mask);
std::vector<int> SubsetModels(SubsetMask mask);
/// Allocation-free SubsetModels into a caller-reused buffer (ascending
/// model indices, like the allocating overload).
void SubsetModelsInto(SubsetMask mask, std::vector<int>* models);
SubsetMask FullMask(int num_models);

/// Offline accuracy profile (§V-D): historical queries are bucketed by
/// discrepancy score and, per bucket, the agreement of every base-model
/// combination with the full ensemble is measured. The scheduler reads this
/// table as its reward function U(score, subset).
///
/// Immutable after Build; all const accessors are state-free and safe to
/// call concurrently (the concurrent runtime shares one profile across
/// its admission and worker threads).
class AccuracyProfile {
 public:
  struct Options {
    int bins = 10;
    /// Clamp the empirical table so that utility never decreases when a
    /// model is added (assumption 1's monotone part); empirical noise can
    /// otherwise produce tiny violations.
    bool enforce_monotone = true;
    /// Only profile subsets with at most this many models; larger subsets
    /// get utility from the Eq. 3 marginal estimator (the paper's recipe
    /// when the ensemble grows). 0 = profile everything.
    int max_profiled_subset = 0;
  };

  /// `scores[i]` is the (ground-truth) discrepancy score of `history[i]`.
  static Result<AccuracyProfile> Build(const SyntheticTask& task,
                                       const std::vector<Query>& history,
                                       const std::vector<double>& scores,
                                       const Options& options);
  static Result<AccuracyProfile> Build(const SyntheticTask& task,
                                       const std::vector<Query>& history,
                                       const std::vector<double>& scores) {
    return Build(task, history, scores, Options{});
  }

  /// Mean agreement-with-ensemble of `subset` in the score's bucket;
  /// Utility(_, 0) is 0.
  double Utility(double score, SubsetMask subset) const;

  /// All subset utilities for one score, indexed by mask (size 2^m). The
  /// reference stays valid for the profile's lifetime.
  const std::vector<double>& UtilityRow(double score) const;

  /// Returns a copy of this profile whose large-subset cells (size > 2)
  /// are replaced by Eq. 3 estimates from the small-subset cells — the
  /// paper's recipe for ensembles too large to profile exhaustively.
  AccuracyProfile CompletedWith(const class MarginalUtilityEstimator&
                                    estimator) const;

  int bins() const { return static_cast<int>(table_.size()); }
  int num_models() const { return num_models_; }
  int BinOf(double score) const;
  /// Raw cell value (tests/benches).
  double CellUtility(int bin, SubsetMask subset) const {
    return table_[bin][subset];
  }
  int64_t BinCount(int bin) const { return bin_counts_[bin]; }

 private:
  AccuracyProfile() = default;

  int num_models_ = 0;
  /// table_[bin][mask] = mean agreement with the ensemble.
  std::vector<std::vector<double>> table_;
  std::vector<int64_t> bin_counts_;
};

/// Eq. 3: estimates utilities of large subsets from singleton and pairwise
/// profiles with diminishing marginal-reward factors gamma_k.
class MarginalUtilityEstimator {
 public:
  /// `model_accuracy[k]` orders models (higher = stronger); the recursion
  /// peels the weakest member of a subset as the paper's m_{k+1}.
  MarginalUtilityEstimator(int num_models, std::vector<double> model_accuracy,
                           std::vector<double> gammas);

  /// Completes a utility row: entries for subsets of size <= 2 are taken
  /// from `row`; larger subsets are estimated recursively. `row` is indexed
  /// by mask and must have size 2^m.
  std::vector<double> CompleteRow(const std::vector<double>& row) const;

  /// Least-squares fit of gamma_k (k = 2..m-1) from a fully profiled table:
  /// for each subset of size k+1 the realized marginal increment is
  /// regressed on the Eq. 3 predictor.
  static std::vector<double> FitGammas(const AccuracyProfile& profile);

  const std::vector<double>& gammas() const { return gammas_; }

 private:
  double Estimate(SubsetMask mask, std::vector<double>& memo,
                  const std::vector<double>& row) const;
  /// Index of the weakest model in `mask`.
  int WeakestIn(SubsetMask mask) const;

  int num_models_;
  std::vector<double> model_accuracy_;
  /// gammas_[k] applies when extending a size-k subset (k >= 2).
  std::vector<double> gammas_;
};

}  // namespace schemble

#endif  // SCHEMBLE_CORE_PROFILING_H_
