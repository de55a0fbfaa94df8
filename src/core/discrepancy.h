#ifndef SCHEMBLE_CORE_DISCREPANCY_H_
#define SCHEMBLE_CORE_DISCREPANCY_H_

#include <vector>

#include "common/status.h"
#include "models/synthetic_task.h"
#include "nn/calibration.h"

namespace schemble {

/// Difficulty metric variants.
enum class DifficultyMetric {
  /// The paper's discrepancy score (Eq. 1): mean *normalized* distance from
  /// each base model's calibrated output to the ensemble's output.
  kDiscrepancy,
  /// The ensemble-agreement baseline (Carlini et al.): mean pairwise
  /// symmetric KL divergence between *uncalibrated* base-model outputs.
  /// Kept as-is (no calibration, no normalization) to reproduce the
  /// deficiencies §V-A describes.
  kEnsembleAgreement,
};

struct DiscrepancyConfig {
  DifficultyMetric metric = DifficultyMetric::kDiscrepancy;
  /// Per-model distance normalization (the "Norm" in Eq. 1). Disabled only
  /// in ablations.
  bool normalize_per_model = true;
  /// Classification: calibrate raw logits with temperature scaling before
  /// measuring distances.
  bool calibrate = true;
  /// Final scores are scaled so this quantile of the fit data maps to 1.0
  /// (scores clamp to [0, 1]); keeps bin edges stable across datasets.
  double scale_quantile = 0.99;
};

/// Computes ground-truth difficulty scores from recorded model outputs.
///
/// Fit() learns the dataset-dependent pieces (per-model temperature scalers,
/// per-model distance normalizers, final scale) on historical data; Score()
/// then maps any query's recorded outputs to a difficulty in [0, 1].
class DiscrepancyScorer {
 public:
  static Result<DiscrepancyScorer> Fit(const SyntheticTask& task,
                                       const std::vector<Query>& history,
                                       const DiscrepancyConfig& config = {});

  /// Difficulty of one query from its recorded outputs, in [0, 1].
  double Score(const Query& query) const;

  /// Scores for a whole dataset.
  std::vector<double> ScoreAll(const std::vector<Query>& queries) const;

  /// Distance of model k's output to the ensemble output (before
  /// normalization); exposed for the preference-correlation study (Fig. 5).
  double ModelDistance(const Query& query, int model) const;

  const DiscrepancyConfig& config() const { return config_; }
  double temperature(int model) const { return scalers_[model].temperature(); }

 private:
  DiscrepancyScorer(const SyntheticTask* task, DiscrepancyConfig config)
      : task_(task), config_(config) {}

  double RawScore(const Query& query) const;

  const SyntheticTask* task_;  // not owned; must outlive the scorer
  DiscrepancyConfig config_;
  std::vector<TemperatureScaler> scalers_;   // one per model (classification)
  std::vector<double> model_norms_;          // per-model mean distance
  double scale_ = 1.0;                       // raw score -> [0,1]
};

}  // namespace schemble

#endif  // SCHEMBLE_CORE_DISCREPANCY_H_
