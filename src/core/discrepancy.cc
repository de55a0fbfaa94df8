#include "core/discrepancy.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/prob.h"

namespace schemble {

double DiscrepancyScorer::ModelDistance(const Query& query, int model) const {
  if (task_->spec().type != TaskType::kClassification) {
    return EuclideanDistance(query.model_output(model),
                             query.ensemble_output());
  }
  // Calibrated probabilities, or (ablation) a plain softmax of the raw
  // logits.
  const std::vector<double> output =
      config_.calibrate ? scalers_[model].Calibrate(query.model_logits(model))
                        : Softmax(query.model_logits(model));
  return JsDivergence(output, query.ensemble_output());
}

double DiscrepancyScorer::RawScore(const Query& query) const {
  const int m = task_->num_models();
  if (config_.metric == DifficultyMetric::kEnsembleAgreement) {
    // Mean pairwise symmetric KL (classification) / Euclidean distance
    // (others) between base models, uncalibrated and unnormalized.
    double total = 0.0;
    int pairs = 0;
    for (int a = 0; a < m; ++a) {
      for (int b = a + 1; b < m; ++b) {
        if (task_->spec().type == TaskType::kClassification) {
          total += SymmetricKlDivergence(Softmax(query.model_logits(a)),
                                         Softmax(query.model_logits(b)));
        } else {
          total += EuclideanDistance(query.model_output(a),
                                     query.model_output(b));
        }
        ++pairs;
      }
    }
    return pairs > 0 ? total / pairs : 0.0;
  }
  // Eq. 1: mean normalized distance to the ensemble output.
  double total = 0.0;
  for (int k = 0; k < m; ++k) {
    double d = ModelDistance(query, k);
    if (config_.normalize_per_model && model_norms_[k] > 0.0) {
      d /= model_norms_[k];
    }
    total += d;
  }
  return total / m;
}

Result<DiscrepancyScorer> DiscrepancyScorer::Fit(
    const SyntheticTask& task, const std::vector<Query>& history,
    const DiscrepancyConfig& config) {
  if (history.empty()) {
    return Status::InvalidArgument("discrepancy fit needs history data");
  }
  if (config.scale_quantile <= 0.0 || config.scale_quantile > 1.0) {
    return Status::InvalidArgument("scale_quantile must be in (0, 1]");
  }
  DiscrepancyScorer scorer(&task, config);
  const int m = task.num_models();
  scorer.scalers_.assign(m, TemperatureScaler(1.0));
  scorer.model_norms_.assign(m, 1.0);

  // 1. Calibrate each classifier on the history (against the ensemble's
  //    decision, the quantity the discrepancy score is measured against).
  if (task.spec().type == TaskType::kClassification && config.calibrate) {
    for (int k = 0; k < m; ++k) {
      std::vector<std::vector<double>> logits;
      std::vector<int> labels;
      logits.reserve(history.size());
      labels.reserve(history.size());
      for (const Query& q : history) {
        logits.emplace_back(q.model_logits(k).begin(),
                            q.model_logits(k).end());
        labels.push_back(Argmax(q.ensemble_output()));
      }
      auto fitted = TemperatureScaler::Fit(logits, labels);
      if (!fitted.ok()) return fitted.status();
      scorer.scalers_[k] = fitted.value();
    }
  }

  // 2. Per-model normalization constants: mean distance to the ensemble.
  if (config.metric == DifficultyMetric::kDiscrepancy &&
      config.normalize_per_model) {
    for (int k = 0; k < m; ++k) {
      double sum = 0.0;
      for (const Query& q : history) sum += scorer.ModelDistance(q, k);
      const double mean = sum / static_cast<double>(history.size());
      scorer.model_norms_[k] = mean > 1e-12 ? mean : 1.0;
    }
  }

  // 3. Final scale so that `scale_quantile` of history maps to 1.0.
  std::vector<double> raw;
  raw.reserve(history.size());
  for (const Query& q : history) raw.push_back(scorer.RawScore(q));
  std::vector<double> sorted = raw;
  std::sort(sorted.begin(), sorted.end());
  const size_t idx = std::min(
      sorted.size() - 1,
      static_cast<size_t>(config.scale_quantile * (sorted.size() - 1)));
  const double q_hi = sorted[idx];
  scorer.scale_ = q_hi > 1e-12 ? 1.0 / q_hi : 1.0;
  return scorer;
}

double DiscrepancyScorer::Score(const Query& query) const {
  return std::clamp(RawScore(query) * scale_, 0.0, 1.0);
}

std::vector<double> DiscrepancyScorer::ScoreAll(
    const std::vector<Query>& queries) const {
  std::vector<double> scores;
  scores.reserve(queries.size());
  for (const Query& q : queries) scores.push_back(Score(q));
  return scores;
}

}  // namespace schemble
