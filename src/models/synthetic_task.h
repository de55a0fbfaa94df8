#ifndef SCHEMBLE_MODELS_SYNTHETIC_TASK_H_
#define SCHEMBLE_MODELS_SYNTHETIC_TASK_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "models/model_profile.h"

namespace schemble {

/// Application families from the paper's evaluation.
enum class TaskType {
  kClassification,  // text matching (binary), CIFAR100-style (100-way)
  kRegression,      // vehicle counting
  kRetrieval,       // image retrieval over a candidate pool
};

/// Task-level knobs of the synthetic application.
struct TaskSpec {
  TaskType type = TaskType::kClassification;
  int num_classes = 2;
  /// Query feature vector layout: label-informative dims, then
  /// difficulty-informative dims, then pure-noise dims.
  int label_dims = 8;
  int difficulty_dims = 4;
  int noise_dims = 4;
  double feature_noise = 0.35;
  /// Regression: mean of the true value distribution and the tolerance that
  /// defines agreement with the ensemble output.
  double value_scale = 10.0;
  double regression_tolerance = 1.0;
  /// Retrieval: candidate-pool size and size of the relevant set.
  int num_candidates = 16;
  int relevant_top = 4;

  int feature_dim() const { return label_dims + difficulty_dims + noise_dims; }
};

/// Distribution of the latent difficulty h in [0,1] used when sampling
/// datasets and traces. kRealistic matches Fig. 4a's shape (most samples
/// easy, a long hard tail); the others feed Exp-3's distribution sweeps.
struct DifficultyDistribution {
  enum class Kind { kRealistic, kNormal, kGamma, kUniform, kConstant };
  Kind kind = Kind::kRealistic;
  /// kNormal/kConstant: the mean; kGamma: the mean (with `param` as scale);
  /// kUniform: the centre.
  double mean = 0.30;
  /// kNormal: stddev; kGamma: scale; kUniform: half-width.
  double param = 0.03;

  /// Draws a difficulty, clipped to [0, 1].
  double Sample(Rng& rng) const;

  static DifficultyDistribution Realistic();
  static DifficultyDistribution NormalWithMean(double mean,
                                               double stddev = 0.03);
  static DifficultyDistribution GammaWithMean(double mean, double scale = 0.1);
  static DifficultyDistribution UniformFull();
  static DifficultyDistribution Constant(double value);
};

/// One query with every base model's (pre-generated) behaviour on it.
///
/// Synthetic model inference = wait the model's latency, then look up the
/// stored output, which makes simulation cheap and perfectly reproducible
/// while preserving all the cross-model agreement structure Schemble
/// exploits.
///
/// The payload lives in one contiguous block of doubles, one heap
/// allocation per query, read in place through spans:
///
///   [features | output 0 .. output M-1 | logits 0 .. logits M-1 | ensemble]
///
/// (the logits only for classification). A trace holds one Query per
/// arrival, so this layout is most of a serving run's memory.
struct Query {
  Query() = default;
  /// A query with a zeroed payload block of the given shape.
  Query(int feature_dim, int num_models, int output_dim, bool has_logits);

  int64_t id = 0;
  /// Latent difficulty in [0,1]; hidden from all serving-time components
  /// (only the oracle baselines may read it).
  double difficulty = 0.0;
  /// Regression ground truth; unused otherwise.
  double true_value = 0.0;
  /// Retrieval ground truth: indices of truly relevant candidates.
  std::vector<int> relevant;
  /// Classification ground truth (class index); unused otherwise.
  int true_label = 0;

  /// Observable feature vector (input to predictors / DES / gating).
  std::span<const double> features() const {
    return {payload_.data(), feature_dim_};
  }
  /// Model k's calibrated output vector (probabilities / {value} / scores).
  std::span<const double> model_output(int k) const {
    return {payload_.data() + OutputOffset(k), output_dim_};
  }
  /// Model k's raw (uncalibrated) logits; classification only. Feeds the
  /// temperature-scaling stage.
  std::span<const double> model_logits(int k) const {
    return {payload_.data() + LogitsOffset(k), output_dim_};
  }
  /// Cached full-ensemble reference output (the paper's "ground truth").
  std::span<const double> ensemble_output() const {
    return {payload_.data() + EnsembleOffset(), output_dim_};
  }

  int num_models() const { return num_models_; }
  bool has_logits() const { return has_logits_; }
  /// The whole payload block (every span above lies inside it).
  std::span<const double> payload() const { return payload_; }

  /// Writable views for the generator.
  std::span<double> mutable_features() {
    return {payload_.data(), feature_dim_};
  }
  std::span<double> mutable_model_output(int k) {
    return {payload_.data() + OutputOffset(k), output_dim_};
  }
  std::span<double> mutable_model_logits(int k) {
    return {payload_.data() + LogitsOffset(k), output_dim_};
  }
  std::span<double> mutable_ensemble_output() {
    return {payload_.data() + EnsembleOffset(), output_dim_};
  }

 private:
  size_t OutputOffset(int k) const {
    SCHEMBLE_DCHECK(k >= 0 && k < num_models_);
    return feature_dim_ + static_cast<size_t>(k) * output_dim_;
  }
  size_t LogitsOffset(int k) const {
    SCHEMBLE_DCHECK(has_logits_);
    return OutputOffset(k) + static_cast<size_t>(num_models_) * output_dim_;
  }
  size_t EnsembleOffset() const {
    return feature_dim_ + static_cast<size_t>(num_models_) * output_dim_ *
                              (has_logits_ ? 2 : 1);
  }

  std::vector<double> payload_;
  uint16_t feature_dim_ = 0;
  uint16_t output_dim_ = 0;
  uint8_t num_models_ = 0;
  bool has_logits_ = false;
};

/// Generator and scorer for one synthetic application: the base models, the
/// reference (full-ensemble) aggregation, and the agreement metric used as
/// "accuracy" throughout the evaluation.
///
/// Immutable after construction; every const method is a pure function of
/// its arguments (generation re-derives per-query RNG state from the
/// seed), so one task instance is safely shared across the concurrent
/// runtime's threads.
class SyntheticTask {
 public:
  SyntheticTask(TaskSpec spec, std::vector<ModelProfile> profiles,
                uint64_t seed);

  const TaskSpec& spec() const { return spec_; }
  int num_models() const { return static_cast<int>(profiles_.size()); }
  const ModelProfile& profile(int k) const { return profiles_[k]; }
  const std::vector<ModelProfile>& profiles() const { return profiles_; }

  /// Dimension of a model/ensemble output vector for this task.
  int output_dim() const;

  /// Ensemble aggregation weights (normalized, proportional to base
  /// accuracy, as a stand-in for the learned aggregators in the paper).
  const std::vector<double>& ensemble_weights() const { return weights_; }

  /// Deterministically generates the query with the given id and difficulty:
  /// the same (task seed, model seeds, id) always yields the same query.
  Query GenerateQuery(int64_t id, double difficulty) const;

  /// Samples `n` queries with difficulties from `dist`. Ids start at
  /// `first_id`.
  std::vector<Query> GenerateDataset(int n, const DifficultyDistribution& dist,
                                     uint64_t dataset_seed,
                                     int64_t first_id = 0) const;

  /// Reference aggregation (weighted average) over a subset of model
  /// outputs; `model_indices` must be non-empty and sorted ascending.
  std::vector<double> AggregateSubset(const Query& query,
                                      const std::vector<int>& model_indices)
      const;

  /// Allocation-free AggregateSubset into a caller-reused buffer;
  /// bit-identical to the allocating overload.
  void AggregateSubsetInto(const Query& query,
                           const std::vector<int>& model_indices,
                           std::vector<double>* out) const;

  /// Agreement of `produced` with `reference` on this task: 1/0 for
  /// classification (argmax match) and regression (within tolerance), and
  /// average precision in [0,1] for retrieval (the mAP column).
  double MatchScore(std::span<const double> produced,
                    std::span<const double> reference) const;

  /// Agreement of `produced` with the *true* label/value/relevance (used for
  /// reporting true accuracy rather than ensemble-relative accuracy).
  double TrueScore(std::span<const double> produced,
                   const Query& query) const;

 private:
  TaskSpec spec_;
  std::vector<ModelProfile> profiles_;
  uint64_t seed_;
  std::vector<double> weights_;
  /// Class centres for the label-informative feature dims
  /// [num_classes][label_dims].
  std::vector<std::vector<double>> class_centers_;
};

/// Average precision of ranking `scores` against the `relevant` index set.
double AveragePrecision(std::span<const double> scores,
                        const std::vector<int>& relevant);

}  // namespace schemble

#endif  // SCHEMBLE_MODELS_SYNTHETIC_TASK_H_
