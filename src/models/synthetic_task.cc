#include "models/synthetic_task.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>

#include "common/logging.h"
#include "common/prob.h"
#include "nn/kernels.h"

namespace schemble {

namespace {

/// Probability that two wrong models pick the same wrong answer: shared
/// confusions are what make hard queries produce *correlated* disagreement
/// rather than independent noise.
constexpr double kSharedConfusionProb = 0.6;

/// Weighted average of the outputs of `model_indices` into `out` (zeroed
/// here): the one reference-aggregation loop behind AggregateSubsetInto and
/// each generated query's ensemble output.
void WeightedAverageInto(const Query& query,
                         std::span<const int> model_indices,
                         const std::vector<double>& weights,
                         std::span<double> out) {
  SCHEMBLE_CHECK(!model_indices.empty());
  double total_weight = 0.0;
  std::fill(out.begin(), out.end(), 0.0);
  for (int k : model_indices) {
    SCHEMBLE_CHECK_GE(k, 0);
    SCHEMBLE_CHECK_LT(k, query.num_models());
    const std::span<const double> mo = query.model_output(k);
    SCHEMBLE_CHECK_EQ(mo.size(), out.size());
    kernels::Axpy(weights[k], mo.data(), out.data(),
                  static_cast<int>(out.size()));
    total_weight += weights[k];
  }
  for (double& v : out) v /= total_weight;
}

}  // namespace

Query::Query(int feature_dim, int num_models, int output_dim, bool has_logits)
    : feature_dim_(static_cast<uint16_t>(feature_dim)),
      output_dim_(static_cast<uint16_t>(output_dim)),
      num_models_(static_cast<uint8_t>(num_models)),
      has_logits_(has_logits) {
  SCHEMBLE_CHECK(feature_dim >= 0 && feature_dim <= UINT16_MAX);
  SCHEMBLE_CHECK(output_dim >= 0 && output_dim <= UINT16_MAX);
  SCHEMBLE_CHECK(num_models >= 0 && num_models <= UINT8_MAX);
  payload_.assign(EnsembleOffset() + output_dim_, 0.0);
}

double DifficultyDistribution::Sample(Rng& rng) const {
  double h = mean;
  switch (kind) {
    case Kind::kRealistic:
      // Peak near zero with a long tail (Fig. 4a's shape).
      h = rng.Gamma(1.4, 0.16);
      break;
    case Kind::kNormal:
      h = rng.Normal(mean, param);
      break;
    case Kind::kGamma:
      // Gamma with the requested mean: shape = mean / scale.
      h = rng.Gamma(std::max(mean / param, 1e-3), param);
      break;
    case Kind::kUniform:
      h = rng.Uniform(mean - param, mean + param);
      break;
    case Kind::kConstant:
      h = mean;
      break;
  }
  return std::clamp(h, 0.0, 1.0);
}

DifficultyDistribution DifficultyDistribution::Realistic() {
  return DifficultyDistribution{};
}
DifficultyDistribution DifficultyDistribution::NormalWithMean(double mean,
                                                              double stddev) {
  return {Kind::kNormal, mean, stddev};
}
DifficultyDistribution DifficultyDistribution::GammaWithMean(double mean,
                                                             double scale) {
  return {Kind::kGamma, mean, scale};
}
DifficultyDistribution DifficultyDistribution::UniformFull() {
  return {Kind::kUniform, 0.5, 0.5};
}
DifficultyDistribution DifficultyDistribution::Constant(double value) {
  return {Kind::kConstant, value, 0.0};
}

SyntheticTask::SyntheticTask(TaskSpec spec, std::vector<ModelProfile> profiles,
                             uint64_t seed)
    : spec_(spec), profiles_(std::move(profiles)), seed_(seed) {
  SCHEMBLE_CHECK(!profiles_.empty());
  if (spec_.type == TaskType::kClassification) {
    SCHEMBLE_CHECK_GE(spec_.num_classes, 2);
  }
  if (spec_.type == TaskType::kRetrieval) {
    SCHEMBLE_CHECK_GE(spec_.num_candidates, 2);
    SCHEMBLE_CHECK_GE(spec_.relevant_top, 1);
    SCHEMBLE_CHECK_LE(spec_.relevant_top, spec_.num_candidates);
  }
  // Aggregation weights proportional to base accuracy.
  weights_.resize(profiles_.size());
  double total = 0.0;
  for (size_t k = 0; k < profiles_.size(); ++k) {
    weights_[k] = profiles_[k].base_accuracy;
    total += weights_[k];
  }
  for (double& w : weights_) w /= total;
  // Fixed class centres for the label-informative feature block.
  Rng center_rng(HashSeed("class-centers", seed_));
  const int classes =
      spec_.type == TaskType::kClassification ? spec_.num_classes : 1;
  class_centers_.resize(classes);
  for (auto& center : class_centers_) {
    center.resize(spec_.label_dims);
    for (double& v : center) v = center_rng.Normal(0.0, 1.0);
  }
}

int SyntheticTask::output_dim() const {
  switch (spec_.type) {
    case TaskType::kClassification:
      return spec_.num_classes;
    case TaskType::kRegression:
      return 1;
    case TaskType::kRetrieval:
      return spec_.num_candidates;
  }
  return 0;
}

Query SyntheticTask::GenerateQuery(int64_t id, double difficulty) const {
  Query q(spec_.feature_dim(), num_models(), output_dim(),
          spec_.type == TaskType::kClassification);
  q.id = id;
  q.difficulty = std::clamp(difficulty, 0.0, 1.0);
  Rng rng(HashSeed("query", seed_ ^ (static_cast<uint64_t>(id) *
                                     0x9e3779b97f4a7c15ull)));

  // Ground truth.
  switch (spec_.type) {
    case TaskType::kClassification:
      q.true_label = static_cast<int>(rng.UniformInt(0, spec_.num_classes - 1));
      break;
    case TaskType::kRegression:
      q.true_value = rng.Gamma(3.0, spec_.value_scale / 3.0);
      break;
    case TaskType::kRetrieval: {
      std::vector<int> perm = rng.Permutation(spec_.num_candidates);
      q.relevant.assign(perm.begin(), perm.begin() + spec_.relevant_top);
      std::sort(q.relevant.begin(), q.relevant.end());
      break;
    }
  }

  // Features: label block, difficulty block, noise block.
  const std::span<double> features = q.mutable_features();
  int f = 0;
  const std::vector<double>& center =
      class_centers_[spec_.type == TaskType::kClassification ? q.true_label
                                                             : 0];
  for (int j = 0; j < spec_.label_dims; ++j) {
    double base = center[j];
    if (spec_.type == TaskType::kRegression) {
      base = (q.true_value / spec_.value_scale) * center[j];
    }
    features[f++] = base + rng.Normal(0.0, spec_.feature_noise);
  }
  for (int j = 0; j < spec_.difficulty_dims; ++j) {
    features[f++] = q.difficulty + rng.Normal(0.0, 0.35 * spec_.feature_noise);
  }
  for (int j = 0; j < spec_.noise_dims; ++j) {
    features[f++] = rng.Normal(0.0, 1.0);
  }

  // Shared error structure across models (drawn from the query stream so
  // all models see the same confuser/target).
  int confuser_class = 0;
  if (spec_.type == TaskType::kClassification && spec_.num_classes > 1) {
    confuser_class =
        static_cast<int>(rng.UniformInt(0, spec_.num_classes - 2));
    if (confuser_class >= q.true_label) ++confuser_class;
  }
  const double shared_regression_shift =
      rng.Normal(0.0, 1.0);  // scaled per-model below
  std::vector<int> shared_decoys;
  if (spec_.type == TaskType::kRetrieval) {
    // Decoy candidates that hard queries make look relevant for everyone.
    std::vector<int> perm = rng.Permutation(spec_.num_candidates);
    for (int c : perm) {
      if (std::find(q.relevant.begin(), q.relevant.end(), c) ==
          q.relevant.end()) {
        shared_decoys.push_back(c);
      }
      if (static_cast<int>(shared_decoys.size()) >= spec_.relevant_top) break;
    }
  }

  // Per-model outputs from per-model seed streams, written in place.
  for (size_t k = 0; k < profiles_.size(); ++k) {
    const ModelProfile& profile = profiles_[k];
    Rng model_rng(HashSeed(
        "model-output",
        profile.seed ^ (static_cast<uint64_t>(id) * 0xbf58476d1ce4e5b9ull)));
    switch (spec_.type) {
      case TaskType::kClassification: {
        const std::span<double> logits = q.mutable_model_logits(k);
        // Shared confusion: with kSharedConfusionProb a wrong model picks
        // the query's confuser class.
        const double p_correct = profile.CorrectProbability(q.difficulty);
        int predicted = q.true_label;
        if (!model_rng.Bernoulli(p_correct)) {
          if (spec_.num_classes == 2) {
            predicted = 1 - q.true_label;
          } else if (model_rng.Bernoulli(kSharedConfusionProb)) {
            predicted = confuser_class;
          } else {
            predicted = static_cast<int>(
                model_rng.UniformInt(0, spec_.num_classes - 2));
            if (predicted >= q.true_label) ++predicted;
          }
        }
        // Confidence gap shrinks mildly with difficulty (deep models stay
        // confidently wrong on hard inputs); raw logits are scaled by the
        // model's overconfidence (its true calibration temperature).
        // Mistakes on easy inputs are borderline (weak gap) while mistakes
        // on hard inputs remain confident: that is what makes hard samples
        // produce large, correlated disagreement with the ensemble.
        double gap = std::max(0.35, 1.7 + 0.5 * (1.0 - q.difficulty) +
                                        model_rng.Normal(0.0, 0.30));
        if (predicted != q.true_label) {
          gap *= 0.25 + 0.75 * q.difficulty;
        }
        // Tail-logit jitter grows with difficulty: hard inputs produce
        // noisier, flatter output distributions (a continuous difficulty
        // signal on top of the discrete prediction flips). Overconfident
        // models additionally carry a difficulty-independent noise floor:
        // Eq. 1's per-model normalization and calibration cancel it, while
        // the raw ensemble-agreement metric mistakes it for difficulty.
        // Tail noise is clamped below the winning gap so it never flips the
        // predicted class (the flip decision was drawn above from the
        // accuracy curve).
        const double tail_noise = 0.05 + 0.80 * q.difficulty +
                                  0.20 * (profile.overconfidence - 1.0);
        for (int c = 0; c < spec_.num_classes; ++c) {
          if (c == predicted) continue;
          logits[c] =
              std::min(model_rng.Normal(0.0, tail_noise), 0.5 * gap);
        }
        logits[predicted] = gap + model_rng.Normal(0.0, 0.10);
        for (double& v : logits) v *= profile.overconfidence;
        // Calibrated output: softmax at the true temperature.
        const std::span<double> probs = q.mutable_model_output(k);
        std::copy(logits.begin(), logits.end(), probs.begin());
        for (double& v : probs) v /= profile.overconfidence;
        SoftmaxInPlace(probs);
        break;
      }
      case TaskType::kRegression: {
        const double h = q.difficulty;
        const double shared = shared_regression_shift *
                              (0.25 + 1.1 * h) * profile.regression_noise *
                              0.5;
        const double idio = model_rng.Normal(
            0.0, profile.regression_noise * (0.15 + 1.1 * h));
        const double value = std::max(
            0.0, q.true_value + profile.regression_bias * (0.2 + h) + shared +
                     idio);
        q.mutable_model_output(k)[0] = value;
        break;
      }
      case TaskType::kRetrieval: {
        const double h = q.difficulty;
        const std::span<double> scores = q.mutable_model_output(k);
        // Per-model ranking noise is substantial even on easy queries:
        // individual retrieval backbones order the tail of the candidate
        // list idiosyncratically, which is why ensembling retrieval models
        // pays off (and why a single backbone's mAP against the ensemble
        // ranking sits well below 1).
        for (int c = 0; c < spec_.num_candidates; ++c) {
          scores[c] = model_rng.Normal(0.0, 0.85 * (0.55 + h));
        }
        const double signal =
            profile.retrieval_quality * (0.40 + 0.9 * (1.0 - h));
        for (int c : q.relevant) scores[c] += signal;
        // Hard queries push shared decoys up for every model.
        for (int c : shared_decoys) scores[c] += signal * 0.8 * h;
        break;
      }
    }
  }

  // Reference output of the full ensemble (the index list on the stack
  // keeps the payload block the query's only allocation).
  std::array<int, UINT8_MAX + 1> all;
  const std::span<int> models(all.data(), profiles_.size());
  std::iota(models.begin(), models.end(), 0);
  WeightedAverageInto(q, models, weights_, q.mutable_ensemble_output());
  return q;
}

std::vector<Query> SyntheticTask::GenerateDataset(
    int n, const DifficultyDistribution& dist, uint64_t dataset_seed,
    int64_t first_id) const {
  Rng rng(HashSeed("dataset", seed_ ^ dataset_seed));
  std::vector<Query> queries;
  queries.reserve(n);
  for (int i = 0; i < n; ++i) {
    queries.push_back(GenerateQuery(first_id + i, dist.Sample(rng)));
  }
  return queries;
}

std::vector<double> SyntheticTask::AggregateSubset(
    const Query& query, const std::vector<int>& model_indices) const {
  std::vector<double> out;
  AggregateSubsetInto(query, model_indices, &out);
  return out;
}

void SyntheticTask::AggregateSubsetInto(const Query& query,
                                        const std::vector<int>& model_indices,
                                        std::vector<double>* out) const {
  out->resize(output_dim());
  WeightedAverageInto(query, model_indices, weights_, *out);
}

double SyntheticTask::MatchScore(std::span<const double> produced,
                                 std::span<const double> reference) const {
  switch (spec_.type) {
    case TaskType::kClassification:
      return Argmax(produced) == Argmax(reference) ? 1.0 : 0.0;
    case TaskType::kRegression:
      return std::fabs(produced[0] - reference[0]) <=
                     spec_.regression_tolerance
                 ? 1.0
                 : 0.0;
    case TaskType::kRetrieval: {
      // Relevant set = reference's top-R candidates.
      std::vector<int> order(reference.size());
      for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
      std::sort(order.begin(), order.end(), [&](int a, int b) {
        return reference[a] > reference[b];
      });
      std::vector<int> relevant(order.begin(),
                                order.begin() + spec_.relevant_top);
      std::sort(relevant.begin(), relevant.end());
      return AveragePrecision(produced, relevant);
    }
  }
  return 0.0;
}

double SyntheticTask::TrueScore(std::span<const double> produced,
                                const Query& query) const {
  switch (spec_.type) {
    case TaskType::kClassification:
      return Argmax(produced) == query.true_label ? 1.0 : 0.0;
    case TaskType::kRegression:
      return std::fabs(produced[0] - query.true_value) <=
                     spec_.regression_tolerance
                 ? 1.0
                 : 0.0;
    case TaskType::kRetrieval:
      return AveragePrecision(produced, query.relevant);
  }
  return 0.0;
}

double AveragePrecision(std::span<const double> scores,
                        const std::vector<int>& relevant) {
  SCHEMBLE_CHECK(!relevant.empty());
  std::vector<int> order(scores.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  std::sort(order.begin(), order.end(),
            [&](int a, int b) { return scores[a] > scores[b]; });
  double hits = 0.0;
  double precision_sum = 0.0;
  for (size_t rank = 0; rank < order.size(); ++rank) {
    const bool is_relevant =
        std::binary_search(relevant.begin(), relevant.end(), order[rank]);
    if (is_relevant) {
      hits += 1.0;
      precision_sum += hits / static_cast<double>(rank + 1);
    }
  }
  return precision_sum / static_cast<double>(relevant.size());
}

}  // namespace schemble
