#include "baselines/gating_policy.h"

#include <algorithm>
#include <cmath>
#include <span>

#include "common/logging.h"
#include "common/prob.h"

namespace schemble {

Result<GatingPolicy> GatingPolicy::Train(const SyntheticTask& task,
                                         const std::vector<Query>& history,
                                         const GatingConfig& config) {
  if (history.empty()) {
    return Status::InvalidArgument("gating training needs history data");
  }
  const int m = task.num_models();
  const int dim = task.output_dim();
  MlpConfig mlp_config;
  mlp_config.layer_sizes.push_back(task.spec().feature_dim());
  for (int h : config.hidden) mlp_config.layer_sizes.push_back(h);
  mlp_config.layer_sizes.push_back(m);
  auto gate = std::make_unique<Mlp>(mlp_config, config.seed);

  const bool classification =
      task.spec().type == TaskType::kClassification;
  // Targets pack what the loss needs per example:
  //  - classification: t_k = P_k(ensemble label) per model;
  //  - otherwise: the m model outputs flattened, then the ensemble output.
  std::vector<TrainExample> examples;
  examples.reserve(history.size());
  for (const Query& q : history) {
    std::vector<double> target;
    if (classification) {
      const int label = Argmax(q.ensemble_output());
      target.reserve(m);
      for (int k = 0; k < m; ++k) {
        target.push_back(std::max(q.model_output(k)[label], 1e-9));
      }
    } else {
      target.reserve(m * dim + dim);
      for (int k = 0; k < m; ++k) {
        const std::span<const double> mo = q.model_output(k);
        target.insert(target.end(), mo.begin(), mo.end());
      }
      const std::span<const double> ensemble = q.ensemble_output();
      target.insert(target.end(), ensemble.begin(), ensemble.end());
    }
    const std::span<const double> features = q.features();
    examples.push_back({std::vector<double>(features.begin(), features.end()),
                        std::move(target)});
  }

  // Loss over gate logits g: w = softmax(g); classification minimizes
  // -log(sum_k w_k t_k); regression/retrieval minimizes
  // ||sum_k w_k o_k - o_ens||^2. Both backpropagate through the softmax.
  LossGradFn loss = [m, dim, classification](
                        const std::vector<double>& output,
                        const std::vector<double>& target,
                        std::vector<double>* grad) {
    const std::vector<double> w = Softmax(output);
    std::vector<double> dloss_dw(m, 0.0);
    double loss_value = 0.0;
    if (classification) {
      double p = 0.0;
      for (int k = 0; k < m; ++k) p += w[k] * target[k];
      p = std::max(p, 1e-12);
      loss_value = -std::log(p);
      for (int k = 0; k < m; ++k) dloss_dw[k] = -target[k] / p;
    } else {
      for (int d = 0; d < dim; ++d) {
        double combined = 0.0;
        for (int k = 0; k < m; ++k) combined += w[k] * target[k * dim + d];
        const double err = combined - target[m * dim + d];
        loss_value += err * err / dim;
        for (int k = 0; k < m; ++k) {
          dloss_dw[k] += 2.0 * err * target[k * dim + d] / dim;
        }
      }
    }
    // Softmax chain rule: dL/dg_j = w_j (dL/dw_j - sum_k w_k dL/dw_k).
    double mixed = 0.0;
    for (int k = 0; k < m; ++k) mixed += w[k] * dloss_dw[k];
    grad->assign(m, 0.0);
    for (int j = 0; j < m; ++j) (*grad)[j] = w[j] * (dloss_dw[j] - mixed);
    return loss_value;
  };

  Rng rng(HashSeed("gating-train", config.seed));
  TrainMlp(gate.get(), examples, loss, config.trainer, rng);
  return GatingPolicy(&task, config, std::move(gate));
}

std::vector<double> GatingPolicy::GateWeights(const Query& query) const {
  return Softmax(gate_->Forward(query.features()));
}

SubsetMask GatingPolicy::SelectSubset(
    const Query& query, const std::vector<SimTime>& latency_us) const {
  const std::vector<double> w = GateWeights(query);
  const double max_w = *std::max_element(w.begin(), w.end());
  // Clearly dominant gates are kept outright.
  SubsetMask subset = 0;
  for (size_t k = 0; k < w.size(); ++k) {
    if (w[k] >= config_.absolute_keep) subset |= SubsetMask{1} << k;
  }
  if (subset != 0) return subset;
  // Otherwise the band of near-tied gates competes; run the cheapest.
  int cheapest = -1;
  for (size_t k = 0; k < w.size(); ++k) {
    if (w[k] < config_.band_ratio * max_w) continue;
    if (cheapest < 0 || latency_us[k] < latency_us[cheapest]) {
      cheapest = static_cast<int>(k);
    }
  }
  SCHEMBLE_CHECK_GE(cheapest, 0);
  return SubsetMask{1} << cheapest;
}

ArrivalDecision GatingPolicy::OnArrival(const TracedQuery& query,
                                        const ServerView& view) {
  const SubsetMask subset =
      SelectSubset(query.query, view.model_exec_time);
  if (view.allow_rejection &&
      view.EstimateCompletion(subset) > query.deadline) {
    return ArrivalDecision::Reject();
  }
  return ArrivalDecision::Assign(subset);
}

}  // namespace schemble
