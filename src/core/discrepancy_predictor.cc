#include "core/discrepancy_predictor.h"

#include <algorithm>
#include <cmath>
#include <span>

#include "common/logging.h"
#include "common/prob.h"
#include "nn/kernels.h"

namespace schemble {

int DiscrepancyPredictor::task_head_dim() const {
  return task_->output_dim();
}

Result<DiscrepancyPredictor> DiscrepancyPredictor::Train(
    const SyntheticTask& task, const std::vector<Query>& history,
    const std::vector<double>& scores, const PredictorConfig& config) {
  if (history.empty() || history.size() != scores.size()) {
    return Status::InvalidArgument(
        "predictor training needs matching, non-empty history and scores");
  }
  const int task_dim = task.output_dim();
  const int out_dim = task_dim + 1;

  MlpConfig mlp_config;
  mlp_config.layer_sizes.push_back(task.spec().feature_dim());
  for (int h : config.hidden) mlp_config.layer_sizes.push_back(h);
  mlp_config.layer_sizes.push_back(out_dim);
  auto mlp = std::make_unique<Mlp>(mlp_config, config.seed);

  // Targets: [ensemble output (the label), ground-truth score].
  std::vector<TrainExample> examples;
  examples.reserve(history.size());
  const double value_scale = task.spec().value_scale;
  for (size_t i = 0; i < history.size(); ++i) {
    std::vector<double> target;
    target.reserve(out_dim);
    if (task.spec().type == TaskType::kRegression) {
      target.push_back(history[i].ensemble_output()[0] / value_scale);
    } else {
      for (double v : history[i].ensemble_output()) target.push_back(v);
    }
    target.push_back(scores[i]);
    const std::span<const double> features = history[i].features();
    examples.push_back({std::vector<double>(features.begin(), features.end()),
                        std::move(target)});
  }

  // Eq. 2: l(label, output1) + lambda * MSE(dis, output2).
  const TaskType type = task.spec().type;
  const double lambda = config.lambda;
  LossGradFn loss = [task_dim, type, lambda](
                        const std::vector<double>& output,
                        const std::vector<double>& target,
                        std::vector<double>* grad) {
    grad->assign(output.size(), 0.0);
    double task_loss = 0.0;
    if (type == TaskType::kClassification) {
      // Softmax cross-entropy on the task logits vs soft ensemble targets.
      // The softmax is computed in place inside the grad buffer so the
      // per-example loss evaluation allocates nothing in steady state.
      std::copy(output.begin(), output.begin() + task_dim, grad->begin());
      kernels::SoftmaxInPlace(grad->data(), task_dim);
      for (int i = 0; i < task_dim; ++i) {
        const double p = (*grad)[i];
        if (target[i] > 0.0) {
          task_loss -= target[i] * std::log(std::max(p, 1e-12));
        }
        (*grad)[i] = p - target[i];
      }
    } else {
      // MSE on the (normalized) task outputs.
      for (int i = 0; i < task_dim; ++i) {
        const double d = output[i] - target[i];
        task_loss += d * d / task_dim;
        (*grad)[i] = 2.0 * d / task_dim;
      }
    }
    const double ds = output[task_dim] - target[task_dim];
    (*grad)[task_dim] = lambda * 2.0 * ds;
    return task_loss + lambda * ds * ds;
  };

  Rng rng(HashSeed("predictor-train", config.seed));
  TrainMlp(mlp.get(), examples, loss, config.trainer, rng);
  return DiscrepancyPredictor(&task, config, std::move(mlp));
}

double DiscrepancyPredictor::Predict(const Query& query) const {
  // Per-thread scratch keeps the per-query prediction allocation-free; the
  // concurrent runtime calls Predict inside its policy critical section, so
  // this directly shrinks time under the lock.
  thread_local MlpInferenceScratch scratch;
  thread_local std::vector<double> out;
  mlp_->ForwardInto(query.features(), &scratch, &out);
  return std::clamp(out[task_head_dim()], 0.0, 1.0);
}

std::vector<double> DiscrepancyPredictor::TaskHead(const Query& query) const {
  std::vector<double> out = mlp_->Forward(query.features());
  out.resize(task_head_dim());
  if (task_->spec().type == TaskType::kClassification) {
    SoftmaxInPlace(out);
  }
  return out;
}

double DiscrepancyPredictor::EvaluateMse(
    const std::vector<Query>& queries, const std::vector<double>& scores) const {
  SCHEMBLE_CHECK_EQ(queries.size(), scores.size());
  SCHEMBLE_CHECK(!queries.empty());
  double mse = 0.0;
  for (size_t i = 0; i < queries.size(); ++i) {
    const double d = Predict(queries[i]) - scores[i];
    mse += d * d;
  }
  return mse / static_cast<double>(queries.size());
}

double DiscrepancyPredictor::MemoryMb() const {
  return static_cast<double>(ParameterCount()) * 4.0 / (1024.0 * 1024.0);
}

}  // namespace schemble
