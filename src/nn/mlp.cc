#include "nn/mlp.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/prob.h"
#include "nn/kernels.h"

namespace schemble {

double ApplyActivation(Activation act, double z) {
  switch (act) {
    case Activation::kIdentity:
      return z;
    case Activation::kRelu:
      return z > 0.0 ? z : 0.0;
    case Activation::kTanh:
      return std::tanh(z);
    case Activation::kSigmoid:
      return 1.0 / (1.0 + std::exp(-z));
  }
  return z;
}

double ActivationGradFromOutput(Activation act, double a) {
  switch (act) {
    case Activation::kIdentity:
      return 1.0;
    case Activation::kRelu:
      return a > 0.0 ? 1.0 : 0.0;
    case Activation::kTanh:
      return 1.0 - a * a;
    case Activation::kSigmoid:
      return a * (1.0 - a);
  }
  return 1.0;
}

void MlpGradients::Reset() {
  for (auto& w : weight_grads) w.Fill(0.0);
  for (auto& b : bias_grads) std::fill(b.begin(), b.end(), 0.0);
}

void MlpGradients::Scale(double s) {
  for (auto& w : weight_grads) {
    for (size_t i = 0; i < w.size(); ++i) w.data()[i] *= s;
  }
  for (auto& b : bias_grads) {
    for (double& v : b) v *= s;
  }
}

Mlp::Mlp(MlpConfig config, uint64_t seed) : config_(std::move(config)) {
  SCHEMBLE_CHECK_GE(config_.layer_sizes.size(), 2u);
  Rng rng(seed);
  const int layers = static_cast<int>(config_.layer_sizes.size()) - 1;
  weights_.reserve(layers);
  biases_.reserve(layers);
  for (int l = 0; l < layers; ++l) {
    const int in = config_.layer_sizes[l];
    const int out = config_.layer_sizes[l + 1];
    SCHEMBLE_CHECK_GT(in, 0);
    SCHEMBLE_CHECK_GT(out, 0);
    // He initialization keeps ReLU trunks well-scaled.
    const double stddev = std::sqrt(2.0 / in);
    weights_.push_back(Matrix::Randn(out, in, stddev, rng));
    biases_.emplace_back(out, 0.0);
  }
}

size_t Mlp::ParameterCount() const {
  size_t n = 0;
  for (const auto& w : weights_) n += w.size();
  for (const auto& b : biases_) n += b.size();
  return n;
}

std::vector<double> Mlp::Forward(std::span<const double> x) const {
  MlpInferenceScratch scratch;
  std::vector<double> out;
  ForwardInto(x, &scratch, &out);
  return out;
}

void Mlp::ForwardInto(std::span<const double> x,
                      MlpInferenceScratch* scratch,
                      std::vector<double>* out) const {
  SCHEMBLE_CHECK_EQ(static_cast<int>(x.size()), input_dim());
  SCHEMBLE_CHECK(scratch != nullptr);
  SCHEMBLE_CHECK(out != nullptr && out != &scratch->a && out != &scratch->b);
  const int layers = num_layers();
  std::span<const double> cur = x;
  const std::vector<double>* prev = nullptr;  // scratch buffer holding cur
  for (int l = 0; l < layers; ++l) {
    std::vector<double>* dst =
        (l + 1 == layers) ? out
                          : (prev == &scratch->a ? &scratch->b : &scratch->a);
    weights_[l].ApplyInto(cur, dst);
    std::vector<double>& z = *dst;
    for (size_t i = 0; i < z.size(); ++i) z[i] += biases_[l][i];
    if (l + 1 < layers) {
      for (double& v : z) v = ApplyActivation(config_.hidden_activation, v);
    }
    cur = *dst;
    prev = dst;
  }
}

const std::vector<double>& Mlp::ForwardCached(const std::vector<double>& x,
                                              MlpForwardCache* cache) const {
  SCHEMBLE_CHECK(cache != nullptr);
  SCHEMBLE_CHECK_EQ(static_cast<int>(x.size()), input_dim());
  const int layers = num_layers();
  cache->activations.resize(layers + 1);
  cache->activations[0].assign(x.begin(), x.end());
  for (int l = 0; l < layers; ++l) {
    std::vector<double>& z = cache->activations[l + 1];
    weights_[l].ApplyInto(cache->activations[l], &z);
    for (size_t i = 0; i < z.size(); ++i) z[i] += biases_[l][i];
    if (l + 1 < layers) {
      for (double& v : z) v = ApplyActivation(config_.hidden_activation, v);
    }
  }
  return cache->activations.back();
}

void Mlp::Backward(const MlpForwardCache& cache,
                   const std::vector<double>& dloss_doutput,
                   MlpGradients* grads) const {
  SCHEMBLE_CHECK(grads != nullptr);
  const int layers = num_layers();
  SCHEMBLE_CHECK_EQ(static_cast<int>(cache.activations.size()), layers + 1);
  std::vector<double>& delta = grads->delta;
  delta.assign(dloss_doutput.begin(), dloss_doutput.end());
  for (int l = layers - 1; l >= 0; --l) {
    // delta holds dLoss/dz_l (output layer is linear, so this starts as
    // dloss_doutput directly).
    grads->weight_grads[l].AddOuterProduct(delta, cache.activations[l]);
    for (size_t i = 0; i < delta.size(); ++i) grads->bias_grads[l][i] += delta[i];
    if (l > 0) {
      std::vector<double>& prev = grads->delta_prev;
      weights_[l].ApplyTransposedInto(delta, &prev);
      const std::vector<double>& a = cache.activations[l];
      for (size_t i = 0; i < prev.size(); ++i) {
        prev[i] *= ActivationGradFromOutput(config_.hidden_activation, a[i]);
      }
      std::swap(grads->delta, grads->delta_prev);
    }
  }
}

MlpGradients Mlp::InitGradients() const {
  MlpGradients g;
  for (const auto& w : weights_) g.weight_grads.emplace_back(w.rows(), w.cols());
  for (const auto& b : biases_) g.bias_grads.emplace_back(b.size(), 0.0);
  return g;
}

void Mlp::ApplySgd(const MlpGradients& grads, double lr) {
  for (int l = 0; l < num_layers(); ++l) {
    weights_[l].AddScaled(grads.weight_grads[l], -lr);
    for (size_t i = 0; i < biases_[l].size(); ++i) {
      biases_[l][i] -= lr * grads.bias_grads[l][i];
    }
  }
}

AdamOptimizer::AdamOptimizer(const Mlp& mlp, Options options)
    : options_(options) {
  for (const auto& w : mlp.weights_) {
    m_w_.emplace_back(w.rows(), w.cols());
    v_w_.emplace_back(w.rows(), w.cols());
  }
  for (const auto& b : mlp.biases_) {
    m_b_.emplace_back(b.size(), 0.0);
    v_b_.emplace_back(b.size(), 0.0);
  }
}

void AdamOptimizer::Step(const MlpGradients& grads, Mlp* mlp) {
  SCHEMBLE_CHECK(mlp != nullptr);
  ++t_;
  const double b1 = options_.beta1;
  const double b2 = options_.beta2;
  const double bc1 = 1.0 - std::pow(b1, static_cast<double>(t_));
  const double bc2 = 1.0 - std::pow(b2, static_cast<double>(t_));
  const double lr = options_.learning_rate;

  for (size_t l = 0; l < m_w_.size(); ++l) {
    Matrix& w = mlp->weights_[l];
    const Matrix& g = grads.weight_grads[l];
    for (size_t i = 0; i < w.size(); ++i) {
      double gi = g.data()[i] + options_.weight_decay * w.data()[i];
      double& m = m_w_[l].data()[i];
      double& v = v_w_[l].data()[i];
      m = b1 * m + (1.0 - b1) * gi;
      v = b2 * v + (1.0 - b2) * gi * gi;
      const double mhat = m / bc1;
      const double vhat = v / bc2;
      w.data()[i] -= lr * mhat / (std::sqrt(vhat) + options_.epsilon);
    }
    std::vector<double>& b = mlp->biases_[l];
    const std::vector<double>& gb = grads.bias_grads[l];
    for (size_t i = 0; i < b.size(); ++i) {
      double& m = m_b_[l][i];
      double& v = v_b_[l][i];
      m = b1 * m + (1.0 - b1) * gb[i];
      v = b2 * v + (1.0 - b2) * gb[i] * gb[i];
      const double mhat = m / bc1;
      const double vhat = v / bc2;
      b[i] -= lr * mhat / (std::sqrt(vhat) + options_.epsilon);
    }
  }
}

double MseLossGrad(const std::vector<double>& output,
                   const std::vector<double>& target,
                   std::vector<double>* grad) {
  SCHEMBLE_CHECK_EQ(output.size(), target.size());
  grad->assign(output.size(), 0.0);
  double loss = 0.0;
  const double n = static_cast<double>(output.size());
  for (size_t i = 0; i < output.size(); ++i) {
    const double d = output[i] - target[i];
    loss += d * d;
    (*grad)[i] = 2.0 * d / n;
  }
  return loss / n;
}

double SoftmaxCrossEntropyLossGrad(const std::vector<double>& output,
                                   const std::vector<double>& target,
                                   std::vector<double>* grad) {
  SCHEMBLE_CHECK_EQ(output.size(), target.size());
  // Softmax computed in place inside `grad` (reusing its capacity), then
  // turned into softmax - target: the train-step hot path stays
  // allocation-free in steady state.
  grad->assign(output.begin(), output.end());
  kernels::SoftmaxInPlace(grad->data(), static_cast<int>(grad->size()));
  double loss = 0.0;
  for (size_t i = 0; i < output.size(); ++i) {
    const double p = (*grad)[i];
    if (target[i] > 0.0) loss -= target[i] * std::log(std::max(p, 1e-12));
    (*grad)[i] = p - target[i];
  }
  return loss;
}

double TrainMlp(Mlp* mlp, const std::vector<TrainExample>& examples,
                const LossGradFn& loss, const TrainerOptions& options,
                Rng& rng) {
  SCHEMBLE_CHECK(mlp != nullptr);
  SCHEMBLE_CHECK(!examples.empty());
  AdamOptimizer adam(*mlp, options.adam);
  MlpGradients grads = mlp->InitGradients();
  MlpForwardCache cache;
  std::vector<double> grad_out;
  double epoch_loss = 0.0;

  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    std::vector<int> order = rng.Permutation(static_cast<int>(examples.size()));
    epoch_loss = 0.0;
    size_t cursor = 0;
    while (cursor < order.size()) {
      const size_t batch_end =
          std::min(cursor + static_cast<size_t>(options.batch_size),
                   order.size());
      grads.Reset();
      double batch_loss = 0.0;
      for (size_t i = cursor; i < batch_end; ++i) {
        const TrainExample& ex = examples[order[i]];
        const std::vector<double>& out = mlp->ForwardCached(ex.input, &cache);
        batch_loss += loss(out, ex.target, &grad_out);
        mlp->Backward(cache, grad_out, &grads);
      }
      const double inv = 1.0 / static_cast<double>(batch_end - cursor);
      grads.Scale(inv);
      if (options.gradient_clip > 0.0) {
        double norm_sq = 0.0;
        for (const auto& w : grads.weight_grads) {
          const double n = w.Norm();
          norm_sq += n * n;
        }
        for (const auto& b : grads.bias_grads) {
          for (double v : b) norm_sq += v * v;
        }
        const double norm = std::sqrt(norm_sq);
        if (norm > options.gradient_clip) {
          grads.Scale(options.gradient_clip / norm);
        }
      }
      adam.Step(grads, mlp);
      epoch_loss += batch_loss;
      cursor = batch_end;
    }
    epoch_loss /= static_cast<double>(examples.size());
  }
  return epoch_loss;
}

}  // namespace schemble
