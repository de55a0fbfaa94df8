#ifndef SCHEMBLE_NN_MLP_H_
#define SCHEMBLE_NN_MLP_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/rng.h"
#include "nn/matrix.h"

namespace schemble {

/// Hidden-layer activation functions supported by Mlp.
enum class Activation { kIdentity, kRelu, kTanh, kSigmoid };

double ApplyActivation(Activation act, double z);
/// Derivative expressed in terms of the activation output `a` (standard for
/// these functions; for ReLU it uses the sign of `a`).
double ActivationGradFromOutput(Activation act, double a);

struct MlpConfig {
  /// Layer widths including input and output, e.g. {16, 32, 3}.
  std::vector<int> layer_sizes;
  Activation hidden_activation = Activation::kRelu;
};

/// Per-layer gradients produced by Mlp::Backward; shaped like the weights.
struct MlpGradients {
  std::vector<Matrix> weight_grads;
  std::vector<std::vector<double>> bias_grads;

  /// Backprop scratch reused across examples (not part of the gradients;
  /// lets Backward run without heap allocation in steady state).
  std::vector<double> delta;
  std::vector<double> delta_prev;

  void Reset();
  void Scale(double s);
};

/// Intermediate activations kept by ForwardCached for backprop. Reused
/// across calls: the per-layer vectors keep their capacity, so repeated
/// ForwardCached calls on the same cache are allocation-free.
struct MlpForwardCache {
  /// activations[0] is the input; activations[L] the (linear) output.
  std::vector<std::vector<double>> activations;
};

/// Ping-pong buffers for allocation-free inference (ForwardInto).
struct MlpInferenceScratch {
  std::vector<double> a;
  std::vector<double> b;
};

/// Multi-layer perceptron with linear output layer. Small and allocation-
/// conscious rather than fast: this library's networks are the paper's
/// "lightweight" predictor networks (a few thousand parameters).
///
/// The class is copyable so callers can snapshot the best weights during
/// training.
class Mlp {
 public:
  Mlp(MlpConfig config, uint64_t seed);

  int input_dim() const { return config_.layer_sizes.front(); }
  int output_dim() const { return config_.layer_sizes.back(); }
  int num_layers() const { return static_cast<int>(weights_.size()); }
  size_t ParameterCount() const;

  /// Inference: raw (linear) outputs. Apply softmax/sigmoid at the call site
  /// as the task requires.
  std::vector<double> Forward(std::span<const double> x) const;

  /// Allocation-free inference: writes the (linear) outputs into `out`
  /// using the caller's ping-pong scratch. Bit-identical to Forward.
  /// `out` must be distinct from both scratch buffers.
  void ForwardInto(std::span<const double> x, MlpInferenceScratch* scratch,
                   std::vector<double>* out) const;

  /// Forward pass that records activations for Backward. Returns a
  /// reference into `cache` (valid until the next call on the same cache);
  /// allocation-free once the cache has warmed up.
  const std::vector<double>& ForwardCached(const std::vector<double>& x,
                                           MlpForwardCache* cache) const;

  /// Accumulates gradients for one example given dLoss/dOutput; `grads`
  /// must be shaped by InitGradients (or zeroed between batches via Reset).
  void Backward(const MlpForwardCache& cache,
                const std::vector<double>& dloss_doutput,
                MlpGradients* grads) const;

  MlpGradients InitGradients() const;

  /// SGD step: params -= lr * grads.
  void ApplySgd(const MlpGradients& grads, double lr);

  const std::vector<Matrix>& weights() const { return weights_; }
  const std::vector<std::vector<double>>& biases() const { return biases_; }
  Matrix& mutable_weight(int layer) { return weights_[layer]; }
  std::vector<double>& mutable_bias(int layer) { return biases_[layer]; }

 private:
  friend class AdamOptimizer;

  MlpConfig config_;
  std::vector<Matrix> weights_;
  std::vector<std::vector<double>> biases_;
};

/// Adam optimizer bound to one Mlp's parameter shapes.
class AdamOptimizer {
 public:
  struct Options {
    double learning_rate = 1e-3;
    double beta1 = 0.9;
    double beta2 = 0.999;
    double epsilon = 1e-8;
    double weight_decay = 0.0;
  };

  AdamOptimizer(const Mlp& mlp, Options options);

  /// Applies one Adam update from accumulated (mean) gradients.
  void Step(const MlpGradients& grads, Mlp* mlp);

  int64_t steps() const { return t_; }

 private:
  Options options_;
  int64_t t_ = 0;
  std::vector<Matrix> m_w_, v_w_;
  std::vector<std::vector<double>> m_b_, v_b_;
};

/// Loss callback: given network output and target, returns the loss value
/// and writes dLoss/dOutput into `grad` (resized by the callee).
using LossGradFn = std::function<double(const std::vector<double>& output,
                                        const std::vector<double>& target,
                                        std::vector<double>* grad)>;

/// Mean-squared-error loss over the full output vector.
double MseLossGrad(const std::vector<double>& output,
                   const std::vector<double>& target,
                   std::vector<double>* grad);

/// Softmax cross-entropy; `target` is a probability vector (often one-hot).
/// Gradient is softmax(output) - target.
double SoftmaxCrossEntropyLossGrad(const std::vector<double>& output,
                                   const std::vector<double>& target,
                                   std::vector<double>* grad);

/// One labelled training example.
struct TrainExample {
  std::vector<double> input;
  std::vector<double> target;
};

struct TrainerOptions {
  int batch_size = 32;
  int epochs = 20;
  AdamOptimizer::Options adam;
  /// When > 0, gradients with L2 norm above this are scaled down.
  double gradient_clip = 5.0;
};

/// Minibatch trainer; returns the mean training loss of the final epoch.
/// `rng` drives example shuffling only.
double TrainMlp(Mlp* mlp, const std::vector<TrainExample>& examples,
                const LossGradFn& loss, const TrainerOptions& options,
                Rng& rng);

}  // namespace schemble

#endif  // SCHEMBLE_NN_MLP_H_
