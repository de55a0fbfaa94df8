#include "nn/mlp.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/prob.h"
#include "common/rng.h"

namespace schemble {
namespace {

TEST(ActivationTest, Values) {
  EXPECT_DOUBLE_EQ(ApplyActivation(Activation::kIdentity, -2.0), -2.0);
  EXPECT_DOUBLE_EQ(ApplyActivation(Activation::kRelu, -2.0), 0.0);
  EXPECT_DOUBLE_EQ(ApplyActivation(Activation::kRelu, 2.0), 2.0);
  EXPECT_NEAR(ApplyActivation(Activation::kTanh, 0.5), std::tanh(0.5), 1e-12);
  EXPECT_NEAR(ApplyActivation(Activation::kSigmoid, 0.0), 0.5, 1e-12);
}

TEST(ActivationTest, GradientsFromOutput) {
  EXPECT_DOUBLE_EQ(ActivationGradFromOutput(Activation::kIdentity, 3.0), 1.0);
  EXPECT_DOUBLE_EQ(ActivationGradFromOutput(Activation::kRelu, 2.0), 1.0);
  EXPECT_DOUBLE_EQ(ActivationGradFromOutput(Activation::kRelu, 0.0), 0.0);
  // sigmoid'(z) = a(1-a) at a = 0.5 -> 0.25.
  EXPECT_DOUBLE_EQ(ActivationGradFromOutput(Activation::kSigmoid, 0.5), 0.25);
  // tanh'(z) = 1 - a^2.
  EXPECT_DOUBLE_EQ(ActivationGradFromOutput(Activation::kTanh, 0.5), 0.75);
}

TEST(MlpTest, ShapesAndParameterCount) {
  Mlp mlp(MlpConfig{{4, 8, 3}, Activation::kRelu}, 1);
  EXPECT_EQ(mlp.input_dim(), 4);
  EXPECT_EQ(mlp.output_dim(), 3);
  EXPECT_EQ(mlp.num_layers(), 2);
  // 4*8 + 8 + 8*3 + 3 = 67.
  EXPECT_EQ(mlp.ParameterCount(), 67u);
}

TEST(MlpTest, ForwardDeterministicForSeed) {
  Mlp a(MlpConfig{{3, 5, 2}, Activation::kTanh}, 42);
  Mlp b(MlpConfig{{3, 5, 2}, Activation::kTanh}, 42);
  const std::vector<double> x = {0.1, -0.2, 0.3};
  const std::vector<double> ya = a.Forward(x);
  const std::vector<double> yb = b.Forward(x);
  for (size_t i = 0; i < ya.size(); ++i) EXPECT_DOUBLE_EQ(ya[i], yb[i]);
}

TEST(MlpTest, ForwardCachedMatchesForward) {
  Mlp mlp(MlpConfig{{3, 6, 2}, Activation::kRelu}, 7);
  MlpForwardCache cache;
  const std::vector<double> x = {0.5, -1.0, 2.0};
  const std::vector<double> y1 = mlp.Forward(x);
  const std::vector<double> y2 = mlp.ForwardCached(x, &cache);
  ASSERT_EQ(y1.size(), y2.size());
  for (size_t i = 0; i < y1.size(); ++i) EXPECT_DOUBLE_EQ(y1[i], y2[i]);
  EXPECT_EQ(cache.activations.size(), 3u);
}

// Numerical gradient check: analytic backprop gradients must match finite
// differences on a small network with a smooth activation.
TEST(MlpTest, BackwardMatchesNumericalGradient) {
  Mlp mlp(MlpConfig{{3, 4, 2}, Activation::kTanh}, 11);
  const std::vector<double> x = {0.3, -0.7, 1.1};
  const std::vector<double> target = {0.5, -0.25};

  MlpForwardCache cache;
  MlpGradients grads = mlp.InitGradients();
  std::vector<double> grad_out;
  std::vector<double> out = mlp.ForwardCached(x, &cache);
  MseLossGrad(out, target, &grad_out);
  mlp.Backward(cache, grad_out, &grads);

  const double eps = 1e-6;
  auto loss_at = [&](Mlp& net) {
    std::vector<double> g;
    return MseLossGrad(net.Forward(x), target, &g);
  };

  for (int l = 0; l < mlp.num_layers(); ++l) {
    Matrix& w = mlp.mutable_weight(l);
    for (int r = 0; r < w.rows(); ++r) {
      for (int c = 0; c < w.cols(); ++c) {
        const double saved = w.at(r, c);
        w.at(r, c) = saved + eps;
        const double lp = loss_at(mlp);
        w.at(r, c) = saved - eps;
        const double lm = loss_at(mlp);
        w.at(r, c) = saved;
        const double numeric = (lp - lm) / (2.0 * eps);
        EXPECT_NEAR(grads.weight_grads[l].at(r, c), numeric, 1e-5)
            << "layer " << l << " w(" << r << "," << c << ")";
      }
    }
    std::vector<double>& b = mlp.mutable_bias(l);
    for (size_t i = 0; i < b.size(); ++i) {
      const double saved = b[i];
      b[i] = saved + eps;
      const double lp = loss_at(mlp);
      b[i] = saved - eps;
      const double lm = loss_at(mlp);
      b[i] = saved;
      const double numeric = (lp - lm) / (2.0 * eps);
      EXPECT_NEAR(grads.bias_grads[l][i], numeric, 1e-5);
    }
  }
}

TEST(MlpTest, TrainsXor) {
  Mlp mlp(MlpConfig{{2, 8, 1}, Activation::kTanh}, 3);
  std::vector<TrainExample> xor_data = {
      {{0.0, 0.0}, {0.0}},
      {{0.0, 1.0}, {1.0}},
      {{1.0, 0.0}, {1.0}},
      {{1.0, 1.0}, {0.0}},
  };
  TrainerOptions options;
  options.epochs = 800;
  options.batch_size = 4;
  options.adam.learning_rate = 0.02;
  Rng rng(5);
  const double final_loss = TrainMlp(&mlp, xor_data, MseLossGrad, options, rng);
  EXPECT_LT(final_loss, 0.01);
  for (const auto& ex : xor_data) {
    const double pred = mlp.Forward(ex.input)[0];
    EXPECT_NEAR(pred, ex.target[0], 0.2);
  }
}

TEST(MlpTest, TrainsLinearRegression) {
  // y = 2 x0 - 3 x1 + 1, learnable exactly by a linear network.
  Mlp mlp(MlpConfig{{2, 1}, Activation::kIdentity}, 9);
  Rng data_rng(13);
  std::vector<TrainExample> data;
  for (int i = 0; i < 256; ++i) {
    const double x0 = data_rng.Uniform(-1, 1);
    const double x1 = data_rng.Uniform(-1, 1);
    data.push_back({{x0, x1}, {2.0 * x0 - 3.0 * x1 + 1.0}});
  }
  TrainerOptions options;
  options.epochs = 200;
  options.adam.learning_rate = 0.05;
  Rng rng(17);
  const double loss = TrainMlp(&mlp, data, MseLossGrad, options, rng);
  EXPECT_LT(loss, 1e-4);
  EXPECT_NEAR(mlp.Forward(std::vector<double>{0.5, 0.5})[0], 0.5, 0.05);
}

TEST(MlpTest, SoftmaxCrossEntropyTrainsClassifier) {
  // Two well-separated Gaussian blobs.
  Mlp mlp(MlpConfig{{2, 8, 2}, Activation::kRelu}, 21);
  Rng data_rng(23);
  std::vector<TrainExample> data;
  for (int i = 0; i < 400; ++i) {
    const int label = i % 2;
    const double cx = label == 0 ? -1.0 : 1.0;
    std::vector<double> x = {data_rng.Normal(cx, 0.3),
                             data_rng.Normal(cx, 0.3)};
    std::vector<double> t = {label == 0 ? 1.0 : 0.0, label == 1 ? 1.0 : 0.0};
    data.push_back({std::move(x), std::move(t)});
  }
  TrainerOptions options;
  options.epochs = 60;
  Rng rng(29);
  TrainMlp(&mlp, data, SoftmaxCrossEntropyLossGrad, options, rng);
  int correct = 0;
  for (const auto& ex : data) {
    const int pred = Argmax(mlp.Forward(ex.input));
    const int label = Argmax(ex.target);
    if (pred == label) ++correct;
  }
  EXPECT_GT(correct, 390);
}

TEST(LossTest, MseValueAndGradient) {
  std::vector<double> grad;
  const double loss = MseLossGrad({1.0, 3.0}, {0.0, 1.0}, &grad);
  EXPECT_DOUBLE_EQ(loss, (1.0 + 4.0) / 2.0);
  EXPECT_DOUBLE_EQ(grad[0], 1.0);   // 2*(1-0)/2
  EXPECT_DOUBLE_EQ(grad[1], 2.0);   // 2*(3-1)/2
}

TEST(LossTest, CrossEntropyGradientIsSoftmaxMinusTarget) {
  std::vector<double> grad;
  const std::vector<double> logits = {2.0, 0.0};
  const std::vector<double> target = {1.0, 0.0};
  const double loss = SoftmaxCrossEntropyLossGrad(logits, target, &grad);
  const std::vector<double> p = Softmax(logits);
  EXPECT_NEAR(loss, -std::log(p[0]), 1e-12);
  EXPECT_NEAR(grad[0], p[0] - 1.0, 1e-12);
  EXPECT_NEAR(grad[1], p[1], 1e-12);
}

TEST(AdamTest, ConvergesOnQuadratic) {
  // Minimize (w - 3)^2 via a 1-parameter "network": y = w * x with x = 1.
  Mlp mlp(MlpConfig{{1, 1}, Activation::kIdentity}, 31);
  mlp.mutable_bias(0)[0] = 0.0;
  AdamOptimizer adam(mlp, {.learning_rate = 0.1});
  MlpGradients grads = mlp.InitGradients();
  MlpForwardCache cache;
  std::vector<double> grad_out;
  for (int step = 0; step < 500; ++step) {
    grads.Reset();
    std::vector<double> out = mlp.ForwardCached({1.0}, &cache);
    MseLossGrad(out, {3.0}, &grad_out);
    mlp.Backward(cache, grad_out, &grads);
    adam.Step(grads, &mlp);
  }
  EXPECT_NEAR(mlp.Forward(std::vector<double>{1.0})[0], 3.0, 0.01);
  EXPECT_EQ(adam.steps(), 500);
}

TEST(MlpGradientsTest, ResetAndScale) {
  Mlp mlp(MlpConfig{{2, 2}, Activation::kIdentity}, 1);
  MlpGradients g = mlp.InitGradients();
  g.weight_grads[0].at(0, 0) = 4.0;
  g.bias_grads[0][1] = 2.0;
  g.Scale(0.5);
  EXPECT_DOUBLE_EQ(g.weight_grads[0].at(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(g.bias_grads[0][1], 1.0);
  g.Reset();
  EXPECT_DOUBLE_EQ(g.weight_grads[0].at(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(g.bias_grads[0][1], 0.0);
}

}  // namespace
}  // namespace schemble
