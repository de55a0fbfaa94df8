#include "common/prob.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace schemble {
namespace {

// The functions under test take spans, which brace lists do not convert to.
using Vec = std::vector<double>;

double Sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

TEST(SoftmaxTest, SumsToOne) {
  std::vector<double> p = Softmax(Vec{1.0, 2.0, 3.0});
  EXPECT_NEAR(Sum(p), 1.0, 1e-12);
  EXPECT_LT(p[0], p[1]);
  EXPECT_LT(p[1], p[2]);
}

TEST(SoftmaxTest, StableForLargeLogits) {
  std::vector<double> p = Softmax(Vec{1000.0, 999.0});
  EXPECT_NEAR(Sum(p), 1.0, 1e-12);
  EXPECT_GT(p[0], p[1]);
  EXPECT_FALSE(std::isnan(p[0]));
}

TEST(SoftmaxTest, UniformForEqualLogits) {
  std::vector<double> p = Softmax(Vec{0.5, 0.5, 0.5, 0.5});
  for (double v : p) EXPECT_NEAR(v, 0.25, 1e-12);
}

TEST(SoftmaxTemperatureTest, HighTemperatureFlattens) {
  std::vector<double> sharp = SoftmaxWithTemperature(Vec{2.0, 0.0}, 0.5);
  std::vector<double> flat = SoftmaxWithTemperature(Vec{2.0, 0.0}, 4.0);
  EXPECT_GT(sharp[0], flat[0]);
  EXPECT_NEAR(Sum(flat), 1.0, 1e-12);
}

TEST(SoftmaxTemperatureTest, TemperatureOneMatchesSoftmax) {
  std::vector<double> logits = {0.3, -1.2, 2.0};
  std::vector<double> a = Softmax(logits);
  std::vector<double> b = SoftmaxWithTemperature(logits, 1.0);
  for (size_t i = 0; i < a.size(); ++i) EXPECT_NEAR(a[i], b[i], 1e-12);
}

TEST(NormalizeTest, ScalesToOne) {
  std::vector<double> p = {2.0, 2.0, 4.0};
  NormalizeInPlace(p);
  EXPECT_NEAR(p[0], 0.25, 1e-12);
  EXPECT_NEAR(p[2], 0.5, 1e-12);
}

TEST(NormalizeTest, ZeroVectorBecomesUniform) {
  std::vector<double> p = {0.0, 0.0};
  NormalizeInPlace(p);
  EXPECT_NEAR(p[0], 0.5, 1e-12);
}

TEST(EntropyTest, UniformIsMaximal) {
  const double uniform = Entropy(Vec{0.25, 0.25, 0.25, 0.25});
  const double peaked = Entropy(Vec{0.97, 0.01, 0.01, 0.01});
  EXPECT_NEAR(uniform, std::log(4.0), 1e-12);
  EXPECT_LT(peaked, uniform);
}

TEST(EntropyTest, PointMassIsZero) {
  EXPECT_NEAR(Entropy(Vec{1.0, 0.0, 0.0}), 0.0, 1e-9);
}

TEST(KlTest, ZeroForIdenticalDistributions) {
  std::vector<double> p = {0.2, 0.3, 0.5};
  EXPECT_NEAR(KlDivergence(p, p), 0.0, 1e-9);
}

TEST(KlTest, PositiveAndAsymmetric) {
  std::vector<double> p = {0.9, 0.1};
  std::vector<double> q = {0.5, 0.5};
  EXPECT_GT(KlDivergence(p, q), 0.0);
  EXPECT_NE(KlDivergence(p, q), KlDivergence(q, p));
}

TEST(SymmetricKlTest, IsSymmetric) {
  std::vector<double> p = {0.7, 0.3};
  std::vector<double> q = {0.4, 0.6};
  EXPECT_NEAR(SymmetricKlDivergence(p, q), SymmetricKlDivergence(q, p), 1e-12);
}

TEST(JsTest, BoundedByLn2) {
  std::vector<double> p = {1.0, 0.0};
  std::vector<double> q = {0.0, 1.0};
  const double js = JsDivergence(p, q);
  EXPECT_NEAR(js, std::log(2.0), 1e-6);
  EXPECT_LE(js, std::log(2.0) + 1e-9);
}

TEST(JsTest, SymmetricAndZeroOnEqual) {
  std::vector<double> p = {0.6, 0.4};
  std::vector<double> q = {0.3, 0.7};
  EXPECT_NEAR(JsDivergence(p, q), JsDivergence(q, p), 1e-12);
  EXPECT_NEAR(JsDivergence(p, p), 0.0, 1e-9);
}

TEST(JsTest, MonotoneInSeparation) {
  std::vector<double> base = {0.5, 0.5};
  EXPECT_LT(JsDivergence(base, Vec{0.6, 0.4}),
            JsDivergence(base, Vec{0.9, 0.1}));
}

TEST(EuclideanTest, KnownDistance) {
  EXPECT_DOUBLE_EQ(EuclideanDistance(Vec{0.0, 0.0}, Vec{3.0, 4.0}), 5.0);
  EXPECT_DOUBLE_EQ(EuclideanDistance(Vec{1.0}, Vec{1.0}), 0.0);
}

TEST(ArgmaxTest, FindsMaxAndBreaksTiesLow) {
  EXPECT_EQ(Argmax(Vec{0.1, 0.8, 0.1}), 1);
  EXPECT_EQ(Argmax(Vec{0.5, 0.5}), 0);
  EXPECT_EQ(Argmax(Vec{-3.0, -1.0, -2.0}), 1);
}

}  // namespace
}  // namespace schemble
