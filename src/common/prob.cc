#include "common/prob.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace schemble {

namespace {
constexpr double kEps = 1e-12;
}  // namespace

void SoftmaxInPlace(std::span<double> logits) {
  SCHEMBLE_CHECK(!logits.empty());
  const double max_logit = *std::max_element(logits.begin(), logits.end());
  double sum = 0.0;
  for (double& v : logits) {
    v = std::exp(v - max_logit);
    sum += v;
  }
  for (double& v : logits) v /= sum;
}

std::vector<double> Softmax(std::span<const double> logits) {
  std::vector<double> out(logits.begin(), logits.end());
  SoftmaxInPlace(out);
  return out;
}

std::vector<double> SoftmaxWithTemperature(std::span<const double> logits,
                                           double temperature) {
  SCHEMBLE_CHECK_GT(temperature, 0.0);
  std::vector<double> out(logits.begin(), logits.end());
  for (double& v : out) v /= temperature;
  SoftmaxInPlace(out);
  return out;
}

void NormalizeInPlace(std::vector<double>& p) {
  SCHEMBLE_CHECK(!p.empty());
  double sum = 0.0;
  for (double v : p) {
    SCHEMBLE_DCHECK(v >= 0.0);
    sum += v;
  }
  if (sum <= 0.0) {
    const double uniform = 1.0 / static_cast<double>(p.size());
    for (double& v : p) v = uniform;
    return;
  }
  for (double& v : p) v /= sum;
}

double Entropy(std::span<const double> p) {
  double h = 0.0;
  for (double v : p) {
    if (v > kEps) h -= v * std::log(v);
  }
  return h;
}

double KlDivergence(std::span<const double> p,
                    std::span<const double> q) {
  SCHEMBLE_CHECK_EQ(p.size(), q.size());
  double d = 0.0;
  for (size_t i = 0; i < p.size(); ++i) {
    const double pi = std::max(p[i], kEps);
    const double qi = std::max(q[i], kEps);
    d += pi * std::log(pi / qi);
  }
  return std::max(d, 0.0);
}

double SymmetricKlDivergence(std::span<const double> p,
                             std::span<const double> q) {
  return KlDivergence(p, q) + KlDivergence(q, p);
}

double JsDivergence(std::span<const double> p,
                    std::span<const double> q) {
  SCHEMBLE_CHECK_EQ(p.size(), q.size());
  std::vector<double> mid(p.size());
  for (size_t i = 0; i < p.size(); ++i) mid[i] = 0.5 * (p[i] + q[i]);
  return 0.5 * KlDivergence(p, mid) + 0.5 * KlDivergence(q, mid);
}

double EuclideanDistance(std::span<const double> a,
                         std::span<const double> b) {
  SCHEMBLE_CHECK_EQ(a.size(), b.size());
  double sq = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    sq += d * d;
  }
  return std::sqrt(sq);
}

int Argmax(std::span<const double> v) {
  SCHEMBLE_CHECK(!v.empty());
  return static_cast<int>(
      std::max_element(v.begin(), v.end()) - v.begin());
}

}  // namespace schemble
