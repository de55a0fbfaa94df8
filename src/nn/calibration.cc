#include "nn/calibration.h"

#include <cmath>

#include "common/logging.h"
#include "common/prob.h"
#include "common/stats.h"
#include "nn/kernels.h"

namespace schemble {

namespace {

/// In-place temperature softmax into a reusable buffer: bit-identical to
/// SoftmaxWithTemperature without the per-sample allocation (golden-section
/// fitting evaluates the NLL thousands of times).
void TemperatureSoftmaxInto(const std::vector<double>& logits,
                            double temperature, std::vector<double>* p) {
  p->assign(logits.begin(), logits.end());
  for (double& v : *p) v /= temperature;
  kernels::SoftmaxInPlace(p->data(), static_cast<int>(p->size()));
}

}  // namespace

double TemperatureScaler::MeanNll(
    const std::vector<std::vector<double>>& logits,
    const std::vector<int>& labels, double temperature) {
  SCHEMBLE_CHECK_EQ(logits.size(), labels.size());
  SCHEMBLE_CHECK(!logits.empty());
  SCHEMBLE_CHECK_GT(temperature, 0.0);
  double nll = 0.0;
  std::vector<double> p;
  for (size_t i = 0; i < logits.size(); ++i) {
    TemperatureSoftmaxInto(logits[i], temperature, &p);
    const int y = labels[i];
    SCHEMBLE_CHECK_GE(y, 0);
    SCHEMBLE_CHECK_LT(y, static_cast<int>(p.size()));
    nll -= std::log(std::max(p[y], 1e-12));
  }
  return nll / static_cast<double>(logits.size());
}

Result<TemperatureScaler> TemperatureScaler::Fit(
    const std::vector<std::vector<double>>& logits,
    const std::vector<int>& labels, double min_t, double max_t) {
  if (logits.empty() || logits.size() != labels.size()) {
    return Status::InvalidArgument(
        "temperature scaling needs matching, non-empty logits and labels");
  }
  if (min_t <= 0.0 || max_t <= min_t) {
    return Status::InvalidArgument("invalid temperature bounds");
  }
  // Golden-section search; NLL(T) is unimodal in practice.
  const double phi = (std::sqrt(5.0) - 1.0) / 2.0;
  double a = min_t;
  double b = max_t;
  double c = b - phi * (b - a);
  double d = a + phi * (b - a);
  double fc = MeanNll(logits, labels, c);
  double fd = MeanNll(logits, labels, d);
  for (int iter = 0; iter < 80 && (b - a) > 1e-4; ++iter) {
    if (fc < fd) {
      b = d;
      d = c;
      fd = fc;
      c = b - phi * (b - a);
      fc = MeanNll(logits, labels, c);
    } else {
      a = c;
      c = d;
      fc = fd;
      d = a + phi * (b - a);
      fd = MeanNll(logits, labels, d);
    }
  }
  return TemperatureScaler(0.5 * (a + b));
}

std::vector<double> TemperatureScaler::Calibrate(
    std::span<const double> logits) const {
  return SoftmaxWithTemperature(logits, temperature_);
}

double TemperatureScaler::ExpectedCalibrationError(
    const std::vector<std::vector<double>>& logits,
    const std::vector<int>& labels, double temperature, int bins) {
  SCHEMBLE_CHECK_EQ(logits.size(), labels.size());
  SCHEMBLE_CHECK_GT(bins, 0);
  std::vector<double> conf_sum(bins, 0.0);
  std::vector<double> acc_sum(bins, 0.0);
  std::vector<int64_t> counts(bins, 0);
  std::vector<double> p;
  for (size_t i = 0; i < logits.size(); ++i) {
    TemperatureSoftmaxInto(logits[i], temperature, &p);
    const int pred = Argmax(p);
    const double conf = p[pred];
    int bucket = static_cast<int>(conf * bins);
    if (bucket >= bins) bucket = bins - 1;
    conf_sum[bucket] += conf;
    acc_sum[bucket] += (pred == labels[i]) ? 1.0 : 0.0;
    ++counts[bucket];
  }
  double ece = 0.0;
  const double n = static_cast<double>(logits.size());
  for (int b = 0; b < bins; ++b) {
    if (counts[b] == 0) continue;
    const double avg_conf = conf_sum[b] / counts[b];
    const double avg_acc = acc_sum[b] / counts[b];
    ece += (counts[b] / n) * std::fabs(avg_conf - avg_acc);
  }
  return ece;
}

}  // namespace schemble
