#ifndef SCHEMBLE_NN_CALIBRATION_H_
#define SCHEMBLE_NN_CALIBRATION_H_

#include <span>
#include <vector>

#include "common/status.h"

namespace schemble {

/// Temperature scaling (Guo et al., 2017), the post-hoc calibration step the
/// paper applies to base classifiers before computing discrepancy scores.
/// A single scalar temperature T is fit on held-out (logits, label) pairs by
/// minimizing negative log-likelihood; predictions become
/// softmax(logits / T).
class TemperatureScaler {
 public:
  /// Fits T in [min_t, max_t] by golden-section search over the (unimodal)
  /// NLL. Labels are class indices into each logits vector.
  static Result<TemperatureScaler> Fit(
      const std::vector<std::vector<double>>& logits,
      const std::vector<int>& labels, double min_t = 0.05, double max_t = 20.0);

  explicit TemperatureScaler(double temperature = 1.0)
      : temperature_(temperature) {}

  double temperature() const { return temperature_; }

  /// Calibrated probability vector softmax(logits / T).
  std::vector<double> Calibrate(std::span<const double> logits) const;

  /// Mean NLL of calibrated predictions, the objective Fit minimizes.
  static double MeanNll(const std::vector<std::vector<double>>& logits,
                        const std::vector<int>& labels, double temperature);

  /// Expected calibration error with `bins` equal-width confidence bins; a
  /// diagnostic used in tests to show calibration actually improves.
  static double ExpectedCalibrationError(
      const std::vector<std::vector<double>>& logits,
      const std::vector<int>& labels, double temperature, int bins = 10);

 private:
  double temperature_;
};

}  // namespace schemble

#endif  // SCHEMBLE_NN_CALIBRATION_H_
