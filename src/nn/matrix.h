#ifndef SCHEMBLE_NN_MATRIX_H_
#define SCHEMBLE_NN_MATRIX_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.h"

namespace schemble {

/// Dense row-major matrix of doubles. This is the minimal numeric core the
/// neural-network substrate needs: the ensemble-serving workloads are small
/// (feature dims ~16-64, hidden dims ~32-128), so a straightforward
/// cache-friendly implementation is plenty.
class Matrix {
 public:
  Matrix() : rows_(0), cols_(0) {}
  Matrix(int rows, int cols, double fill = 0.0);

  /// Gaussian-initialized matrix (used for weight init; He-style scaling is
  /// applied by the caller via `stddev`).
  static Matrix Randn(int rows, int cols, double stddev, Rng& rng);

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  size_t size() const { return data_.size(); }

  double& at(int r, int c) { return data_[static_cast<size_t>(r) * cols_ + c]; }
  double at(int r, int c) const {
    return data_[static_cast<size_t>(r) * cols_ + c];
  }

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

  /// y = this * x  (matrix-vector product). Requires x.size() == cols().
  std::vector<double> Apply(const std::vector<double>& x) const;

  /// y = this^T * x (used by backprop). Requires x.size() == rows().
  std::vector<double> ApplyTransposed(const std::vector<double>& x) const;

  /// Out-parameter variant of Apply: resizes `y` to rows() and overwrites
  /// it. Once `y` has reached capacity (steady state) no allocation occurs;
  /// capacity growths are counted in op_stats().grow_events so tests can
  /// assert the zero-allocation invariant. `y` must not alias `x`.
  void ApplyInto(std::span<const double> x, std::vector<double>* y) const;

  /// Out-parameter variant of ApplyTransposed (y resized to cols()).
  /// `y` must not alias `x`.
  void ApplyTransposedInto(const std::vector<double>& x,
                           std::vector<double>* y) const;

  /// Telemetry of the out-param fast paths, mirroring the scheduler's
  /// WorkspaceStats pattern: `grow_events` counts calls that had to grow
  /// the destination's capacity. Process-wide (atomic) because matrices are
  /// used from concurrent completion threads.
  struct OpStats {
    std::atomic<int64_t> grow_events{0};
    std::atomic<int64_t> apply_into_calls{0};
  };
  static OpStats& op_stats();

  /// this += scale * (a outer b), where a has rows() entries and b cols().
  void AddOuterProduct(const std::vector<double>& a,
                       const std::vector<double>& b, double scale = 1.0);

  /// this += scale * other (same shape).
  void AddScaled(const Matrix& other, double scale);

  void Fill(double v);

  /// Frobenius norm.
  double Norm() const;

 private:
  int rows_;
  int cols_;
  std::vector<double> data_;
};

}  // namespace schemble

#endif  // SCHEMBLE_NN_MATRIX_H_
