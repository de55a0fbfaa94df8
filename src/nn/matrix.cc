#include "nn/matrix.h"

#include <cmath>

#include "common/hot_path.h"
#include "common/logging.h"
#include "nn/kernels.h"

namespace schemble {

Matrix::Matrix(int rows, int cols, double fill)
    : rows_(rows), cols_(cols),
      data_(static_cast<size_t>(rows) * cols, fill) {
  SCHEMBLE_CHECK_GE(rows, 0);
  SCHEMBLE_CHECK_GE(cols, 0);
}

Matrix Matrix::Randn(int rows, int cols, double stddev, Rng& rng) {
  Matrix m(rows, cols);
  for (double& v : m.data_) v = rng.Normal(0.0, stddev);
  return m;
}

Matrix::OpStats& Matrix::op_stats() {
  static OpStats stats;
  return stats;
}

std::vector<double> Matrix::Apply(const std::vector<double>& x) const {
  std::vector<double> y;
  ApplyInto(x, &y);
  return y;
}

std::vector<double> Matrix::ApplyTransposed(
    const std::vector<double>& x) const {
  std::vector<double> y;
  ApplyTransposedInto(x, &y);
  return y;
}

SCHEMBLE_HOT void Matrix::ApplyInto(std::span<const double> x,
                                    std::vector<double>* y) const {
  SCHEMBLE_CHECK_EQ(static_cast<int>(x.size()), cols_);
  SCHEMBLE_DCHECK(y->empty() || y->data() != x.data());
  // relaxed-ok: grow-event telemetry counter
  op_stats().apply_into_calls.fetch_add(1, std::memory_order_relaxed);
  if (y->capacity() < static_cast<size_t>(rows_)) {
    op_stats().grow_events.fetch_add(1, std::memory_order_relaxed);
  }
  y->resize(rows_);
  kernels::Gemv(data_.data(), rows_, cols_, x.data(), y->data());
}

SCHEMBLE_HOT void Matrix::ApplyTransposedInto(
    const std::vector<double>& x, std::vector<double>* y) const {
  SCHEMBLE_CHECK_EQ(static_cast<int>(x.size()), rows_);
  SCHEMBLE_DCHECK(y != &x);
  // relaxed-ok: grow-event telemetry counter
  op_stats().apply_into_calls.fetch_add(1, std::memory_order_relaxed);
  if (y->capacity() < static_cast<size_t>(cols_)) {
    op_stats().grow_events.fetch_add(1, std::memory_order_relaxed);
  }
  y->resize(cols_);
  kernels::GemvTransposed(data_.data(), rows_, cols_, x.data(), y->data());
}

void Matrix::AddOuterProduct(const std::vector<double>& a,
                             const std::vector<double>& b, double scale) {
  SCHEMBLE_CHECK_EQ(static_cast<int>(a.size()), rows_);
  SCHEMBLE_CHECK_EQ(static_cast<int>(b.size()), cols_);
  double* row = data_.data();
  for (int r = 0; r < rows_; ++r, row += cols_) {
    const double ar = scale * a[r];
    for (int c = 0; c < cols_; ++c) row[c] += ar * b[c];
  }
}

void Matrix::AddScaled(const Matrix& other, double scale) {
  SCHEMBLE_CHECK_EQ(rows_, other.rows_);
  SCHEMBLE_CHECK_EQ(cols_, other.cols_);
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += scale * other.data_[i];
}

void Matrix::Fill(double v) {
  for (double& x : data_) x = v;
}

double Matrix::Norm() const {
  double sq = 0.0;
  for (double v : data_) sq += v * v;
  return std::sqrt(sq);
}

}  // namespace schemble
