// Dense row-major matrix with level-2/3 kernels.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "linalg/vector.hpp"

namespace plos::linalg {

/// Dense row-major matrix of doubles. Invariant: data_.size() == rows_*cols_.
class Matrix {
 public:
  Matrix() = default;

  /// rows x cols matrix filled with `fill`.
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

  /// Build from nested initializer-style rows; all rows must share one width.
  static Matrix from_rows(const std::vector<Vector>& rows);

  /// Identity matrix of order n.
  static Matrix identity(std::size_t n);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return data_.empty(); }

  double& operator()(std::size_t i, std::size_t j);
  double operator()(std::size_t i, std::size_t j) const;

  /// Mutable / const view of row i.
  std::span<double> row(std::size_t i);
  std::span<const double> row(std::size_t i) const;

  /// Copy of column j.
  Vector col(std::size_t j) const;

  std::span<const double> data() const { return data_; }

  /// this * x (matrix-vector product).
  Vector matvec(std::span<const double> x) const;

  /// out = this * x without allocating: out.size() must equal rows(). Same
  /// per-row dot as matvec(), so the two agree bit for bit.
  void matvec_into(std::span<const double> x, std::span<double> out) const;

  /// this^T * x.
  Vector matvec_transposed(std::span<const double> x) const;

  /// this * other (matrix-matrix product).
  Matrix matmul(const Matrix& other) const;

  Matrix transposed() const;

  /// A A^T — Gram matrix of the rows (symmetric, rows x rows).
  Matrix row_gram() const;

  /// Frobenius-norm comparison against `other` within tol.
  bool approx_equal(const Matrix& other, double tol) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  Vector data_;
};

}  // namespace plos::linalg
