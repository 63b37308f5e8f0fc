#include "linalg/matrix.hpp"

#include <cmath>

#include "common/assert.hpp"

namespace plos::linalg {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Matrix Matrix::from_rows(const std::vector<Vector>& rows) {
  PLOS_CHECK(!rows.empty(), "from_rows: no rows");
  Matrix m(rows.size(), rows.front().size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    PLOS_CHECK(rows[i].size() == m.cols_, "from_rows: ragged rows");
    std::copy(rows[i].begin(), rows[i].end(), m.row(i).begin());
  }
  return m;
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

double& Matrix::operator()(std::size_t i, std::size_t j) {
  PLOS_CHECK(i < rows_ && j < cols_, "Matrix: index out of range");
  return data_[i * cols_ + j];
}

double Matrix::operator()(std::size_t i, std::size_t j) const {
  PLOS_CHECK(i < rows_ && j < cols_, "Matrix: index out of range");
  return data_[i * cols_ + j];
}

std::span<double> Matrix::row(std::size_t i) {
  PLOS_CHECK(i < rows_, "Matrix::row: index out of range");
  return {data_.data() + i * cols_, cols_};
}

std::span<const double> Matrix::row(std::size_t i) const {
  PLOS_CHECK(i < rows_, "Matrix::row: index out of range");
  return {data_.data() + i * cols_, cols_};
}

Vector Matrix::col(std::size_t j) const {
  PLOS_CHECK(j < cols_, "Matrix::col: index out of range");
  Vector out(rows_);
  for (std::size_t i = 0; i < rows_; ++i) out[i] = data_[i * cols_ + j];
  return out;
}

Vector Matrix::matvec(std::span<const double> x) const {
  Vector out(rows_, 0.0);
  matvec_into(x, out);
  return out;
}

void Matrix::matvec_into(std::span<const double> x,
                         std::span<double> out) const {
  PLOS_CHECK(x.size() == cols_, "matvec: size mismatch");
  PLOS_CHECK(out.size() == rows_, "matvec: output size mismatch");
  for (std::size_t i = 0; i < rows_; ++i) out[i] = dot(row(i), x);
}

Vector Matrix::matvec_transposed(std::span<const double> x) const {
  PLOS_CHECK(x.size() == rows_, "matvec_transposed: size mismatch");
  Vector out(cols_, 0.0);
  for (std::size_t i = 0; i < rows_; ++i) axpy(x[i], row(i), out);
  return out;
}

Matrix Matrix::matmul(const Matrix& other) const {
  PLOS_CHECK(cols_ == other.rows_, "matmul: inner dimension mismatch");
  Matrix out(rows_, other.cols_);
  // i-k-j loop order keeps the inner loop contiguous for row-major storage.
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t k = 0; k < cols_; ++k) {
      const double a = data_[i * cols_ + k];
      if (a == 0.0) continue;
      axpy(a, other.row(k), out.row(i));
    }
  }
  return out;
}

Matrix Matrix::transposed() const {
  Matrix out(cols_, rows_);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t j = 0; j < cols_; ++j) out(j, i) = data_[i * cols_ + j];
  }
  return out;
}

Matrix Matrix::row_gram() const {
  Matrix g(rows_, rows_);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t j = i; j < rows_; ++j) {
      const double v = dot(row(i), row(j));
      g(i, j) = v;
      g(j, i) = v;
    }
  }
  return g;
}

bool Matrix::approx_equal(const Matrix& other, double tol) const {
  if (rows_ != other.rows_ || cols_ != other.cols_) return false;
  for (std::size_t i = 0; i < data_.size(); ++i) {
    if (std::abs(data_[i] - other.data_[i]) > tol) return false;
  }
  return true;
}

}  // namespace plos::linalg
