// Unit and property tests for the dense linear algebra substrate.
#include <gtest/gtest.h>

#include <cmath>

#include "common/assert.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/eigen.hpp"
#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"
#include "rng/engine.hpp"

namespace plos::linalg {
namespace {

TEST(Vector, DotBasic) {
  const Vector a{1.0, 2.0, 3.0};
  const Vector b{4.0, -5.0, 6.0};
  EXPECT_DOUBLE_EQ(dot(a, b), 4.0 - 10.0 + 18.0);
}

TEST(Vector, DotEmptyIsZero) {
  EXPECT_DOUBLE_EQ(dot(Vector{}, Vector{}), 0.0);
}

TEST(Vector, DotSizeMismatchThrows) {
  EXPECT_THROW(dot(Vector{1.0}, Vector{1.0, 2.0}), PreconditionError);
}

TEST(Vector, NormAndSquaredNorm) {
  const Vector a{3.0, 4.0};
  EXPECT_DOUBLE_EQ(squared_norm(a), 25.0);
  EXPECT_DOUBLE_EQ(norm(a), 5.0);
}

TEST(Vector, SquaredDistance) {
  EXPECT_DOUBLE_EQ(squared_distance(Vector{1.0, 2.0}, Vector{4.0, 6.0}), 25.0);
}

TEST(Vector, AxpyAccumulates) {
  Vector y{1.0, 1.0};
  axpy(2.0, Vector{3.0, -1.0}, y);
  EXPECT_DOUBLE_EQ(y[0], 7.0);
  EXPECT_DOUBLE_EQ(y[1], -1.0);
}

TEST(Vector, ScaleAndScaled) {
  Vector x{1.0, -2.0};
  scale(x, -3.0);
  EXPECT_DOUBLE_EQ(x[0], -3.0);
  EXPECT_DOUBLE_EQ(x[1], 6.0);
  const Vector y = scaled(x, 0.5);
  EXPECT_DOUBLE_EQ(y[0], -1.5);
  EXPECT_DOUBLE_EQ(x[0], -3.0);  // source untouched
}

TEST(Vector, AddSub) {
  const Vector a{1.0, 2.0}, b{3.0, 5.0};
  EXPECT_EQ(add(a, b), (Vector{4.0, 7.0}));
  EXPECT_EQ(sub(b, a), (Vector{2.0, 3.0}));
}

TEST(Vector, SumMean) {
  EXPECT_DOUBLE_EQ(sum(Vector{1.0, 2.0, 3.0}), 6.0);
  EXPECT_DOUBLE_EQ(mean(Vector{1.0, 2.0, 3.0}), 2.0);
  EXPECT_THROW(mean(Vector{}), PreconditionError);
}

TEST(Vector, ApproxEqual) {
  EXPECT_TRUE(approx_equal(Vector{1.0, 2.0}, Vector{1.0 + 1e-10, 2.0}, 1e-9));
  EXPECT_FALSE(approx_equal(Vector{1.0}, Vector{1.1}, 1e-3));
  EXPECT_FALSE(approx_equal(Vector{1.0}, Vector{1.0, 2.0}, 1.0));
}

TEST(Matrix, ConstructAndIndex) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
  m(0, 1) = -2.0;
  EXPECT_DOUBLE_EQ(m(0, 1), -2.0);
  EXPECT_THROW(m(2, 0), PreconditionError);
}

TEST(Matrix, FromRowsRejectsRagged) {
  EXPECT_THROW(Matrix::from_rows({{1.0, 2.0}, {3.0}}), PreconditionError);
}

TEST(Matrix, IdentityMatvec) {
  const Matrix eye = Matrix::identity(3);
  const Vector x{1.0, 2.0, 3.0};
  EXPECT_EQ(eye.matvec(x), x);
}

TEST(Matrix, MatvecKnown) {
  const Matrix m = Matrix::from_rows({{1.0, 2.0}, {3.0, 4.0}});
  EXPECT_EQ(m.matvec(Vector{1.0, 1.0}), (Vector{3.0, 7.0}));
}

TEST(Matrix, MatvecIntoOverwritesAndChecksSizes) {
  const Matrix m = Matrix::from_rows({{0.1, 0.2, 0.3}, {-0.7, 1e-9, 5.5}});
  const Vector x{0.3, -1.7, 2.9};
  Vector out{42.0, 42.0};  // stale contents must be overwritten
  m.matvec_into(x, out);
  EXPECT_EQ(out, m.matvec(x));
  Vector wrong(3);
  EXPECT_THROW(m.matvec_into(x, wrong), PreconditionError);
  EXPECT_THROW(m.matvec_into(Vector{1.0}, out), PreconditionError);
}

TEST(Matrix, MatvecTransposedMatchesTranspose) {
  const Matrix m = Matrix::from_rows({{1.0, 2.0, 0.0}, {3.0, 4.0, -1.0}});
  const Vector x{2.0, -1.0};
  EXPECT_EQ(m.matvec_transposed(x), m.transposed().matvec(x));
}

TEST(Matrix, MatmulKnown) {
  const Matrix a = Matrix::from_rows({{1.0, 2.0}, {3.0, 4.0}});
  const Matrix b = Matrix::from_rows({{0.0, 1.0}, {1.0, 0.0}});
  const Matrix c = a.matmul(b);
  EXPECT_TRUE(c.approx_equal(Matrix::from_rows({{2.0, 1.0}, {4.0, 3.0}}), 0.0));
}

TEST(Matrix, RowGramSymmetricPsd) {
  rng::Engine engine(5);
  Matrix m(4, 6);
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 6; ++j) m(i, j) = engine.gaussian();
  }
  const Matrix g = m.row_gram();
  EXPECT_TRUE(g.approx_equal(g.transposed(), 1e-12));
  // PSD: x^T G x >= 0 for random probes.
  for (int trial = 0; trial < 10; ++trial) {
    const Vector x = engine.gaussian_vector(4);
    EXPECT_GE(dot(x, g.matvec(x)), -1e-10);
  }
}

TEST(Cholesky, FactorsKnownSpd) {
  const Matrix a = Matrix::from_rows({{4.0, 2.0}, {2.0, 3.0}});
  const auto l = cholesky(a);
  ASSERT_TRUE(l.has_value());
  EXPECT_TRUE(l->matmul(l->transposed()).approx_equal(a, 1e-12));
}

TEST(Cholesky, RejectsIndefinite) {
  const Matrix a = Matrix::from_rows({{0.0, 1.0}, {1.0, 0.0}});
  EXPECT_FALSE(cholesky(a).has_value());
}

TEST(Eigen, DiagonalMatrix) {
  const Matrix a = Matrix::from_rows({{3.0, 0.0}, {0.0, 1.0}});
  const auto eig = symmetric_eigen(a);
  EXPECT_NEAR(eig.values[0], 1.0, 1e-10);
  EXPECT_NEAR(eig.values[1], 3.0, 1e-10);
}

TEST(Eigen, Known2x2) {
  // [[2,1],[1,2]] has eigenvalues 1 and 3.
  const Matrix a = Matrix::from_rows({{2.0, 1.0}, {1.0, 2.0}});
  const auto eig = symmetric_eigen(a);
  EXPECT_NEAR(eig.values[0], 1.0, 1e-10);
  EXPECT_NEAR(eig.values[1], 3.0, 1e-10);
}

// Property sweep: random symmetric matrices of several sizes satisfy
// A v = λ v, orthonormal eigenvectors, and trace preservation.
class EigenProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EigenProperty, ReconstructsAndOrthonormal) {
  const std::size_t n = GetParam();
  rng::Engine engine(100 + n);
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      a(i, j) = a(j, i) = engine.gaussian();
    }
  }
  const auto eig = symmetric_eigen(a);

  double trace = 0.0, eigsum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    trace += a(i, i);
    eigsum += eig.values[i];
  }
  EXPECT_NEAR(trace, eigsum, 1e-8 * (1.0 + std::abs(trace)));

  for (std::size_t k = 0; k < n; ++k) {
    Vector v(eig.vectors.row(k).begin(), eig.vectors.row(k).end());
    const Vector av = a.matvec(v);
    const Vector lv = scaled(v, eig.values[k]);
    EXPECT_TRUE(approx_equal(av, lv, 1e-7))
        << "eigenpair " << k << " of size " << n;
    for (std::size_t k2 = 0; k2 <= k; ++k2) {
      const double expected = (k == k2) ? 1.0 : 0.0;
      EXPECT_NEAR(dot(eig.vectors.row(k), eig.vectors.row(k2)), expected, 1e-9);
    }
  }
  // Values ascend.
  for (std::size_t k = 1; k < n; ++k) {
    EXPECT_LE(eig.values[k - 1], eig.values[k] + 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, EigenProperty,
                         ::testing::Values<std::size_t>(1, 2, 3, 5, 8, 13, 21));

// Property sweep: the Cholesky factor of a random SPD matrix is lower
// triangular with a positive diagonal and reproduces the matrix.
class CholeskyProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CholeskyProperty, SolvesRandomSpdSystems) {
  const std::size_t n = GetParam();
  rng::Engine engine(200 + n);
  Matrix b(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) b(i, j) = engine.gaussian();
  }
  Matrix a = b.matmul(b.transposed());
  for (std::size_t i = 0; i < n; ++i) a(i, i) += static_cast<double>(n);

  const auto l = cholesky(a);
  ASSERT_TRUE(l.has_value());
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_GT((*l)(i, i), 0.0);
    for (std::size_t j = i + 1; j < n; ++j) EXPECT_EQ((*l)(i, j), 0.0);
  }
  EXPECT_TRUE(l->matmul(l->transposed()).approx_equal(a, 1e-10));
}

INSTANTIATE_TEST_SUITE_P(Sizes, CholeskyProperty,
                         ::testing::Values<std::size_t>(1, 2, 4, 8, 16, 32));

}  // namespace
}  // namespace plos::linalg
