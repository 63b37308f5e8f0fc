// Tests for the seeded randomness substrate.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "common/assert.hpp"
#include "linalg/matrix.hpp"
#include "rng/engine.hpp"
#include "rng/multivariate_normal.hpp"

namespace plos::rng {
namespace {

TEST(Engine, DeterministicGivenSeed) {
  Engine a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  }
}

TEST(Engine, DifferentSeedsDiffer) {
  Engine a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform() == b.uniform()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(Engine, UniformRange) {
  Engine e(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = e.uniform(-2.0, 3.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 3.0);
  }
  EXPECT_THROW(e.uniform(1.0, 0.0), PreconditionError);
}

TEST(Engine, UniformIntInclusiveRange) {
  Engine e(7);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = e.uniform_int(0, 3);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 4u);  // all four values reachable
}

TEST(Engine, GaussianMoments) {
  Engine e(11);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = e.gaussian(1.0, 2.0);
    sum += v;
    sum_sq += v * v;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 1.0, 0.05);
  EXPECT_NEAR(var, 4.0, 0.15);
}

// stddev 0 is a point mass at `mean` that still consumes a draw, so the
// stream after it is that of any other gaussian call.
TEST(Engine, GaussianZeroStddevReturnsMeanAndKeepsTheStream) {
  Engine a(17);
  Engine b(17);
  EXPECT_EQ(a.gaussian(3.5, 0.0), 3.5);
  b.gaussian(3.5, 1.0);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(a.gaussian(), b.gaussian());
}

// A positive stddev gives the library distribution's value bit for bit.
TEST(Engine, GaussianMatchesStdNormalDistribution) {
  Engine e(19);
  Engine reference(19);
  for (double stddev : {0.25, 1.0, 3.0}) {
    for (int i = 0; i < 16; ++i) {
      EXPECT_EQ(e.gaussian(-1.5, stddev),
                std::normal_distribution<double>(-1.5, stddev)(
                    reference.raw()));
    }
  }
}

TEST(Engine, BernoulliFrequency) {
  Engine e(13);
  int hits = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    if (e.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
  EXPECT_THROW(e.bernoulli(1.5), PreconditionError);
}

TEST(Engine, ForkStreamsDecorrelated) {
  Engine parent(5);
  Engine a = parent.fork(0);
  Engine b = parent.fork(1);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform() == b.uniform()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(Engine, ForkDeterministicAcrossRuns) {
  Engine p1(5), p2(5);
  Engine a = p1.fork(3), b = p2.fork(3);
  for (int i = 0; i < 20; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  }
}

TEST(Engine, ShufflePreservesMultiset) {
  Engine e(21);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  e.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Engine, SampleWithoutReplacementDistinct) {
  Engine e(23);
  const auto idx = e.sample_without_replacement(10, 6);
  EXPECT_EQ(idx.size(), 6u);
  const std::set<std::size_t> unique(idx.begin(), idx.end());
  EXPECT_EQ(unique.size(), 6u);
  for (std::size_t i : idx) EXPECT_LT(i, 10u);
  EXPECT_THROW(e.sample_without_replacement(3, 4), PreconditionError);
}

TEST(Engine, SampleWithoutReplacementFull) {
  Engine e(29);
  auto idx = e.sample_without_replacement(5, 5);
  std::sort(idx.begin(), idx.end());
  EXPECT_EQ(idx, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(MultivariateNormal, RejectsNonSpd) {
  const auto cov = linalg::Matrix::from_rows({{0.0, 1.0}, {1.0, 0.0}});
  EXPECT_THROW(MultivariateNormal({0.0, 0.0}, cov), PreconditionError);
}

TEST(MultivariateNormal, RejectsDimensionMismatch) {
  EXPECT_THROW(MultivariateNormal({0.0}, linalg::Matrix::identity(2)),
               PreconditionError);
}

TEST(MultivariateNormal, SampleMomentsMatch) {
  // The paper's synthetic covariance.
  const auto cov =
      linalg::Matrix::from_rows({{225.0, -180.0}, {-180.0, 225.0}});
  const MultivariateNormal dist({10.0, 10.0}, cov);
  Engine e(31);
  const int n = 20000;
  double m0 = 0.0, m1 = 0.0, c00 = 0.0, c01 = 0.0, c11 = 0.0;
  std::vector<linalg::Vector> samples = dist.sample_n(e, n);
  for (const auto& x : samples) {
    m0 += x[0];
    m1 += x[1];
  }
  m0 /= n;
  m1 /= n;
  for (const auto& x : samples) {
    c00 += (x[0] - m0) * (x[0] - m0);
    c01 += (x[0] - m0) * (x[1] - m1);
    c11 += (x[1] - m1) * (x[1] - m1);
  }
  EXPECT_NEAR(m0, 10.0, 0.5);
  EXPECT_NEAR(m1, 10.0, 0.5);
  EXPECT_NEAR(c00 / n, 225.0, 10.0);
  EXPECT_NEAR(c01 / n, -180.0, 10.0);
  EXPECT_NEAR(c11 / n, 225.0, 10.0);
}

}  // namespace
}  // namespace plos::rng
