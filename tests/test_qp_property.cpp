// Property-test harness for the QP solvers (DESIGN.md §13).
//
// Across ~200 seeded random instances the suite checks the three
// properties the hot-path engine leans on for the FISTA capped-simplex
// solver:
//   1. correctness — the returned point satisfies the KKT conditions of its
//      problem to 1e-8 (feasibility + unit-step projected-gradient norm);
//   2. warm-start idempotence — re-solving with the cold solution as warm
//      start returns after ZERO iterations with the bitwise-identical
//      vector, which is what makes cross-round warm-start seeding safe;
//   3. projection idempotence — projecting an already-projected point is a
//      bitwise no-op, so the solver's "project the warm start before use"
//      step cannot perturb an optimal seed.
// It also pins the capped-simplex solver, bit for bit, to a test-local copy
// of its straightforward form (three H·x products and fresh vectors every
// iteration), and checks that the real loop performs no heap allocation.
//
// The exact single-simplex solver (DESIGN.md §13.5) gets the same
// treatment on device-shaped duals, including rank-deficient H and
// duplicated or near-collinear planes: KKT to 1e-10, never worse than a
// converged FISTA solve, within its pivot cap, and zero-pivot bitwise
// idempotence.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"
#include "qp/capped_simplex_qp.hpp"
#include "qp/projection.hpp"
#include "qp/simplex_qp.hpp"
#include "rng/engine.hpp"

// Global allocation counter for the no-heap-traffic check below. Only the
// plain forms are replaced; the library defaults for the nothrow and array
// forms forward to them.
namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

// GCC cannot tell that these replacements pair malloc with free.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace plos::qp {
namespace {

using linalg::Matrix;
using linalg::Vector;

constexpr int kInstancesPerSolver = 200;
constexpr double kKktBound = 1e-8;

void expect_bitwise_equal(const Vector& a, const Vector& b, int seed) {
  ASSERT_EQ(a.size(), b.size()) << "seed " << seed;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a[i]),
              std::bit_cast<std::uint64_t>(b[i]))
        << "seed " << seed << " component " << i;
  }
}

// H = B Bᵀ + ½I: symmetric PSD with smallest eigenvalue >= 0.5, so every
// instance is strongly convex and FISTA converges to tight tolerances fast.
Matrix random_psd(std::size_t n, rng::Engine& engine) {
  Matrix b(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) b(r, c) = engine.gaussian();
  }
  Matrix h = b.row_gram();
  for (std::size_t i = 0; i < n; ++i) h(i, i) += 0.5;
  return h;
}

CappedSimplexQpProblem random_capped_simplex(int seed) {
  rng::Engine engine(static_cast<std::uint64_t>(seed) * 7919 + 1);
  const std::size_t n = 2 + static_cast<std::size_t>(seed % 12);
  CappedSimplexQpProblem problem;
  problem.hessian = random_psd(n, engine);
  problem.linear = engine.gaussian_vector(n, 0.0, 2.0);

  // Random partition of {0,…,n−1} into 1–4 shuffled groups, mimicking the
  // per-user index groups of the centralized dual.
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  engine.shuffle(order);
  const std::size_t num_groups =
      1 + static_cast<std::size_t>(engine.uniform_int(0, 3)) % n;
  problem.groups.assign(num_groups, {});
  for (std::size_t i = 0; i < n; ++i) {
    problem.groups[i % num_groups].push_back(order[i]);
  }
  problem.caps.resize(num_groups);
  for (std::size_t g = 0; g < num_groups; ++g) {
    problem.caps[g] = engine.uniform(0.25, 2.0);
  }
  return problem;
}

QpOptions tight_options() {
  QpOptions options;
  options.tolerance = 1e-11;
  options.max_iterations = 50000;
  return options;
}

TEST(QpProperty, CappedSimplexKktAndWarmIdempotence) {
  for (int seed = 0; seed < kInstancesPerSolver; ++seed) {
    const auto problem = random_capped_simplex(seed);
    const auto cold = solve_capped_simplex_qp(problem, tight_options());
    ASSERT_TRUE(cold.converged) << "seed " << seed;
    EXPECT_LE(kkt_residual(problem, cold.solution), kKktBound)
        << "seed " << seed;

    // A warm start that IS the cold solution must be accepted by the
    // iteration-0 probe and returned without a single FISTA step.
    QpOptions warm_options = tight_options();
    warm_options.warm_start = cold.solution;
    const auto warm = solve_capped_simplex_qp(problem, warm_options);
    ASSERT_TRUE(warm.converged) << "seed " << seed;
    EXPECT_EQ(warm.iterations, 0) << "seed " << seed;
    expect_bitwise_equal(cold.solution, warm.solution, seed);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(cold.objective),
              std::bit_cast<std::uint64_t>(warm.objective))
        << "seed " << seed;
  }
}

// --- Reference solver --------------------------------------------------
// The capped-simplex FISTA loop in its plain form: f and ∇f each pay their
// own H·x, every intermediate is a fresh vector, and iterates rotate by
// copy. solve_capped_simplex_qp shares products and buffers instead; the
// test below requires the two to agree bit for bit.

struct ReferenceResult {
  QpResult result;
  int restarts = 0;
};

double reference_lipschitz(const Matrix& h) {
  const std::size_t n = h.rows();
  Vector v(n, 1.0 / std::sqrt(static_cast<double>(n)));
  double lambda = 0.0;
  for (int it = 0; it < 30; ++it) {
    Vector hv = h.matvec(v);
    const double nrm = linalg::norm(hv);
    if (nrm <= 1e-300) return 1e-12;
    lambda = nrm;
    linalg::scale(hv, 1.0 / nrm);
    v = std::move(hv);
  }
  return 1.1 * lambda + 1e-12;
}

void reference_project(const CappedSimplexQpProblem& p, Vector& x) {
  for (std::size_t g = 0; g < p.groups.size(); ++g) {
    const auto& idx = p.groups[g];
    Vector block(idx.size());
    for (std::size_t k = 0; k < idx.size(); ++k) block[k] = x[idx[k]];
    project_capped_simplex(block, p.caps[g]);
    for (std::size_t k = 0; k < idx.size(); ++k) x[idx[k]] = block[k];
  }
}

double reference_objective(const CappedSimplexQpProblem& p, const Vector& x) {
  const Vector hx = p.hessian.matvec(x);
  return 0.5 * linalg::dot(x, hx) - linalg::dot(p.linear, x);
}

Vector reference_gradient(const CappedSimplexQpProblem& p, const Vector& x) {
  Vector g = p.hessian.matvec(x);
  linalg::axpy(-1.0, p.linear, g);
  return g;
}

ReferenceResult reference_solve(const CappedSimplexQpProblem& p,
                                const QpOptions& options) {
  ReferenceResult out;
  QpResult& result = out.result;
  const std::size_t n = p.linear.size();
  const double step = 1.0 / reference_lipschitz(p.hessian);

  Vector x(n, 0.0);
  if (!options.warm_start.empty()) x = options.warm_start;
  reference_project(p, x);
  Vector y = x;
  Vector x_prev = x;
  double momentum = 1.0;
  double f_prev = reference_objective(p, x);
  {
    Vector probe = x;
    linalg::axpy(-step, reference_gradient(p, x), probe);
    reference_project(p, probe);
    const double pg_step0 = std::sqrt(linalg::squared_distance(probe, x)) /
                            std::max(step, 1e-300);
    if (pg_step0 <= options.tolerance * (1.0 + std::abs(f_prev))) {
      result.converged = true;
    }
  }
  for (int it = 0; !result.converged && it < options.max_iterations; ++it) {
    const Vector grad_y = reference_gradient(p, y);
    Vector x_next = y;
    linalg::axpy(-step, grad_y, x_next);
    reference_project(p, x_next);

    const Vector pg = reference_gradient(p, x_next);
    Vector probe = x_next;
    linalg::axpy(-step, pg, probe);
    reference_project(p, probe);
    const double pg_step = std::sqrt(linalg::squared_distance(probe, x_next)) /
                           std::max(step, 1e-300);

    const double f_next = reference_objective(p, x_next);
    if (f_next > f_prev) {
      ++out.restarts;
      momentum = 1.0;
      y = x_next;
    } else {
      const double momentum_next =
          0.5 * (1.0 + std::sqrt(1.0 + 4.0 * momentum * momentum));
      const double beta = (momentum - 1.0) / momentum_next;
      y = x_next;
      for (std::size_t i = 0; i < n; ++i) {
        y[i] += beta * (x_next[i] - x_prev[i]);
      }
      momentum = momentum_next;
    }
    x_prev = x;
    x = x_next;
    f_prev = f_next;
    result.iterations = it + 1;
    if (pg_step <= options.tolerance * (1.0 + std::abs(f_next))) {
      result.converged = true;
      break;
    }
  }
  result.solution = std::move(x);
  result.objective = reference_objective(p, result.solution);
  return out;
}

// Larger, ill-conditioned instances (ridge 1e-3 instead of ½, n up to 40)
// where FISTA overshoots and the adaptive restart fires.
CappedSimplexQpProblem ill_conditioned_capped_simplex(int seed) {
  rng::Engine engine(static_cast<std::uint64_t>(seed) * 3571 + 11);
  const std::size_t n = 8 + static_cast<std::size_t>(seed % 33);
  const std::size_t rank = 1 + n / 4;
  Matrix b(n, rank);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < rank; ++c) b(r, c) = engine.gaussian();
  }
  CappedSimplexQpProblem problem;
  problem.hessian = b.row_gram();
  for (std::size_t i = 0; i < n; ++i) problem.hessian(i, i) += 1e-3;
  problem.linear = engine.gaussian_vector(n, 1.0, 2.0);
  const std::size_t num_groups = 1 + static_cast<std::size_t>(seed % 3);
  problem.groups.assign(num_groups, {});
  for (std::size_t i = 0; i < n; ++i) problem.groups[i % num_groups].push_back(i);
  problem.caps.assign(num_groups, 0.0);
  for (auto& cap : problem.caps) cap = engine.uniform(0.25, 2.0);
  return problem;
}

void expect_same_result(const QpResult& expected, const QpResult& actual,
                        int seed) {
  EXPECT_EQ(expected.iterations, actual.iterations) << "seed " << seed;
  EXPECT_EQ(expected.converged, actual.converged) << "seed " << seed;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(expected.objective),
            std::bit_cast<std::uint64_t>(actual.objective))
      << "seed " << seed;
  expect_bitwise_equal(expected.solution, actual.solution, seed);
}

TEST(QpProperty, CappedSimplexMatchesReferenceLoopBitwise) {
  struct Coverage {
    int single_group = 0, multi_group = 0, warm = 0, capped = 0;
    int restarted = 0, restarted_warm = 0, restarted_capped = 0;
  } seen;
  for (int seed = 0; seed < kInstancesPerSolver; ++seed) {
    const bool ill = seed % 2 == 1;
    const auto problem = ill ? ill_conditioned_capped_simplex(seed)
                             : random_capped_simplex(seed);
    (problem.groups.size() == 1 ? seen.single_group : seen.multi_group)++;

    rng::Engine engine(static_cast<std::uint64_t>(seed) * 2203 + 5);
    const bool warm = seed % 3 != 0;
    const bool capped = seed % 5 == 0;
    QpOptions options = tight_options();
    if (warm) {
      options.warm_start =
          engine.gaussian_vector(problem.linear.size(), 0.2, 0.5);
      ++seen.warm;
    }
    if (capped) options.max_iterations = 1 + seed % 7;

    const auto reference = reference_solve(problem, options);
    const auto actual = solve_capped_simplex_qp(problem, options);
    expect_same_result(reference.result, actual, seed);
    // A capped solve counts only if the cap actually cut it short.
    if (capped && !actual.converged) ++seen.capped;
    if (reference.restarts > 0) {
      ++seen.restarted;
      if (warm) ++seen.restarted_warm;
      if (capped) ++seen.restarted_capped;
    }
  }
  // The sweep must actually exercise every branch it claims to cover.
  EXPECT_GT(seen.single_group, 0);
  EXPECT_GT(seen.multi_group, 0);
  EXPECT_GT(seen.warm, 0);
  EXPECT_GT(seen.capped, 0);
  EXPECT_GT(seen.restarted, 0);
  EXPECT_GT(seen.restarted_warm, 0);
  EXPECT_GT(seen.restarted_capped, 0);
}

TEST(QpProperty, CappedSimplexLoopDoesNotAllocate) {
  // Allocations made by a solve must not depend on how many iterations it
  // runs: everything the loop touches is sized before it starts. A negative
  // tolerance never passes the stopping rule, so each solve runs exactly
  // max_iterations steps (restarts, binding caps and all).
  for (int seed = 1; seed < 40; seed += 2) {
    const auto problem = ill_conditioned_capped_simplex(seed);
    QpOptions options;
    options.tolerance = -1.0;
    const auto allocations_for = [&](int iterations) {
      options.max_iterations = iterations;
      const std::size_t before = g_allocations.load();
      const auto result = solve_capped_simplex_qp(problem, options);
      const std::size_t after = g_allocations.load();
      EXPECT_EQ(result.iterations, iterations) << "seed " << seed;
      return after - before;
    };
    (void)allocations_for(1);  // first call resolves the static instruments
    const std::size_t one = allocations_for(1);
    EXPECT_EQ(allocations_for(2), one) << "seed " << seed;
    EXPECT_EQ(allocations_for(300), one) << "seed " << seed;
  }
}

// --- Exact single-simplex solver ------------------------------------------

enum class Shape {
  kFullRank,       // more dimensions than planes: H positive definite
  kLowRank,        // rank(H) <= 3 < n
  kDuplicated,     // half the planes are exact copies of the other half
  kNearCollinear,  // copies perturbed by 1e-9
  kZeroCap,        // the feasible set is the point 0
  kSingle,         // n = 1
  kCount,
};

struct SimplexInstance {
  Shape shape = Shape::kFullRank;
  Matrix hessian;
  Vector linear;
  double cap = 1.0;
  Vector warm_start;  // empty = cold
};

// Device-shaped duals (Eq. 22): H = κ·S Sᵀ over n planes s_i in d
// dimensions, n up to 50; every third instance also gets a random warm
// start, which the solver projects before use.
SimplexInstance random_simplex_instance(int seed) {
  rng::Engine engine(static_cast<std::uint64_t>(seed) * 6007 + 3);
  SimplexInstance instance;
  instance.shape = static_cast<Shape>(seed % static_cast<int>(Shape::kCount));
  std::size_t n = 2 + static_cast<std::size_t>(seed % 49);
  std::size_t dim = 1 + static_cast<std::size_t>(seed % 3);
  switch (instance.shape) {
    case Shape::kFullRank:
      dim = n + 2;
      break;
    case Shape::kDuplicated:
    case Shape::kNearCollinear:
      dim = 3 + static_cast<std::size_t>(seed % 6);
      break;
    case Shape::kSingle:
      n = 1;
      break;
    default:
      break;
  }
  Matrix planes(n, dim);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < dim; ++j) planes(i, j) = engine.gaussian();
  }
  if (instance.shape == Shape::kDuplicated ||
      instance.shape == Shape::kNearCollinear) {
    const double noise = instance.shape == Shape::kDuplicated ? 0.0 : 1e-9;
    for (std::size_t i = n / 2; i < n; ++i) {
      for (std::size_t j = 0; j < dim; ++j) {
        planes(i, j) = planes(i - n / 2, j) + noise * engine.gaussian();
      }
    }
  }
  const double kappa = engine.uniform(0.5, 2.0);
  instance.hessian = planes.row_gram();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) instance.hessian(i, j) *= kappa;
  }
  instance.linear = engine.gaussian_vector(n, 0.5, 1.0);
  instance.cap =
      instance.shape == Shape::kZeroCap ? 0.0 : engine.uniform(0.25, 2.0);
  if (seed % 3 == 1) instance.warm_start = engine.gaussian_vector(n, 0.2, 0.5);
  return instance;
}

CappedSimplexQpProblem as_problem(const SimplexInstance& instance) {
  const std::size_t n = instance.linear.size();
  CappedSimplexQpProblem problem;
  problem.hessian = instance.hessian;
  problem.linear = instance.linear;
  problem.groups.assign(1, std::vector<std::size_t>(n));
  for (std::size_t i = 0; i < n; ++i) problem.groups[0][i] = i;
  problem.caps = {instance.cap};
  return problem;
}

TEST(QpProperty, SimplexExactKktOptimalityAndIdempotence) {
  constexpr double kExactKktBound = 1e-10;
  std::vector<int> shapes(static_cast<std::size_t>(Shape::kCount), 0);
  int warm = 0;
  int compared = 0;
  for (int seed = 0; seed < kInstancesPerSolver; ++seed) {
    const SimplexInstance instance = random_simplex_instance(seed);
    const CappedSimplexQpProblem problem = as_problem(instance);
    ++shapes[static_cast<std::size_t>(instance.shape)];
    if (!instance.warm_start.empty()) ++warm;

    const auto exact = solve_simplex_qp(instance.hessian, instance.linear,
                                        instance.cap, instance.warm_start);
    ASSERT_TRUE(exact.converged) << "seed " << seed;
    EXPECT_LE(exact.iterations, kSimplexQpMaxPivots) << "seed " << seed;
    EXPECT_LE(kkt_residual(problem, exact.solution), kExactKktBound)
        << "seed " << seed;

    // Never worse than FISTA wherever FISTA converged.
    QpOptions fista_options;
    fista_options.tolerance = 1e-11;
    fista_options.max_iterations = 5000;
    const auto fista = solve_capped_simplex_qp(problem, fista_options);
    if (fista.converged) {
      ++compared;
      EXPECT_LE(exact.objective,
                fista.objective + 1e-9 * (1.0 + std::abs(fista.objective)))
          << "seed " << seed;
    }

    // Re-solving from its own result is a zero-pivot, bitwise no-op.
    const auto again = solve_simplex_qp(instance.hessian, instance.linear,
                                        instance.cap, exact.solution);
    ASSERT_TRUE(again.converged) << "seed " << seed;
    EXPECT_EQ(again.iterations, 0) << "seed " << seed;
    expect_bitwise_equal(exact.solution, again.solution, seed);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(exact.objective),
              std::bit_cast<std::uint64_t>(again.objective))
        << "seed " << seed;
  }
  for (const int count : shapes) EXPECT_GT(count, 0);
  EXPECT_GT(warm, 0);
  EXPECT_GT(compared, kInstancesPerSolver / 4);
}

TEST(QpProperty, ProjectionsAreBitwiseIdempotent) {
  for (int seed = 0; seed < kInstancesPerSolver; ++seed) {
    rng::Engine engine(static_cast<std::uint64_t>(seed) * 104729 + 17);
    const std::size_t n = 1 + static_cast<std::size_t>(seed % 16);

    Vector x = engine.gaussian_vector(n, 0.0, 3.0);
    const double cap = engine.uniform(0.1, 2.0);
    project_capped_simplex(x, cap);
    Vector once = x;
    project_capped_simplex(x, cap);
    expect_bitwise_equal(once, x, seed);
  }
}

}  // namespace
}  // namespace plos::qp
