// Property-test harness for the QP solvers (DESIGN.md §13).
//
// Across ~200 seeded random instances per solver the suite checks the
// properties the trainers lean on:
//   1. correctness — the returned point satisfies the KKT conditions of its
//      problem (feasibility + unit-step projected-gradient norm), measured
//      by the dense test_support::kkt_residual;
//   2. optimality — the objective is never worse than a converged run of a
//      test-local FISTA loop, the projected-gradient method the solvers
//      replaced;
//   3. warm-start idempotence — re-solving from a converged result does no
//      work (zero pivots; for the block sweeps, one pivot-free sweep) and
//      returns the bitwise-identical vector, which is what makes re-solving
//      a working set from its own γ within a round safe;
//   4. projection idempotence — projecting an already-projected point is a
//      bitwise no-op, so a solver's "project the warm start before use"
//      step cannot perturb an optimal seed.
// The exact single-simplex solver (DESIGN.md §13.5) is checked on
// device-shaped duals and the block sweeps (§13.4) on multi-user
// centralized duals, both with rank-deficient H and duplicated or
// near-collinear planes. The block sweeps' loop must also perform no heap
// allocation.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <utility>
#include <vector>

#include "block_dual_support.hpp"
#include "linalg/kernels.hpp"
#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"
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
using test_support::CappedSimplexQpProblem;
using test_support::kkt_residual;
using test_support::project_groups;

constexpr int kInstancesPerSolver = 200;

void expect_bitwise_equal(const Vector& a, const Vector& b, int seed) {
  ASSERT_EQ(a.size(), b.size()) << "seed " << seed;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a[i]),
              std::bit_cast<std::uint64_t>(b[i]))
        << "seed " << seed << " component " << i;
  }
}

// --- Reference solver --------------------------------------------------
// FISTA (accelerated projected gradient with adaptive restart) over the
// dense problem, in its plain form: f and ∇f each pay their own H·x and
// every intermediate is a fresh vector. It is the optimality oracle for
// both exact solvers wherever it converges.

struct ReferenceOptions {
  double tolerance = 1e-11;
  int max_iterations = 5000;
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

double reference_objective(const CappedSimplexQpProblem& p, const Vector& x) {
  const Vector hx = p.hessian.matvec(x);
  return 0.5 * linalg::dot(x, hx) - linalg::dot(p.linear, x);
}

Vector reference_gradient(const CappedSimplexQpProblem& p, const Vector& x) {
  Vector g = p.hessian.matvec(x);
  linalg::axpy(-1.0, p.linear, g);
  return g;
}

QpResult reference_solve(const CappedSimplexQpProblem& p,
                         const ReferenceOptions& options = {}) {
  QpResult result;
  const std::size_t n = p.linear.size();
  const double step = 1.0 / reference_lipschitz(p.hessian);

  Vector x(n, 0.0);
  project_groups(p, x);
  Vector y = x;
  Vector x_prev = x;
  double momentum = 1.0;
  double f_prev = reference_objective(p, x);
  {
    Vector probe = x;
    linalg::axpy(-step, reference_gradient(p, x), probe);
    project_groups(p, probe);
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
    project_groups(p, x_next);

    const Vector pg = reference_gradient(p, x_next);
    Vector probe = x_next;
    linalg::axpy(-step, pg, probe);
    project_groups(p, probe);
    const double pg_step = std::sqrt(linalg::squared_distance(probe, x_next)) /
                           std::max(step, 1e-300);

    const double f_next = reference_objective(p, x_next);
    if (f_next > f_prev) {
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
  return result;
}

// --- Block sweeps over the centralized dual -------------------------------

enum class Coupling {
  kIndependent,    // fresh Gaussian planes
  kDuplicated,     // some planes repeat exactly, within and across users
  kNearCollinear,  // repeats perturbed by 1e-9
  kCount,
};

struct BlockInstance {
  Coupling shape = Coupling::kIndependent;
  std::vector<SimplexBlock> blocks;
  double coupling = 0.0;
  double cap = 1.0;
  bool warm = false;
  bool has_empty_user = false;
};

// Centralized-shaped duals (Eq. 16): 1–6 users with 0–7 planes each in
// 1–5 dimensions, coupling κ = λ/T, or κ = 0 (uncoupled users) for every
// seventh seed. Every other instance warm-starts from random non-negative
// duals, which may overshoot the cap.
BlockInstance random_block_instance(int seed) {
  rng::Engine engine(static_cast<std::uint64_t>(seed) * 7919 + 1);
  BlockInstance instance;
  instance.shape =
      static_cast<Coupling>(seed % static_cast<int>(Coupling::kCount));
  instance.coupling = engine.uniform(0.05, 3.0);
  if (seed % 7 == 0) instance.coupling = 0.0;
  instance.cap = engine.uniform(0.25, 2.0);
  instance.warm = seed % 2 == 1;
  const std::size_t dim = 1 + static_cast<std::size_t>(seed % 5);
  const std::size_t users = 1 + static_cast<std::size_t>(seed % 6);
  std::vector<Vector> drawn;
  std::vector<std::vector<test_support::PlaneSpec>> specs(users);
  for (std::size_t t = 0; t < users; ++t) {
    const auto planes = static_cast<std::size_t>(engine.uniform_int(0, 7));
    if (planes == 0) instance.has_empty_user = true;
    for (std::size_t a = 0; a < planes; ++a) {
      Vector s = engine.gaussian_vector(dim);
      if (instance.shape != Coupling::kIndependent && !drawn.empty() &&
          engine.uniform(0.0, 1.0) < 0.5) {
        const auto pick = static_cast<std::size_t>(engine.uniform_int(
            0, static_cast<std::int64_t>(drawn.size()) - 1));
        s = drawn[pick];
        if (instance.shape == Coupling::kNearCollinear) {
          for (double& v : s) v += 1e-9 * engine.gaussian();
        }
      }
      drawn.push_back(s);
      const double gamma0 = instance.warm ? engine.uniform(0.0, 0.6) : 0.0;
      specs[t].push_back({s, engine.gaussian(0.5, 1.0), gamma0});
    }
  }
  if (drawn.empty()) {  // at least one plane somewhere
    specs[0].push_back({engine.gaussian_vector(dim), 1.0, 0.0});
  }
  instance.blocks = test_support::make_blocks(specs);
  return instance;
}

TEST(QpProperty, CappedSimplexKktAndWarmIdempotence) {
  constexpr double kSweepKktBound = 1e-9;
  std::vector<int> shapes(static_cast<std::size_t>(Coupling::kCount), 0);
  int warm = 0;
  int empty_users = 0;
  int multi_user = 0;
  int compared = 0;
  int uncoupled = 0;
  int newton = 0;
  int binding_caps = 0;
  int slack_caps = 0;
  for (int seed = 0; seed < kInstancesPerSolver; ++seed) {
    BlockInstance instance = random_block_instance(seed);
    ++shapes[static_cast<std::size_t>(instance.shape)];
    if (instance.warm) ++warm;
    if (instance.has_empty_user) ++empty_users;
    if (instance.blocks.size() > 1) ++multi_user;

    std::vector<SimplexBlock> swept = instance.blocks;
    std::vector<SimplexBlock>& blocks = instance.blocks;
    const auto solved =
        solve_block_sweeps(blocks, instance.coupling, instance.cap);
    ASSERT_TRUE(solved.converged) << "seed " << seed;
    EXPECT_LE(solved.polish_sweeps, 10) << "seed " << seed;
    if (solved.newton_iterations > 0) ++newton;
    if (instance.coupling == 0.0) {
      ++uncoupled;
      EXPECT_EQ(solved.newton_evaluations, 0) << "seed " << seed;
    }
    for (const SimplexBlock& block : blocks) {
      if (block.planes.empty()) continue;
      if (linalg::kernels::serial_sum(block.gamma) >=
          instance.cap * (1.0 - 1e-12)) {
        ++binding_caps;
      } else {
        ++slack_caps;
      }
    }

    // The Newton phase only shortens the road: sweeps alone reach the same
    // objective.
    const auto sweeps_only = test_support::solve_sweeps_only(
        swept, instance.coupling, instance.cap);
    ASSERT_TRUE(sweeps_only.converged) << "seed " << seed;
    EXPECT_NEAR(solved.objective, sweeps_only.objective,
                1e-12 * (1.0 + std::abs(sweeps_only.objective)))
        << "seed " << seed;
    const auto problem =
        test_support::dense_problem(blocks, instance.coupling, instance.cap);
    const Vector gamma = test_support::flat_gamma(blocks);
    EXPECT_LE(kkt_residual(problem, gamma), kSweepKktBound) << "seed " << seed;

    // Never worse than the reference loop wherever it converged.
    const auto reference = reference_solve(problem);
    if (reference.converged) {
      ++compared;
      EXPECT_LE(solved.objective,
                reference.objective +
                    1e-9 * (1.0 + std::abs(reference.objective)))
          << "seed " << seed;
    }

    // Re-solving the converged dual is one pivot-free sweep that changes
    // no bit of γ, z or the objective.
    const std::vector<SimplexBlock> before = blocks;
    const auto again =
        solve_block_sweeps(blocks, instance.coupling, instance.cap);
    ASSERT_TRUE(again.converged) << "seed " << seed;
    EXPECT_EQ(again.sweeps, 1) << "seed " << seed;
    EXPECT_EQ(again.pivots, 0) << "seed " << seed;
    EXPECT_EQ(again.newton_evaluations, 0) << "seed " << seed;
    for (std::size_t t = 0; t < blocks.size(); ++t) {
      expect_bitwise_equal(before[t].gamma, blocks[t].gamma, seed);
      expect_bitwise_equal(before[t].z, blocks[t].z, seed);
    }
    EXPECT_EQ(std::bit_cast<std::uint64_t>(solved.objective),
              std::bit_cast<std::uint64_t>(again.objective))
        << "seed " << seed;
  }
  for (const int count : shapes) EXPECT_GT(count, 0);
  EXPECT_GT(warm, 0);
  EXPECT_GT(empty_users, 0);
  EXPECT_GT(multi_user, kInstancesPerSolver / 2);
  EXPECT_GT(compared, kInstancesPerSolver / 4);
  EXPECT_GT(uncoupled, 0);
  EXPECT_GT(newton, kInstancesPerSolver / 2);
  EXPECT_GT(binding_caps, 0);
  EXPECT_GT(slack_caps, 0);
}

// A last block with more support planes than dimensions, after blocks of
// full rank: d = 1, κ = 1, cap 2. The first sweep projects block 1's
// infeasible warm start to γ = (2, 2, 2)/3, where its gradient is level,
// so it keeps all three planes; block 0, solved against the unprojected
// z_1, is left off its optimum. The first Newton direction therefore
// stacks block 0's plane and then block 1's two face directions
// (differences of collinear planes), the second of them dependent.
BlockInstance wide_last_block_instance() {
  BlockInstance instance;
  instance.coupling = 1.0;
  instance.cap = 2.0;
  instance.warm = true;
  instance.blocks = test_support::make_blocks(
      {{{{1.0}, 5.2, 0.0}},
       {{{1.0}, 9.5, 0.7}, {{2.0}, 18.0, 0.7}, {{3.0}, 26.5, 0.7}}});
  return instance;
}

TEST(QpProperty, CappedSimplexLoopDoesNotAllocate) {
  // Allocations made by a solve must not depend on how many passes over
  // the blocks (sweeps and Newton evaluations) it makes: the Newton buffers
  // are sized once per solve, and the active-set buffers reach their final
  // size in the first sweep. A cold solve takes many passes; the same
  // blocks warm-started at its solution take one sweep.
  int multi_pass = 0;
  const auto check = [&multi_pass](const BlockInstance& instance, int seed) {
    const auto allocations_for = [&](std::vector<SimplexBlock> blocks) {
      const std::size_t before = g_allocations.load();
      const auto result =
          solve_block_sweeps(blocks, instance.coupling, instance.cap);
      const std::size_t after = g_allocations.load();
      EXPECT_TRUE(result.converged) << "seed " << seed;
      return std::pair(after - before,
                       result.sweeps + result.newton_evaluations);
    };
    std::vector<SimplexBlock> solved = instance.blocks;
    // The first call also resolves the static instruments.
    (void)solve_block_sweeps(solved, instance.coupling, instance.cap);
    std::vector<SimplexBlock> warm = instance.blocks;
    for (std::size_t t = 0; t < warm.size(); ++t) {
      warm[t].gamma = solved[t].gamma;
    }
    const auto [cold_allocations, cold_passes] =
        allocations_for(instance.blocks);
    const auto [warm_allocations, warm_passes] = allocations_for(warm);
    EXPECT_EQ(warm_passes, 1) << "seed " << seed;
    if (cold_passes > 2) ++multi_pass;
    EXPECT_EQ(cold_allocations, warm_allocations) << "seed " << seed;
  };
  for (int seed = 1; seed < 40; seed += 2) {
    check(random_block_instance(seed), seed);
  }
  check(wide_last_block_instance(), -1);
  EXPECT_GT(multi_pass, 10);
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

    // Never worse than the reference loop wherever it converged.
    const auto reference = reference_solve(problem);
    if (reference.converged) {
      ++compared;
      EXPECT_LE(exact.objective,
                reference.objective +
                    1e-9 * (1.0 + std::abs(reference.objective)))
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
