// Tests for the QP solver library: projections, the capped-simplex QP (the
// PLOS dual shape) and the exact single-simplex solver, validated against
// known solutions, random feasible probes and KKT conditions.
#include <gtest/gtest.h>

#include <cmath>

#include "common/assert.hpp"
#include "obs/metrics.hpp"
#include "qp/capped_simplex_qp.hpp"
#include "qp/projection.hpp"
#include "qp/simplex_qp.hpp"
#include "rng/engine.hpp"

namespace plos::qp {
namespace {

using linalg::Matrix;
using linalg::Vector;

TEST(Projection, CappedSimplexAlreadyFeasible) {
  Vector x{0.2, 0.3};
  project_capped_simplex(x, 1.0);
  EXPECT_DOUBLE_EQ(x[0], 0.2);
  EXPECT_DOUBLE_EQ(x[1], 0.3);
}

TEST(Projection, CappedSimplexClipsNegatives) {
  Vector x{-0.5, 0.4};
  project_capped_simplex(x, 1.0);
  EXPECT_DOUBLE_EQ(x[0], 0.0);
  EXPECT_DOUBLE_EQ(x[1], 0.4);
}

TEST(Projection, CappedSimplexProjectsOntoFace) {
  Vector x{2.0, 2.0};
  project_capped_simplex(x, 1.0);
  EXPECT_NEAR(x[0], 0.5, 1e-12);
  EXPECT_NEAR(x[1], 0.5, 1e-12);
}

TEST(Projection, CappedSimplexZeroCap) {
  Vector x{1.0, 2.0, 3.0};
  project_capped_simplex(x, 0.0);
  for (double v : x) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(Projection, CappedSimplexRejectsNegativeCap) {
  Vector x{1.0};
  EXPECT_THROW(project_capped_simplex(x, -1.0), PreconditionError);
}

// Property: the projection is the closest feasible point — no random
// feasible probe may be closer.
class CappedSimplexProjectionProperty
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CappedSimplexProjectionProperty, IsClosestFeasiblePoint) {
  rng::Engine engine(GetParam());
  const std::size_t n = 1 + static_cast<std::size_t>(engine.uniform_int(0, 7));
  const double cap = engine.uniform(0.0, 2.0);
  const Vector original = engine.gaussian_vector(n, 0.0, 2.0);

  Vector projected = original;
  project_capped_simplex(projected, cap);

  // Feasibility.
  double sum = 0.0;
  for (double v : projected) {
    EXPECT_GE(v, -1e-12);
    sum += v;
  }
  EXPECT_LE(sum, cap + 1e-9);

  const double base = linalg::squared_distance(projected, original);
  for (int probe = 0; probe < 200; ++probe) {
    Vector candidate = engine.gaussian_vector(n, 0.0, 2.0);
    project_capped_simplex(candidate, cap);  // any feasible point
    EXPECT_GE(linalg::squared_distance(candidate, original), base - 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CappedSimplexProjectionProperty,
                         ::testing::Range<std::uint64_t>(0, 12));

CappedSimplexQpProblem tiny_problem() {
  // min 1/2 x^T H x - c^T x over {x >= 0, x0 + x1 <= 1}, H = I, c = (2, 1).
  // Unconstrained optimum (2,1) is infeasible; the constrained optimum lies
  // on the face x0 + x1 = 1: minimize along it -> x = (1, 0).
  CappedSimplexQpProblem p;
  p.hessian = Matrix::identity(2);
  p.linear = {2.0, 1.0};
  p.groups = {{0, 1}};
  p.caps = {1.0};
  return p;
}

TEST(CappedSimplexQp, SolvesTinyKnownProblem) {
  const auto result = solve_capped_simplex_qp(tiny_problem());
  EXPECT_TRUE(result.converged);
  EXPECT_NEAR(result.solution[0], 1.0, 1e-6);
  EXPECT_NEAR(result.solution[1], 0.0, 1e-6);
}

TEST(CappedSimplexQp, InteriorOptimum) {
  CappedSimplexQpProblem p;
  p.hessian = Matrix::identity(2);
  p.linear = {0.25, 0.25};
  p.groups = {{0, 1}};
  p.caps = {1.0};
  const auto result = solve_capped_simplex_qp(p);
  EXPECT_NEAR(result.solution[0], 0.25, 1e-6);
  EXPECT_NEAR(result.solution[1], 0.25, 1e-6);
}

TEST(CappedSimplexQp, EmptyProblem) {
  CappedSimplexQpProblem p;
  const auto result = solve_capped_simplex_qp(p);
  EXPECT_TRUE(result.converged);
  EXPECT_TRUE(result.solution.empty());
}

TEST(CappedSimplexQp, ValidatesGroupPartition) {
  CappedSimplexQpProblem p = tiny_problem();
  p.groups = {{0}};  // does not cover index 1
  EXPECT_THROW(solve_capped_simplex_qp(p), PreconditionError);
  p.groups = {{0, 1}, {1}};  // overlap
  p.caps = {1.0, 1.0};
  EXPECT_THROW(solve_capped_simplex_qp(p), PreconditionError);
}

// A NaN anywhere in the input used to hang the solve: the NaN gradient
// reached the projection's ulp-shaving loop, which never exits on NaN.
TEST(CappedSimplexQp, NanLinearTermThrows) {
  CappedSimplexQpProblem p = tiny_problem();
  p.linear = {1.0, std::nan("")};
  EXPECT_THROW(solve_capped_simplex_qp(p), PreconditionError);
}

TEST(CappedSimplexQp, NanHessianEntryThrows) {
  CappedSimplexQpProblem p = tiny_problem();
  p.hessian(0, 1) = std::nan("");
  p.hessian(1, 0) = std::nan("");
  EXPECT_THROW(solve_capped_simplex_qp(p), PreconditionError);
}

TEST(CappedSimplexQp, WarmStartMatchesColdSolution) {
  const auto cold = solve_capped_simplex_qp(tiny_problem());
  QpOptions options;
  options.warm_start = {0.3, 0.3};
  const auto warm = solve_capped_simplex_qp(tiny_problem(), options);
  EXPECT_NEAR(warm.solution[0], cold.solution[0], 1e-6);
  EXPECT_NEAR(warm.solution[1], cold.solution[1], 1e-6);
}

TEST(CappedSimplexQp, KktResidualSmallAtSolution) {
  const auto result = solve_capped_simplex_qp(tiny_problem());
  EXPECT_LT(kkt_residual(tiny_problem(), result.solution), 1e-5);
  // And clearly non-small away from it.
  EXPECT_GT(kkt_residual(tiny_problem(), Vector{0.0, 0.0}), 0.1);
}

// Registry counter deltas across one solve (the registry is process-wide and
// disabled by default, so the helper enables it only for the call).
struct SolveCounters {
  QpResult result;
  double matvecs = 0.0;
  double unconverged = 0.0;
};

SolveCounters solve_counted(const CappedSimplexQpProblem& p,
                            const QpOptions& options) {
  auto& registry = obs::metrics();
  registry.set_enabled(true);
  registry.reset_values();
  SolveCounters out;
  out.result = solve_capped_simplex_qp(p, options);
  out.matvecs = registry.counter("qp.capped_simplex.matvecs").value();
  out.unconverged = registry.counter("qp.capped_simplex.unconverged").value();
  registry.set_enabled(false);
  return out;
}

TEST(CappedSimplexQp, UnconvergedCounterTracksCappedSolves) {
  QpOptions capped;
  capped.max_iterations = 1;
  const auto cut_short = solve_counted(tiny_problem(), capped);
  ASSERT_FALSE(cut_short.result.converged);
  EXPECT_EQ(cut_short.result.iterations, 1);
  EXPECT_EQ(cut_short.unconverged, 1.0);

  const auto finished = solve_counted(tiny_problem(), QpOptions{});
  ASSERT_TRUE(finished.result.converged);
  EXPECT_EQ(finished.unconverged, 0.0);
}

TEST(CappedSimplexQp, MatvecCounterCountsEveryProduct) {
  // Cold, one iteration: 30 power-iteration products, one shared H·x for
  // f(x) and ∇f(x) at entry (iteration 0 reuses it as ∇f(y)), one H·x_next.
  QpOptions one_step;
  one_step.max_iterations = 1;
  EXPECT_EQ(solve_counted(tiny_problem(), one_step).matvecs, 32.0);

  // k iterations cost between one and two products each: the first reuses
  // the entry gradient, and so does any step after an adaptive restart.
  const auto full = solve_counted(tiny_problem(), QpOptions{});
  const double k = full.result.iterations;
  ASSERT_GT(k, 1.0);
  EXPECT_GE(full.matvecs, 31.0 + k);
  EXPECT_LE(full.matvecs, 31.0 + 2.0 * k - 1.0);
}

// Property: on random PSD problems with random group structure the solver's
// objective beats (or matches) every random feasible probe, and KKT holds.
class CappedSimplexQpProperty : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  static CappedSimplexQpProblem random_problem(rng::Engine& engine) {
    const std::size_t n =
        2 + static_cast<std::size_t>(engine.uniform_int(0, 6));
    Matrix b(n, n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) b(i, j) = engine.gaussian();
    }
    CappedSimplexQpProblem p;
    p.hessian = b.matmul(b.transposed());
    for (std::size_t i = 0; i < n; ++i) p.hessian(i, i) += 0.1;
    p.linear = engine.gaussian_vector(n);
    // Random partition into 1-3 groups.
    const std::size_t num_groups =
        1 + static_cast<std::size_t>(engine.uniform_int(0, 2));
    p.groups.assign(num_groups, {});
    for (std::size_t i = 0; i < n; ++i) {
      p.groups[static_cast<std::size_t>(engine.uniform_int(
                   0, static_cast<std::int64_t>(num_groups) - 1))]
          .push_back(i);
    }
    // Drop empty groups (must not reference zero indices).
    std::vector<std::vector<std::size_t>> groups;
    for (auto& g : p.groups) {
      if (!g.empty()) groups.push_back(std::move(g));
    }
    // Every index must be covered; rebuild caps for surviving groups.
    p.groups = std::move(groups);
    p.caps.assign(p.groups.size(), 0.0);
    for (auto& c : p.caps) c = engine.uniform(0.1, 2.0);
    return p;
  }
};

TEST_P(CappedSimplexQpProperty, BeatsRandomFeasibleProbesAndSatisfiesKkt) {
  rng::Engine engine(GetParam() * 977 + 3);
  const auto p = random_problem(engine);
  const auto result = solve_capped_simplex_qp(p);
  EXPECT_TRUE(result.converged);
  EXPECT_LT(kkt_residual(p, result.solution), 1e-4);

  const auto objective = [&](const Vector& x) {
    return 0.5 * linalg::dot(x, p.hessian.matvec(x)) -
           linalg::dot(p.linear, x);
  };
  for (int probe = 0; probe < 300; ++probe) {
    Vector x = engine.gaussian_vector(p.linear.size(), 0.0, 1.0);
    for (std::size_t g = 0; g < p.groups.size(); ++g) {
      Vector block(p.groups[g].size());
      for (std::size_t k = 0; k < block.size(); ++k) {
        block[k] = x[p.groups[g][k]];
      }
      project_capped_simplex(block, p.caps[g]);
      for (std::size_t k = 0; k < block.size(); ++k) {
        x[p.groups[g][k]] = block[k];
      }
    }
    EXPECT_GE(objective(x), result.objective - 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CappedSimplexQpProperty,
                         ::testing::Range<std::uint64_t>(0, 15));

// ---- exact single-simplex solver -------------------------------------------

TEST(SimplexQp, SolvesTinyKnownProblem) {
  const auto p = tiny_problem();
  const auto result = solve_simplex_qp(p.hessian, p.linear, 1.0);
  ASSERT_TRUE(result.converged);
  // Exact: the face optimum of H = I, c = (2, 1) is the vertex (1, 0).
  EXPECT_EQ(result.solution[0], 1.0);
  EXPECT_EQ(result.solution[1], 0.0);
  EXPECT_EQ(result.objective, -1.5);
}

TEST(SimplexQp, InteriorOptimumLeavesTheCapSlack) {
  // Unconstrained optimum H⁻¹c = (0.25, 0.125) has Σ = 0.375 < 1.
  const Matrix h = Matrix::from_rows({{4.0, 0.0}, {0.0, 8.0}});
  const Vector c{1.0, 1.0};
  const auto result = solve_simplex_qp(h, c, 1.0);
  ASSERT_TRUE(result.converged);
  EXPECT_NEAR(result.solution[0], 0.25, 1e-15);
  EXPECT_NEAR(result.solution[1], 0.125, 1e-15);
}

TEST(SimplexQp, RejectsBadShapes) {
  const Matrix h = Matrix::identity(2);
  EXPECT_THROW(solve_simplex_qp(h, Vector{1.0}, 1.0), PreconditionError);
  EXPECT_THROW(solve_simplex_qp(h, Vector{1.0, 1.0}, -1.0), PreconditionError);
  EXPECT_THROW(solve_simplex_qp(h, Vector{1.0, 1.0}, 1.0, Vector{0.5}),
               PreconditionError);
}

TEST(SimplexQp, NanLinearTermThrows) {
  const Matrix h = Matrix::identity(2);
  EXPECT_THROW(solve_simplex_qp(h, Vector{std::nan(""), 1.0}, 1.0),
               PreconditionError);
}

TEST(SimplexQp, CountersTrackPivotsAndWarmHits) {
  const auto p = tiny_problem();
  auto& registry = obs::metrics();
  registry.set_enabled(true);
  registry.reset_values();
  const auto cold = solve_simplex_qp(p.hessian, p.linear, 1.0);
  const auto warm = solve_simplex_qp(p.hessian, p.linear, 1.0, cold.solution);
  const double solves = registry.counter("qp.capped_simplex.solves").value();
  const double warm_hits =
      registry.counter("qp.capped_simplex.warm_hits").value();
  const double unconverged =
      registry.counter("qp.capped_simplex.unconverged").value();
  const double pivots =
      registry
          .histogram("qp.capped_simplex.iterations",
                     obs::default_iteration_buckets())
          .sum();
  registry.set_enabled(false);

  EXPECT_GT(cold.iterations, 0);
  EXPECT_EQ(warm.iterations, 0);
  EXPECT_EQ(solves, 2.0);
  EXPECT_EQ(warm_hits, 1.0);
  EXPECT_EQ(unconverged, 0.0);
  EXPECT_EQ(pivots, static_cast<double>(cold.iterations));
}

}  // namespace
}  // namespace plos::qp
