// Tests for the QP solver library: projections, the exact single-simplex
// solver and the block sweeps over a product of capped simplices (the
// centralized PLOS dual), validated against known solutions, random
// feasible probes and KKT conditions.
#include <gtest/gtest.h>

#include <cmath>

#include "block_dual_support.hpp"
#include "common/assert.hpp"
#include "obs/metrics.hpp"
#include "qp/projection.hpp"
#include "qp/simplex_qp.hpp"
#include "rng/engine.hpp"

namespace plos::qp {
namespace {

using linalg::Matrix;
using linalg::Vector;
using test_support::CappedSimplexQpProblem;
using test_support::dense_objective;
using test_support::dense_problem;
using test_support::flat_gamma;
using test_support::kkt_residual;
using test_support::make_blocks;
using test_support::PlaneSpec;

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

// The tiny problem as one block: planes e1, e2 with coupling 0 give the
// block Gram H = I.
std::vector<SimplexBlock> tiny_blocks(double gamma0 = 0.0,
                                      Vector linear = {2.0, 1.0}) {
  return make_blocks({{{{1.0, 0.0}, linear[0], gamma0},
                       {{0.0, 1.0}, linear[1], gamma0}}});
}

TEST(CappedSimplexQp, SolvesTinyKnownProblem) {
  auto blocks = tiny_blocks();
  const auto result = solve_block_sweeps(blocks, 0.0, 1.0);
  EXPECT_TRUE(result.converged);
  EXPECT_NEAR(blocks[0].gamma[0], 1.0, 1e-12);
  EXPECT_NEAR(blocks[0].gamma[1], 0.0, 1e-12);
  EXPECT_NEAR(result.objective, -1.5, 1e-12);
  // z = Sᵀγ is the primal recovery.
  EXPECT_EQ(blocks[0].z, blocks[0].gamma);
}

TEST(CappedSimplexQp, InteriorOptimum) {
  auto blocks = tiny_blocks(0.0, {0.25, 0.25});
  const auto result = solve_block_sweeps(blocks, 0.0, 1.0);
  EXPECT_TRUE(result.converged);
  EXPECT_NEAR(blocks[0].gamma[0], 0.25, 1e-12);
  EXPECT_NEAR(blocks[0].gamma[1], 0.25, 1e-12);
}

TEST(CappedSimplexQp, EmptyProblem) {
  std::vector<SimplexBlock> none;
  const auto result = solve_block_sweeps(none, 0.5, 1.0);
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.objective, 0.0);
  EXPECT_EQ(result.pivots, 0);

  // Blocks without planes impose nothing; their z is zero.
  std::vector<SimplexBlock> blocks(3);
  blocks[1].append({1.0, 2.0}, 1.0);
  ASSERT_TRUE(solve_block_sweeps(blocks, 0.5, 1.0).converged);
  EXPECT_EQ(blocks[0].z, Vector(2, 0.0));
  EXPECT_EQ(blocks[2].z, Vector(2, 0.0));
}

TEST(CappedSimplexQp, ValidatesGroupPartition) {
  // The dense checker rejects groups that do not partition the indices.
  CappedSimplexQpProblem p = tiny_problem();
  p.groups = {{0}};  // does not cover index 1
  EXPECT_THROW(kkt_residual(p, Vector{0.0, 0.0}), PreconditionError);
  p.groups = {{0, 1}, {1}};  // overlap
  p.caps = {1.0, 1.0};
  EXPECT_THROW(kkt_residual(p, Vector{0.0, 0.0}), PreconditionError);

  // The solver rejects blocks whose shapes disagree.
  auto blocks = tiny_blocks();
  blocks[0].gamma.push_back(0.0);
  EXPECT_THROW(solve_block_sweeps(blocks, 0.0, 1.0), PreconditionError);
  blocks = tiny_blocks();
  blocks[0].linear.pop_back();
  EXPECT_THROW(solve_block_sweeps(blocks, 0.0, 1.0), PreconditionError);
  blocks = tiny_blocks();
  blocks.emplace_back().append({1.0, 2.0, 3.0}, 1.0);
  EXPECT_THROW(solve_block_sweeps(blocks, 0.0, 1.0), PreconditionError);
  EXPECT_THROW(solve_block_sweeps(blocks, -1.0, 1.0), PreconditionError);
  EXPECT_THROW(solve_block_sweeps(blocks, 0.0, -1.0), PreconditionError);
  // A κ-scaled block (a device's or a local fit's working set) is not a
  // sweep block.
  blocks = tiny_blocks();
  blocks.emplace_back(2.0).append({1.0, 0.0}, 1.0);
  EXPECT_THROW(solve_block_sweeps(blocks, 0.0, 1.0), PreconditionError);
}

// A NaN anywhere in the input used to hang the solve: the NaN gradient
// reached the projection's ulp-shaving loop, which never exits on NaN.
// Appending one is now rejected outright.
TEST(CappedSimplexQp, NanLinearTermThrows) {
  SimplexBlock block;
  EXPECT_THROW(block.append({1.0, 0.0}, std::nan("")), PreconditionError);
  EXPECT_TRUE(block.planes.empty());
}

TEST(CappedSimplexQp, NanHessianEntryThrows) {
  SimplexBlock block;
  block.append({1.0, 0.0}, 1.0);
  EXPECT_THROW(block.append({std::nan(""), 1.0}, 1.0), PreconditionError);
  EXPECT_THROW(block.append({HUGE_VAL, 1.0}, 1.0), PreconditionError);
  EXPECT_EQ(block.planes.size(), 1u);

  // A κ-scaled block stores κ·⟨s_a, s⟩, and a plane whose scaled diagonal
  // overflows is rejected like a non-finite one.
  SimplexBlock scaled(2.5);
  scaled.append({1.0, 3.0}, 1.0);
  scaled.append({0.5, -1.0}, 1.0);
  EXPECT_EQ(scaled.gram(0, 0), 25.0);
  EXPECT_EQ(scaled.gram(0, 1), -6.25);
  EXPECT_EQ(scaled.gram(1, 0), -6.25);
  EXPECT_EQ(scaled.gram(1, 1), 3.125);
  SimplexBlock huge(1e300);
  EXPECT_THROW(huge.append({1e10, 0.0}, 1.0), PreconditionError);
  EXPECT_TRUE(huge.planes.empty());
  EXPECT_THROW(SimplexBlock(0.0), PreconditionError);
  EXPECT_THROW(SimplexBlock(std::nan("")), PreconditionError);
}

TEST(CappedSimplexQp, WarmStartMatchesColdSolution) {
  auto cold = tiny_blocks();
  solve_block_sweeps(cold, 0.0, 1.0);
  auto warm = tiny_blocks(/*gamma0=*/0.3);
  ASSERT_TRUE(solve_block_sweeps(warm, 0.0, 1.0).converged);
  EXPECT_NEAR(warm[0].gamma[0], cold[0].gamma[0], 1e-12);
  EXPECT_NEAR(warm[0].gamma[1], cold[0].gamma[1], 1e-12);

  // An infeasible warm start is projected without a pivot. Block 0 passes
  // its test against block 1's unprojected z, so the first sweep pivots
  // nowhere; it moved γ, though, so it does not pass, and the solve goes
  // on to its Newton phase and a second sweep.
  auto coupled = make_blocks({{{{1.0}, 6.0, 0.5}}, {{{1.0}, 3.0, 5.0}}});
  const auto result = solve_block_sweeps(coupled, 1.0, 1.0);
  ASSERT_TRUE(result.converged);
  EXPECT_GT(result.newton_evaluations, 0);
  EXPECT_GE(result.sweeps, 2);
  EXPECT_LT(kkt_residual(dense_problem(coupled, 1.0, 1.0), flat_gamma(coupled)),
            1e-12);
}

TEST(CappedSimplexQp, KktResidualSmallAtSolution) {
  auto blocks = tiny_blocks();
  solve_block_sweeps(blocks, 0.0, 1.0);
  EXPECT_LT(kkt_residual(tiny_problem(), blocks[0].gamma), 1e-12);
  // And clearly non-small away from it.
  EXPECT_GT(kkt_residual(tiny_problem(), Vector{0.0, 0.0}), 0.1);
}

// Two users whose single planes coincide, under coupling κ = 10⁴, with the
// optimum γ = (1, 1)/(2κ + 1) inside both caps: each block solve leaves a
// κ/(κ+1) share of the other block's error, so Gauss–Seidel alone needs
// ~10⁵ sweeps to settle — far past the budget. F(w0) is a single quadratic
// piece around the optimum, so the Newton phase lands on it.
std::vector<SimplexBlock> stiff_blocks() {
  return make_blocks({{{{1.0}, 1.0, 0.0}}, {{{1.0}, 1.0, 0.0}}});
}

// Registry counter deltas across one solve (the registry is process-wide and
// disabled by default, so the helper enables it only for the call).
struct SolveCounters {
  BlockSweepResult result;
  double solves = 0.0;
  double unconverged = 0.0;
  double warm_hits = 0.0;
  double pivots = 0.0;
  double sweeps = 0.0;
  double newton_iterations = 0.0;
  double newton_evaluations = 0.0;
  double polish_sweeps = 0.0;
};

SolveCounters solve_counted(std::vector<SimplexBlock>& blocks,
                            double coupling, double cap) {
  auto& registry = obs::metrics();
  registry.set_enabled(true);
  registry.reset_values();
  const auto histogram_sum = [&registry](const char* name) {
    return registry.histogram(name, obs::default_iteration_buckets()).sum();
  };
  SolveCounters out;
  out.result = solve_block_sweeps(blocks, coupling, cap);
  out.solves = registry.counter("qp.capped_simplex.solves").value();
  out.unconverged = registry.counter("qp.capped_simplex.unconverged").value();
  out.warm_hits = registry.counter("qp.capped_simplex.warm_hits").value();
  out.pivots = histogram_sum("qp.capped_simplex.iterations");
  out.sweeps = histogram_sum("qp.capped_simplex.sweeps");
  out.newton_iterations = histogram_sum("qp.capped_simplex.newton_iterations");
  out.newton_evaluations =
      histogram_sum("qp.capped_simplex.newton_evaluations");
  out.polish_sweeps = histogram_sum("qp.capped_simplex.polish_sweeps");
  registry.set_enabled(false);
  return out;
}

// No dual is known that spends the sweep budget once the Newton phase
// runs; the stiff dual, which spends it under sweeps alone, is counted
// converged.
TEST(CappedSimplexQp, UnconvergedCounterTracksCappedSolves) {
  auto stiff = stiff_blocks();
  const auto settled = solve_counted(stiff, 1e4, 1.0);
  ASSERT_TRUE(settled.result.converged);
  EXPECT_LT(settled.result.sweeps, kMaxBlockSweeps);
  EXPECT_EQ(settled.solves, 1.0);
  EXPECT_EQ(settled.unconverged, 0.0);

  auto tiny = tiny_blocks();
  const auto finished = solve_counted(tiny, 0.0, 1.0);
  ASSERT_TRUE(finished.result.converged);
  EXPECT_EQ(finished.unconverged, 0.0);
}

TEST(CappedSimplexQp, NewtonSettlesStiffDual) {
  // Sweeps alone spend the budget, and even cut short keep γ feasible.
  auto swept = stiff_blocks();
  const auto cut_short = test_support::solve_sweeps_only(swept, 1e4, 1.0);
  ASSERT_FALSE(cut_short.converged);
  EXPECT_EQ(cut_short.sweeps, kMaxBlockSweeps);
  for (const auto& block : swept) {
    EXPECT_GE(block.gamma[0], 0.0);
    EXPECT_LE(block.gamma[0], 1.0);
  }

  auto stiff = stiff_blocks();
  const auto solved = solve_counted(stiff, 1e4, 1.0);
  ASSERT_TRUE(solved.result.converged);
  EXPECT_EQ(solved.unconverged, 0.0);
  EXPECT_GT(solved.result.newton_iterations, 0);
  EXPECT_LE(solved.result.polish_sweeps, 2);
  const double optimum = 1.0 / (2.0 * 1e4 + 1.0);
  for (const auto& block : stiff) {
    EXPECT_NEAR(block.gamma[0], optimum, 1e-9 * optimum);
  }
  EXPECT_LT(kkt_residual(dense_problem(stiff, 1e4, 1.0), flat_gamma(stiff)),
            1e-9);
}

TEST(CappedSimplexQp, CountersRecordOncePerDualSolve) {
  // Three users, a few planes each: many block solves, one recorded solve.
  auto blocks = make_blocks({{{{1.0, 0.5}, 1.0}, {{0.2, 1.0}, 0.5}},
                             {{{-0.3, 1.0}, 0.8}},
                             {{{1.0, 1.0}, 0.7}, {{0.5, -1.0}, 0.2}}});
  const auto cold = solve_counted(blocks, 0.5, 1.0);
  ASSERT_TRUE(cold.result.converged);
  EXPECT_GT(cold.result.sweeps, 1);
  EXPECT_EQ(cold.solves, 1.0);
  EXPECT_EQ(cold.pivots, static_cast<double>(cold.result.pivots));
  EXPECT_EQ(cold.sweeps, static_cast<double>(cold.result.sweeps));
  EXPECT_GT(cold.result.newton_iterations, 0);
  EXPECT_EQ(cold.newton_iterations,
            static_cast<double>(cold.result.newton_iterations));
  EXPECT_EQ(cold.newton_evaluations,
            static_cast<double>(cold.result.newton_evaluations));
  EXPECT_EQ(cold.polish_sweeps,
            static_cast<double>(cold.result.polish_sweeps));
  EXPECT_EQ(cold.result.polish_sweeps, cold.result.sweeps - 1);
  EXPECT_EQ(cold.warm_hits, 0.0);

  // Re-solving the converged dual is one pivot-free sweep: a warm hit.
  const auto again = solve_counted(blocks, 0.5, 1.0);
  ASSERT_TRUE(again.result.converged);
  EXPECT_EQ(again.result.sweeps, 1);
  EXPECT_EQ(again.result.pivots, 0);
  EXPECT_EQ(again.result.newton_evaluations, 0);
  EXPECT_EQ(again.solves, 1.0);
  EXPECT_EQ(again.warm_hits, 1.0);
}

// Property: on random coupled duals the solver's objective beats (or
// matches) every random feasible probe, and KKT holds.
class CappedSimplexQpProperty : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  static std::vector<SimplexBlock> random_blocks(rng::Engine& engine) {
    const std::size_t dim =
        1 + static_cast<std::size_t>(engine.uniform_int(0, 3));
    // 1-3 users with 0-4 planes each.
    const std::size_t users =
        1 + static_cast<std::size_t>(engine.uniform_int(0, 2));
    std::vector<std::vector<PlaneSpec>> specs(users);
    for (auto& user : specs) {
      const auto planes = static_cast<std::size_t>(engine.uniform_int(0, 4));
      for (std::size_t a = 0; a < planes; ++a) {
        user.push_back({engine.gaussian_vector(dim), engine.gaussian(), 0.0});
      }
    }
    specs[0].push_back({engine.gaussian_vector(dim), engine.gaussian(), 0.0});
    return make_blocks(specs);
  }
};

TEST_P(CappedSimplexQpProperty, BeatsRandomFeasibleProbesAndSatisfiesKkt) {
  rng::Engine engine(GetParam() * 977 + 3);
  const double coupling = engine.uniform(0.1, 2.0);
  const double cap = engine.uniform(0.1, 2.0);
  auto blocks = random_blocks(engine);
  const auto result = solve_block_sweeps(blocks, coupling, cap);
  EXPECT_TRUE(result.converged);
  const auto p = dense_problem(blocks, coupling, cap);
  const Vector gamma = flat_gamma(blocks);
  EXPECT_LT(kkt_residual(p, gamma), 1e-9);
  EXPECT_NEAR(dense_objective(p, gamma), result.objective,
              1e-12 * (1.0 + std::abs(result.objective)));

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
    EXPECT_GE(dense_objective(p, x), result.objective - 1e-9);
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
