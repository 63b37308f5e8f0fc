// Tests for the linear SVM fit on the 1-slack cutting-plane loop.
#include <gtest/gtest.h>

#include <algorithm>
#include <numbers>
#include <tuple>

#include "common/assert.hpp"
#include "core/admm_device.hpp"
#include "core/cutting_plane.hpp"
#include "data/labeling.hpp"
#include "data/synthetic.hpp"
#include "rng/engine.hpp"

namespace plos::core {
namespace {

using linalg::Vector;

std::pair<std::vector<Vector>, std::vector<int>> separable_blobs(
    rng::Engine& engine, std::size_t per_class, double gap) {
  std::vector<Vector> xs;
  std::vector<int> ys;
  for (std::size_t i = 0; i < per_class; ++i) {
    xs.push_back({gap + engine.gaussian(0.0, 0.5),
                  gap + engine.gaussian(0.0, 0.5), 1.0});
    ys.push_back(1);
    xs.push_back({-gap + engine.gaussian(0.0, 0.5),
                  -gap + engine.gaussian(0.0, 0.5), 1.0});
    ys.push_back(-1);
  }
  return {xs, ys};
}

// ½‖w‖² + C Σ max(0, 1 − y_i w·x_i), computed here rather than by the fit.
double primal_objective(std::span<const double> w,
                        const std::vector<Vector>& xs,
                        std::span<const int> ys, double c) {
  double objective = 0.5 * linalg::squared_norm(w);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double margin = static_cast<double>(ys[i]) * linalg::dot(w, xs[i]);
    objective += c * std::max(0.0, 1.0 - margin);
  }
  return objective;
}

// The fit's dual value is a lower bound on the optimum, so primal − dual
// bounds how far the returned w is from it.
void expect_gap_certified(const SvmFit& fit, const std::vector<Vector>& xs,
                          std::span<const int> ys, double c) {
  ASSERT_TRUE(fit.exact());
  const double primal = primal_objective(fit.weights, xs, ys, c);
  const double tolerance = 1e-9 * (1.0 + primal);
  EXPECT_LE(primal - fit.dual_objective, tolerance)
      << "primal " << primal << ", dual " << fit.dual_objective;
  EXPECT_GE(primal - fit.dual_objective, -tolerance);
}

TEST(LinearSvm, EmptyInputGivesEmptyModel) {
  const SvmFit fit = fit_svm(std::vector<Vector>{}, std::vector<int>{}, 1.0);
  EXPECT_TRUE(fit.weights.empty());
  EXPECT_EQ(fit.qp_solves, 0);
  EXPECT_TRUE(fit.exact());
}

TEST(LinearSvm, RejectsBadLabels) {
  EXPECT_THROW(fit_svm({{1.0}}, std::vector<int>{0}, 1.0), PreconditionError);
}

TEST(LinearSvm, RejectsSizeMismatch) {
  EXPECT_THROW(fit_svm({{1.0}}, std::vector<int>{1, -1}, 1.0),
               PreconditionError);
}

TEST(LinearSvm, RejectsNonPositiveC) {
  EXPECT_THROW(fit_svm({{1.0}}, std::vector<int>{1}, 0.0), PreconditionError);
  EXPECT_THROW(fit_svm({{1.0}}, std::vector<int>{1}, -1.0),
               PreconditionError);
}

TEST(LinearSvm, RejectsRaggedSamples) {
  EXPECT_THROW(fit_svm({{1.0}, {1.0, 2.0}}, std::vector<int>{1, -1}, 1.0),
               PreconditionError);
}

TEST(LinearSvm, SeparatesBlobs) {
  rng::Engine engine(3);
  const auto [xs, ys] = separable_blobs(engine, 50, 3.0);
  const SvmFit fit = fit_svm(xs, ys, 1.0);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    EXPECT_EQ(linalg::dot(fit.weights, xs[i]) >= 0.0 ? 1 : -1, ys[i]);
  }
}

TEST(LinearSvm, TrivialOnePointProblem) {
  // Single positive point x = (2): optimum w = 1/2 (margin exactly 1) when
  // C >= 1/4: min 1/2 w^2 + C max(0, 1 - 2w) -> w* = 1/2.
  const SvmFit fit = fit_svm({{2.0}}, std::vector<int>{1}, 1.0);
  ASSERT_TRUE(fit.exact());
  EXPECT_NEAR(fit.weights[0], 0.5, 1e-12);
}

TEST(LinearSvm, SmallCProducesSmallerWeights) {
  rng::Engine engine(5);
  const auto [xs, ys] = separable_blobs(engine, 30, 2.0);
  const double weak_norm = linalg::norm(fit_svm(xs, ys, 1e-4).weights);
  const double strong_norm = linalg::norm(fit_svm(xs, ys, 10.0).weights);
  EXPECT_LT(weak_norm, strong_norm);
}

TEST(LinearSvm, BitwiseDeterministic) {
  rng::Engine engine(9);
  const auto [xs, ys] = separable_blobs(engine, 20, 1.0);
  const SvmFit a = fit_svm(xs, ys, 1.0);
  const SvmFit b = fit_svm(xs, ys, 1.0);
  EXPECT_TRUE(same_bits(a.weights, b.weights));
}

TEST(LinearSvm, DualityGapCertifiedOnBadlyScaledPopulations) {
  // e2ebench's populations: rotated Gaussian classes at ±(10, 10) with
  // variance 225 beside a bias feature of 1, every other user revealing 5%
  // of its labels. Features of ±10–40 next to the bias leave the problem
  // badly scaled; both the pooled fit and each provider's own fit, which
  // reads only the labeled samples of its context, must still reach the
  // optimum.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    rng::Engine engine(seed);
    data::SyntheticSpec spec;
    spec.num_users = 20;
    spec.points_per_class = 50;
    spec.max_rotation = std::numbers::pi / 2.0;
    auto dataset = data::generate_synthetic(spec, engine);
    std::vector<std::size_t> providers;
    for (std::size_t t = 0; t < spec.num_users; t += 2) providers.push_back(t);
    data::reveal_labels(dataset, providers, 0.05, engine);

    std::vector<Vector> pooled_xs;
    std::vector<int> pooled_ys;
    for (std::size_t t : providers) {
      const data::UserData& user = dataset.users[t];
      std::vector<Vector> xs;
      std::vector<int> ys;
      for (std::size_t i : user.revealed_indices()) {
        xs.push_back(user.samples[i]);
        ys.push_back(user.true_labels[i]);
      }
      pooled_xs.insert(pooled_xs.end(), xs.begin(), xs.end());
      pooled_ys.insert(pooled_ys.end(), ys.begin(), ys.end());
      SCOPED_TRACE(testing::Message() << "seed " << seed << ", user " << t);
      expect_gap_certified(fit_svm(PlosUserContext::from_user(user), 1.0), xs,
                           ys, 1.0);
    }
    SCOPED_TRACE(testing::Message() << "seed " << seed << ", pooled");
    const SvmFit pooled = fit_svm(pooled_xs, pooled_ys, 1.0);
    expect_gap_certified(pooled, pooled_xs, pooled_ys, 1.0);
    EXPECT_TRUE(same_bits(pooled.weights,
                          initial_global_weights(dataset, 7).weights));
  }
}

TEST(LinearSvm, StopsOnARepeatedSelectionFarUnderTheBudget) {
  // fit_svm is the prox loop at center 0, κ = C·m, Cl = 1, ε = 0. Run that
  // loop here to see its working set: at the returned w the oracle's
  // selection is one the set already holds, rebuilt bit for bit.
  rng::Engine engine(11);
  const auto [xs, ys] = separable_blobs(engine, 60, 0.8);
  data::UserData user;
  user.samples = xs;
  user.true_labels = ys;
  user.revealed.assign(xs.size(), true);
  const PlosUserContext ctx = PlosUserContext::from_user(user);
  const double c = 2.0;

  qp::SimplexBlock working_set(c * static_cast<double>(xs.size()));
  Vector shifted;
  const ProxCuttingPlaneResult solved = solve_prox_cutting_planes(
      ctx, {}, 1.0, 0.0, linalg::zeros(3), working_set, shifted, 0.0,
      kSvmMaxPlanes);
  const CuttingPlane last = most_violated_constraint(ctx, {}, solved.w, 1.0,
                                                     0.0);
  bool repeated = false;
  for (std::size_t a = 0; a < working_set.planes.size(); ++a) {
    repeated = repeated || (same_bits(working_set.planes[a], last.s) &&
                            working_set.linear[a] == last.offset);
  }
  EXPECT_TRUE(repeated);
  EXPECT_EQ(solved.qp_unconverged, 0);
  EXPECT_LT(working_set.planes.size(), std::size_t{kSvmMaxPlanes / 20});

  const SvmFit fit = fit_svm(xs, ys, c);
  EXPECT_TRUE(fit.exact());
  EXPECT_EQ(fit.qp_solves, solved.qp_solves);
  EXPECT_TRUE(same_bits(fit.weights, solved.w));
}

// Property: the fit's primal objective is no worse than random
// perturbations of it (local optimality in the convex primal ⇒ global),
// and its duality gap certifies the optimum.
class SvmOptimalityProperty : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  void SetUp() override {
    rng::Engine engine(GetParam() * 131 + 17);
    const std::size_t per_class =
        10 + static_cast<std::size_t>(engine.uniform_int(0, 30));
    const double gap = engine.uniform(0.3, 2.5);  // possibly non-separable
    std::tie(xs, ys) = separable_blobs(engine, per_class, gap);
    c = engine.uniform(0.05, 5.0);
  }

  std::vector<Vector> xs;
  std::vector<int> ys;
  double c = 1.0;
};

TEST_P(SvmOptimalityProperty, PrimalObjectiveLocallyOptimal) {
  const SvmFit fit = fit_svm(xs, ys, c);
  const double best = primal_objective(fit.weights, xs, ys, c);
  rng::Engine engine(GetParam() + 1000);
  for (int probe = 0; probe < 100; ++probe) {
    Vector perturbed = fit.weights;
    for (auto& w : perturbed) w += engine.gaussian(0.0, 0.05);
    EXPECT_GE(primal_objective(perturbed, xs, ys, c), best - 1e-9);
  }
}

TEST_P(SvmOptimalityProperty, DualityGapCertified) {
  expect_gap_certified(fit_svm(xs, ys, c), xs, ys, c);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SvmOptimalityProperty,
                         ::testing::Range<std::uint64_t>(0, 10));

}  // namespace
}  // namespace plos::core
