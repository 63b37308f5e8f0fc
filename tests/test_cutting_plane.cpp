// Tests for the shared 1-slack cutting-plane machinery, including a
// brute-force check that Eq. 14 really picks the most violated constraint
// among all 2^m subset selections.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "common/assert.hpp"
#include "core/cutting_plane.hpp"
#include "rng/engine.hpp"

namespace plos::core {
namespace {

using linalg::Vector;

data::UserData small_user() {
  data::UserData u;
  u.samples = {{1.0, 0.0}, {0.0, 1.0}, {-1.0, 0.5}, {0.3, -0.7}};
  u.true_labels = {1, -1, -1, 1};
  u.revealed = {true, true, false, false};
  return u;
}

TEST(UserContext, SplitsByVisibility) {
  const auto user = small_user();
  const auto ctx = PlosUserContext::from_user(user);
  EXPECT_EQ(ctx.labeled, (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(ctx.unlabeled, (std::vector<std::size_t>{2, 3}));
  EXPECT_EQ(ctx.num_samples(), 4u);
}

TEST(CccpSigns, MatchDecisionValues) {
  const auto user = small_user();
  const auto ctx = PlosUserContext::from_user(user);
  const Vector w{1.0, 0.0};
  const auto signs = cccp_signs(ctx, w);
  ASSERT_EQ(signs.size(), 2u);
  EXPECT_EQ(signs[0], -1);  // w·(-1, 0.5) = -1
  EXPECT_EQ(signs[1], 1);   // w·(0.3, -0.7) = 0.3
}

TEST(CccpSigns, ZeroDecisionValueIsPositive) {
  data::UserData u;
  u.samples = {{0.0, 1.0}};
  u.true_labels = {1};
  u.revealed = {false};
  const auto ctx = PlosUserContext::from_user(u);
  EXPECT_EQ(cccp_signs(ctx, Vector{1.0, 0.0})[0], 1);
}

TEST(MostViolated, SelectsOnlyMarginViolators) {
  // With large weights every margin exceeds 1 and nothing is selected.
  const auto user = small_user();
  const auto ctx = PlosUserContext::from_user(user);
  Vector w{10.0, -10.0};
  const auto signs = cccp_signs(ctx, w);
  const auto plane = most_violated_constraint(ctx, signs, w, 2.0, 1.0);
  EXPECT_DOUBLE_EQ(plane.offset, 0.0);
  EXPECT_NEAR(linalg::norm(plane.s), 0.0, 1e-12);
}

TEST(MostViolated, ZeroWeightsSelectEverything) {
  const auto user = small_user();
  const auto ctx = PlosUserContext::from_user(user);
  const Vector w{0.0, 0.0};
  const auto signs = cccp_signs(ctx, w);
  const auto plane = most_violated_constraint(ctx, signs, w, 2.0, 1.0);
  // offset = (Cl*2 + Cu*2)/4 = (4 + 2)/4 = 1.5.
  EXPECT_DOUBLE_EQ(plane.offset, 1.5);
}

TEST(MostViolated, WeightsClAndCuEnterSeparately) {
  const auto user = small_user();
  const auto ctx = PlosUserContext::from_user(user);
  const Vector w{0.0, 0.0};
  const auto signs = cccp_signs(ctx, w);
  const auto p1 = most_violated_constraint(ctx, signs, w, 4.0, 0.0);
  EXPECT_DOUBLE_EQ(p1.offset, 2.0);  // only labeled terms
  const auto p2 = most_violated_constraint(ctx, signs, w, 0.0, 4.0);
  EXPECT_DOUBLE_EQ(p2.offset, 2.0);  // only unlabeled terms
}

TEST(ConstraintViolationAndSlack, Formulas) {
  CuttingPlane plane;
  plane.s = {1.0, 0.0};
  plane.offset = 2.0;
  const Vector w{0.5, 0.0};
  EXPECT_DOUBLE_EQ(constraint_violation(plane, w, 0.25), 2.0 - 0.5 - 0.25);

  // A working set's linear terms are the plane offsets b_c.
  qp::SimplexBlock both;
  both.append(plane.s, plane.offset);
  both.append({2.0, 0.0}, 0.2);
  qp::SimplexBlock weaker;
  weaker.append({2.0, 0.0}, 0.2);
  EXPECT_DOUBLE_EQ(optimal_slack(both, w), 1.5);
  EXPECT_DOUBLE_EQ(optimal_slack(weaker, w), 0.0);  // clamped at zero
  EXPECT_DOUBLE_EQ(optimal_slack(qp::SimplexBlock{}, w), 0.0);
}

// Property: Eq. 14's greedy selection yields the subset-c constraint with
// the largest violation b_c − s_c·w among ALL 2^m subsets.
class MostViolatedProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MostViolatedProperty, BeatsAllSubsets) {
  rng::Engine engine(GetParam() * 17 + 5);
  const std::size_t m = 1 + static_cast<std::size_t>(engine.uniform_int(0, 9));
  const std::size_t dim = 2;

  data::UserData u;
  for (std::size_t i = 0; i < m; ++i) {
    u.samples.push_back(engine.gaussian_vector(dim));
    u.true_labels.push_back(engine.bernoulli(0.5) ? 1 : -1);
    u.revealed.push_back(engine.bernoulli(0.5));
  }
  const auto ctx = PlosUserContext::from_user(u);
  const Vector w = engine.gaussian_vector(dim);
  const auto signs = cccp_signs(ctx, w);
  const double cl = engine.uniform(0.1, 3.0);
  const double cu = engine.uniform(0.1, 3.0);

  const auto best = most_violated_constraint(ctx, signs, w, cl, cu);
  const double best_violation = best.offset - linalg::dot(best.s, w);

  // Enumerate all subsets.
  for (std::size_t mask = 0; mask < (std::size_t{1} << m); ++mask) {
    Vector s(dim, 0.0);
    double offset = 0.0;
    std::size_t unlabeled_pos = 0;
    for (std::size_t i = 0; i < m; ++i) {
      const bool is_labeled = u.revealed[i];
      double coeff = 0.0;
      if (is_labeled) {
        coeff = cl * static_cast<double>(u.true_labels[i]);
      } else {
        coeff = cu * static_cast<double>(signs[unlabeled_pos]);
      }
      if (!is_labeled) ++unlabeled_pos;
      if (mask & (std::size_t{1} << i)) {
        linalg::axpy(coeff, u.samples[i], s);
        offset += is_labeled ? cl : cu;
      }
    }
    linalg::scale(s, 1.0 / static_cast<double>(m));
    offset /= static_cast<double>(m);
    EXPECT_LE(offset - linalg::dot(s, w), best_violation + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MostViolatedProperty,
                         ::testing::Range<std::uint64_t>(0, 12));

data::UserData gaussian_user(rng::Engine& engine, std::size_t per_class,
                             double gap, bool reveal_none = true) {
  data::UserData u;
  for (std::size_t i = 0; i < per_class; ++i) {
    u.samples.push_back({gap + engine.gaussian(0.0, 0.4),
                         engine.gaussian(0.0, 0.4), 1.0});
    u.true_labels.push_back(1);
    u.samples.push_back({-gap + engine.gaussian(0.0, 0.4),
                         engine.gaussian(0.0, 0.4), 1.0});
    u.true_labels.push_back(-1);
  }
  u.revealed.assign(u.num_samples(), !reveal_none);
  return u;
}

TEST(LocalDeviationFit, ClassifiesSeparableDataWithTrueSigns) {
  rng::Engine engine(501);
  const auto user = gaussian_user(engine, 30, 3.0);
  const auto ctx = PlosUserContext::from_user(user);
  const linalg::Vector w0{0.05, 0.0, 0.0};  // weak but correctly oriented
  std::vector<int> signs;
  for (std::size_t i : ctx.unlabeled) signs.push_back(user.true_labels[i]);

  const auto fit =
      fit_local_deviation(ctx, signs, w0, /*lambda_over_t=*/1.0, 10.0, 1.0,
                          1e-3, 100);
  for (std::size_t i = 0; i < user.num_samples(); ++i) {
    const int predicted =
        linalg::dot(fit.weights, user.samples[i]) >= 0.0 ? 1 : -1;
    EXPECT_EQ(predicted, user.true_labels[i]);
  }
  EXPECT_GE(fit.objective, 0.0);
}

TEST(LocalDeviationFit, EmptyUserReturnsGlobalWeights) {
  data::UserData empty;
  const auto ctx = PlosUserContext::from_user(empty);
  const linalg::Vector w0{1.0, -2.0};
  const auto fit = fit_local_deviation(ctx, {}, w0, 1.0, 10.0, 1.0, 1e-3, 50);
  EXPECT_TRUE(linalg::approx_equal(fit.weights, w0, 0.0));
  EXPECT_DOUBLE_EQ(fit.objective, 0.0);
}

TEST(LocalDeviationFit, ObjectiveBeatsZeroDeviation) {
  // The fit minimizes (λ/T)||v||² + ξ; v = 0 is feasible, so the optimal
  // objective can never exceed the slack of the raw global weights.
  rng::Engine engine(502);
  const auto user = gaussian_user(engine, 25, 2.0);
  const auto ctx = PlosUserContext::from_user(user);
  const linalg::Vector w0 = engine.gaussian_vector(3, 0.0, 0.1);
  const auto signs = cccp_signs(ctx, w0);

  const auto fit = fit_local_deviation(ctx, signs, w0, 2.0, 10.0, 1.0,
                                       1e-3, 100);
  // ξ at v=0 equals the most violated constraint's violation at w0.
  const auto plane = most_violated_constraint(ctx, signs, w0, 10.0, 1.0);
  const double zero_dev_objective =
      std::max(0.0, plane.offset - linalg::dot(plane.s, w0));
  EXPECT_LE(fit.objective, zero_dev_objective + 1e-4);
}

TEST(LocalDeviationFit, IsTheProxLoopOnAnEmptyBlockWithoutSeeds) {
  rng::Engine engine(505);
  const auto user = gaussian_user(engine, 12, 1.5);
  const auto ctx = PlosUserContext::from_user(user);
  const linalg::Vector w0 = engine.gaussian_vector(3, 0.0, 0.2);
  const auto signs = cccp_signs(ctx, w0);
  const double lambda_over_t = 0.7;

  const auto fit = fit_local_deviation(ctx, signs, w0, lambda_over_t, 10.0,
                                       1.0, 1e-3, 50);

  // The same loop on a fresh block of the fit's scale κ = T/(2λ).
  qp::SimplexBlock block(1.0 / (2.0 * lambda_over_t));
  linalg::Vector shifted;
  const auto solved = solve_prox_cutting_planes(
      ctx, signs, 10.0, 1.0, w0, block, shifted, 1e-3, 50);
  ASSERT_GT(block.planes.size(), 0u);
  EXPECT_EQ(fit.weights, solved.w);
  const linalg::Vector v = linalg::scaled(block.z, block.scale());
  EXPECT_EQ(fit.objective,
            lambda_over_t * linalg::squared_norm(v) + solved.xi);
}

// Property of the prox cutting-plane loop shared by the device solve and
// the local-deviation fit. At return:
//   * no plane beats the slack at (w, ξ) by more than ε, unless the plane
//     cap was spent;
//   * ξ = max(0, max_a b_a − s_a·w) over the working set;
//   * z = Σγ·s and w = center + κ·z, bit for bit (w = center before any
//     solve).
// Each seed calls the loop the way a device does: twice in one CCCP round
// at two prox centers (the second call re-solves the held planes), then
// once in a new round on a fresh block.
enum class LoopUser { kLabeled, kLabelFree, kEmpty, kCapBound };

class ProxLoopProperty : public ::testing::TestWithParam<std::uint64_t> {};

bool same_bits(std::span<const double> a, std::span<const double> b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(a[i]) !=
        std::bit_cast<std::uint64_t>(b[i])) {
      return false;
    }
  }
  return true;
}

TEST_P(ProxLoopProperty, StopsAtEpsilonOrCapWithExactSlackAndPrimal) {
  rng::Engine engine(GetParam() * 29 + 3);
  const auto kind = static_cast<LoopUser>(GetParam() % 4);
  const std::size_t dim = 3;
  data::UserData user;
  if (kind != LoopUser::kEmpty) {
    const std::size_t m =
        4 + static_cast<std::size_t>(engine.uniform_int(0, 20));
    for (std::size_t i = 0; i < m; ++i) {
      user.samples.push_back(engine.gaussian_vector(dim));
      user.true_labels.push_back(engine.bernoulli(0.5) ? 1 : -1);
      user.revealed.push_back(kind != LoopUser::kLabelFree &&
                              engine.bernoulli(0.6));
    }
  }
  const auto ctx = PlosUserContext::from_user(user);
  const double cl = engine.uniform(0.5, 10.0);
  const double cu = engine.uniform(0.1, 2.0);
  const double kappa = engine.uniform(0.2, 5.0);
  const bool cap_bound = kind == LoopUser::kCapBound;
  const double epsilon = cap_bound ? 1e-12 : 1e-3;
  const int cap = cap_bound ? 2 : 200;

  qp::SimplexBlock block(kappa);
  linalg::Vector shifted;
  linalg::Vector center = engine.gaussian_vector(dim, 0.0, 0.3);
  std::vector<int> signs = cccp_signs(ctx, center);
  for (int call = 0; call < 3; ++call) {
    if (call == 2) block = qp::SimplexBlock(kappa);
    const std::size_t held = block.planes.size();
    const auto solved = solve_prox_cutting_planes(
        ctx, signs, cl, cu, center, block, shifted, epsilon, cap);
    SCOPED_TRACE(testing::Message() << "call " << call);

    const std::size_t appended = block.planes.size() - held;
    ASSERT_LE(appended, static_cast<std::size_t>(cap));
    EXPECT_EQ(solved.qp_solves,
              static_cast<int>(appended) + (held > 0 ? 1 : 0));
    EXPECT_EQ(solved.qp_unconverged, 0);
    const bool spent = appended == static_cast<std::size_t>(cap);
    if (kind == LoopUser::kEmpty) {
      EXPECT_EQ(appended, 0u);
    } else if (cap_bound && call == 0) {
      EXPECT_TRUE(spent);
    } else if (!cap_bound) {
      EXPECT_FALSE(spent);
    }
    if (!spent && ctx.num_samples() > 0) {
      const CuttingPlane plane =
          most_violated_constraint(ctx, signs, solved.w, cl, cu);
      EXPECT_LE(constraint_violation(plane, solved.w, solved.xi), epsilon);
    }

    double xi = 0.0;
    for (std::size_t a = 0; a < block.planes.size(); ++a) {
      xi = std::max(xi, block.linear[a] - linalg::dot(block.planes[a],
                                                      solved.w));
    }
    EXPECT_TRUE(same_bits({&solved.xi, 1}, {&xi, 1}));

    linalg::Vector z = linalg::zeros(dim);
    for (std::size_t a = 0; a < block.planes.size(); ++a) {
      if (block.gamma[a] != 0.0) {
        linalg::axpy(block.gamma[a], block.planes[a], z);
      }
    }
    EXPECT_TRUE(same_bits(block.z, z));
    linalg::Vector w = center;
    if (!block.planes.empty()) linalg::axpy(kappa, z, w);
    EXPECT_TRUE(same_bits(solved.w, w));

    // The next call moves the prox center, as the next ADMM iteration does.
    for (double& c : center) c += engine.gaussian(0.0, 0.1);
  }
}

INSTANTIATE_TEST_SUITE_P(Users, ProxLoopProperty,
                         ::testing::Range<std::uint64_t>(0, 24));

TEST(ClusterInitialSigns, RecoversCleanClusterStructure) {
  // w0 classifies at chance on this user; the user's own two clean blobs
  // plus polarity alignment should produce near-perfect signs.
  rng::Engine engine(503);
  const auto user = gaussian_user(engine, 40, 3.0);
  const auto ctx = PlosUserContext::from_user(user);
  // Mostly-correct but weak global orientation.
  const linalg::Vector w0{0.03, 0.01, 0.0};
  const auto signs = cluster_initial_signs(ctx, w0, 10.0, 10.0, 1.0, 7);
  std::size_t correct = 0;
  for (std::size_t k = 0; k < ctx.unlabeled.size(); ++k) {
    if (signs[k] == user.true_labels[ctx.unlabeled[k]]) ++correct;
  }
  EXPECT_GT(static_cast<double>(correct) /
                static_cast<double>(ctx.unlabeled.size()),
            0.95);
}

TEST(ClusterInitialSigns, TinyUsersFallBackToWeightSigns) {
  data::UserData u;
  u.samples = {{1.0, 1.0}, {-1.0, 1.0}};
  u.true_labels = {1, -1};
  u.revealed = {false, false};
  const auto ctx = PlosUserContext::from_user(u);
  const linalg::Vector w0{1.0, 0.0};
  const auto signs = cluster_initial_signs(ctx, w0, 1.0, 10.0, 1.0, 7);
  EXPECT_EQ(signs, cccp_signs(ctx, w0));
}

TEST(ClusterInitialSigns, RejectsLabeledUsers) {
  rng::Engine engine(504);
  const auto user = gaussian_user(engine, 5, 2.0, /*reveal_none=*/false);
  const auto ctx = PlosUserContext::from_user(user);
  EXPECT_THROW(
      cluster_initial_signs(ctx, linalg::Vector{0.0, 0.0, 0.0}, 1.0, 10.0,
                            1.0, 7),
      PreconditionError);
}

TEST(RoundSigns, TwoMeansOnlyForALabelFreeUserInTheFirstRound) {
  rng::Engine engine(505);
  const auto label_free = gaussian_user(engine, 40, 3.0);
  const auto labeled = gaussian_user(engine, 5, 2.0, /*reveal_none=*/false);
  const auto free_ctx = PlosUserContext::from_user(label_free);
  const auto labeled_ctx = PlosUserContext::from_user(labeled);
  // Weights along the noise axis split each blob at random; with a cheap
  // deviation (λ/T = 0.1) the 2-means path moves off their signs.
  const linalg::Vector w{0.0, 1.0, 0.0};
  const auto clustered = cluster_initial_signs(free_ctx, w, 0.1, 10.0, 1.0, 7);
  ASSERT_NE(clustered, cccp_signs(free_ctx, w));

  struct Case {
    const PlosUserContext* ctx;
    bool first_round;
    bool two_means;
  };
  for (const Case& c : {Case{&free_ctx, true, true},
                        Case{&free_ctx, false, false},
                        Case{&labeled_ctx, true, false},
                        Case{&labeled_ctx, false, false}}) {
    SCOPED_TRACE(::testing::Message() << "label-free " << c.ctx->labeled.empty()
                                      << " first round " << c.first_round);
    const auto signs =
        round_signs(*c.ctx, w, c.first_round, 0.1, 10.0, 1.0, 7);
    EXPECT_EQ(signs, c.two_means ? clustered : cccp_signs(*c.ctx, w));
  }
}

// run_cccp against scripted objective sequences. Round c returns
// objectives[c] (nullopt asks the loop to stop); every case also checks
// the previous objective each round is handed.
TEST(RunCccp, ScriptedObjectiveSequences) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  struct Script {
    const char* name;
    int max_iterations;
    double tolerance;
    std::vector<std::optional<double>> objectives;
    int rounds;
  };
  const std::vector<Script> scripts = {
      {"tolerance never met: runs the cap", 4, 1e-4,
       {8.0, 4.0, 2.0, 1.0, 0.5}, 4},
      {"stops on tolerance", 8, 1e-4, {8.0, 5.0, 5.0001, 1.0}, 3},
      {"tolerance on an increase", 8, 1e-4, {8.0, 5.0, 5.0002}, 3},
      {"round 0 never stops, at any tolerance", 8, kInf, {1.0, 7.0, 7.0}, 2},
      {"round 0 never stops on an infinite objective", 8, 1e-4,
       {kInf, 3.0, 3.0}, 3},
      {"callback stop ends the loop", 8, 1e-4, {8.0, std::nullopt, 1.0}, 2},
      {"callback stop in round 0", 8, 1e-4, {std::nullopt, 1.0}, 1},
      {"no rounds at a zero cap", 0, 1e-4, {1.0}, 0},
  };
  for (const Script& script : scripts) {
    SCOPED_TRACE(script.name);
    CccpOptions options;
    options.max_iterations = script.max_iterations;
    options.objective_tolerance = script.tolerance;
    int calls = 0;
    const int rounds =
        run_cccp(options, [&](int round, double previous) {
          EXPECT_EQ(round, calls);
          const double expected_previous =
              round == 0 ? kInf : script.objectives[round - 1].value();
          EXPECT_EQ(previous, expected_previous);
          ++calls;
          return script.objectives.at(static_cast<std::size_t>(round));
        });
    EXPECT_EQ(rounds, script.rounds);
    EXPECT_EQ(calls, script.rounds);
  }
}

TEST(MostViolated, SignsSizeMismatchThrows) {
  const auto user = small_user();
  const auto ctx = PlosUserContext::from_user(user);
  const Vector w{0.0, 0.0};
  const std::vector<int> wrong_signs{1};
  EXPECT_THROW(most_violated_constraint(ctx, wrong_signs, w, 1.0, 1.0),
               PreconditionError);
}

}  // namespace
}  // namespace plos::core
