// Tests for the logistic-loss PLOS variant (smooth future-work extension).
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "common/assert.hpp"
#include "core/centralized_plos.hpp"
#include "core/cutting_plane.hpp"
#include "core/evaluation.hpp"
#include "core/logistic_plos.hpp"
#include "data/labeling.hpp"
#include "data/synthetic.hpp"
#include "rng/engine.hpp"

namespace plos::core {
namespace {

data::MultiUserDataset make_population(std::size_t num_users,
                                       double max_rotation,
                                       std::size_t num_providers,
                                       double training_rate,
                                       std::uint64_t seed,
                                       std::size_t points_per_class = 40) {
  data::SyntheticSpec spec;
  spec.num_users = num_users;
  spec.points_per_class = points_per_class;
  spec.max_rotation = max_rotation;
  rng::Engine engine(seed);
  auto dataset = data::generate_synthetic(spec, engine);
  std::vector<std::size_t> providers(num_providers);
  for (std::size_t i = 0; i < num_providers; ++i) providers[i] = i;
  data::reveal_labels(dataset, providers, training_rate, engine);
  return dataset;
}

LogisticPlosOptions fast_options() {
  LogisticPlosOptions options;
  options.params.lambda = 100.0;
  options.params.cl = 10.0;
  options.params.cu = 1.0;
  options.cccp.max_iterations = 5;
  return options;
}

TEST(LogisticPlos, LearnsSimplePopulation) {
  auto dataset = make_population(3, 0.3, 2, 0.4, 1);
  const auto result = train_logistic_plos(dataset, fast_options());
  const auto report = evaluate(dataset, predict_all(dataset, result.model));
  EXPECT_GT(report.providers, 0.8);
  EXPECT_GT(report.non_providers, 0.75);
}

TEST(LogisticPlos, ComparableToHingeVariant) {
  auto dataset = make_population(5, std::numbers::pi / 3.0, 3, 0.3, 2);
  const auto logistic = train_logistic_plos(dataset, fast_options());

  CentralizedPlosOptions hinge_options;
  hinge_options.params = fast_options().params;
  hinge_options.cutting_plane.epsilon = 1e-2;
  hinge_options.cccp.max_iterations = 5;
  const auto hinge = train_centralized_plos(dataset, hinge_options);

  const auto rl = evaluate(dataset, predict_all(dataset, logistic.model));
  const auto rh = evaluate(dataset, predict_all(dataset, hinge.model));
  EXPECT_NEAR(rl.overall, rh.overall, 0.08);
}

TEST(LogisticPlos, ObjectiveTraceDecreases) {
  auto dataset = make_population(4, 0.6, 2, 0.3, 3);
  const auto result = train_logistic_plos(dataset, fast_options());
  const auto& trace = result.diagnostics.objective_trace;
  ASSERT_GE(trace.size(), 1u);
  for (std::size_t i = 1; i < trace.size(); ++i) {
    EXPECT_LE(trace[i], trace[i - 1] * 1.02 + 1e-6);
  }
}

TEST(LogisticPlos, ImprovesOverSvmInitialization) {
  // The final model must score no worse than the initialization point
  // (pooled-SVM w0, zero deviations) on the non-convex objective.
  auto dataset = make_population(4, 0.5, 2, 0.4, 4);
  const auto options = fast_options();
  const auto result = train_logistic_plos(dataset, options);

  PersonalizedModel init = PersonalizedModel::zeros(4, dataset.dim());
  {
    std::vector<linalg::Vector> xs;
    std::vector<int> ys;
    for (const auto& u : dataset.users) {
      for (std::size_t i : u.revealed_indices()) {
        xs.push_back(u.samples[i]);
        ys.push_back(u.true_labels[i]);
      }
    }
    init.global_weights = fit_svm(std::move(xs), ys, 1.0).weights;
  }
  EXPECT_LE(logistic_plos_objective(dataset, result.model, options.params),
            logistic_plos_objective(dataset, init, options.params) + 1e-9);
}

TEST(LogisticPlos, ObjectiveValueSanity) {
  auto dataset = make_population(2, 0.0, 1, 0.5, 6, 10);
  const auto model = PersonalizedModel::zeros(2, dataset.dim());
  PlosHyperParams params;
  params.cl = 1.0;
  params.cu = 1.0;
  // All margins 0: every loss term is log(2), normalized per user -> 2log2.
  EXPECT_NEAR(logistic_plos_objective(dataset, model, params),
              2.0 * std::log(2.0), 1e-12);
}

TEST(LogisticPlos, RunsWithNoLabels) {
  auto dataset = make_population(3, 0.0, 0, 0.0, 7, 15);
  const auto result = train_logistic_plos(dataset, fast_options());
  EXPECT_EQ(result.model.num_users(), 3u);
  for (double v : result.diagnostics.objective_trace) {
    EXPECT_TRUE(std::isfinite(v));
  }
}

TEST(LogisticPlos, InvalidOptionsThrow) {
  auto dataset = make_population(2, 0.0, 1, 0.4, 8, 10);
  auto options = fast_options();
  options.params.lambda = 0.0;
  EXPECT_THROW(train_logistic_plos(dataset, options), PreconditionError);
}

TEST(LogisticPlos, DeterministicGivenOptions) {
  auto dataset = make_population(3, 0.4, 2, 0.4, 9, 15);
  const auto a = train_logistic_plos(dataset, fast_options());
  const auto b = train_logistic_plos(dataset, fast_options());
  EXPECT_TRUE(linalg::approx_equal(a.model.global_weights,
                                   b.model.global_weights, 0.0));
}

}  // namespace
}  // namespace plos::core
