// Tests for the centralized PLOS trainer (CCCP + cutting planes + dual QP).
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "common/assert.hpp"
#include "core/baselines.hpp"
#include "core/centralized_plos.hpp"
#include "core/evaluation.hpp"
#include "data/labeling.hpp"
#include "data/synthetic.hpp"
#include "obs/metrics.hpp"
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

CentralizedPlosOptions fast_options() {
  CentralizedPlosOptions options;
  options.params.lambda = 100.0;
  options.params.cl = 10.0;
  options.params.cu = 1.0;
  options.cutting_plane.epsilon = 1e-2;
  options.cccp.max_iterations = 5;
  return options;
}

TEST(CentralizedPlos, SingleFullyLabeledUserLearnsClassifier) {
  auto dataset = make_population(1, 0.0, 1, 1.0, 1);
  const auto result = train_centralized_plos(dataset, fast_options());
  const auto report = evaluate(dataset, predict_all(dataset, result.model));
  // 10% label noise bounds attainable accuracy near 0.9.
  EXPECT_GT(report.providers, 0.82);
}

TEST(CentralizedPlos, UnlabeledUserBorrowsKnowledge) {
  // Identical distributions; only user 0 provides labels. User 1 must still
  // be classified well through the shared hyperplane.
  auto dataset = make_population(2, 0.0, 1, 0.5, 2);
  const auto result = train_centralized_plos(dataset, fast_options());
  const auto report = evaluate(dataset, predict_all(dataset, result.model));
  EXPECT_GT(report.non_providers, 0.82);
}

TEST(CentralizedPlos, ObjectiveTraceDecreasesAcrossCccp) {
  auto dataset = make_population(4, std::numbers::pi / 2.0, 2, 0.3, 3);
  const auto result = train_centralized_plos(dataset, fast_options());
  const auto& trace = result.diagnostics.objective_trace;
  ASSERT_GE(trace.size(), 1u);
  for (std::size_t i = 1; i < trace.size(); ++i) {
    EXPECT_LE(trace[i], trace[i - 1] * 1.02 + 1e-6)
        << "CCCP objective rose at iteration " << i;
  }
  for (double v : trace) EXPECT_TRUE(std::isfinite(v));
}

TEST(CentralizedPlos, DiagnosticsPopulated) {
  auto dataset = make_population(3, 0.5, 2, 0.3, 4);
  const auto result = train_centralized_plos(dataset, fast_options());
  EXPECT_GE(result.diagnostics.cccp_iterations, 1);
  EXPECT_GT(result.diagnostics.qp_solves, 0);
  EXPECT_GT(result.diagnostics.final_constraint_count, 0u);
  EXPECT_GE(result.diagnostics.train_seconds, 0.0);
  // Per-round QP solves cover every started CCCP round and sum up to the
  // aggregate QP-solve count.
  ASSERT_EQ(result.diagnostics.round_qp_solves.size(),
            static_cast<std::size_t>(result.diagnostics.cccp_iterations));
  int per_round_qp_total = 0;
  for (const int round_qp_solves : result.diagnostics.round_qp_solves) {
    EXPECT_GT(round_qp_solves, 0);
    per_round_qp_total += round_qp_solves;
  }
  EXPECT_EQ(per_round_qp_total, result.diagnostics.qp_solves);
}

TEST(CentralizedPlos, EveryDualSolveConverges) {
  // The block sweeps solve every joint dual to its exact stop rule, and the
  // diagnostics report exactly what the QP layer counted.
  auto dataset = make_population(6, 0.8, 3, 0.3, 4);
  auto& registry = obs::metrics();
  registry.set_enabled(true);
  registry.reset_values();
  const auto result = train_centralized_plos(dataset, fast_options());
  const double counted =
      registry.counter("qp.capped_simplex.unconverged").value();
  registry.set_enabled(false);
  EXPECT_GT(result.diagnostics.qp_solves, 0);
  EXPECT_EQ(result.diagnostics.qp_unconverged, 0);
  EXPECT_EQ(static_cast<double>(result.diagnostics.qp_unconverged), counted);
}

TEST(CentralizedPlos, TrainingEmitsMetricsSnapshot) {
  // Integration check for the observability layer: with the global registry
  // enabled, a training run must leave behind a non-empty snapshot, and the
  // accepted-round objective trace is monotone (the descent safeguard).
  obs::metrics().set_enabled(true);
  obs::metrics().reset_values();
  auto dataset = make_population(3, 0.5, 2, 0.3, 4);
  const auto result = train_centralized_plos(dataset, fast_options());
  const std::string snapshot = obs::metrics().to_json();
  obs::metrics().set_enabled(false);

  EXPECT_GT(snapshot.size(), 2u) << "empty metrics snapshot: " << snapshot;
  EXPECT_NE(snapshot.find("qp.capped_simplex.solves"), std::string::npos);
  EXPECT_NE(snapshot.find("plos.cutting_plane.constraints_added"),
            std::string::npos);

  const auto& objective = result.diagnostics.objective_trace;
  ASSERT_FALSE(objective.empty());
  for (std::size_t i = 1; i < objective.size(); ++i) {
    EXPECT_LE(objective[i], objective[i - 1] + 1e-9)
        << "objective rose at accepted round " << i;
  }
  EXPECT_GT(obs::metrics().counter("qp.capped_simplex.solves").value(), 0.0);
}

TEST(CentralizedPlos, LargeLambdaShrinksDeviations) {
  auto dataset = make_population(4, std::numbers::pi / 3.0, 4, 0.4, 5);
  auto options = fast_options();
  options.params.lambda = 1e6;
  const auto tied = train_centralized_plos(dataset, options);
  options.params.lambda = 1.0;
  const auto loose = train_centralized_plos(dataset, options);

  double tied_dev = 0.0, loose_dev = 0.0;
  for (std::size_t t = 0; t < 4; ++t) {
    tied_dev += linalg::norm(tied.model.user_deviations[t]);
    loose_dev += linalg::norm(loose.model.user_deviations[t]);
  }
  EXPECT_LT(tied_dev, 0.2 * loose_dev + 1e-9);
}

TEST(CentralizedPlos, PersonalizationBeatsGlobalOnRotatedUsers) {
  // Strong rotations: a single global hyperplane cannot fit everyone.
  auto dataset =
      make_population(6, 5.0 * std::numbers::pi / 6.0, 6, 0.4, 6, 60);
  auto options = fast_options();
  options.params.lambda = 10.0;
  const auto result = train_centralized_plos(dataset, options);
  const auto plos_report =
      evaluate(dataset, predict_all(dataset, result.model));
  const auto all_report = evaluate(dataset, run_all_baseline(dataset));
  EXPECT_GT(plos_report.providers, all_report.providers + 0.05);
}

TEST(CentralizedPlos, RunsWithNoLabelsAtAll) {
  auto dataset = make_population(3, 0.0, 0, 0.0, 7, 20);
  const auto result = train_centralized_plos(dataset, fast_options());
  EXPECT_TRUE(std::isfinite(
      plos_objective(dataset, result.model, fast_options().params)));
  EXPECT_EQ(result.model.num_users(), 3u);
}

TEST(CentralizedPlos, DeterministicGivenOptions) {
  auto dataset = make_population(3, 0.4, 2, 0.3, 8, 20);
  const auto a = train_centralized_plos(dataset, fast_options());
  const auto b = train_centralized_plos(dataset, fast_options());
  EXPECT_TRUE(linalg::approx_equal(a.model.global_weights,
                                   b.model.global_weights, 0.0));
}

TEST(CentralizedPlos, InvalidOptionsThrow) {
  auto dataset = make_population(2, 0.0, 1, 0.3, 9, 10);
  auto options = fast_options();
  options.params.lambda = 0.0;
  EXPECT_THROW(train_centralized_plos(dataset, options), PreconditionError);
  data::MultiUserDataset empty;
  EXPECT_THROW(train_centralized_plos(empty, fast_options()),
               PreconditionError);
}

TEST(PlosObjective, ZeroModelCountsFullHinge) {
  auto dataset = make_population(2, 0.0, 1, 0.5, 10, 10);
  const auto model = PersonalizedModel::zeros(2, dataset.dim());
  PlosHyperParams params;
  params.lambda = 100.0;
  params.cl = 1.0;
  params.cu = 1.0;
  // All margins are 0, every hinge is 1, normalized per user: Σ_t 1 = 2.
  EXPECT_NEAR(plos_objective(dataset, model, params), 2.0, 1e-12);
}

TEST(PlosObjective, UserCountMismatchThrows) {
  auto dataset = make_population(2, 0.0, 1, 0.5, 11, 10);
  const auto model = PersonalizedModel::zeros(3, dataset.dim());
  EXPECT_THROW(plos_objective(dataset, model, PlosHyperParams{}),
               PreconditionError);
}

TEST(CentralizedPlos, MultiThreadedTrainingMatchesSerialBitwise) {
  // Per-user separation and sign fitting run on a
  // pool when num_threads > 1; the result must equal the serial run down
  // to the last bit (the full contract lives in test_parallel_equivalence,
  // this is the in-binary smoke check TSan exercises).
  auto dataset = make_population(5, 0.8, 3, 0.3, 21, 20);
  auto serial_options = fast_options();
  auto threaded_options = fast_options();
  threaded_options.num_threads = 4;
  const auto serial = train_centralized_plos(dataset, serial_options);
  const auto threaded = train_centralized_plos(dataset, threaded_options);
  ASSERT_EQ(serial.model.global_weights.size(),
            threaded.model.global_weights.size());
  for (std::size_t j = 0; j < serial.model.global_weights.size(); ++j) {
    EXPECT_EQ(serial.model.global_weights[j], threaded.model.global_weights[j]);
  }
  for (std::size_t t = 0; t < serial.model.num_users(); ++t) {
    for (std::size_t j = 0; j < serial.model.user_deviations[t].size(); ++j) {
      EXPECT_EQ(serial.model.user_deviations[t][j],
                threaded.model.user_deviations[t][j]);
    }
  }
  EXPECT_EQ(serial.diagnostics.objective_trace,
            threaded.diagnostics.objective_trace);
  EXPECT_EQ(serial.diagnostics.final_constraint_count,
            threaded.diagnostics.final_constraint_count);
}

}  // namespace
}  // namespace plos::core
