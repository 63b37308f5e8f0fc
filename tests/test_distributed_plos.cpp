// Tests for the distributed (ADMM) PLOS trainer, including agreement with
// the centralized solver and network accounting.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "common/assert.hpp"
#include "core/centralized_plos.hpp"
#include "core/distributed_plos.hpp"
#include "core/evaluation.hpp"
#include "data/labeling.hpp"
#include "data/synthetic.hpp"
#include "net/simnet.hpp"
#include "obs/journal.hpp"
#include "rng/engine.hpp"

namespace plos::core {
namespace {

data::MultiUserDataset make_population(std::size_t num_users,
                                       double max_rotation,
                                       std::size_t num_providers,
                                       double training_rate,
                                       std::uint64_t seed,
                                       std::size_t points_per_class = 30) {
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

DistributedPlosOptions fast_options() {
  DistributedPlosOptions options;
  options.params.lambda = 100.0;
  options.params.cl = 10.0;
  options.params.cu = 1.0;
  options.cutting_plane.epsilon = 1e-2;
  options.cccp.max_iterations = 4;
  options.max_admm_iterations = 120;
  options.eps_abs = 1e-3;
  return options;
}

CentralizedPlosOptions matching_centralized() {
  CentralizedPlosOptions options;
  options.params.lambda = 100.0;
  options.params.cl = 10.0;
  options.params.cu = 1.0;
  options.cutting_plane.epsilon = 1e-2;
  options.cccp.max_iterations = 4;
  return options;
}

TEST(DistributedPlos, LearnsOnSimplePopulation) {
  auto dataset = make_population(4, 0.3, 2, 0.4, 1);
  const auto result = train_distributed_plos(dataset, fast_options());
  const auto report = evaluate(dataset, predict_all(dataset, result.model));
  EXPECT_GT(report.providers, 0.8);
  EXPECT_GT(report.non_providers, 0.8);
}

TEST(DistributedPlos, AccuracyCloseToCentralized) {
  // The paper's Fig. 11: |accuracy difference| stays within a few percent.
  auto dataset = make_population(6, std::numbers::pi / 3.0, 3, 0.3, 2);
  const auto distributed = train_distributed_plos(dataset, fast_options());
  const auto centralized =
      train_centralized_plos(dataset, matching_centralized());
  const auto rd = evaluate(dataset, predict_all(dataset, distributed.model));
  const auto rc = evaluate(dataset, predict_all(dataset, centralized.model));
  EXPECT_NEAR(rd.providers, rc.providers, 0.10);
  EXPECT_NEAR(rd.non_providers, rc.non_providers, 0.10);
}

TEST(DistributedPlos, ResidualsShrinkWithinCccpRound) {
  auto dataset = make_population(4, 0.4, 2, 0.4, 3);
  const auto result = train_distributed_plos(dataset, fast_options());
  const auto& primal = result.diagnostics.primal_residual_trace;
  ASSERT_GE(primal.size(), 3u);
  // Compare early vs late within the trace: consensus must tighten.
  EXPECT_LT(primal.back(), primal.front() + 1e-12);
}

TEST(DistributedPlos, DiagnosticsPopulated) {
  auto dataset = make_population(3, 0.2, 2, 0.4, 4);
  const auto result = train_distributed_plos(dataset, fast_options());
  EXPECT_GE(result.diagnostics.cccp_iterations, 1);
  EXPECT_GT(result.diagnostics.admm_iterations_total, 0);
  EXPECT_EQ(result.diagnostics.objective_trace.size(),
            result.diagnostics.primal_residual_trace.size());
}

TEST(DistributedPlos, EveryDeviceQpSolveConverges) {
  auto dataset = make_population(4, 0.4, 2, 0.4, 3);
  const auto result = train_distributed_plos(dataset, fast_options());
  EXPECT_GT(result.diagnostics.qp_solves, 0);
  EXPECT_EQ(result.diagnostics.qp_unconverged, 0);
}

TEST(DistributedPlos, NetworkAccountingPopulated) {
  auto dataset = make_population(4, 0.3, 2, 0.4, 5);
  net::SimNetwork network(4, net::DeviceProfile{}, net::LinkProfile{});
  const auto result =
      train_distributed_plos(dataset, fast_options(), &network);
  (void)result;
  EXPECT_GT(network.rounds_completed(), 0u);
  EXPECT_GT(network.mean_bytes_per_device(), 0.0);
  EXPECT_GT(network.total_simulated_seconds(), 0.0);
  EXPECT_GT(network.total_device_energy(), 0.0);
  for (std::size_t t = 0; t < 4; ++t) {
    EXPECT_GT(network.device_metrics(t).bytes_received, 0u);
    EXPECT_GT(network.device_metrics(t).bytes_sent, 0u);
  }
  // Raw data never moves: per-device traffic must be far below the size of
  // its raw samples (30*2 samples × 3 dims × 8 bytes = 1.4 KB per message
  // would be the give-away; each model message is ~3 doubles per vector).
  const auto& m = network.device_metrics(0);
  const double bytes_per_message =
      static_cast<double>(m.bytes_sent) /
      static_cast<double>(m.messages_sent);
  EXPECT_LT(bytes_per_message, 200.0);
}

TEST(DistributedPlos, DefaultFleetMatchesExplicitNetwork) {
  // Without a network the trainer simulates a default phone fleet and
  // discards it: model and journal (traffic deltas included) are exactly
  // those of a run on an explicit default SimNetwork.
  auto dataset = make_population(4, 0.3, 2, 0.4, 12, 15);
  obs::Journal implicit_journal;
  auto implicit_options = fast_options();
  implicit_options.journal = &implicit_journal;
  const auto implicit = train_distributed_plos(dataset, implicit_options);

  obs::Journal explicit_journal;
  auto explicit_options = fast_options();
  explicit_options.journal = &explicit_journal;
  net::SimNetwork network(4, net::DeviceProfile{}, net::LinkProfile{});
  const auto with_network =
      train_distributed_plos(dataset, explicit_options, &network);

  EXPECT_TRUE(linalg::approx_equal(implicit.model.global_weights,
                                   with_network.model.global_weights, 0.0));
  for (std::size_t t = 0; t < 4; ++t) {
    EXPECT_TRUE(linalg::approx_equal(implicit.model.user_deviations[t],
                                     with_network.model.user_deviations[t],
                                     0.0));
  }
  ASSERT_GT(implicit_journal.size(), 0u);
  EXPECT_EQ(implicit_journal.to_jsonl(), explicit_journal.to_jsonl());
  EXPECT_GT(network.mean_bytes_per_device(), 0.0);
}

TEST(DistributedPlos, NetworkDeviceCountMismatchThrows) {
  auto dataset = make_population(3, 0.2, 1, 0.4, 6);
  net::SimNetwork network(2, net::DeviceProfile{}, net::LinkProfile{});
  EXPECT_THROW(train_distributed_plos(dataset, fast_options(), &network),
               PreconditionError);
}

TEST(DistributedPlos, RunsWithNoLabelsAtAll) {
  auto dataset = make_population(3, 0.0, 0, 0.0, 8, 15);
  const auto result = train_distributed_plos(dataset, fast_options());
  EXPECT_EQ(result.model.num_users(), 3u);
  for (double v : result.diagnostics.objective_trace) {
    EXPECT_TRUE(std::isfinite(v));
  }
}

TEST(DistributedPlos, InvalidOptionsThrow) {
  auto dataset = make_population(2, 0.0, 1, 0.4, 9, 10);
  auto options = fast_options();
  options.rho = 0.0;
  EXPECT_THROW(train_distributed_plos(dataset, options), PreconditionError);
}

TEST(DistributedPlos, DeterministicGivenOptions) {
  auto dataset = make_population(3, 0.3, 2, 0.4, 10, 15);
  const auto a = train_distributed_plos(dataset, fast_options());
  const auto b = train_distributed_plos(dataset, fast_options());
  EXPECT_TRUE(linalg::approx_equal(a.model.global_weights,
                                   b.model.global_weights, 0.0));
}

TEST(DistributedPlos, MultiThreadedTrainingMatchesSerialBitwise) {
  // Devices solve their per-round prox-QPs concurrently when num_threads >
  // 1; model and byte ledger must match the serial schedule bitwise (full
  // contract in test_parallel_equivalence — this in-binary smoke check is
  // what the TSan CI job exercises).
  auto dataset = make_population(4, 0.5, 2, 0.4, 22, 15);
  auto threaded_options = fast_options();
  threaded_options.num_threads = 4;
  net::SimNetwork serial_net(4, net::DeviceProfile{}, net::LinkProfile{});
  net::SimNetwork threaded_net(4, net::DeviceProfile{}, net::LinkProfile{});
  const auto serial =
      train_distributed_plos(dataset, fast_options(), &serial_net);
  const auto threaded =
      train_distributed_plos(dataset, threaded_options, &threaded_net);
  EXPECT_TRUE(linalg::approx_equal(serial.model.global_weights,
                                   threaded.model.global_weights, 0.0));
  for (std::size_t t = 0; t < 4; ++t) {
    EXPECT_TRUE(linalg::approx_equal(serial.model.user_deviations[t],
                                     threaded.model.user_deviations[t], 0.0));
    EXPECT_EQ(serial_net.device_metrics(t).bytes_sent,
              threaded_net.device_metrics(t).bytes_sent);
    EXPECT_EQ(serial_net.device_metrics(t).bytes_received,
              threaded_net.device_metrics(t).bytes_received);
  }
  EXPECT_EQ(serial.diagnostics.objective_trace,
            threaded.diagnostics.objective_trace);
  EXPECT_EQ(serial_net.rounds_completed(), threaded_net.rounds_completed());
}

TEST(DistributedPlos, RelaxedConsensusCutsAdmmRounds) {
  // The e2ebench sync-admm population and options (figure 12's distributed
  // case): 20 users, 50 points per class, rotations up to pi/2, every other
  // user a provider revealing 5 %. Over seeds 1-3 (3 CCCP rounds each),
  // plain Eq. 23 spends 56 + 62 + 68 = 186 ADMM iterations (~62 per model);
  // the over-relaxed consensus step spends 37 + 45 + 41 = 123 (~41).
  constexpr std::size_t kUsers = 20;
  int iterations = 0;
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    data::SyntheticSpec spec;
    spec.num_users = kUsers;
    spec.points_per_class = 50;
    spec.max_rotation = std::numbers::pi / 2.0;
    rng::Engine engine(seed);
    auto dataset = data::generate_synthetic(spec, engine);
    std::vector<std::size_t> providers;
    for (std::size_t t = 0; t < kUsers; t += 2) providers.push_back(t);
    data::reveal_labels(dataset, providers, 0.05, engine);

    DistributedPlosOptions options;
    options.params.lambda = 100.0;
    options.params.cl = 10.0;
    options.params.cu = 1.0;
    options.cutting_plane.epsilon = 5e-2;
    options.cccp.max_iterations = 3;
    options.rho = 1.0;
    options.eps_abs = 1e-3;
    options.max_admm_iterations = 150;
    PersonalizedModel reference;
    for (int threads : {1, 4}) {
      options.num_threads = threads;
      const auto result = train_distributed_plos(dataset, options);
      for (double x : result.model.global_weights) {
        ASSERT_TRUE(std::isfinite(x));
      }
      for (const auto& deviation : result.model.user_deviations) {
        for (double x : deviation) ASSERT_TRUE(std::isfinite(x));
      }
      if (threads == 1) {
        reference = result.model;
        iterations += result.diagnostics.admm_iterations_total;
        continue;
      }
      EXPECT_TRUE(linalg::approx_equal(reference.global_weights,
                                       result.model.global_weights, 0.0));
      for (std::size_t t = 0; t < kUsers; ++t) {
        EXPECT_TRUE(linalg::approx_equal(reference.user_deviations[t],
                                         result.model.user_deviations[t],
                                         0.0));
      }
    }
  }
  EXPECT_LT(iterations, 150) << iterations << " ADMM iterations on seeds 1-3";
}

}  // namespace
}  // namespace plos::core
