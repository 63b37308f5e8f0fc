// Serial-equivalence suite: for every supported thread count, the
// centralized trainer, the distributed trainer, and all three baselines
// must produce results BITWISE identical to the single-threaded run — same
// w0 and v_t down to the last ulp, same objective traces, same SimNetwork
// byte ledgers. This is the determinism contract of DESIGN.md §8; any
// reduction reordering or RNG-stream drift introduced by future threading
// work fails here instead of silently changing benches.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/baselines.hpp"
#include "core/centralized_plos.hpp"
#include "core/distributed_plos.hpp"
#include "data/labeling.hpp"
#include "data/synthetic.hpp"
#include "net/simnet.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "rng/engine.hpp"
#include "sensing/body_sensor.hpp"
#include "sensing/har.hpp"

namespace plos::core {
namespace {

data::MultiUserDataset make_synth_population() {
  data::SyntheticSpec spec;
  spec.num_users = 6;
  spec.points_per_class = 20;
  spec.max_rotation = 1.2;
  rng::Engine engine(11);
  auto dataset = data::generate_synthetic(spec, engine);
  data::reveal_labels(dataset, {0, 2, 4}, 0.3, engine);
  return dataset;
}

data::MultiUserDataset make_body_population() {
  sensing::BodySensorSpec spec;
  spec.num_users = 4;
  spec.seconds_per_activity = 15.0;
  rng::Engine engine(12);
  auto dataset = sensing::generate_body_sensor_dataset(spec, engine);
  data::reveal_labels(dataset, {0, 2}, 0.25, engine);
  return dataset;
}

data::MultiUserDataset make_har_population() {
  sensing::HarSpec spec;
  spec.num_users = 5;
  spec.dim = 30;
  spec.samples_per_class = 10;
  rng::Engine engine(13);
  auto dataset = sensing::generate_har_dataset(spec, engine);
  data::reveal_labels(dataset, {0, 3}, 0.3, engine);
  return dataset;
}

void expect_bitwise_equal(const linalg::Vector& serial,
                          const linalg::Vector& threaded, const char* what) {
  ASSERT_EQ(serial.size(), threaded.size()) << what;
  for (std::size_t i = 0; i < serial.size(); ++i) {
    // Exact double comparison on purpose: the contract is bitwise identity,
    // not closeness.
    ASSERT_EQ(serial[i], threaded[i]) << what << " differs at " << i;
  }
}

void expect_models_equal(const PersonalizedModel& serial,
                         const PersonalizedModel& threaded) {
  expect_bitwise_equal(serial.global_weights, threaded.global_weights, "w0");
  ASSERT_EQ(serial.user_deviations.size(), threaded.user_deviations.size());
  for (std::size_t t = 0; t < serial.user_deviations.size(); ++t) {
    expect_bitwise_equal(serial.user_deviations[t],
                         threaded.user_deviations[t], "v_t");
  }
}

void expect_traces_equal(const std::vector<double>& serial,
                         const std::vector<double>& threaded,
                         const char* what) {
  ASSERT_EQ(serial.size(), threaded.size()) << what;
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(serial[i], threaded[i]) << what << " differs at entry " << i;
  }
}

void expect_predictions_equal(const std::vector<UserPrediction>& serial,
                              const std::vector<UserPrediction>& threaded) {
  ASSERT_EQ(serial.size(), threaded.size());
  for (std::size_t t = 0; t < serial.size(); ++t) {
    EXPECT_EQ(serial[t].match_clusters, threaded[t].match_clusters)
        << "user " << t;
    ASSERT_EQ(serial[t].labels, threaded[t].labels) << "user " << t;
  }
}

class SerialEquivalence : public ::testing::TestWithParam<int> {};

CentralizedPlosOptions centralized_options(int threads) {
  CentralizedPlosOptions options;
  options.cutting_plane.epsilon = 1e-2;
  options.cccp.max_iterations = 3;
  options.num_threads = threads;
  return options;
}

DistributedPlosOptions distributed_options(int threads) {
  DistributedPlosOptions options;
  options.cutting_plane.epsilon = 1e-2;
  options.cccp.max_iterations = 3;
  options.max_admm_iterations = 60;
  options.num_threads = threads;
  return options;
}

void check_centralized(const data::MultiUserDataset& dataset, int threads) {
  const auto serial = train_centralized_plos(dataset, centralized_options(1));
  const auto threaded =
      train_centralized_plos(dataset, centralized_options(threads));
  expect_models_equal(serial.model, threaded.model);
  expect_traces_equal(serial.diagnostics.objective_trace,
                      threaded.diagnostics.objective_trace, "objective");
  EXPECT_EQ(serial.diagnostics.cccp_iterations,
            threaded.diagnostics.cccp_iterations);
  EXPECT_EQ(serial.diagnostics.qp_solves, threaded.diagnostics.qp_solves);
  EXPECT_EQ(serial.diagnostics.final_constraint_count,
            threaded.diagnostics.final_constraint_count);
}

TEST_P(SerialEquivalence, CentralizedSynthetic) {
  check_centralized(make_synth_population(), GetParam());
}

TEST_P(SerialEquivalence, CentralizedBodySensor) {
  check_centralized(make_body_population(), GetParam());
}

TEST_P(SerialEquivalence, CentralizedHar) {
  check_centralized(make_har_population(), GetParam());
}

void check_distributed(const data::MultiUserDataset& dataset, int threads) {
  net::SimNetwork serial_net(dataset.num_users(), net::DeviceProfile{},
                             net::LinkProfile{});
  net::SimNetwork threaded_net(dataset.num_users(), net::DeviceProfile{},
                               net::LinkProfile{});
  const auto serial =
      train_distributed_plos(dataset, distributed_options(1), &serial_net);
  const auto threaded = train_distributed_plos(
      dataset, distributed_options(threads), &threaded_net);

  expect_models_equal(serial.model, threaded.model);
  expect_traces_equal(serial.diagnostics.objective_trace,
                      threaded.diagnostics.objective_trace, "objective");
  expect_traces_equal(serial.diagnostics.primal_residual_trace,
                      threaded.diagnostics.primal_residual_trace, "primal");
  expect_traces_equal(serial.diagnostics.dual_residual_trace,
                      threaded.diagnostics.dual_residual_trace, "dual");
  EXPECT_EQ(serial.diagnostics.admm_iterations_total,
            threaded.diagnostics.admm_iterations_total);
  EXPECT_EQ(serial.diagnostics.qp_solves, threaded.diagnostics.qp_solves);

  // The communication ledger is integer-exact, so the threaded simulation
  // must charge byte-for-byte what the serial one did — per device and for
  // the server.
  EXPECT_EQ(serial_net.rounds_completed(), threaded_net.rounds_completed());
  EXPECT_EQ(serial_net.server_metrics().bytes_sent,
            threaded_net.server_metrics().bytes_sent);
  EXPECT_EQ(serial_net.server_metrics().bytes_received,
            threaded_net.server_metrics().bytes_received);
  for (std::size_t t = 0; t < dataset.num_users(); ++t) {
    const auto& s = serial_net.device_metrics(t);
    const auto& p = threaded_net.device_metrics(t);
    EXPECT_EQ(s.bytes_sent, p.bytes_sent) << "device " << t;
    EXPECT_EQ(s.bytes_received, p.bytes_received) << "device " << t;
    EXPECT_EQ(s.messages_sent, p.messages_sent) << "device " << t;
    EXPECT_EQ(s.messages_received, p.messages_received) << "device " << t;
  }
}

TEST_P(SerialEquivalence, DistributedSynthetic) {
  check_distributed(make_synth_population(), GetParam());
}

TEST_P(SerialEquivalence, DistributedBodySensor) {
  check_distributed(make_body_population(), GetParam());
}

TEST_P(SerialEquivalence, DistributedHar) {
  check_distributed(make_har_population(), GetParam());
}

void check_baselines(const data::MultiUserDataset& dataset, int threads) {
  BaselineOptions serial_options;
  BaselineOptions threaded_options;
  threaded_options.num_threads = threads;
  expect_predictions_equal(run_all_baseline(dataset, serial_options),
                           run_all_baseline(dataset, threaded_options));
  expect_predictions_equal(run_single_baseline(dataset, serial_options),
                           run_single_baseline(dataset, threaded_options));
  GroupBaselineOptions serial_group;
  GroupBaselineOptions threaded_group;
  threaded_group.base.num_threads = threads;
  EXPECT_EQ(group_users(dataset, serial_group),
            group_users(dataset, threaded_group));
  expect_predictions_equal(run_group_baseline(dataset, serial_group),
                           run_group_baseline(dataset, threaded_group));
}

TEST_P(SerialEquivalence, BaselinesSynthetic) {
  check_baselines(make_synth_population(), GetParam());
}

TEST_P(SerialEquivalence, BaselinesBodySensor) {
  check_baselines(make_body_population(), GetParam());
}

TEST_P(SerialEquivalence, BaselinesHar) {
  check_baselines(make_har_population(), GetParam());
}

// The global registry's snapshot after one run, minus the wall-clock and
// energy instruments (names ending in "seconds" or "joules"), which no
// contract pins.
std::string deterministic_snapshot() {
  const auto snapshot = obs::json::parse(obs::metrics().to_json());
  EXPECT_TRUE(snapshot && snapshot->is_object());
  if (!snapshot || !snapshot->is_object()) return {};
  const auto timed = [](std::string_view name) {
    return name.ends_with("seconds") || name.ends_with("joules");
  };
  obs::json::Object kept;
  for (const auto& [kind, instruments] : snapshot->as_object()) {
    obs::json::Object filtered;
    for (const auto& [name, value] : instruments.as_object()) {
      if (!timed(name)) filtered.emplace(name, value);
    }
    kept.emplace(kind, obs::json::Value(std::move(filtered)));
  }
  return obs::json::Value(std::move(kept)).to_json();
}

// Every instrument a training run records — counters and histograms — is a
// function of the solver trajectory, so a threaded run leaves the same
// registry behind as the serial one.
template <typename Train>
void expect_snapshot_thread_invariant(const Train& train) {
  auto& registry = obs::metrics();
  registry.set_enabled(true);
  registry.reset_values();
  train(1);
  const std::string serial = deterministic_snapshot();
  registry.reset_values();
  train(4);
  const std::string threaded = deterministic_snapshot();
  registry.set_enabled(false);
  EXPECT_EQ(serial, threaded);
}

TEST(RegistrySnapshot, CentralizedMatchesSerialAtFourThreads) {
  const auto dataset = make_synth_population();
  expect_snapshot_thread_invariant([&](int threads) {
    train_centralized_plos(dataset, centralized_options(threads));
  });
}

TEST(RegistrySnapshot, DistributedMatchesSerialAtFourThreads) {
  const auto dataset = make_synth_population();
  expect_snapshot_thread_invariant([&](int threads) {
    net::SimNetwork network(dataset.num_users(), net::DeviceProfile{},
                            net::LinkProfile{});
    train_distributed_plos(dataset, distributed_options(threads), &network);
  });
}

INSTANTIATE_TEST_SUITE_P(Threads, SerialEquivalence,
                         ::testing::Values(1, 2, 4, 8),
                         [](const auto& param_info) {
                           return "threads" + std::to_string(param_info.param);
                         });

}  // namespace
}  // namespace plos::core
