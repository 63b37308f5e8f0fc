// End-to-end integration tests across the whole stack: simulators ->
// feature pipeline -> all four methods -> evaluation, plus the distributed
// trainer on a simulated network.
#include <gtest/gtest.h>

#include <cmath>

#include "core/baselines.hpp"
#include "core/centralized_plos.hpp"
#include "core/distributed_plos.hpp"
#include "core/evaluation.hpp"
#include "data/labeling.hpp"
#include "net/simnet.hpp"
#include "rng/engine.hpp"
#include "sensing/body_sensor.hpp"
#include "sensing/har.hpp"

namespace plos::core {
namespace {

CentralizedPlosOptions plos_options() {
  CentralizedPlosOptions options;
  options.params.lambda = 100.0;
  options.params.cl = 10.0;
  options.params.cu = 1.0;
  options.cutting_plane.epsilon = 1e-2;
  options.cccp.max_iterations = 4;
  return options;
}

TEST(Integration, BodySensorPipelineEndToEnd) {
  // Averaged over three simulated populations: single draws are noisy, and
  // the paper's ordering claims are about expected behaviour.
  double plos_l = 0.0, plos_u = 0.0, all_l = 0.0, single_u = 0.0;
  const int kSeeds = 3;
  for (int seed = 1; seed <= kSeeds; ++seed) {
    sensing::BodySensorSpec spec;
    spec.num_users = 12;
    spec.seconds_per_activity = 60.0;  // ~36 windows per activity
    rng::Engine engine(static_cast<std::uint64_t>(seed));
    auto dataset = sensing::generate_body_sensor_dataset(spec, engine);

    // Half the users label 20% of their windows.
    data::reveal_labels(dataset, {0, 1, 2, 3, 4, 5}, 0.2, engine);

    auto body_options = plos_options();  // per-domain params, as the paper's CV would pick
    body_options.params.lambda = 30.0;
    body_options.params.cu = 5.0;
    const auto plos = train_centralized_plos(dataset, body_options);
    const auto plos_report =
        evaluate(dataset, predict_all(dataset, plos.model));
    const auto all_report = evaluate(dataset, run_all_baseline(dataset));
    const auto single_report = evaluate(dataset, run_single_baseline(dataset));
    plos_l += plos_report.providers / kSeeds;
    plos_u += plos_report.non_providers / kSeeds;
    all_l += all_report.providers / kSeeds;
    single_u += single_report.non_providers / kSeeds;
  }

  // The paper's headline ordering on body-sensor data: PLOS wins on both
  // user types; Single cannot help label-free users.
  EXPECT_GT(plos_l, 0.8);
  EXPECT_GT(plos_u, 0.7);
  EXPECT_GE(plos_l, all_l - 0.02);
  EXPECT_GT(plos_u, single_u);
}

TEST(Integration, HarPipelineEndToEnd) {
  sensing::HarSpec spec;
  spec.num_users = 10;
  spec.dim = 120;  // keep runtime modest; structure unchanged
  spec.samples_per_class = 30;
  rng::Engine engine(2);
  auto dataset = sensing::generate_har_dataset(spec, engine);
  data::reveal_labels(dataset, {0, 1, 2, 3, 4}, 0.2, engine);

  const auto plos = train_centralized_plos(dataset, plos_options());
  const auto plos_report = evaluate(dataset, predict_all(dataset, plos.model));
  const auto single_report = evaluate(dataset, run_single_baseline(dataset));

  EXPECT_GT(plos_report.providers, 0.7);
  EXPECT_GT(plos_report.non_providers, 0.7);
  EXPECT_GT(plos_report.non_providers, single_report.non_providers);
}

TEST(Integration, DistributedMatchesCentralizedOnBodySensor) {
  sensing::BodySensorSpec spec;
  spec.num_users = 5;
  spec.seconds_per_activity = 25.0;
  rng::Engine engine(3);
  auto dataset = sensing::generate_body_sensor_dataset(spec, engine);
  data::reveal_labels(dataset, {0, 1, 2}, 0.25, engine);

  DistributedPlosOptions options;
  options.params = plos_options().params;
  options.cutting_plane.epsilon = 1e-2;
  options.cccp.max_iterations = 3;
  options.max_admm_iterations = 80;

  net::SimNetwork network(5, net::DeviceProfile{}, net::LinkProfile{});
  const auto distributed = train_distributed_plos(dataset, options, &network);
  const auto centralized = train_centralized_plos(dataset, plos_options());

  const auto rd = evaluate(dataset, predict_all(dataset, distributed.model));
  const auto rc = evaluate(dataset, predict_all(dataset, centralized.model));
  EXPECT_NEAR(rd.overall, rc.overall, 0.12);

  // Communication stays model-sized: every message carries O(dim) doubles,
  // not the raw windows.
  const auto& metrics = network.device_metrics(0);
  ASSERT_GT(metrics.messages_sent, 0u);
  const double uplink_per_message =
      static_cast<double>(metrics.bytes_sent) /
      static_cast<double>(metrics.messages_sent);
  // w + v + xi at 121 dims ≈ 2*8*121 + overhead ≈ 2 KB.
  EXPECT_LT(uplink_per_message, 4096.0);
}

}  // namespace
}  // namespace plos::core
