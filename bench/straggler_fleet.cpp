#include "straggler_fleet.hpp"

#include <cmath>
#include <limits>
#include <numbers>

#include "bench_support.hpp"
#include "core/evaluation.hpp"
#include "core/model.hpp"
#include "linalg/vector.hpp"
#include "net/simnet.hpp"
#include "rng/engine.hpp"

namespace plos::bench {

namespace {

// Unlike the per-round FaultSpec straggler draw, a chronic straggler is
// slow on EVERY dispatch, so the barrier always waits for it while a 60%
// quorum never has to.
constexpr double kStragglerSlowdown = 6.0;

bool is_straggler(std::size_t device) { return device % 10 < 3; }

void apply_straggler_fleet(net::SimNetwork& network) {
  for (std::size_t t = 0; t < network.num_devices(); ++t) {
    if (!is_straggler(t)) continue;
    net::DeviceProfile profile;  // defaults, 6x the reference slowdown
    profile.cpu_slowdown *= kStragglerSlowdown;
    network.set_device_profile(t, profile);
  }
}

async::AsyncQuorumOptions make_options(const QuorumCase& knobs) {
  async::AsyncQuorumOptions options;
  options.base = bench_distributed_options();
  options.base.cutting_plane.epsilon = 5e-2;
  options.base.cccp.max_iterations = 3;
  options.base.num_threads = bench_num_threads();
  options.quorum = knobs.quorum;
  options.staleness_bound = knobs.staleness_bound;
  options.adaptive_deadline = knobs.adaptive_deadline;
  options.autotune.enabled = knobs.auto_tune;
  // Compute-bound local solves: phone-class QP work dwarfs the radio time,
  // so a straggling device actually paces the barrier. With the default
  // link-dominated spec every round trip costs the same ~0.2 s of radio and
  // an 8x compute straggler is invisible.
  options.latency.compute_base_s = 5e-2;
  return options;
}

}  // namespace

data::MultiUserDataset straggler_dataset() {
  data::SyntheticSpec spec;
  spec.num_users = 20;
  spec.points_per_class = 60;
  spec.max_rotation = std::numbers::pi / 2.0;
  rng::Engine engine(71);
  auto dataset = data::generate_synthetic(spec, engine);
  reveal_spread_providers(dataset, 10, 0.05, 72);
  return dataset;
}

CaseOutcome run_quorum_case(const data::MultiUserDataset& dataset,
                            const QuorumCase& knobs) {
  CaseOutcome outcome;
  net::SimNetwork network(dataset.num_users(), net::DeviceProfile{},
                          net::LinkProfile{});
  if (knobs.stragglers) apply_straggler_fleet(network);
  auto options = make_options(knobs);
  core::PersonalizedModel probe =
      core::PersonalizedModel::zeros(dataset.num_users(), 0);
  // Time the band was last entered; a step below it resets the entry.
  double entered = std::numeric_limits<double>::infinity();
  options.on_aggregate = [&](const async::AsyncAggregateView& view) {
    probe.global_weights = view.w0;
    for (std::size_t t = 0; t < view.w.size(); ++t) {
      probe.user_deviations[t] = linalg::sub(view.w[t], view.w0);
    }
    const double accuracy =
        core::evaluate(dataset, core::predict_all(dataset, probe)).overall;
    if (accuracy < kBarrierBand) {
      entered = std::numeric_limits<double>::infinity();
    } else if (!std::isfinite(entered)) {
      entered = view.virtual_seconds;
    }
  };
  outcome.result = async::train_async_quorum_plos(dataset, options, &network);
  outcome.accuracy =
      core::evaluate(dataset,
                     core::predict_all(dataset, outcome.result.model))
          .overall;
  outcome.tta = entered;
  return outcome;
}

}  // namespace plos::bench
