// Ablation 8 — fault tolerance: distributed PLOS accuracy, rounds, and
// device energy as the per-message drop rate rises (0 .. 0.5), with 10%
// device churn and CRC-checked retries in force. Expected shape: retries
// recover most drops, so accuracy degrades by at most a few percent while
// retry traffic/energy and (under churn) ADMM iterations grow — graceful
// degradation rather than a cliff. Set PLOS_BENCH_METRICS=<file> to dump a
// per-drop-rate metrics snapshot (retry/drop/corrupt counters, traffic)
// as JSON lines.
#include <benchmark/benchmark.h>

#include <memory>
#include <numbers>

#include "bench_support.hpp"
#include "net/fault.hpp"
#include "net/simnet.hpp"
#include "rng/engine.hpp"

namespace {

using namespace plos;

data::MultiUserDataset make_dataset() {
  data::SyntheticSpec spec;
  spec.num_users = 20;
  spec.points_per_class = 60;
  spec.max_rotation = std::numbers::pi / 2.0;
  rng::Engine engine(81);
  auto dataset = data::generate_synthetic(spec, engine);
  bench::reveal_spread_providers(dataset, 10, 0.05, 82);
  return dataset;
}

net::FaultSpec make_fault_spec(double drop_rate) {
  net::FaultSpec spec;
  spec.drop_probability = drop_rate;
  spec.corrupt_probability = drop_rate / 10.0;
  spec.offline_probability = 0.1;
  spec.seed = 83;
  return spec;
}

core::DistributedPlosOptions make_options() {
  auto options = bench::bench_distributed_options();
  options.cutting_plane.epsilon = 5e-2;
  options.cccp.max_iterations = 3;
  options.num_threads = bench::bench_num_threads();
  return options;
}

void print_figure() {
  bench::print_title(
      "Ablation 8: distributed PLOS under message drop faults");
  const std::vector<std::string> names{"acc_label",   "acc_unlabel",
                                      "admm_iters",  "energy_j",
                                      "participation", "retries"};
  bench::print_header("drop_rate", names);

  const auto dataset = make_dataset();
  for (double drop : {0.0, 0.1, 0.3, 0.5}) {
    std::unique_ptr<bench::PhaseMetrics> phase;
    if (bench::bench_metrics_enabled()) {
      phase = std::make_unique<bench::PhaseMetrics>(
          "fault_drop_" + std::to_string(drop));
    }
    net::SimNetwork network(dataset.num_users(), net::DeviceProfile{},
                            net::LinkProfile{});
    network.set_fault_model(net::FaultModel(make_fault_spec(drop)));
    const auto result =
        core::train_distributed_plos(dataset, make_options(), &network);
    const auto report =
        core::evaluate(dataset, core::predict_all(dataset, result.model));
    double participation = 1.0;
    if (!result.diagnostics.participation_trace.empty()) {
      participation = 0.0;
      for (double p : result.diagnostics.participation_trace) {
        participation += p;
      }
      participation /=
          static_cast<double>(result.diagnostics.participation_trace.size());
    }
    bench::print_row(
        drop,
        std::vector<double>{
            report.providers, report.non_providers,
            static_cast<double>(result.diagnostics.admm_iterations_total),
            network.total_device_energy() /
                static_cast<double>(dataset.num_users()),
            participation,
            static_cast<double>(result.diagnostics.fault_counters.retries)});
  }
}

void BM_DistributedPlosThirtyPercentDrop(benchmark::State& state) {
  const auto dataset = make_dataset();
  for (auto _ : state) {
    net::SimNetwork network(dataset.num_users(), net::DeviceProfile{},
                            net::LinkProfile{});
    network.set_fault_model(net::FaultModel(make_fault_spec(0.3)));
    benchmark::DoNotOptimize(
        core::train_distributed_plos(dataset, make_options(), &network));
  }
}
BENCHMARK(BM_DistributedPlosThirtyPercentDrop)
    ->Unit(benchmark::kMillisecond)
    ->Apply(plos::bench::bench_time_config);

}  // namespace

int main(int argc, char** argv) {
  print_figure();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
