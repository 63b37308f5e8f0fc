// Ablation 7 — asynchronous participation (§VII future work): accuracy,
// ADMM iterations, and per-device traffic as device participation drops.
// A device that answers a round with probability p is a device the fault
// schedule takes offline with probability 1 - p, so participation p runs
// the distributed trainer under FaultSpec::offline_probability = 1 - p.
// Expected shape: accuracy degrades gracefully; iterations to converge grow
// as staleness rises, but per-round traffic falls proportionally.
#include <benchmark/benchmark.h>

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
  rng::Engine engine(71);
  auto dataset = data::generate_synthetic(spec, engine);
  bench::reveal_spread_providers(dataset, 10, 0.05, 72);
  return dataset;
}

core::DistributedPlosOptions make_options() {
  core::DistributedPlosOptions options = bench::bench_distributed_options();
  options.cutting_plane.epsilon = 5e-2;
  options.cccp.max_iterations = 3;
  return options;
}

// Each device sits out a round with probability 1 - participation.
void add_churn(net::SimNetwork& network, double participation) {
  net::FaultSpec churn;
  churn.offline_probability = 1.0 - participation;
  churn.seed = 7;
  network.set_fault_model(net::FaultModel(churn));
}

void print_figure() {
  bench::print_title(
      "Ablation 7: distributed PLOS vs participation rate (churn)");
  const std::vector<std::string> names{"acc_label", "acc_unlabel",
                                       "admm_iters", "overhead_kb"};
  bench::print_header("participation", names);

  const auto dataset = make_dataset();
  for (double p : {1.0, 0.8, 0.6, 0.4, 0.2}) {
    net::SimNetwork network(dataset.num_users(), net::DeviceProfile{},
                            net::LinkProfile{});
    add_churn(network, p);
    const auto result =
        core::train_distributed_plos(dataset, make_options(), &network);
    const auto report =
        core::evaluate(dataset, core::predict_all(dataset, result.model));
    bench::print_row(
        p, std::vector<double>{
               report.providers, report.non_providers,
               static_cast<double>(result.diagnostics.admm_iterations_total),
               network.mean_bytes_per_device() / 1024.0});
  }
}

void BM_AsyncDistributedHalfParticipation(benchmark::State& state) {
  const auto dataset = make_dataset();
  for (auto _ : state) {
    net::SimNetwork network(dataset.num_users(), net::DeviceProfile{},
                            net::LinkProfile{});
    add_churn(network, 0.5);
    benchmark::DoNotOptimize(
        core::train_distributed_plos(dataset, make_options(), &network));
  }
}
BENCHMARK(BM_AsyncDistributedHalfParticipation)
    ->Unit(benchmark::kMillisecond)
    ->Apply(plos::bench::bench_time_config);

}  // namespace

int main(int argc, char** argv) {
  print_figure();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
