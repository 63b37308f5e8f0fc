// Ablation 9 — asynchronous bounded-staleness quorum (src/async): accuracy
// and simulated wall-clock of distributed PLOS when the round barrier is
// replaced by quorum aggregation, on a straggler-heavy fleet (30% of the
// devices are chronic stragglers with 6x-slower CPUs). The synchronous
// baseline is the degenerate async run (quorum 1.0, no deadlines), which
// the engine reproduces bit for bit and whose virtual clock is the barrier
// schedule. The question: does a quorum reach the synchronous run's final
// accuracy (within one point, entered and never left) in less simulated
// wall-clock than the barrier? The slow devices stop pacing the fleet, and
// their uploads keep folding in late under the staleness bound (12 > the
// ~6-8 rounds a slow solve spans at the fast cut pace) instead of being
// dropped. The 80% quorum and the straggler-free fleet stop on the Eq. 24
// thresholds. With no churn, though, the chronic stragglers never make a
// 60% cut, so every one of their updates folds late, the primal residual
// keeps oscillating, and the run ends at the ADMM iteration cap; that is
// why time-to-accuracy, not end-to-end time, is the headline metric. Only
// the barrier's every-block-fresh steps take the over-relaxed consensus
// step, so it needs fewer rounds than the quorums and, on this fleet,
// reaches the band first (EXPERIMENTS.md A9).
// PLOS_BENCH_JSON mode emits BENCH_abl09_async_quorum.json with exact
// llround-scaled counters (virtual_wall_us, accuracy_x10000,
// wallclock_ratio_x1000, tta_within1pt_us, tta_ratio_x1000,
// acc_gap_vs_sync_x10000) for the CI perf gate.
#include <benchmark/benchmark.h>

#include <cmath>
#include <limits>
#include <numbers>
#include <string>
#include <vector>

#include "async/async_admm.hpp"
#include "bench_support.hpp"
#include "core/evaluation.hpp"
#include "core/model.hpp"
#include "linalg/vector.hpp"
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

// Chronic stragglers: 30% of the fleet (devices 0-2, 10-12) runs on
// 6x-slower CPUs. Unlike the per-round FaultSpec straggler draw, a chronic
// straggler is slow on EVERY dispatch, so the barrier always waits for it
// while a 60% quorum never has to.
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

async::AsyncQuorumOptions make_options(double quorum,
                                       std::uint64_t staleness_bound,
                                       bool adaptive) {
  async::AsyncQuorumOptions options;
  options.base = bench::bench_distributed_options();
  options.base.cutting_plane.epsilon = 5e-2;
  options.base.cccp.max_iterations = 3;
  options.base.num_threads = bench::bench_num_threads();
  options.quorum = quorum;
  options.staleness_bound = staleness_bound;
  options.adaptive_deadline = adaptive;
  // Compute-bound local solves: phone-class QP work dwarfs the radio time,
  // so a straggling device actually paces the barrier. With the default
  // link-dominated spec every round trip costs the same ~0.2 s of radio and
  // an 8x compute straggler is invisible.
  options.latency.compute_base_s = 5e-2;
  return options;
}

struct AccuracySample {
  double virtual_seconds = 0.0;
  double accuracy = 0.0;
};

struct CaseOutcome {
  async::AsyncQuorumResult result;
  double accuracy = 0.0;
  /// Accuracy after every aggregation step, against the virtual clock.
  std::vector<AccuracySample> trace;
};

// Earliest virtual time at which the run enters the accuracy band
// [target, 1] and never leaves it again. Infinity when it never settles.
double time_to_accuracy(const std::vector<AccuracySample>& trace,
                        double target) {
  double entered = std::numeric_limits<double>::infinity();
  for (const auto& sample : trace) {
    if (sample.accuracy >= target) {
      if (!std::isfinite(entered)) entered = sample.virtual_seconds;
    } else {
      entered = std::numeric_limits<double>::infinity();
    }
  }
  return entered;
}

CaseOutcome run_case(const data::MultiUserDataset& dataset, double quorum,
                     std::uint64_t staleness_bound, bool adaptive,
                     bool stragglers) {
  CaseOutcome outcome;
  net::SimNetwork network(dataset.num_users(), net::DeviceProfile{},
                          net::LinkProfile{});
  if (stragglers) apply_straggler_fleet(network);
  auto options = make_options(quorum, staleness_bound, adaptive);
  core::PersonalizedModel probe =
      core::PersonalizedModel::zeros(dataset.num_users(), 0);
  options.on_aggregate = [&](const async::AsyncAggregateView& view) {
    probe.global_weights = view.w0;
    for (std::size_t t = 0; t < view.w.size(); ++t) {
      probe.user_deviations[t] = linalg::sub(view.w[t], view.w0);
    }
    outcome.trace.push_back(AccuracySample{
        view.virtual_seconds,
        core::evaluate(dataset, core::predict_all(dataset, probe)).overall});
  };
  outcome.result = async::train_async_quorum_plos(dataset, options, &network);
  outcome.accuracy =
      core::evaluate(dataset,
                     core::predict_all(dataset, outcome.result.model))
          .overall;
  return outcome;
}

// The degenerate configuration is the synchronous barrier: every round
// waits for its slowest device and nothing is ever late or evicted.
CaseOutcome run_sync_baseline(const data::MultiUserDataset& dataset,
                              bool stragglers) {
  return run_case(dataset, 1.0, 1u << 20, /*adaptive=*/false, stragglers);
}

void print_figure() {
  bench::print_title(
      "Ablation 9: async bounded-staleness quorum vs the round barrier");
  const std::vector<std::string> names{"accuracy",  "virtual_s",
                                       "tta_s",     "tta_ratio",
                                       "late_upl",  "evictions",
                                       "max_stale"};
  bench::print_header("quorum", names);

  const auto dataset = make_dataset();
  const auto barrier = run_sync_baseline(dataset, /*stragglers=*/true);
  // Time-to-accuracy band: within one accuracy point of the synchronous
  // final model, entered and never left (DAWNBench-style). tta_ratio is
  // measured against the synchronous run's full simulated wall-clock.
  const double band = barrier.accuracy - 0.01;
  for (double quorum : {1.0, 0.8, 0.6}) {
    const CaseOutcome outcome =
        quorum == 1.0 ? barrier
                      : run_case(dataset, quorum, 12, /*adaptive=*/false,
                                 /*stragglers=*/true);
    const auto& a = outcome.result.async;
    bench::print_row(
        quorum,
        std::vector<double>{
            outcome.accuracy, a.virtual_seconds,
            time_to_accuracy(outcome.trace, band),
            time_to_accuracy(outcome.trace, band) /
                barrier.result.async.virtual_seconds,
            static_cast<double>(a.late_uploads_total),
            static_cast<double>(a.evictions_offline_total +
                                a.evictions_late_total +
                                a.evictions_failed_total),
            static_cast<double>(a.max_staleness_seen)});
  }
}

void fill_counters(bench::BenchCase& bench_case, const CaseOutcome& outcome,
                   const CaseOutcome& baseline) {
  const auto& a = outcome.result.async;
  bench_case.counters["admm_iterations"] = static_cast<double>(
      outcome.result.diagnostics.admm_iterations_total);
  bench_case.counters["qp_solves"] =
      static_cast<double>(outcome.result.diagnostics.qp_solves);
  bench_case.counters["late_uploads"] =
      static_cast<double>(a.late_uploads_total);
  bench_case.counters["evictions"] = static_cast<double>(
      a.evictions_offline_total + a.evictions_late_total +
      a.evictions_failed_total);
  bench_case.counters["max_staleness"] =
      static_cast<double>(a.max_staleness_seen);
  // Machine-exact integer-valued doubles so the perf gate compares them
  // exactly: the virtual clock in microseconds and scaled ratios.
  bench_case.counters["virtual_wall_us"] =
      static_cast<double>(std::llround(a.virtual_seconds * 1e6));
  bench_case.counters["accuracy_x10000"] =
      static_cast<double>(std::llround(outcome.accuracy * 1e4));
  bench_case.counters["wallclock_ratio_x1000"] = static_cast<double>(
      std::llround(a.virtual_seconds /
                   baseline.result.async.virtual_seconds * 1e3));
  bench_case.counters["acc_gap_vs_sync_x10000"] = static_cast<double>(
      std::llround((baseline.accuracy - outcome.accuracy) * 1e4));
  // Time to enter (and stay in) the one-accuracy-point band around the
  // synchronous final model, and its ratio to the synchronous run's full
  // simulated wall-clock — the acceptance metric (<= 600 for quorum60).
  const double tta = time_to_accuracy(outcome.trace, baseline.accuracy - 0.01);
  bench_case.counters["tta_within1pt_us"] = static_cast<double>(
      std::isfinite(tta) ? std::llround(tta * 1e6) : -1);
  bench_case.counters["tta_ratio_x1000"] = static_cast<double>(
      std::isfinite(tta)
          ? std::llround(tta / baseline.result.async.virtual_seconds * 1e3)
          : -1);
}

void emit_bench_json() {
  bench::BenchSuite suite;
  suite.name = "abl09_async_quorum";
  const auto dataset = make_dataset();

  CaseOutcome barrier;
  {
    bench::BenchCase bench_case;
    bench_case.stats = bench::run_timed(
        [&] { barrier = run_sync_baseline(dataset, /*stragglers=*/true); });
    fill_counters(bench_case, barrier, barrier);
    suite.cases["sync_barrier_straggler30"] = bench_case;
  }
  const struct {
    const char* name;
    double quorum;
    bool stragglers;
  } configs[] = {
      {"quorum60_straggler30", 0.6, true},
      {"quorum80_straggler30", 0.8, true},
      {"quorum60_faultfree", 0.6, false},
  };
  for (const auto& config : configs) {
    CaseOutcome outcome;
    bench::BenchCase bench_case;
    bench_case.stats = bench::run_timed([&] {
      outcome = run_case(dataset, config.quorum, 12, /*adaptive=*/false,
                         config.stragglers);
    });
    fill_counters(bench_case, outcome, barrier);
    suite.cases[config.name] = bench_case;
  }
  bench::write_bench_suite(suite);
}

void BM_AsyncQuorumStragglerHeavy(benchmark::State& state) {
  const auto dataset = make_dataset();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        run_case(dataset, 0.6, 12, /*adaptive=*/true, /*stragglers=*/true));
  }
}
BENCHMARK(BM_AsyncQuorumStragglerHeavy)
    ->Unit(benchmark::kMillisecond)
    ->Apply(plos::bench::bench_time_config);

}  // namespace

int main(int argc, char** argv) {
  if (bench::bench_json_enabled()) {
    emit_bench_json();
    return 0;
  }
  print_figure();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
