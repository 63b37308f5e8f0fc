// Ablation 9 — asynchronous bounded-staleness quorum (src/async): accuracy
// and simulated wall-clock of distributed PLOS when the round barrier is
// replaced by quorum aggregation, on a straggler-heavy fleet (30% of the
// devices are chronic stragglers with 6x-slower CPUs). The synchronous
// baseline is the degenerate async run (quorum 1.0, no deadlines), which
// the engine reproduces bit for bit and whose virtual clock is the barrier
// schedule. The question: does a quorum reach the synchronous run's final
// accuracy (within one point, entered and never left; the band is a fixed
// number, bench::kBarrierBand) in less simulated wall-clock than the
// barrier? The slow devices stop pacing the fleet, and their uploads keep
// folding in late under the staleness bound (12 > the ~6-8 rounds a slow
// solve spans at the fast cut pace) instead of being dropped. The 80%
// quorum and the straggler-free fleet stop on the Eq. 24 thresholds in
// every CCCP round. With no churn, though, the chronic stragglers never
// make a 60% cut, so every one of their updates folds late; the loose
// early CCCP rounds still stop, but in the last one the primal residual
// keeps oscillating and the round ends at the ADMM iteration cap. That is
// why time-to-accuracy, not end-to-end time, is the headline metric: the
// 60% quorum reaches the band first, the barrier ends first
// (EXPERIMENTS.md A9).
// PLOS_BENCH_JSON mode emits BENCH_abl09_async_quorum.json with exact
// llround-scaled counters (virtual_wall_us, accuracy_x10000,
// tta_within1pt_us, acc_gap_vs_sync_x10000) for the CI perf gate. The
// ratios to the barrier's clock (wall_ratio, tta_ratio) are printed in the
// figure table only: a gated ratio would move every case's counters when
// the barrier's schedule moves, and both derive from the gated clocks.
#include <benchmark/benchmark.h>

#include <cmath>
#include <string>
#include <vector>

#include "bench_support.hpp"
#include "straggler_fleet.hpp"

namespace {

using namespace plos;
using bench::CaseOutcome;

// Runs a quorum case with the staleness bound 12 (> the ~6-8 rounds a
// slow solve spans at the fast cut pace) on the chronic-straggler fleet.
CaseOutcome run_case(const data::MultiUserDataset& dataset, double quorum,
                     bool adaptive, bool stragglers) {
  return bench::run_quorum_case(dataset, {.quorum = quorum,
                                          .staleness_bound = 12,
                                          .adaptive_deadline = adaptive,
                                          .stragglers = stragglers});
}

// The degenerate configuration is the synchronous barrier: every round
// waits for its slowest device and nothing is ever late or evicted.
CaseOutcome run_sync_baseline(const data::MultiUserDataset& dataset,
                              bool stragglers) {
  return bench::run_quorum_case(dataset, {.stragglers = stragglers});
}

void print_figure() {
  bench::print_title(
      "Ablation 9: async bounded-staleness quorum vs the round barrier");
  const std::vector<std::string> names{
      "accuracy", "virtual_s", "wall_ratio", "tta_s",
      "tta_ratio", "late_upl", "evictions", "max_stale"};
  bench::print_header("quorum", names);

  const auto dataset = bench::straggler_dataset();
  const auto barrier = run_sync_baseline(dataset, /*stragglers=*/true);
  // wall_ratio and tta_ratio are measured against the synchronous run's
  // full simulated wall-clock.
  for (double quorum : {1.0, 0.8, 0.6}) {
    const CaseOutcome outcome =
        quorum == 1.0 ? barrier
                      : run_case(dataset, quorum, /*adaptive=*/false,
                                 /*stragglers=*/true);
    const auto& a = outcome.result.async;
    bench::print_row(
        quorum,
        std::vector<double>{
            outcome.accuracy, a.virtual_seconds,
            a.virtual_seconds / barrier.result.async.virtual_seconds,
            outcome.tta, outcome.tta / barrier.result.async.virtual_seconds,
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
  // exactly: the virtual clock in microseconds and scaled accuracies.
  bench_case.counters["virtual_wall_us"] =
      static_cast<double>(std::llround(a.virtual_seconds * 1e6));
  bench_case.counters["accuracy_x10000"] =
      static_cast<double>(std::llround(outcome.accuracy * 1e4));
  bench_case.counters["acc_gap_vs_sync_x10000"] = static_cast<double>(
      std::llround((baseline.accuracy - outcome.accuracy) * 1e4));
  // Time to enter (and stay in) the fixed accuracy band; its ratio to the
  // barrier's virtual_wall_us is the acceptance metric (<= 0.6 for
  // quorum60).
  const double tta = outcome.tta;
  bench_case.counters["tta_within1pt_us"] = static_cast<double>(
      std::isfinite(tta) ? std::llround(tta * 1e6) : -1);
}

void emit_bench_json() {
  bench::BenchSuite suite;
  suite.name = "abl09_async_quorum";
  const auto dataset = bench::straggler_dataset();

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
      outcome = run_case(dataset, config.quorum, /*adaptive=*/false,
                         config.stragglers);
    });
    fill_counters(bench_case, outcome, barrier);
    suite.cases[config.name] = bench_case;
  }
  bench::write_bench_suite(suite);
}

void BM_AsyncQuorumStragglerHeavy(benchmark::State& state) {
  const auto dataset = bench::straggler_dataset();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        run_case(dataset, 0.6, /*adaptive=*/true, /*stragglers=*/true));
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
