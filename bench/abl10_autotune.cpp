// Ablation 10 — journal-driven quorum/staleness auto-tuning (src/async):
// the observability controller (--auto-tune) against the hand-tuned knobs
// ablation 9 found for the same chronic-straggler fleet (30% of devices on
// 6x-slower CPUs, compute-bound solves). The controller starts from
// other knobs — quorum 0.7 with a staleness bound of 4, a configuration
// whose tight bound evicts the chronic stragglers' blocks instead of
// folding them (the untuned_start case below measures it left alone) —
// and walks both knobs toward the knee using only the staleness sketch
// the journal already carries (stale_p99 hysteresis: widen the bound when
// the tail crowds it, lower the quorum when the tail is slack, tighten
// back at the quorum floor). Expected shape: the tuned run reaches the
// synchronous run's final accuracy band (within one point, entered and
// never left; a fixed number, bench::kBarrierBand) within 1.5x the
// hand-tuned time-to-accuracy — without anyone having run the abl09 sweep
// — and every decision lands in the journal with its triggering
// percentile. The untuned start, whose evictions keep its stop test at
// the tight Eq. 24 term, is the slowest case (EXPERIMENTS.md A10).
// PLOS_BENCH_JSON mode emits BENCH_abl10_autotune.json with exact
// llround-scaled counters (tta_within1pt_us, tune_actions,
// final_quorum_x1000, final_staleness_bound, accuracy_x10000) for the CI
// perf gate. The ratio to the hand-tuned run (tta_vs_hand) is printed in
// the figure table only: it derives from the gated tta_within1pt_us, and
// gated it would move every case when the hand-tuned schedule moves.
#include <benchmark/benchmark.h>

#include <cmath>
#include <string>
#include <vector>

#include "bench_support.hpp"
#include "straggler_fleet.hpp"

namespace {

using namespace plos;
using bench::CaseOutcome;

// The degenerate configuration is the synchronous barrier; its final
// accuracy is the reference of acc_gap_vs_sync.
CaseOutcome run_sync_baseline(const data::MultiUserDataset& dataset) {
  return bench::run_quorum_case(dataset, {});
}

// Ablation 9's winning hand-tuned knobs on this fleet.
CaseOutcome run_hand_tuned(const data::MultiUserDataset& dataset) {
  return bench::run_quorum_case(dataset,
                                {.quorum = 0.6, .staleness_bound = 12});
}

// The controller's starting point: a quorum above the knee and a bound so
// tight every chronic straggler's block is evicted before it folds.
CaseOutcome run_auto_tuned(const data::MultiUserDataset& dataset) {
  return bench::run_quorum_case(
      dataset, {.quorum = 0.7, .staleness_bound = 4, .auto_tune = true});
}

// The same wrong knobs left alone — what the controller is rescuing.
CaseOutcome run_untuned_start(const data::MultiUserDataset& dataset) {
  return bench::run_quorum_case(dataset,
                                {.quorum = 0.7, .staleness_bound = 4});
}

void print_figure() {
  bench::print_title(
      "Ablation 10: journal-driven auto-tuning vs hand-tuned quorum knobs");
  const std::vector<std::string> names{"accuracy", "virtual_s", "tta_s",
                                      "tta_vs_hand", "tune_acts",
                                      "final_quorum", "final_bound"};
  bench::print_header("case", names);

  const auto dataset = bench::straggler_dataset();
  const auto barrier = run_sync_baseline(dataset);
  const auto hand = run_hand_tuned(dataset);
  const auto untuned = run_untuned_start(dataset);
  const auto tuned = run_auto_tuned(dataset);
  const struct {
    double id;
    const CaseOutcome* outcome;
  } rows[] = {
      {0.0, &barrier}, {1.0, &hand}, {2.0, &untuned}, {3.0, &tuned}};
  for (const auto& row : rows) {
    const auto& a = row.outcome->result.async;
    bench::print_row(
        row.id,
        std::vector<double>{row.outcome->accuracy, a.virtual_seconds,
                            row.outcome->tta, row.outcome->tta / hand.tta,
                            static_cast<double>(a.tune_actions),
                            a.final_quorum,
                            static_cast<double>(a.final_staleness_bound)});
  }
}

void fill_counters(bench::BenchCase& bench_case, const CaseOutcome& outcome,
                   const CaseOutcome& barrier) {
  const auto& a = outcome.result.async;
  bench_case.counters["admm_iterations"] = static_cast<double>(
      outcome.result.diagnostics.admm_iterations_total);
  bench_case.counters["late_uploads"] =
      static_cast<double>(a.late_uploads_total);
  bench_case.counters["evictions"] = static_cast<double>(
      a.evictions_offline_total + a.evictions_late_total +
      a.evictions_failed_total);
  bench_case.counters["max_staleness"] =
      static_cast<double>(a.max_staleness_seen);
  bench_case.counters["tune_actions"] = static_cast<double>(a.tune_actions);
  bench_case.counters["final_quorum_x1000"] =
      static_cast<double>(std::llround(a.final_quorum * 1e3));
  bench_case.counters["final_staleness_bound"] =
      static_cast<double>(a.final_staleness_bound);
  // Machine-exact integer-valued doubles so the perf gate compares exactly.
  bench_case.counters["virtual_wall_us"] =
      static_cast<double>(std::llround(a.virtual_seconds * 1e6));
  bench_case.counters["accuracy_x10000"] =
      static_cast<double>(std::llround(outcome.accuracy * 1e4));
  bench_case.counters["acc_gap_vs_sync_x10000"] = static_cast<double>(
      std::llround((barrier.accuracy - outcome.accuracy) * 1e4));
  // Time into (and staying in) the fixed accuracy band; its ratio to the
  // hand-tuned run's is the acceptance metric (<= 1.5 for the auto-tuned
  // case).
  const double tta = outcome.tta;
  bench_case.counters["tta_within1pt_us"] = static_cast<double>(
      std::isfinite(tta) ? std::llround(tta * 1e6) : -1);
}

void emit_bench_json() {
  bench::BenchSuite suite;
  suite.name = "abl10_autotune";
  const auto dataset = bench::straggler_dataset();

  CaseOutcome barrier;
  CaseOutcome hand;
  CaseOutcome untuned;
  CaseOutcome tuned;
  bench::BenchCase barrier_case;
  barrier_case.stats =
      bench::run_timed([&] { barrier = run_sync_baseline(dataset); });
  bench::BenchCase hand_case;
  hand_case.stats = bench::run_timed([&] { hand = run_hand_tuned(dataset); });
  bench::BenchCase untuned_case;
  untuned_case.stats =
      bench::run_timed([&] { untuned = run_untuned_start(dataset); });
  bench::BenchCase tuned_case;
  tuned_case.stats = bench::run_timed([&] { tuned = run_auto_tuned(dataset); });

  fill_counters(barrier_case, barrier, barrier);
  fill_counters(hand_case, hand, barrier);
  fill_counters(untuned_case, untuned, barrier);
  fill_counters(tuned_case, tuned, barrier);
  suite.cases["sync_barrier_straggler30"] = barrier_case;
  suite.cases["hand_tuned_q60_b12"] = hand_case;
  suite.cases["untuned_start_q70_b4"] = untuned_case;
  suite.cases["auto_tuned_from_q70_b4"] = tuned_case;
  bench::write_bench_suite(suite);
}

void BM_AutoTunedStragglerFleet(benchmark::State& state) {
  const auto dataset = bench::straggler_dataset();
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_auto_tuned(dataset));
  }
}
BENCHMARK(BM_AutoTunedStragglerFleet)
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
