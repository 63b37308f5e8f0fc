// Shared support for the per-figure benchmark binaries.
//
// Every binary regenerates one figure of the paper's evaluation section:
// it prints the figure's series as an aligned text table (accuracy per
// sweep point per method) and then runs google-benchmark timings for a
// representative configuration.
#pragma once

#include <functional>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "core/baselines.hpp"
#include "core/centralized_plos.hpp"
#include "core/distributed_plos.hpp"
#include "core/evaluation.hpp"
#include "data/dataset.hpp"
#include "data/labeling.hpp"
#include "data/synthetic.hpp"
#include "sensing/body_sensor.hpp"
#include "sensing/har.hpp"

namespace benchmark::internal {
class Benchmark;  // keep <benchmark/benchmark.h> out of this header
}

namespace plos::bench {

/// Accuracy reports of the four compared methods on one dataset.
struct MethodReports {
  core::AccuracyReport plos;
  core::AccuracyReport all;
  core::AccuracyReport group;
  core::AccuracyReport single;
};

/// Trains centralized PLOS and the three baselines and evaluates all four.
MethodReports run_all_methods(const data::MultiUserDataset& dataset,
                              const core::CentralizedPlosOptions& options);

/// PLOS hyper-parameters used by the synthetic and HAR figure benches
/// (fixed rather than cross-validated per point to keep bench runtime
/// bounded; chosen once by CV-style sweeps, as EXPERIMENTS.md documents).
core::CentralizedPlosOptions bench_plos_options();

/// Body-sensor figures use stronger unlabeled weighting and a looser
/// commonness tie (λ=30, Cu=5): free placement makes personal structure
/// more informative there, and the paper's per-experiment CV would pick
/// different parameters per dataset too.
core::CentralizedPlosOptions bench_body_plos_options();

/// Matching options for the distributed trainer.
core::DistributedPlosOptions bench_distributed_options();

/// Worker-thread count for bench training runs, from the PLOS_BENCH_THREADS
/// environment variable (default 1 = serial; 0 = hardware concurrency).
/// Results are bitwise identical for every value, so it only moves timings.
int bench_num_threads();

/// Reveals labels for the first `num_providers` users at `rate`.
void reveal_first_providers(data::MultiUserDataset& dataset,
                            std::size_t num_providers, double rate,
                            std::uint64_t seed);

/// Reveals labels for `num_providers` users spread evenly across the user
/// index range. The synthetic population's rotation angle grows with the
/// user index, so spreading providers keeps every rotation regime
/// represented among the label providers (first-k would leave the most
/// rotated users systematically label-free).
void reveal_spread_providers(data::MultiUserDataset& dataset,
                             std::size_t num_providers, double rate,
                             std::uint64_t seed);

// ---- table printing ------------------------------------------------------

void print_title(const std::string& title);
void print_header(const std::string& x_name,
                  std::span<const std::string> series);
void print_row(double x, std::span<const double> values);

/// Standard 8 series of the paper's accuracy figures:
/// {PLOS, All, Group, Single} × {label, unlabel}.
std::vector<std::string> accuracy_series_names();
std::vector<double> accuracy_series_values(const MethodReports& reports);

// ---- opt-in run manifests ------------------------------------------------

/// True when the PLOS_BENCH_MANIFEST environment variable names an output
/// file; run_all_methods then appends one run-manifest JSON line per
/// invocation (build info, solver options, dataset fingerprint, all four
/// methods' accuracies, PLOS convergence counters), so a whole figure
/// sweep becomes a machine-readable JSONL series inspectable with
/// `plos_inspect report` / `diff` per line.
bool bench_manifest_enabled();

// ---- opt-in per-phase metrics dump ---------------------------------------

/// True when the PLOS_BENCH_METRICS environment variable names an output
/// file; benches then record solver-internal metrics per phase.
bool bench_metrics_enabled();

// ---- standardized timed runner & BENCH_*.json baselines ------------------

/// Timed repetitions for bench hot sections, from the PLOS_BENCH_REPS
/// environment variable (default 1, minimum 1).
int bench_reps();

/// Untimed warm-up runs before the timed repetitions, from
/// PLOS_BENCH_WARMUP (default 0).
int bench_warmup();

/// Applies the env knobs to a google-benchmark registration (replacing the
/// previously hard-coded ->Iterations(1)): exactly bench_reps() iterations
/// or — because google-benchmark forbids combining an exact iteration
/// count with a warm-up phase — time-based mode with ~0.25 s of warm-up
/// per requested warm-up iteration when PLOS_BENCH_WARMUP > 0. Exact
/// warm-up/rep semantics live in run_timed(), which the BENCH_*.json
/// emission path uses.
void bench_time_config(benchmark::internal::Benchmark* bench);

/// Wall-time statistics over bench_reps() timed runs of a body after
/// bench_warmup() untimed runs. Median/MAD are robust to scheduler noise;
/// min approximates the noise-free cost.
struct TimedStats {
  int reps = 1;
  int warmup = 0;
  double median_ms = 0.0;
  double mad_ms = 0.0;  ///< median absolute deviation from the median
  double min_ms = 0.0;
};

/// Runs body bench_warmup() times untimed, then bench_reps() times timed.
TimedStats run_timed(const std::function<void()>& body);

/// One named bench case: exact deterministic counters (compared exactly
/// by `plos_inspect bench-check`) plus wall-time stats (compared with a
/// relative tolerance, or ignored by `bench-diff`).
struct BenchCase {
  std::map<std::string, double> counters;
  TimedStats stats;
};

/// An in-memory BENCH_<name>.json document.
struct BenchSuite {
  std::string name;
  int schema_version = 1;
  std::map<std::string, BenchCase> cases;
};

/// Renders the schema-versioned baseline JSON:
/// {"schema_version":1,"name":…,
///  "cases":{case:{"counters":{…},
///                 "timing":{"reps","warmup","median_ms","mad_ms",
///                           "min_ms"}},…}}
std::string bench_suite_to_json(const BenchSuite& suite);

/// True when the PLOS_BENCH_JSON environment variable names an output
/// directory; benches with a JSON mode then skip their figure tables and
/// google-benchmark phase and emit machine-readable baselines instead.
bool bench_json_enabled();

/// Writes <PLOS_BENCH_JSON>/BENCH_<suite.name>.json; false when disabled
/// or on I/O failure.
bool write_bench_suite(const BenchSuite& suite);

/// RAII phase scope. When bench_metrics_enabled(), construction enables the
/// global metrics registry and zeroes its values; destruction appends one
/// JSON line `{"phase":"<name>","metrics":<registry snapshot>}` to the
/// PLOS_BENCH_METRICS file. The snapshot is Registry::to_json(),
/// `{"counters":…,"histograms":…}` (no "gauges" section), and carries the
/// solver-internal breakdown (time in QP vs cutting-plane separation vs
/// serialization, iteration histograms, simnet traffic) for BENCH_*.json
/// post-processing.
/// A no-op when the variable is unset, so benches stay overhead-free by
/// default.
class PhaseMetrics {
 public:
  explicit PhaseMetrics(std::string phase);
  ~PhaseMetrics();

  PhaseMetrics(const PhaseMetrics&) = delete;
  PhaseMetrics& operator=(const PhaseMetrics&) = delete;

 private:
  std::string phase_;
  bool active_ = false;
};

}  // namespace plos::bench
