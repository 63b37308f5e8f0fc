#include "bench_support.hpp"

#include <algorithm>
#include <benchmark/benchmark.h>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "obs/inspect.hpp"
#include "obs/json.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "rng/engine.hpp"

namespace plos::bench {

namespace {

const char* bench_metrics_path() {
  static const char* path = std::getenv("PLOS_BENCH_METRICS");
  return path;
}

const char* bench_manifest_path() {
  static const char* path = std::getenv("PLOS_BENCH_MANIFEST");
  return path;
}

std::string render_double(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

// Appends one manifest line describing a run_all_methods invocation. Only
// deterministic fields plus the PLOS train time (under "timing", which
// plos_inspect ignores by default) — a sweep of these lines diffs cleanly
// across machines.
void append_bench_manifest(const data::MultiUserDataset& dataset,
                           const core::CentralizedPlosOptions& options,
                           const core::PlosDiagnostics& diagnostics,
                           const MethodReports& reports) {
  obs::RunManifest manifest;
  manifest.tool = "bench";
  obs::fill_build_info(manifest);
  manifest.seed = options.seed;
  manifest.dataset = data::fingerprint(dataset, "bench");
  manifest.options["lambda"] = render_double(options.params.lambda);
  manifest.options["cl"] = render_double(options.params.cl);
  manifest.options["cu"] = render_double(options.params.cu);
  manifest.options["cutting_plane_epsilon"] =
      render_double(options.cutting_plane.epsilon);
  manifest.options["cccp_max_iterations"] =
      std::to_string(options.cccp.max_iterations);
  manifest.options["mode"] = "centralized";
  manifest.results["accuracy.plos.providers"] = reports.plos.providers;
  manifest.results["accuracy.plos.non_providers"] = reports.plos.non_providers;
  manifest.results["accuracy.plos.overall"] = reports.plos.overall;
  manifest.results["accuracy.all.overall"] = reports.all.overall;
  manifest.results["accuracy.group.overall"] = reports.group.overall;
  manifest.results["accuracy.single.overall"] = reports.single.overall;
  manifest.results["cccp_rounds"] =
      static_cast<double>(diagnostics.cccp_iterations);
  manifest.results["qp_solves"] = static_cast<double>(diagnostics.qp_solves);
  if (!diagnostics.objective_trace.empty()) {
    manifest.results["final_objective"] = diagnostics.objective_trace.back();
  }
  manifest.threads = options.num_threads;
  manifest.wall_seconds = diagnostics.train_seconds;
  std::FILE* file = std::fopen(bench_manifest_path(), "a");
  if (file == nullptr) return;
  const std::string line = obs::manifest_to_json(manifest);
  std::fprintf(file, "%s\n", line.c_str());
  std::fclose(file);
}

}  // namespace

int bench_num_threads() {
  static const int threads = [] {
    const char* text = std::getenv("PLOS_BENCH_THREADS");
    if (text == nullptr) return 1;
    const int parsed = std::atoi(text);
    return parsed >= 0 ? parsed : 1;
  }();
  return threads;
}

int bench_reps() {
  static const int reps = [] {
    const char* text = std::getenv("PLOS_BENCH_REPS");
    if (text == nullptr) return 1;
    return std::max(1, std::atoi(text));
  }();
  return reps;
}

int bench_warmup() {
  static const int warmup = [] {
    const char* text = std::getenv("PLOS_BENCH_WARMUP");
    if (text == nullptr) return 0;
    return std::max(0, std::atoi(text));
  }();
  return warmup;
}

void bench_time_config(benchmark::internal::Benchmark* bench) {
  const int warmup = bench_warmup();
  if (warmup > 0) {
    // google-benchmark rejects MinWarmUpTime on a benchmark with an exact
    // Iterations() count, so a warm-up request switches the registration
    // to time-based mode (gbench then auto-scales the measured
    // iterations). Exact warm-up semantics are run_timed()'s job.
    bench->MinWarmUpTime(0.25 * warmup);
    return;
  }
  bench->Iterations(bench_reps());
}

namespace {

double median_of_sorted(const std::vector<double>& sorted) {
  const std::size_t n = sorted.size();
  if (n == 0) return 0.0;
  return n % 2 == 1 ? sorted[n / 2]
                    : 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]);
}

}  // namespace

TimedStats run_timed(const std::function<void()>& body) {
  TimedStats stats;
  stats.reps = bench_reps();
  stats.warmup = bench_warmup();
  for (int i = 0; i < stats.warmup; ++i) body();
  std::vector<double> samples_ms;
  samples_ms.reserve(static_cast<std::size_t>(stats.reps));
  for (int i = 0; i < stats.reps; ++i) {
    const auto start = std::chrono::steady_clock::now();
    body();
    const auto stop = std::chrono::steady_clock::now();
    samples_ms.push_back(
        std::chrono::duration<double, std::milli>(stop - start).count());
  }
  std::sort(samples_ms.begin(), samples_ms.end());
  stats.min_ms = samples_ms.front();
  stats.median_ms = median_of_sorted(samples_ms);
  std::vector<double> deviations_ms;
  deviations_ms.reserve(samples_ms.size());
  for (double sample : samples_ms) {
    deviations_ms.push_back(std::abs(sample - stats.median_ms));
  }
  std::sort(deviations_ms.begin(), deviations_ms.end());
  stats.mad_ms = median_of_sorted(deviations_ms);
  return stats;
}

std::string bench_suite_to_json(const BenchSuite& suite) {
  std::string out = "{\"schema_version\":";
  out += std::to_string(suite.schema_version);
  out += ",\"name\":";
  out += obs::json::escape(suite.name);  // escape() adds the quotes
  out += ",\"cases\":{";
  bool first_case = true;
  for (const auto& [case_name, bench_case] : suite.cases) {
    if (!first_case) out += ',';
    first_case = false;
    out += obs::json::escape(case_name);
    out += ":{\"counters\":{";
    bool first_counter = true;
    for (const auto& [counter, value] : bench_case.counters) {
      if (!first_counter) out += ',';
      first_counter = false;
      out += obs::json::escape(counter);
      out += ':';
      out += obs::json::number(value);
    }
    out += "},\"timing\":{\"reps\":";
    out += std::to_string(bench_case.stats.reps);
    out += ",\"warmup\":";
    out += std::to_string(bench_case.stats.warmup);
    out += ",\"median_ms\":";
    out += obs::json::number(bench_case.stats.median_ms);
    out += ",\"mad_ms\":";
    out += obs::json::number(bench_case.stats.mad_ms);
    out += ",\"min_ms\":";
    out += obs::json::number(bench_case.stats.min_ms);
    out += "}}";
  }
  out += "}}";
  return out;
}

namespace {

const char* bench_json_dir() {
  static const char* dir = std::getenv("PLOS_BENCH_JSON");
  return dir;
}

}  // namespace

bool bench_json_enabled() { return bench_json_dir() != nullptr; }

bool write_bench_suite(const BenchSuite& suite) {
  if (!bench_json_enabled()) return false;
  const std::string path =
      std::string(bench_json_dir()) + "/BENCH_" + suite.name + ".json";
  if (!obs::write_file(path, bench_suite_to_json(suite) + "\n")) {
    std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
    return false;
  }
  std::printf("wrote %s\n", path.c_str());
  return true;
}

bool bench_metrics_enabled() { return bench_metrics_path() != nullptr; }

bool bench_manifest_enabled() { return bench_manifest_path() != nullptr; }

PhaseMetrics::PhaseMetrics(std::string phase) : phase_(std::move(phase)) {
  if (!bench_metrics_enabled()) return;
  active_ = true;
  obs::metrics().set_enabled(true);
  obs::metrics().reset_values();
}

PhaseMetrics::~PhaseMetrics() {
  if (!active_) return;
  std::FILE* file = std::fopen(bench_metrics_path(), "a");
  if (file == nullptr) return;
  const std::string snapshot = obs::metrics().to_json();
  std::fprintf(file, "{\"phase\":\"%s\",\"metrics\":%s}\n", phase_.c_str(),
               snapshot.c_str());
  std::fclose(file);
}

MethodReports run_all_methods(const data::MultiUserDataset& dataset,
                              const core::CentralizedPlosOptions& options) {
  MethodReports reports;
  core::PlosDiagnostics plos_diagnostics;
  {
    const PhaseMetrics phase("plos_train");
    const auto plos = core::train_centralized_plos(dataset, options);
    plos_diagnostics = plos.diagnostics;
    reports.plos =
        core::evaluate(dataset, core::predict_all(dataset, plos.model));
  }
  const PhaseMetrics phase("baselines");
  core::BaselineOptions baseline_options;
  baseline_options.num_threads = options.num_threads;
  core::GroupBaselineOptions group_options;
  group_options.base = baseline_options;
  reports.all =
      core::evaluate(dataset, core::run_all_baseline(dataset, baseline_options));
  reports.group =
      core::evaluate(dataset, core::run_group_baseline(dataset, group_options));
  reports.single = core::evaluate(
      dataset, core::run_single_baseline(dataset, baseline_options));
  if (bench_manifest_enabled()) {
    append_bench_manifest(dataset, options, plos_diagnostics, reports);
  }
  return reports;
}

core::CentralizedPlosOptions bench_plos_options() {
  core::CentralizedPlosOptions options;
  options.params.lambda = 100.0;
  options.params.cl = 10.0;
  options.params.cu = 1.0;
  options.cutting_plane.epsilon = 1e-2;
  options.cccp.max_iterations = 4;
  options.num_threads = bench_num_threads();
  return options;
}

core::CentralizedPlosOptions bench_body_plos_options() {
  core::CentralizedPlosOptions options = bench_plos_options();
  options.params.lambda = 30.0;
  options.params.cu = 5.0;
  return options;
}

core::DistributedPlosOptions bench_distributed_options() {
  core::DistributedPlosOptions options;
  options.params.lambda = 100.0;
  options.params.cl = 10.0;
  options.params.cu = 1.0;
  options.cutting_plane.epsilon = 1e-2;
  options.cccp.max_iterations = 4;
  options.rho = 1.0;
  options.eps_abs = 1e-3;
  options.max_admm_iterations = 150;
  options.num_threads = bench_num_threads();
  return options;
}

void reveal_first_providers(data::MultiUserDataset& dataset,
                            std::size_t num_providers, double rate,
                            std::uint64_t seed) {
  std::vector<std::size_t> providers(num_providers);
  for (std::size_t i = 0; i < num_providers; ++i) providers[i] = i;
  rng::Engine engine(seed);
  data::hide_all_labels(dataset);
  data::reveal_labels(dataset, providers, rate, engine);
}

void reveal_spread_providers(data::MultiUserDataset& dataset,
                             std::size_t num_providers, double rate,
                             std::uint64_t seed) {
  std::vector<std::size_t> providers;
  const std::size_t num_users = dataset.num_users();
  for (std::size_t i = 0; i < num_providers; ++i) {
    providers.push_back(i * num_users / num_providers);
  }
  rng::Engine engine(seed);
  data::hide_all_labels(dataset);
  data::reveal_labels(dataset, providers, rate, engine);
}

void print_title(const std::string& title) {
  std::printf("\n== %s ==\n", title.c_str());
}

void print_header(const std::string& x_name,
                  std::span<const std::string> series) {
  std::printf("%-14s", x_name.c_str());
  for (const auto& s : series) std::printf("%14s", s.c_str());
  std::printf("\n");
}

void print_row(double x, std::span<const double> values) {
  std::printf("%-14.4g", x);
  for (double v : values) std::printf("%14.4f", v);
  std::printf("\n");
  std::fflush(stdout);
}

std::vector<std::string> accuracy_series_names() {
  return {"PLOS_label",   "All_label",   "Group_label",   "Single_label",
          "PLOS_unlabel", "All_unlabel", "Group_unlabel", "Single_unlabel"};
}

std::vector<double> accuracy_series_values(const MethodReports& r) {
  return {r.plos.providers,       r.all.providers,
          r.group.providers,      r.single.providers,
          r.plos.non_providers,   r.all.non_providers,
          r.group.non_providers,  r.single.non_providers};
}

}  // namespace plos::bench
