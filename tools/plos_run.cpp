// plos_run — command-line experiment driver.
//
// Generates one of the three simulated populations, reveals labels, trains
// the selected method(s), and prints provider / non-provider accuracy.
//
//   plos_run --dataset body --users 12 --providers 6 --rate 0.1
//   plos_run --dataset har --methods plos --lambda 100 --cu 1
//   plos_run --dataset synth --rotation 1.57 --methods all,single,plos
//   plos_run --dataset body --distributed --save-model /tmp/model.bin
//
// Run `plos_run --help` for the full flag list.
#include <chrono>
#include <cstdio>
#include <map>
#include <numbers>
#include <string>
#include <thread>
#include <vector>

#include "async/async_admm.hpp"
#include "core/baselines.hpp"
#include "core/centralized_plos.hpp"
#include "core/distributed_plos.hpp"
#include "core/evaluation.hpp"
#include "core/logistic_plos.hpp"
#include "core/model_io.hpp"
#include "data/dataset.hpp"
#include "data/labeling.hpp"
#include "data/synthetic.hpp"
#include "flags.hpp"
#include "net/simnet.hpp"
#include "obs/flight.hpp"
#include "obs/inspect.hpp"
#include "obs/journal.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "obs/watchdog.hpp"
#include "rng/engine.hpp"
#include "sensing/body_sensor.hpp"
#include "sensing/har.hpp"

namespace {

using namespace plos;

// Everything the command line sets. Trainer knobs are stored straight in
// the option structs the trainers take; `quorum.base` carries the PLOS
// hyper-parameters, thread count and cache switch for every trainer.
struct RunConfig {
  std::string dataset = "synth";
  std::string methods = "plos,all,group,single";
  std::size_t users = 0;      // 0 = dataset default
  std::size_t providers = 0;  // 0 = half the users
  double rate = 0.06;
  double rotation = std::numbers::pi / 2.0;
  std::uint64_t seed = 42;
  bool distributed = false;
  bool logistic = false;
  bool async_mode = false;
  async::AsyncQuorumOptions quorum;
  net::FaultSpec fault;
  std::string watchdog = "off";
  obs::WatchdogConfig watchdog_config;
  std::uint64_t journal_every = 1;
  // Artifact paths: empty = not written, "-" = stdout.
  std::string save_model;
  std::string trace_out;
  std::string metrics_out;
  std::string manifest_out;
  std::string journal_out;
  std::string profile_out;
  std::string flight_out;
};

bool valid_methods_list(const std::string& methods) {
  std::size_t start = 0;
  while (start <= methods.size()) {
    const std::size_t comma = methods.find(',', start);
    const std::string token =
        methods.substr(start, comma == std::string::npos ? std::string::npos
                                                         : comma - start);
    if (token != "plos" && token != "all" && token != "group" &&
        token != "single") {
      return false;
    }
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return true;
}

bool wants(const RunConfig& c, const char* method) {
  return c.methods.find(method) != std::string::npos;
}

std::vector<cli::Flag> flag_table(RunConfig& c) {
  core::DistributedPlosOptions& plos = c.quorum.base;
  const cli::Needs needs_async{"--async", [&c] { return c.async_mode; }};
  const cli::Needs needs_hinge_fleet{
      "--distributed without --logistic",
      [&c] { return c.distributed && !c.logistic; }};
  // The journal and the watchdog are fed by the hinge-loss PLOS trainers
  // alone.
  const cli::Needs needs_hinge_plos{
      "plos in --methods without --logistic",
      [&c] { return wants(c, "plos") && !c.logistic; }};
  return {
      {"--dataset", "body|har|synth", "population simulator (default synth)",
       cli::choice(c.dataset, {"body", "har", "synth"})},
      {"--methods", "LIST",
       "comma list of plos,all,group,single (default all four)",
       [&c](const char* value) {
         if (!valid_methods_list(value)) {
           return std::string(
                      "expects a comma list of plos,all,group,single, got '") +
                  value + "'";
         }
         c.methods = value;
         return std::string();
       }},
      {"--users", "N", "population size (default per dataset)",
       cli::count(c.users)},
      {"--providers", "N", "label-providing users (default half)",
       cli::count(c.providers)},
      {"--rate", "R", "labeled fraction per provider, in [0, 1]",
       cli::number(c.rate, cli::kProbability)},
      {"--rotation", "RAD", "max rotation angle of the synthetic population",
       cli::number(c.rotation),
       {"--dataset synth", [&c] { return c.dataset == "synth"; }}},
      {"--lambda", "L", "PLOS hyper-parameter lambda (default 100)",
       cli::number(plos.params.lambda)},
      {"--cl", "CL", "PLOS labeled-loss weight (default 10)",
       cli::number(plos.params.cl)},
      {"--cu", "CU", "PLOS unlabeled-loss weight (default 1)",
       cli::number(plos.params.cu)},
      {"--seed", "S", "RNG seed", cli::count(c.seed)},
      {"--threads", "N",
       "worker threads for training (default 1; 0 = hardware concurrency); "
       "results are bitwise identical for every N",
       cli::count(plos.num_threads)},
      {"--distributed", nullptr, "train PLOS with ADMM on a simulated fleet",
       cli::store(c.distributed, true)},
      {"--fault-drop", "P", "per-message-attempt drop probability",
       cli::number(c.fault.drop_probability, cli::kProbability),
       needs_hinge_fleet},
      {"--fault-offline", "P", "per-round device churn probability",
       cli::number(c.fault.offline_probability, cli::kProbability),
       needs_hinge_fleet},
      {"--fault-straggler", "P",
       "per-round straggler probability (4x slowdown)",
       cli::number(c.fault.straggler_probability, cli::kProbability),
       needs_hinge_fleet},
      {"--fault-corrupt", "P",
       "per-message bit-corruption probability (CRC32-framed, detected and "
       "retried)",
       cli::number(c.fault.corrupt_probability, cli::kProbability),
       needs_hinge_fleet},
      {"--round-deadline", "S",
       "simulated seconds the server waits per round; stragglers past it "
       "are left behind (0 = wait)",
       cli::number(c.fault.round_deadline_s, cli::kNonNegative),
       {"--distributed without --async or --logistic, and a nonzero "
        "--fault-* probability",
        [&c] {
          return c.distributed && !c.logistic && !c.async_mode &&
                 c.fault.any_faults();
        }}},
      {"--async", nullptr,
       "asynchronous bounded-staleness quorum engine instead of the round "
       "barrier (implies --distributed; --quorum 1.0 with "
       "--adaptive-deadline off reproduces the synchronous run bit for bit)",
       [&c](const char*) {
         c.async_mode = c.distributed = true;
         return std::string();
       },
       {"hinge-loss training, not --logistic", [&c] { return !c.logistic; }}},
      {"--quorum", "Q",
       "fraction of on-time uploads that closes a round, in (0, 1] "
       "(default 0.6)",
       cli::number(c.quorum.quorum, cli::kPositiveFraction), needs_async},
      {"--staleness-bound", "N",
       "max aggregation steps a device update may lag before its server "
       "block is evicted; positive integer (default 3)",
       cli::count(c.quorum.staleness_bound, 1), needs_async},
      {"--adaptive-deadline", "on|off",
       "per-device deadlines from the latency EWMA (default on)",
       cli::on_off(c.quorum.adaptive_deadline), needs_async},
      {"--auto-tune", "on|off",
       "walk --quorum / --staleness-bound per round from the journal's "
       "staleness sketch (deterministic hysteresis; every decision is "
       "journaled; default off)",
       cli::on_off(c.quorum.autotune.enabled), needs_async},
      {"--flight-out", "FILE",
       "write the flight recorder's Chrome-trace JSON of per-device "
       "lifecycle events (upload attempts, deadline misses, late folds, "
       "evictions, quorum cuts; '-' = stdout; explore with 'plos_inspect "
       "timeline')",
       cli::text(c.flight_out), needs_async},
      {"--logistic", nullptr, "use the logistic-loss PLOS variant",
       cli::store(c.logistic, true)},
      {"--save-model", "PATH", "checkpoint the trained PLOS model",
       cli::text(c.save_model),
       {"plos in --methods", [&c] { return wants(c, "plos"); }}},
      {"--trace-out", "FILE",
       "write Chrome trace-event JSON of solver spans (open in "
       "chrome://tracing or Perfetto; '-' = stdout)",
       cli::text(c.trace_out)},
      {"--metrics-out", "FILE",
       "write a metrics-registry JSON snapshot ('-' = stdout)",
       cli::text(c.metrics_out)},
      {"--manifest-out", "FILE",
       "write a run manifest (run.json) capturing build, seed, options, "
       "dataset fingerprint, and final metrics ('-' = stdout)",
       cli::text(c.manifest_out)},
      {"--journal-out", "FILE",
       "write the per-round JSONL journal of the PLOS training loop "
       "('-' = stdout)",
       cli::text(c.journal_out), needs_hinge_plos},
      {"--journal-every", "N",
       "keep every Nth journal record (counted at aggregation boundaries; "
       "default 1 = all)",
       cli::count(c.journal_every, 1), needs_hinge_plos},
      {"--profile-out", "FILE",
       "write the hierarchical phase-profile tree (per-phase call counts + "
       "exact solver counters; wall times and peak RSS live in its "
       "quarantined \"timing\" section; '-' = stdout)",
       cli::text(c.profile_out)},
      {"--watchdog", "MODE",
       "off (default), warn, or abort: convergence watchdog over the round "
       "journal (NaN, unconverged QP, divergence, participation collapse; "
       "abort stops training at the next round boundary)",
       cli::choice(c.watchdog, {"off", "warn", "abort"}), needs_hinge_plos},
      {"--watchdog-stall-rounds", "N",
       "also flag N rounds without objective improvement (0 = stall check "
       "off)",
       cli::count(c.watchdog_config.stall_rounds),
       {"--watchdog warn or abort", [&c] { return c.watchdog != "off"; }}},
  };
}

// Pre-creates the canonical solver/network instruments so every snapshot
// carries stable keys (zero-valued when a code path never ran — e.g. no
// simnet traffic in a centralized run).
void register_standard_instruments() {
  obs::metrics().counter("plos.cutting_plane.constraints_added");
  obs::metrics().counter("qp.capped_simplex.solves");
  obs::metrics().counter("qp.capped_simplex.seconds");
  obs::metrics().counter("qp.capped_simplex.unconverged");
  obs::metrics().histogram("qp.capped_simplex.iterations",
                           obs::default_iteration_buckets());
  obs::metrics().histogram("qp.capped_simplex.sweeps",
                           obs::default_iteration_buckets());
  obs::metrics().histogram("qp.capped_simplex.newton_iterations",
                           obs::default_iteration_buckets());
  obs::metrics().histogram("qp.capped_simplex.newton_evaluations",
                           obs::default_iteration_buckets());
  obs::metrics().histogram("qp.capped_simplex.polish_sweeps",
                           obs::default_iteration_buckets());
  obs::metrics().counter("simnet.bytes_to_device");
  obs::metrics().counter("simnet.bytes_to_server");
  obs::metrics().counter("simnet.messages_to_device");
  obs::metrics().counter("simnet.messages_to_server");
  obs::metrics().counter("simnet.device_energy_joules");
  obs::metrics().counter("simnet.rounds");
  obs::metrics().counter("simnet.messages_dropped");
  obs::metrics().counter("simnet.messages_corrupted");
  obs::metrics().counter("simnet.retries");
  obs::metrics().counter("simnet.failed_messages");
  obs::metrics().counter("plos.watchdog.nonfinite");
  obs::metrics().counter("plos.watchdog.stall");
  obs::metrics().counter("plos.watchdog.divergence");
  obs::metrics().counter("plos.watchdog.participation");
  obs::metrics().counter("plos.watchdog.staleness");
  obs::metrics().counter("plos.watchdog.unconverged");
  obs::metrics().counter("plos.watchdog.violations");
}

// Writes one run artifact to `path` ("-" = stdout) and says where it went,
// followed by `detail`.
bool write_artifact(const char* what, const std::string& path,
                    const std::string& text, const std::string& detail = "") {
  if (!obs::write_file(path, text)) {
    std::fprintf(stderr, "failed to write %s to %s\n", what, path.c_str());
    return false;
  }
  if (path != "-") {
    std::printf("%s written to %s%s\n", what, path.c_str(), detail.c_str());
  }
  return true;
}

std::string render_double(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

data::MultiUserDataset build_dataset(const RunConfig& c) {
  rng::Engine engine(c.seed);
  data::MultiUserDataset dataset;
  if (c.dataset == "body") {
    sensing::BodySensorSpec spec;
    if (c.users > 0) spec.num_users = c.users;
    dataset = sensing::generate_body_sensor_dataset(spec, engine);
  } else if (c.dataset == "har") {
    sensing::HarSpec spec;
    if (c.users > 0) spec.num_users = c.users;
    dataset = sensing::generate_har_dataset(spec, engine);
  } else {
    data::SyntheticSpec spec;
    if (c.users > 0) spec.num_users = c.users;
    spec.max_rotation = c.rotation;
    dataset = data::generate_synthetic(spec, engine);
  }

  const std::size_t num_providers =
      c.providers > 0 ? c.providers : dataset.num_users() / 2;
  std::vector<std::size_t> providers;
  for (std::size_t i = 0; i < num_providers && i < dataset.num_users(); ++i) {
    providers.push_back(i * dataset.num_users() /
                        std::max<std::size_t>(1, num_providers));
  }
  rng::Engine label_engine(c.seed + 1);
  data::reveal_labels(dataset, providers, c.rate, label_engine);
  return dataset;
}

void print_report(const char* name, const core::AccuracyReport& report) {
  std::printf("%-10s providers %.4f   non-providers %.4f   overall %.4f\n",
              name, report.providers, report.non_providers, report.overall);
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig c;
  const std::vector<cli::Flag> flags = flag_table(c);
  switch (cli::parse("plos_run", flags, argc, argv, 1)) {
    case cli::ParseResult::kHelp:
      std::printf(
          "plos_run — train PLOS and baselines on a simulated population\n\n"
          "%s",
          cli::help(flags).c_str());
      return 0;
    case cli::ParseResult::kError:
      return 2;
    case cli::ParseResult::kOk:
      break;
  }
  core::DistributedPlosOptions& plos = c.quorum.base;
  c.fault.seed = c.seed;

  if (!c.metrics_out.empty() || !c.profile_out.empty()) {
    obs::metrics().set_enabled(true);
    register_standard_instruments();
  }
  if (!c.trace_out.empty() || !c.profile_out.empty()) {
    obs::Profiler::instance().reset();
    obs::Profiler::instance().set_enabled(true);
    obs::Profiler::instance().set_slices_enabled(!c.trace_out.empty());
  }

  const auto wall_start = std::chrono::steady_clock::now();

  // Telemetry sinks: the journal collects one record per training round,
  // the watchdog classifies each record online. Both are wired into the
  // trainer options below only when requested.
  obs::Journal journal;
  journal.set_every(c.journal_every);
  obs::WatchdogConfig& watchdog_config = c.watchdog_config;
  watchdog_config.on_violation = c.watchdog == "abort"
                                     ? obs::WatchdogConfig::OnViolation::kAbort
                                     : obs::WatchdogConfig::OnViolation::kWarn;
  // Fault-injected runs keep training through partial participation; flag
  // rounds where most of the fleet stops reaching the server.
  watchdog_config.participation_floor = 0.5;
  watchdog_config.participation_rounds = 3;
  // Under the async engine, aggregates that ride the eviction boundary for
  // several consecutive rounds mean the staleness bound is doing all the
  // work — flag that as a staleness collapse.
  if (c.async_mode) {
    watchdog_config.staleness_ceiling = c.quorum.staleness_bound;
  }
  obs::Watchdog watchdog(watchdog_config);
  const bool watchdog_on = c.watchdog != "off";
  const bool journal_wanted = !c.journal_out.empty() || !c.manifest_out.empty();
  plos.journal = journal_wanted ? &journal : nullptr;
  plos.watchdog = watchdog_on ? &watchdog : nullptr;

  // Deterministic end-of-run facts destined for the manifest.
  std::map<std::string, double> results;
  std::map<std::string, double> timing_map;

  const auto dataset = build_dataset(c);
  std::printf("dataset %s: %zu users (%zu providers), %zu samples, dim %zu\n",
              c.dataset.c_str(), dataset.num_users(),
              dataset.labeled_users().size(), dataset.total_samples(),
              dataset.dim());

  if (wants(c, "plos")) {
    core::PersonalizedModel model;
    if (c.logistic) {
      core::LogisticPlosOptions options;
      options.params = plos.params;
      const auto result = core::train_logistic_plos(dataset, options);
      model = result.model;
      std::printf("logistic PLOS: %d CCCP rounds, %.2fs\n",
                  result.diagnostics.cccp_iterations,
                  result.diagnostics.train_seconds);
      results["cccp_rounds"] =
          static_cast<double>(result.diagnostics.cccp_iterations);
    } else if (c.distributed) {
      net::SimNetwork network(dataset.num_users(), net::DeviceProfile{},
                              net::LinkProfile{});
      network.set_fault_model(net::FaultModel(c.fault));
      core::DistributedPlosDiagnostics diagnostics;
      if (c.async_mode) {
        obs::FlightRecorder flight_recorder;
        if (!c.flight_out.empty()) c.quorum.flight = &flight_recorder;
        const auto result =
            async::train_async_quorum_plos(dataset, c.quorum, &network);
        if (!c.flight_out.empty() &&
            !write_artifact(
                "flight log", c.flight_out, flight_recorder.to_chrome_json(),
                " (" + std::to_string(flight_recorder.size()) + " events, " +
                    std::to_string(flight_recorder.dropped()) +
                    " overwritten)")) {
          return 1;
        }
        model = result.model;
        diagnostics = result.diagnostics;
        const auto& a = result.async;
        double mean_quorum = 0.0;
        for (const std::uint64_t q : a.quorum_trace) {
          mean_quorum += static_cast<double>(q);
        }
        if (!a.quorum_trace.empty()) {
          mean_quorum /= static_cast<double>(a.quorum_trace.size());
        }
        const std::uint64_t evictions = a.evictions_offline_total +
                                        a.evictions_late_total +
                                        a.evictions_failed_total;
        std::printf(
            "async PLOS: %d ADMM iterations, %.4f virtual s, mean quorum "
            "%.2f/%zu, late uploads %llu, evictions %llu, max staleness "
            "%llu\n",
            diagnostics.admm_iterations_total, a.virtual_seconds, mean_quorum,
            dataset.num_users(),
            static_cast<unsigned long long>(a.late_uploads_total),
            static_cast<unsigned long long>(evictions),
            static_cast<unsigned long long>(a.max_staleness_seen));
        results["async_mean_quorum"] = mean_quorum;
        results["async_late_uploads"] =
            static_cast<double>(a.late_uploads_total);
        results["async_evictions"] = static_cast<double>(evictions);
        results["async_virtual_seconds"] = a.virtual_seconds;
        results["async_max_staleness"] =
            static_cast<double>(a.max_staleness_seen);
        if (c.quorum.autotune.enabled) {
          std::printf(
              "auto-tune: %llu actions, final quorum %.2f, final staleness "
              "bound %llu\n",
              static_cast<unsigned long long>(a.tune_actions), a.final_quorum,
              static_cast<unsigned long long>(a.final_staleness_bound));
          results["async_tune_actions"] =
              static_cast<double>(a.tune_actions);
          results["async_final_quorum"] = a.final_quorum;
          results["async_final_staleness_bound"] =
              static_cast<double>(a.final_staleness_bound);
        }
        // The async engine's wall clock is the deterministic virtual one.
        timing_map["simulated_seconds"] = a.virtual_seconds;
      } else {
        const auto result =
            core::train_distributed_plos(dataset, plos, &network);
        model = result.model;
        diagnostics = result.diagnostics;
        std::printf(
            "distributed PLOS: %d ADMM iterations, %.2f simulated s, "
            "%.2f KB/device\n",
            diagnostics.admm_iterations_total,
            network.total_simulated_seconds(),
            network.mean_bytes_per_device() / 1024.0);
        timing_map["simulated_seconds"] = network.total_simulated_seconds();
      }
      if (diagnostics.watchdog_aborted) {
        std::printf("watchdog aborted training after %d ADMM iterations\n",
                    diagnostics.admm_iterations_total);
      }
      results["cccp_rounds"] =
          static_cast<double>(diagnostics.cccp_iterations);
      results["admm_iterations"] =
          static_cast<double>(diagnostics.admm_iterations_total);
      std::printf("device QP: %d solves, %d unconverged\n",
                  diagnostics.qp_solves, diagnostics.qp_unconverged);
      results["qp_solves"] = static_cast<double>(diagnostics.qp_solves);
      results["qp_unconverged"] =
          static_cast<double>(diagnostics.qp_unconverged);
      if (!diagnostics.objective_trace.empty()) {
        results["final_objective"] = diagnostics.objective_trace.back();
      }
      if (!diagnostics.primal_residual_trace.empty()) {
        results["final_primal_residual"] =
            diagnostics.primal_residual_trace.back();
        results["final_dual_residual"] =
            diagnostics.dual_residual_trace.back();
      }
      const auto traffic = network.traffic_snapshot();
      results["bytes_to_devices"] =
          static_cast<double>(traffic.bytes_to_devices);
      results["bytes_to_server"] = static_cast<double>(traffic.bytes_to_server);
      results["messages_dropped"] =
          static_cast<double>(traffic.messages_dropped);
      results["retries"] = static_cast<double>(traffic.retries);
      const auto& d = diagnostics;
      double mean_participation = 0.0;
      for (double p : d.participation_trace) mean_participation += p;
      if (!d.participation_trace.empty()) {
        mean_participation /=
            static_cast<double>(d.participation_trace.size());
        results["mean_participation"] = mean_participation;
      }
      if (c.fault.any_faults()) {
        std::printf(
            "faults: participation %.3f, offline %zu, deadline misses %zu, "
            "dropped %zu (down %zu / up %zu), corrupted %zu, retries %zu, "
            "failed messages %zu\n",
            mean_participation, d.devices_offline_total,
            d.deadline_misses_total,
            d.fault_counters.downlink_dropped + d.fault_counters.uplink_dropped,
            d.fault_counters.downlink_dropped, d.fault_counters.uplink_dropped,
            d.fault_counters.downlink_corrupted +
                d.fault_counters.uplink_corrupted,
            d.fault_counters.retries, d.fault_counters.failed_messages);
      }
    } else {
      core::CentralizedPlosOptions options;
      options.params = plos.params;
      options.num_threads = plos.num_threads;
      options.journal = plos.journal;
      options.watchdog = plos.watchdog;
      const auto result = core::train_centralized_plos(dataset, options);
      model = result.model;
      std::printf("centralized PLOS: %d CCCP rounds, %zu planes, %.2fs\n",
                  result.diagnostics.cccp_iterations,
                  result.diagnostics.final_constraint_count,
                  result.diagnostics.train_seconds);
      if (result.diagnostics.watchdog_aborted) {
        std::printf("watchdog aborted training after %d CCCP rounds\n",
                    result.diagnostics.cccp_iterations);
      }
      results["cccp_rounds"] =
          static_cast<double>(result.diagnostics.cccp_iterations);
      std::printf("dual QP: %d solves, %d unconverged\n",
                  result.diagnostics.qp_solves,
                  result.diagnostics.qp_unconverged);
      results["qp_solves"] = static_cast<double>(result.diagnostics.qp_solves);
      results["qp_unconverged"] =
          static_cast<double>(result.diagnostics.qp_unconverged);
      results["constraints"] =
          static_cast<double>(result.diagnostics.final_constraint_count);
      if (!result.diagnostics.objective_trace.empty()) {
        results["final_objective"] = result.diagnostics.objective_trace.back();
      }
    }
    if (watchdog_on) {
      std::printf("%s\n",
                  obs::watchdog_summary(watchdog, ", first violation ").c_str());
    }
    const auto plos_report =
        core::evaluate(dataset, core::predict_all(dataset, model));
    print_report("PLOS", plos_report);
    results["accuracy.plos.providers"] = plos_report.providers;
    results["accuracy.plos.non_providers"] = plos_report.non_providers;
    results["accuracy.plos.overall"] = plos_report.overall;
    if (!c.save_model.empty()) {
      if (core::save_model(model, c.save_model)) {
        std::printf("model saved to %s\n", c.save_model.c_str());
      } else {
        std::fprintf(stderr, "failed to save model to %s\n",
                     c.save_model.c_str());
        return 1;
      }
    }
  }
  core::BaselineOptions baseline_options;
  baseline_options.num_threads = plos.num_threads;
  if (wants(c, "all")) {
    const auto report = core::evaluate(
        dataset, core::run_all_baseline(dataset, baseline_options));
    print_report("All", report);
    results["accuracy.all.overall"] = report.overall;
  }
  if (wants(c, "group")) {
    core::GroupBaselineOptions group_options;
    group_options.base = baseline_options;
    const auto report = core::evaluate(
        dataset, core::run_group_baseline(dataset, group_options));
    print_report("Group", report);
    results["accuracy.group.overall"] = report.overall;
  }
  if (wants(c, "single")) {
    const auto report = core::evaluate(
        dataset, core::run_single_baseline(dataset, baseline_options));
    print_report("Single", report);
    results["accuracy.single.overall"] = report.overall;
  }

  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();

  if (!c.manifest_out.empty()) {
    obs::RunManifest manifest;
    manifest.tool = "plos_run";
    obs::fill_build_info(manifest);
    manifest.seed = c.seed;
    manifest.dataset = data::fingerprint(dataset, c.dataset);
    manifest.options["dataset"] = c.dataset;
    manifest.options["methods"] = c.methods;
    manifest.options["mode"] = c.logistic      ? "logistic"
                               : c.distributed ? "distributed"
                                               : "centralized";
    manifest.options["lambda"] = render_double(plos.params.lambda);
    manifest.options["cl"] = render_double(plos.params.cl);
    manifest.options["cu"] = render_double(plos.params.cu);
    manifest.options["rate"] = render_double(c.rate);
    if (c.dataset == "synth") {
      manifest.options["rotation"] = render_double(c.rotation);
    }
    // Async keys ride under the "async" prefix so a degenerate-equivalence
    // diff can exclude them wholesale (--ignore options.async); synchronous
    // manifests gain no new keys at all.
    if (c.async_mode) {
      manifest.options["async"] = "1";
      manifest.options["async_quorum"] = render_double(c.quorum.quorum);
      manifest.options["async_staleness_bound"] =
          std::to_string(c.quorum.staleness_bound);
      manifest.options["async_adaptive_deadline"] =
          c.quorum.adaptive_deadline ? "on" : "off";
      if (c.quorum.autotune.enabled) {
        manifest.options["async_auto_tune"] = "on";
      }
    }
    // Only non-default downsampling lands in the manifest: default-1 runs
    // keep byte-identical manifests with pre-flag builds (golden files).
    if (c.journal_every > 1) {
      manifest.options["journal_every"] = std::to_string(c.journal_every);
    }
    manifest.options["watchdog"] = c.watchdog;
    if (watchdog_config.stall_rounds > 0) {
      manifest.options["watchdog_stall_rounds"] =
          std::to_string(watchdog_config.stall_rounds);
    }
    if (c.fault.any_faults()) {
      const net::FaultSpec& f = c.fault;
      manifest.fault["drop_probability"] = render_double(f.drop_probability);
      manifest.fault["offline_probability"] =
          render_double(f.offline_probability);
      manifest.fault["straggler_probability"] =
          render_double(f.straggler_probability);
      manifest.fault["corrupt_probability"] =
          render_double(f.corrupt_probability);
      manifest.fault["round_deadline_s"] = render_double(f.round_deadline_s);
    }
    manifest.results = results;
    manifest.watchdog_verdict = watchdog_on ? watchdog.verdict() : "off";
    manifest.watchdog_violations = watchdog.violations().size();
    if (!watchdog.violations().empty()) {
      manifest.watchdog_first_violation =
          obs::violation_kind_name(watchdog.violations().front().kind);
    }
    manifest.threads =
        plos.num_threads == 0
            ? static_cast<int>(std::thread::hardware_concurrency())
            : plos.num_threads;
    manifest.wall_seconds = wall_seconds;
    manifest.timing = timing_map;
    if (!write_artifact("manifest", c.manifest_out,
                        obs::manifest_to_json(manifest) + "\n")) {
      return 1;
    }
  }
  if (!c.journal_out.empty() &&
      !write_artifact("journal", c.journal_out, journal.to_jsonl())) {
    return 1;
  }
  if (!c.trace_out.empty() &&
      !write_artifact("trace", c.trace_out,
                      obs::Profiler::instance().to_chrome_json())) {
    return 1;
  }
  if (!c.metrics_out.empty() &&
      !write_artifact("metrics", c.metrics_out, obs::metrics().to_json())) {
    return 1;
  }
  if (!c.profile_out.empty()) {
    obs::ProfileJsonOptions profile_options;
    profile_options.registry = &obs::metrics();
    if (!write_artifact("profile", c.profile_out,
                        obs::profile_to_json(profile_options) + "\n")) {
      return 1;
    }
  }
  return 0;
}
