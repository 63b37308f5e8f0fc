// plos_inspect — read, compare, and gate run telemetry.
//
//   plos_inspect report run.json [journal.jsonl]
//       human convergence report from a manifest and/or round journal
//       (either file may also be a bare journal; formats are detected)
//
//   plos_inspect diff a.json b.json [--tol EPS] [--field-tol PATH=EPS]
//                [--timing] [--ignore PREFIX]
//       field-by-field manifest comparison; exits 1 on any difference.
//       Timing fields are ignored unless --timing is given.
//
//   plos_inspect check run.json --against golden.json [--tol EPS]
//                [--field-tol PATH=EPS] [--ignore PREFIX]
//       regression gate for CI: like diff, but with cross-build defaults
//       (tolerance 1e-6; timing, build info, and the raw dataset content
//       hash ignored). --ignore (repeatable) skips additional dot-path
//       prefixes — e.g. options.async when gating a quorum-1.0 async run
//       against a synchronous golden. Exits 1 on violation, 2 on
//       usage/IO errors.
//
//   plos_inspect bench-report BENCH.json
//       human summary of one BENCH_*.json bench suite
//
//   plos_inspect bench-diff A.json B.json
//       exact-counter comparison of two bench suites (wall time ignored);
//       exits 1 on any counter drift
//
//   plos_inspect bench-check RUN.json --against BENCH_baseline.json
//                [--time-tol FACTOR]
//       CI perf gate: counters exact, median wall time allowed to exceed
//       the baseline by at most FACTOR (default 3.0 = 4x). Exits 1 on
//       violation.
//
//   plos_inspect timeline flight.json
//       causal per-round view of a flight log written by
//       `plos_run --async --flight-out`: upload attempts with their
//       retry/drop/corruption outcomes, deadline misses, quorum cuts,
//       late folds, evictions, and aggregates on the virtual clock.
#include <cstdio>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "flags.hpp"
#include "obs/flight.hpp"
#include "obs/inspect.hpp"
#include "obs/journal.hpp"
#include "obs/json.hpp"

namespace {

using namespace plos;

int usage_error(const char* message) {
  std::fprintf(stderr, "plos_inspect: %s\nrun 'plos_inspect --help' for usage\n",
               message);
  return 2;
}

// A telemetry file is either one JSON object (manifest) or JSON Lines
// (journal). Detected by content, so `report` takes files in any order.
struct LoadedFile {
  std::optional<obs::json::Value> manifest;
  std::vector<obs::RoundRecord> journal;
};

bool load_telemetry_file(const std::string& path, LoadedFile& out,
                         std::string& error) {
  std::string text;
  if (!obs::read_file(path, text)) {
    error = "cannot read " + path;
    return false;
  }
  // Try whole-document JSON first: a manifest is exactly one object.
  std::string parse_error;
  if (auto value = obs::json::parse(text, &parse_error);
      value && value->is_object()) {
    // A single journal record also parses as an object; classify by the
    // journal's mandatory trainer/cccp_round fields.
    if (value->find("trainer") == nullptr) {
      out.manifest = std::move(*value);
      return true;
    }
  }
  std::string journal_error;
  if (obs::parse_journal_jsonl(text, out.journal, &journal_error)) {
    return true;
  }
  error = path + ": not a manifest (" + parse_error + ") nor a journal (" +
          journal_error + ")";
  return false;
}

int run_report(const std::vector<std::string>& files) {
  if (files.empty() || files.size() > 2) {
    return usage_error("report expects one or two files");
  }
  std::optional<obs::json::Value> manifest;
  std::vector<obs::RoundRecord> journal;
  for (const std::string& path : files) {
    LoadedFile loaded;
    std::string error;
    if (!load_telemetry_file(path, loaded, error)) {
      std::fprintf(stderr, "plos_inspect: %s\n", error.c_str());
      return 2;
    }
    if (loaded.manifest) manifest = std::move(loaded.manifest);
    if (!loaded.journal.empty()) journal = std::move(loaded.journal);
  }
  const std::string report = obs::convergence_report(
      manifest ? &*manifest : nullptr, journal.empty() ? nullptr : &journal);
  std::fputs(report.c_str(), stdout);
  return 0;
}

struct CompareArgs {
  std::vector<std::string> files;
  std::string against;
  std::optional<double> tolerance;
  std::optional<double> time_tolerance;
  std::map<std::string, double> field_tolerances;
  std::vector<std::string> ignored_prefixes;
  bool include_timing = false;
};

std::vector<cli::Flag> compare_flags(CompareArgs& args) {
  return {
      {"--against", "FILE", "golden manifest or baseline suite",
       cli::text(args.against)},
      {"--tol", "EPS",
       "relative tolerance (diff: exact by default; check: 1e-6)",
       cli::number(args.tolerance, cli::kNonNegative)},
      {"--field-tol", "PATH=EPS",
       "tolerance for one dot-path field (repeatable)",
       [&args](const char* text) {
         const char* eq = std::strchr(text, '=');
         double tol = 0.0;
         if (eq == nullptr || eq == text || !cli::parse_number(eq + 1, tol) ||
             tol < 0.0) {
           return std::string("expects PATH=EPS with a finite EPS >= 0, got '") +
                  text + "'";
         }
         args.field_tolerances[std::string(text, eq)] = tol;
         return std::string();
       }},
      {"--ignore", "PREFIX", "skip a dot-path prefix (repeatable)",
       [&args](const char* text) {
         if (text[0] == '\0') return std::string("expects a path prefix");
         args.ignored_prefixes.emplace_back(text);
         return std::string();
       }},
      {"--timing", nullptr, "diff: also compare timing.*",
       cli::store(args.include_timing, true)},
      {"--time-tol", "F",
       "bench-check: median wall time may exceed the baseline by at most F "
       "(default 3.0 = 4x)",
       cli::number(args.time_tolerance, cli::kNonNegative)},
  };
}

void print_usage() {
  CompareArgs unused;
  std::printf(
      "plos_inspect — inspect and compare PLOS run telemetry\n\n"
      "  plos_inspect report FILE [FILE]\n"
      "      print a convergence report from a run manifest (run.json)\n"
      "      and/or a round journal (journal.jsonl); '-' reads stdin\n"
      "  plos_inspect diff A B [--tol EPS] [--field-tol PATH=EPS] [--timing]\n"
      "               [--ignore PREFIX]\n"
      "      compare two manifests field by field (exit 1 on differences;\n"
      "      timing.* ignored unless --timing)\n"
      "  plos_inspect check RUN --against GOLDEN [--tol EPS]\n"
      "               [--field-tol PATH=EPS] [--ignore PREFIX]\n"
      "      gate RUN against a golden manifest (timing.*, build.*,\n"
      "      dataset.content_hash ignored; exit 1 on violation)\n"
      "  plos_inspect bench-report BENCH.json\n"
      "      print a human summary of one BENCH_*.json bench suite\n"
      "  plos_inspect bench-diff A B\n"
      "      compare two bench suites' exact counters (wall time ignored;\n"
      "      exit 1 on drift)\n"
      "  plos_inspect bench-check RUN --against BASELINE [--time-tol F]\n"
      "      perf gate: counters exact, median wall time within tolerance;\n"
      "      exit 1 on violation\n"
      "  plos_inspect timeline FLIGHT.json\n"
      "      causal per-round device-lifecycle view of a flight log\n"
      "      (plos_run --async --flight-out)\n\n"
      "options:\n%s",
      cli::help(compare_flags(unused)).c_str());
}

bool load_manifest(const std::string& path, obs::json::Value& out) {
  std::string text;
  if (!obs::read_file(path, text)) {
    std::fprintf(stderr, "plos_inspect: cannot read %s\n", path.c_str());
    return false;
  }
  std::string error;
  auto value = obs::json::parse(text, &error);
  if (!value || !value->is_object()) {
    std::fprintf(stderr, "plos_inspect: %s: %s\n", path.c_str(),
                 error.empty() ? "not a JSON object" : error.c_str());
    return false;
  }
  out = std::move(*value);
  return true;
}

void print_differences(const obs::DiffResult& result, const std::string& left,
                       const std::string& right) {
  std::printf("%zu field(s) differ between %s and %s:\n",
              result.differences.size(), left.c_str(), right.c_str());
  for (const obs::DiffEntry& entry : result.differences) {
    std::printf("  %-40s %s  |  %s\n", entry.path.c_str(), entry.left.c_str(),
                entry.right.c_str());
  }
}

int run_diff(const CompareArgs& args) {
  if (args.files.size() != 2) return usage_error("diff expects two files");
  obs::json::Value left, right;
  if (!load_manifest(args.files[0], left) ||
      !load_manifest(args.files[1], right)) {
    return 2;
  }
  obs::DiffOptions options = obs::default_diff_options();
  if (args.include_timing) options.ignored_prefixes.clear();
  if (args.tolerance) options.tolerance = *args.tolerance;
  options.field_tolerances = args.field_tolerances;
  options.ignored_prefixes.insert(options.ignored_prefixes.end(),
                                  args.ignored_prefixes.begin(),
                                  args.ignored_prefixes.end());
  const obs::DiffResult result = obs::diff_values(left, right, options);
  if (result.identical()) {
    std::printf("manifests match (%zu field(s) compared)\n",
                result.fields_compared);
    return 0;
  }
  print_differences(result, args.files[0], args.files[1]);
  return 1;
}

int run_check(const CompareArgs& args) {
  if (args.files.size() != 1 || args.against.empty()) {
    return usage_error("check expects RUN --against GOLDEN");
  }
  obs::json::Value run, golden;
  if (!load_manifest(args.files[0], run) ||
      !load_manifest(args.against, golden)) {
    return 2;
  }
  obs::DiffOptions options = obs::default_check_options();
  if (args.tolerance) options.tolerance = *args.tolerance;
  for (const auto& [path, tol] : args.field_tolerances) {
    options.field_tolerances[path] = tol;
  }
  options.ignored_prefixes.insert(options.ignored_prefixes.end(),
                                  args.ignored_prefixes.begin(),
                                  args.ignored_prefixes.end());
  const obs::DiffResult result = obs::diff_values(run, golden, options);
  if (result.identical()) {
    std::printf("check passed: %s matches %s (%zu field(s), tol %g)\n",
                args.files[0].c_str(), args.against.c_str(),
                result.fields_compared, options.tolerance);
    return 0;
  }
  std::printf("check FAILED: ");
  print_differences(result, args.files[0], args.against);
  return 1;
}

int run_bench_report(const std::vector<std::string>& files) {
  if (files.size() != 1) return usage_error("bench-report expects one file");
  obs::json::Value suite;
  if (!load_manifest(files[0], suite)) return 2;
  const std::string report = obs::bench_report(suite);
  std::fputs(report.c_str(), stdout);
  return 0;
}

int run_bench_compare(const CompareArgs& args, bool check_time) {
  std::string run_path, baseline_path;
  if (check_time) {
    if (args.files.size() != 1 || args.against.empty()) {
      return usage_error("bench-check expects RUN --against BASELINE");
    }
    run_path = args.files[0];
    baseline_path = args.against;
  } else {
    if (args.files.size() != 2) {
      return usage_error("bench-diff expects two files");
    }
    run_path = args.files[0];
    baseline_path = args.files[1];
  }
  obs::json::Value run, baseline;
  if (!load_manifest(run_path, run) ||
      !load_manifest(baseline_path, baseline)) {
    return 2;
  }
  obs::BenchCheckOptions options;
  options.check_time_regression = check_time;
  if (args.time_tolerance) options.time_tolerance = *args.time_tolerance;
  const obs::BenchCheckResult result =
      obs::bench_check(run, baseline, options);
  for (const std::string& note : result.notes) {
    std::printf("  %s\n", note.c_str());
  }
  if (result.ok()) {
    std::printf("bench %s passed: %s matches %s (%zu counter(s) exact%s)\n",
                check_time ? "check" : "diff", run_path.c_str(),
                baseline_path.c_str(), result.counters_compared,
                check_time ? ", wall time within tolerance" : "");
    return 0;
  }
  std::printf("bench %s FAILED: %zu violation(s) against %s:\n",
              check_time ? "check" : "diff", result.violations.size(),
              baseline_path.c_str());
  for (const std::string& violation : result.violations) {
    std::printf("  %s\n", violation.c_str());
  }
  return 1;
}

// DeviceRoundStatus vocabulary (core/admm_device.hpp enum order) for
// rendering fold/eviction causes without pulling the core library in.
const char* device_status_name(int status) {
  switch (status) {
    case 0: return "participated";
    case 1: return "unavailable";
    case 2: return "offline";
    case 3: return "downlink_failed";
    case 4: return "deadline_missed";
    case 5: return "uplink_failed";
    case 6: return "late_upload";
    case 7: return "busy";
    default: return "unknown";
  }
}

const char* attempt_result_name(int result) {
  switch (result) {
    case 0: return "delivered";
    case 1: return "dropped";
    case 2: return "corrupted";
    default: return "unknown";
  }
}

int run_timeline(const std::vector<std::string>& files) {
  if (files.size() != 1) {
    return usage_error("timeline expects one flight-log file");
  }
  std::string text;
  if (!obs::read_file(files[0], text)) {
    std::fprintf(stderr, "plos_inspect: cannot read %s\n", files[0].c_str());
    return 2;
  }
  std::vector<obs::FlightEvent> events;
  std::string error;
  if (!obs::parse_flight_json(text, events, &error)) {
    std::fprintf(stderr, "plos_inspect: %s: %s\n", files[0].c_str(),
                 error.c_str());
    return 2;
  }
  std::printf("flight timeline: %zu event(s) from %s\n", events.size(),
              files[0].c_str());
  std::uint64_t current_round = 0;
  bool have_round = false;
  for (const obs::FlightEvent& e : events) {
    if (!have_round || e.round != current_round) {
      current_round = e.round;
      have_round = true;
      std::printf("round %llu\n",
                  static_cast<unsigned long long>(e.round));
    }
    switch (e.kind) {
      case obs::FlightEventKind::kBootstrap:
        std::printf("  device %-4u bootstrap contribution\n", e.device);
        break;
      case obs::FlightEventKind::kUploadAttempt:
        std::printf("  device %-4u upload attempt %u %-9s [%.6f, %.6f]s\n",
                    e.device, e.attempt, attempt_result_name(e.cause),
                    e.t_start, e.t_end);
        break;
      case obs::FlightEventKind::kDeadlineMiss:
        std::printf(
            "  device %-4u deadline miss          (deadline %.6fs, "
            "completion %.6fs)\n",
            e.device, e.t_start, e.t_end);
        break;
      case obs::FlightEventKind::kQuorumCut:
        std::printf("  server      quorum cut  [%.6f, %.6f]s  (%llu fresh)\n",
                    e.t_start, e.t_end,
                    static_cast<unsigned long long>(e.staleness));
        break;
      case obs::FlightEventKind::kLateFold:
        std::printf(
            "  device %-4u late fold   (arrived %.6fs, folded %.6fs, "
            "staleness %llu, cause %s)\n",
            e.device, e.t_start, e.t_end,
            static_cast<unsigned long long>(e.staleness),
            device_status_name(e.cause));
        break;
      case obs::FlightEventKind::kEviction:
        std::printf(
            "  device %-4u evicted     at %.6fs (staleness %llu, cause %s)\n",
            e.device, e.t_start,
            static_cast<unsigned long long>(e.staleness),
            device_status_name(e.cause));
        break;
      case obs::FlightEventKind::kAggregate:
        std::printf("  server      aggregate   at %.6fs (%llu fresh)\n",
                    e.t_start, static_cast<unsigned long long>(e.staleness));
        break;
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    print_usage();
    return 2;
  }
  const std::string command = argv[1];
  if (command == "--help" || command == "-h" || command == "help") {
    print_usage();
    return 0;
  }
  CompareArgs args;
  switch (cli::parse("plos_inspect", compare_flags(args), argc, argv, 2,
                     &args.files)) {
    case cli::ParseResult::kHelp:
      print_usage();
      return 0;
    case cli::ParseResult::kError:
      return 2;
    case cli::ParseResult::kOk:
      break;
  }
  if (command == "report") return run_report(args.files);
  if (command == "diff") return run_diff(args);
  if (command == "check") return run_check(args);
  if (command == "bench-report") return run_bench_report(args.files);
  if (command == "bench-diff") return run_bench_compare(args, false);
  if (command == "bench-check") return run_bench_compare(args, true);
  if (command == "timeline") return run_timeline(args.files);
  return usage_error(("unknown command '" + command + "'").c_str());
}
