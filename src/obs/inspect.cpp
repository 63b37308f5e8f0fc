#include "obs/inspect.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "obs/watchdog.hpp"

namespace plos::obs {

namespace {

std::string render_leaf(const json::Value& value) {
  return value.to_json();
}

bool leaves_match(const json::Value& a, const json::Value& b,
                  double tolerance) {
  if (a.type() != b.type()) {
    // null-vs-number is a real difference; nothing else to relax here.
    return false;
  }
  switch (a.type()) {
    case json::Value::Type::kNumber: {
      const double x = a.as_number();
      const double y = b.as_number();
      if (std::isnan(x) && std::isnan(y)) return true;
      if (!std::isfinite(x) || !std::isfinite(y)) return x == y;
      const double scale = std::max({1.0, std::abs(x), std::abs(y)});
      return std::abs(x - y) <= tolerance * scale;
    }
    case json::Value::Type::kBool:
      return a.as_bool() == b.as_bool();
    case json::Value::Type::kString:
      return a.as_string() == b.as_string();
    default:
      return true;  // null == null
  }
}

bool ignored(const std::string& path, const DiffOptions& options) {
  for (const std::string& prefix : options.ignored_prefixes) {
    if (path.compare(0, prefix.size(), prefix) == 0) return true;
  }
  return false;
}

}  // namespace

DiffResult diff_values(const json::Value& left, const json::Value& right,
                       const DiffOptions& options) {
  const auto left_leaves = json::flatten(left);
  const auto right_leaves = json::flatten(right);
  std::map<std::string, const json::Value*> right_by_path;
  for (const auto& [path, value] : right_leaves) {
    right_by_path.emplace(path, &value);
  }

  DiffResult result;
  for (const auto& [path, value] : left_leaves) {
    if (ignored(path, options)) continue;
    ++result.fields_compared;
    const auto it = right_by_path.find(path);
    if (it == right_by_path.end()) {
      result.differences.push_back({path, render_leaf(value), "<missing>"});
      continue;
    }
    const auto tol_it = options.field_tolerances.find(path);
    const double tolerance = tol_it != options.field_tolerances.end()
                                 ? tol_it->second
                                 : options.tolerance;
    if (!leaves_match(value, *it->second, tolerance)) {
      result.differences.push_back(
          {path, render_leaf(value), render_leaf(*it->second)});
    }
    right_by_path.erase(it);
  }
  // Whatever survives in right_by_path exists only on the right side.
  for (const auto& [path, value] : right_by_path) {
    if (ignored(path, options)) continue;
    ++result.fields_compared;
    result.differences.push_back({path, "<missing>", render_leaf(*value)});
  }
  std::sort(result.differences.begin(), result.differences.end(),
            [](const DiffEntry& a, const DiffEntry& b) {
              return a.path < b.path;
            });
  return result;
}

DiffOptions default_diff_options() {
  DiffOptions options;
  options.tolerance = 0.0;
  options.ignored_prefixes = {"timing."};
  return options;
}

DiffOptions default_check_options() {
  DiffOptions options;
  options.tolerance = 1e-6;
  options.ignored_prefixes = {"timing.", "build.", "dataset.content_hash"};
  // Async-quorum manifest results are deterministic, but the two derived
  // ratios pass through a division in the reporting layer; give them a
  // tight non-zero tolerance so a libm difference can't fail a check that
  // the underlying integer ledgers pass.
  options.field_tolerances["results.async_mean_quorum"] = 1e-9;
  options.field_tolerances["results.async_virtual_seconds"] = 1e-9;
  return options;
}

namespace {

void append_line(std::string& out, const std::string& line) {
  out += line;
  out += '\n';
}

std::string format_number(double value) {
  if (!std::isfinite(value)) return std::isnan(value) ? "nan" : "inf";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.6g", value);
  return buffer;
}

void report_manifest(std::string& out, const json::Value& manifest) {
  const auto field_string = [&manifest](const char* a,
                                        const char* b) -> std::string {
    const json::Value* section = manifest.find(a);
    const json::Value* leaf =
        b == nullptr ? section : (section != nullptr ? section->find(b)
                                                     : nullptr);
    if (leaf == nullptr) return "?";
    if (leaf->is_string()) return leaf->as_string();
    if (leaf->is_number()) return format_number(leaf->as_number());
    return leaf->to_json();
  };

  append_line(out, "manifest:");
  append_line(out, "  tool        " + field_string("tool", nullptr) +
                       " (seed " + field_string("seed", nullptr) + ")");
  append_line(out, "  dataset     " + field_string("dataset", "name") + ": " +
                       field_string("dataset", "users") + " users, " +
                       field_string("dataset", "providers") + " providers, " +
                       field_string("dataset", "samples") + " samples, dim " +
                       field_string("dataset", "dim") + ", hash " +
                       field_string("dataset", "content_hash"));
  append_line(out, "  watchdog    " + field_string("watchdog", "verdict") +
                       " (" + field_string("watchdog", "violations") +
                       " violations)");
  const json::Value* first = manifest.find("watchdog");
  if (first != nullptr) {
    const json::Value* message = first->find("first_violation");
    if (message != nullptr && message->is_string() &&
        !message->as_string().empty()) {
      append_line(out, "  violation   " + message->as_string());
    }
  }
  if (const json::Value* results = manifest.find("results");
      results != nullptr && results->is_object()) {
    append_line(out, "  results:");
    for (const auto& [key, value] : results->as_object()) {
      if (!value.is_number()) continue;
      char line[160];
      std::snprintf(line, sizeof(line), "    %-32s %s", key.c_str(),
                    format_number(value.as_number()).c_str());
      append_line(out, line);
    }
  }
  if (const json::Value* timing = manifest.find("timing");
      timing != nullptr && timing->is_object()) {
    append_line(out, "  timing:");
    for (const auto& [key, value] : timing->as_object()) {
      if (!value.is_number()) continue;
      char line[160];
      std::snprintf(line, sizeof(line), "    %-32s %s", key.c_str(),
                    format_number(value.as_number()).c_str());
      append_line(out, line);
    }
  }
}

void report_journal(std::string& out,
                    const std::vector<RoundRecord>& journal) {
  append_line(out, "journal: " + std::to_string(journal.size()) + " records");
  if (journal.empty()) return;

  double first_objective = RoundRecord::kUnset;
  double final_objective = RoundRecord::kUnset;
  double best_objective = RoundRecord::kUnset;
  bool any_nonfinite = false;
  double final_primal = RoundRecord::kUnset;
  double final_dual = RoundRecord::kUnset;
  double participation_sum = 0.0, participation_min = 2.0;
  std::size_t participation_count = 0;
  std::uint64_t bytes_down = 0, bytes_up = 0, dropped = 0, retries = 0;
  int qp_solves = 0;
  long long qp_iterations = 0;
  int qp_unconverged = 0;
  int max_cccp = 0;
  std::uint64_t quorum_sum = 0, quorum_min = 0, quorum_records = 0;
  std::uint64_t late_uploads = 0, evictions = 0, max_staleness = 0;

  for (const RoundRecord& r : journal) {
    if (!r.objective_finite ||
        (!std::isnan(r.objective) && !std::isfinite(r.objective))) {
      any_nonfinite = true;
    }
    if (r.objective_finite && std::isfinite(r.objective)) {
      if (std::isnan(first_objective)) first_objective = r.objective;
      final_objective = r.objective;
      if (std::isnan(best_objective) || r.objective < best_objective) {
        best_objective = r.objective;
      }
    }
    if (!std::isnan(r.primal_residual)) final_primal = r.primal_residual;
    if (!std::isnan(r.dual_residual)) final_dual = r.dual_residual;
    if (!std::isnan(r.participation_rate)) {
      participation_sum += r.participation_rate;
      participation_min = std::min(participation_min, r.participation_rate);
      ++participation_count;
    }
    bytes_down += r.bytes_to_devices;
    bytes_up += r.bytes_to_server;
    dropped += r.messages_dropped;
    retries += r.retries;
    qp_solves += r.qp_solves;
    qp_iterations += r.qp_iterations;
    qp_unconverged += r.qp_unconverged;
    max_cccp = std::max(max_cccp, r.cccp_round);
    if (r.quorum_size > 0) {
      quorum_sum += r.quorum_size;
      quorum_min =
          quorum_records == 0 ? r.quorum_size : std::min(quorum_min,
                                                         r.quorum_size);
      ++quorum_records;
    }
    late_uploads += r.late_uploads;
    evictions +=
        r.evictions_offline + r.evictions_late + r.evictions_failed;
    max_staleness = std::max(max_staleness, r.max_staleness);
  }

  append_line(out, "  trainer     " + journal.front().trainer + ", " +
                       std::to_string(max_cccp + 1) + " CCCP round(s)");
  append_line(out, "  objective   first " + format_number(first_objective) +
                       "  best " + format_number(best_objective) +
                       "  final " + format_number(final_objective) +
                       (any_nonfinite ? "  [NON-FINITE VALUES PRESENT]" : ""));
  if (!std::isnan(final_primal)) {
    append_line(out, "  residuals   final primal " +
                         format_number(final_primal) + "  final dual " +
                         format_number(final_dual));
  }
  if (participation_count > 0) {
    append_line(
        out,
        "  particip.   mean " +
            format_number(participation_sum /
                          static_cast<double>(participation_count)) +
            "  min " + format_number(participation_min));
  }
  if (quorum_records > 0) {
    append_line(
        out,
        "  quorum      mean " +
            format_number(static_cast<double>(quorum_sum) /
                          static_cast<double>(quorum_records)) +
            " fresh uploads/step  min " + std::to_string(quorum_min) +
            "  late " + std::to_string(late_uploads) + "  evicted " +
            std::to_string(evictions));
    append_line(out,
                "  staleness   max " + std::to_string(max_staleness) +
                    " step(s)");
  }
  append_line(out, "  qp          " + std::to_string(qp_solves) +
                       " solves, " + std::to_string(qp_iterations) +
                       " iterations, " + std::to_string(qp_unconverged) +
                       " unconverged");
  // The default watchdog policy replayed over the journal; the run's own
  // policy and verdict are the manifest's.
  append_line(out, "  replay      " +
                       watchdog_summary(
                           replay_watchdog(journal, WatchdogConfig{}),
                           "\n  violation   "));
  if (bytes_down + bytes_up > 0) {
    append_line(out, "  traffic     " + std::to_string(bytes_down) +
                         " B down, " + std::to_string(bytes_up) +
                         " B up, " + std::to_string(dropped) + " dropped, " +
                         std::to_string(retries) + " retries");
  }
}

}  // namespace

std::string convergence_report(const json::Value* manifest,
                               const std::vector<RoundRecord>* journal) {
  std::string out;
  if (manifest != nullptr) report_manifest(out, *manifest);
  if (journal != nullptr) report_journal(out, *journal);
  if (out.empty()) out = "nothing to report\n";
  return out;
}

// ---- bench baseline comparison -------------------------------------------

namespace {

const json::Object* object_field(const json::Value& value,
                                 std::string_view key) {
  const json::Value* field = value.find(key);
  return field != nullptr && field->is_object() ? &field->as_object()
                                                : nullptr;
}

double number_field(const json::Value& value, std::string_view key,
                    double fallback) {
  const json::Value* field = value.find(key);
  return field != nullptr && field->is_number() ? field->as_number()
                                                : fallback;
}

std::string string_field(const json::Value& value, std::string_view key) {
  const json::Value* field = value.find(key);
  return field != nullptr && field->is_string() ? field->as_string() : "";
}

std::string format_ms(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.3f", value);
  return buffer;
}

}  // namespace

BenchCheckResult bench_check(const json::Value& run,
                             const json::Value& baseline,
                             const BenchCheckOptions& options) {
  BenchCheckResult result;
  const std::string run_name = string_field(run, "name");
  const std::string baseline_name = string_field(baseline, "name");
  if (run_name != baseline_name) {
    result.violations.push_back("suite name mismatch: run '" + run_name +
                                "' vs baseline '" + baseline_name + "'");
  }
  const double run_schema = number_field(run, "schema_version", -1.0);
  const double baseline_schema = number_field(baseline, "schema_version", -1.0);
  if (run_schema != baseline_schema) {
    result.violations.push_back(
        "schema_version mismatch: run " + json::number(run_schema) +
        " vs baseline " + json::number(baseline_schema));
  }
  const json::Object* run_cases = object_field(run, "cases");
  const json::Object* baseline_cases = object_field(baseline, "cases");
  if (run_cases == nullptr || baseline_cases == nullptr) {
    result.violations.push_back(std::string("missing cases object in ") +
                                (run_cases == nullptr ? "run" : "baseline"));
    return result;
  }

  for (const auto& [case_name, baseline_case] : *baseline_cases) {
    const auto run_it = run_cases->find(case_name);
    if (run_it == run_cases->end()) {
      result.violations.push_back("case '" + case_name +
                                  "' missing from run");
      continue;
    }
    const json::Value& run_case = run_it->second;

    // Counters: exact, both directions. A counter that moved, appeared,
    // or vanished is drift; intentional changes regenerate the baseline.
    const json::Object* baseline_counters =
        object_field(baseline_case, "counters");
    const json::Object* run_counters = object_field(run_case, "counters");
    if (baseline_counters != nullptr && run_counters != nullptr) {
      for (const auto& [counter, baseline_value] : *baseline_counters) {
        const auto value_it = run_counters->find(counter);
        if (value_it == run_counters->end()) {
          result.violations.push_back("case '" + case_name + "': counter '" +
                                      counter + "' missing from run");
          continue;
        }
        ++result.counters_compared;
        const double expected = baseline_value.is_number()
                                    ? baseline_value.as_number()
                                    : 0.0;
        const double actual =
            value_it->second.is_number() ? value_it->second.as_number() : 0.0;
        if (actual != expected) {
          result.violations.push_back(
              "case '" + case_name + "': counter '" + counter + "' drifted: " +
              json::number(actual) + " vs baseline " +
              json::number(expected));
        }
      }
      for (const auto& [counter, value] : *run_counters) {
        if (baseline_counters->find(counter) == baseline_counters->end()) {
          result.violations.push_back("case '" + case_name + "': counter '" +
                                      counter + "' not in baseline");
        }
      }
    } else {
      result.violations.push_back(
          "case '" + case_name + "': missing counters object in " +
          (run_counters == nullptr ? "run" : "baseline"));
    }

    const json::Value* baseline_timing = baseline_case.find("timing");
    const json::Value* run_timing = run_case.find("timing");
    if (baseline_timing != nullptr && run_timing != nullptr) {
      const double baseline_median =
          number_field(*baseline_timing, "median_ms", 0.0);
      const double run_median = number_field(*run_timing, "median_ms", 0.0);
      if (baseline_median > 0.0 && run_median > 0.0) {
        char note[160];
        std::snprintf(note, sizeof(note),
                      "case '%s': median %.3f ms vs baseline %.3f ms (%.2fx)",
                      case_name.c_str(), run_median, baseline_median,
                      run_median / baseline_median);
        result.notes.push_back(note);
        if (options.check_time_regression &&
            run_median > baseline_median * (1.0 + options.time_tolerance)) {
          std::snprintf(note, sizeof(note),
                        "case '%s': wall-time regression: median %.3f ms "
                        "exceeds baseline %.3f ms by more than %.0f%%",
                        case_name.c_str(), run_median, baseline_median,
                        options.time_tolerance * 100.0);
          result.violations.push_back(note);
        }
      }
    }
  }
  for (const auto& [case_name, run_case] : *run_cases) {
    if (baseline_cases->find(case_name) == baseline_cases->end()) {
      result.violations.push_back("case '" + case_name +
                                  "' not in baseline");
    }
  }
  // A gate that compared nothing gates nothing: an empty baseline (or one
  // whose cases carry no counters) must fail loudly instead of passing
  // vacuously — the classic way a truncated/mis-regenerated baseline file
  // silently disables the whole perf gate.
  if (baseline_cases->empty()) {
    result.violations.push_back("baseline has no cases — nothing gated");
  } else if (result.counters_compared == 0) {
    result.violations.push_back(
        "baseline cases carry no counters — nothing gated");
  }
  return result;
}

std::string bench_report(const json::Value& suite) {
  std::string out = "bench suite: " + string_field(suite, "name") +
                    " (schema " +
                    json::number(number_field(suite, "schema_version", 0.0)) +
                    ")\n";
  const json::Object* cases = object_field(suite, "cases");
  if (cases == nullptr) {
    out += "  (no cases)\n";
    return out;
  }
  for (const auto& [case_name, bench_case] : *cases) {
    out += "  " + case_name + "\n";
    if (const json::Object* counters = object_field(bench_case, "counters")) {
      out += "    counters:";
      for (const auto& [counter, value] : *counters) {
        out += " " + counter + "=" +
               (value.is_number() ? json::number(value.as_number())
                                  : value.to_json());
      }
      out += "\n";
    }
    if (const json::Value* timing = bench_case.find("timing")) {
      out += "    timing: median " +
             format_ms(number_field(*timing, "median_ms", 0.0)) +
             " ms (mad " + format_ms(number_field(*timing, "mad_ms", 0.0)) +
             ", min " + format_ms(number_field(*timing, "min_ms", 0.0)) +
             ", reps " + json::number(number_field(*timing, "reps", 0.0)) +
             ", warmup " + json::number(number_field(*timing, "warmup", 0.0)) +
             ")\n";
    }
  }
  return out;
}

bool read_file(const std::string& path, std::string& out) {
  out.clear();
  std::FILE* file = path == "-" ? stdin : std::fopen(path.c_str(), "rb");
  if (file == nullptr) return false;
  char buffer[1 << 16];
  std::size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
    out.append(buffer, n);
  }
  const bool ok = std::ferror(file) == 0;
  if (file != stdin) std::fclose(file);
  return ok;
}

bool write_file(const std::string& path, std::string_view text) {
  std::FILE* file = path == "-" ? stdout : std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  const bool ok = std::fwrite(text.data(), 1, text.size(), file) == text.size();
  if (file == stdout) return std::fflush(stdout) == 0 && ok;
  return std::fclose(file) == 0 && ok;
}

}  // namespace plos::obs
