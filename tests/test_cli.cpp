// End-to-end tests of the plos_run, plos_inspect and plos_lint command
// lines: invalid invocations exit 2 before any training or scanning, --help
// renders the whole flag table, and a "-" artifact path streams to stdout
// instead of creating a file.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace {

struct Outcome {
  int status = -1;  // exit code, or -1 when the process did not exit
  std::string out;  // stdout, plus stderr when run() folds it in
};

// stderr goes to `stderr_to` ("&1" folds it into `out`).
Outcome run(const std::string& command,
            const std::string& stderr_to = "/dev/null") {
  Outcome outcome;
  std::FILE* pipe = popen((command + " 2>" + stderr_to).c_str(), "r");
  if (pipe == nullptr) return outcome;
  char buffer[4096];
  std::size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof buffer, pipe)) > 0) {
    outcome.out.append(buffer, n);
  }
  const int raw = pclose(pipe);
  if (WIFEXITED(raw)) outcome.status = WEXITSTATUS(raw);
  return outcome;
}

std::string plos_run(const std::string& args) {
  return std::string("'") + PLOS_RUN_BIN + "' " + args;
}

std::string plos_inspect(const std::string& args) {
  return std::string("'") + PLOS_INSPECT_BIN + "' " + args;
}

std::string plos_lint(const std::string& args) {
  return std::string("'") + PLOS_LINT_BIN + "' " + args;
}

// Flag rows of a --help text: lines that start with two spaces and "--".
std::vector<std::string> help_rows(const std::string& help) {
  std::vector<std::string> rows;
  std::istringstream lines(help);
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind("  --", 0) != 0) continue;
    rows.push_back(line.substr(2, line.find(' ', 2) - 2));
  }
  return rows;
}

TEST(Cli, PlosRunRejectsInvalidInvocationsWithExit2) {
  const std::vector<std::string> cases = {
      // Out-of-range and malformed values.
      "--async --quorum 1.5",
      "--async --quorum 0",
      "--async --staleness-bound 0",
      "--distributed --fault-drop nan",
      "--distributed --fault-drop 1.5",
      "--threads 3000000000",
      "--threads 4294967296",
      "--watchdog-stall-rounds 3000000000",
      "--users -1",
      "--dataset nope",
      "--bogus",
      "--rate",
      // Flags that no longer exist.
      "--log-level debug",
      "--metrics-format prom",
      // Flags that would be parsed and then ignored.
      "--quorum 0.5",
      "--staleness-bound 3",
      "--adaptive-deadline off",
      "--auto-tune on",
      "--flight-out flight.json",
      "--watchdog-stall-rounds 5",
      "--methods all --save-model model.bin",
      "--dataset body --rotation 1.0",
      "--distributed --round-deadline 0.001",
      "--async --round-deadline 0.5 --fault-drop 0.1",
      "--fault-drop 0.1",
      "--distributed --logistic --fault-offline 0.1",
      "--async --logistic",
      "--methods all --watchdog warn",
      "--methods all --journal-out journal.jsonl",
      "--methods all --journal-every 2",
      "--logistic --watchdog warn",
      "--logistic --journal-out journal.jsonl",
      "--logistic --journal-every 2",
  };
  for (const std::string& args : cases) {
    EXPECT_EQ(run(plos_run("--dataset synth --users 4 --methods plos " + args))
                  .status,
              2)
        << args;
  }
}

TEST(Cli, PlosRunHelpNamesEveryFlagOnce) {
  const std::vector<std::string> expected = {
      "--dataset",         "--methods",           "--users",
      "--providers",       "--rate",              "--rotation",
      "--lambda",          "--cl",                "--cu",
      "--seed",            "--threads",           "--distributed",
      "--fault-drop",      "--fault-offline",     "--fault-straggler",
      "--fault-corrupt",   "--round-deadline",    "--async",
      "--quorum",          "--staleness-bound",   "--adaptive-deadline",
      "--auto-tune",       "--flight-out",        "--logistic",
      "--save-model",      "--trace-out",         "--metrics-out",
      "--manifest-out",    "--journal-out",       "--journal-every",
      "--profile-out",     "--watchdog",          "--watchdog-stall-rounds",
      "--help",
  };
  const Outcome help = run(plos_run("--help"));
  ASSERT_EQ(help.status, 0);
  const std::vector<std::string> rows = help_rows(help.out);
  for (const std::string& flag : expected) {
    EXPECT_EQ(std::count(rows.begin(), rows.end(), flag), 1) << flag;
  }
  EXPECT_EQ(rows.size(), expected.size());
}

TEST(Cli, WatchdogWarnPrintsItsVerdict) {
  // Heavy churn collapses participation: the run prints its watchdog's
  // verdict, violation count and first violation after training.
  const Outcome churn = run(plos_run(
      "--dataset synth --users 6 --methods plos --distributed "
      "--fault-offline 0.9 --watchdog warn"));
  ASSERT_EQ(churn.status, 0);
  const std::string prefix = "watchdog warn (";
  const std::size_t at = churn.out.find(prefix);
  ASSERT_NE(at, std::string::npos) << churn.out;
  const std::string line = churn.out.substr(at, churn.out.find('\n', at) - at);
  EXPECT_GT(std::stoul(line.substr(prefix.size())), 0u) << line;
  EXPECT_NE(line.find("first violation record "), std::string::npos) << line;
  EXPECT_NE(line.find(" participation: "), std::string::npos) << line;

  const Outcome clean = run(
      plos_run("--dataset synth --users 4 --methods plos --watchdog warn"));
  ASSERT_EQ(clean.status, 0);
  EXPECT_NE(clean.out.find("watchdog ok (0 violations)\n"), std::string::npos)
      << clean.out;
}

TEST(Cli, TraceOutDashWritesJsonToStdout) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("plos_cli_trace_" + std::to_string(getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const Outcome outcome =
      run("cd '" + dir.string() + "' && " +
          plos_run("--dataset synth --users 4 --methods plos --trace-out -"));
  const bool dir_empty = std::filesystem::is_empty(dir);
  std::filesystem::remove_all(dir);
  ASSERT_EQ(outcome.status, 0);
  EXPECT_TRUE(dir_empty) << "--trace-out - created a file";
  // The trace follows the human-readable report lines.
  const std::size_t start = outcome.out.find("{\"displayTimeUnit\"");
  ASSERT_NE(start, std::string::npos) << outcome.out;
  std::string error;
  const auto trace = plos::obs::json::parse(
      std::string_view(outcome.out).substr(start), &error);
  ASSERT_TRUE(trace.has_value()) << error;
  const plos::obs::json::Value* events = trace->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  EXPECT_FALSE(events->as_array().empty());
}

TEST(Cli, PlosInspectRejectsNonFiniteTolerancesWithExit2) {
  const std::string baseline =
      std::string("'") + PLOS_SOURCE_DIR + "/BENCH_cccp_threads.json'";
  const std::string golden = std::string("'") + PLOS_SOURCE_DIR +
                             "/tests/golden/run_synth_distributed.json'";
  // Sanity: the same files pass with a finite tolerance.
  EXPECT_EQ(run(plos_inspect("bench-check " + baseline + " --against " +
                             baseline + " --time-tol 3"))
                .status,
            0);
  const std::vector<std::string> cases = {
      "bench-check " + baseline + " --against " + baseline + " --time-tol nan",
      "bench-check " + baseline + " --against " + baseline + " --time-tol inf",
      "check " + golden + " --against " + golden + " --tol nan",
      "diff " + golden + " " + golden + " --field-tol results.retries=inf",
      "diff " + golden + " " + golden + " --tol -1",
  };
  for (const std::string& args : cases) {
    EXPECT_EQ(run(plos_inspect(args)).status, 2) << args;
  }
}

TEST(Cli, HelpAndListRulesExitZero) {
  const Outcome help = run(plos_lint("--help"));
  ASSERT_EQ(help.status, 0);
  EXPECT_NE(help.out.find("usage: plos_lint"), std::string::npos) << help.out;
  const std::vector<std::string> expected = {
      "--root", "--rules", "--layers", "--threads", "--list-rules", "--help"};
  EXPECT_EQ(help_rows(help.out), expected);

  const Outcome rules =
      run(plos_lint(std::string("--root '") + PLOS_SOURCE_DIR +
                    "' --list-rules"));
  ASSERT_EQ(rules.status, 0);
  EXPECT_NE(rules.out.find("determinism-rng: "), std::string::npos);
}

TEST(Cli, UsageErrorsExitTwo) {
  const std::string root = std::string("--root '") + PLOS_SOURCE_DIR + "' ";
  const std::vector<std::string> cases = {
      "--bogus",
      "--rules",
      // Flags the tool does not have must fail, not fall through to a scan.
      "--fix",
      "--self-test",
      "--format sarif",
  };
  for (const std::string& args : cases) {
    const Outcome outcome = run(plos_lint(root + args), "&1");
    EXPECT_EQ(outcome.status, 2) << args;
    EXPECT_NE(outcome.out.find("run 'plos_lint --help' for usage"),
              std::string::npos)
        << args << ": " << outcome.out;
  }
  // A missing rule catalog is a configuration error.
  const Outcome missing =
      run(plos_lint("--rules /nonexistent/lint_rules.json"), "&1");
  EXPECT_EQ(missing.status, 2);
  EXPECT_NE(missing.out.find("cannot open rules file"), std::string::npos)
      << missing.out;
}

TEST(Cli, ThreadsFlagRejectsNonPositiveValues) {
  // Every value is rejected while parsing, so no worker is ever started.
  const std::string root = std::string("--root '") + PLOS_SOURCE_DIR + "' ";
  for (const char* threads : {"0", "-1", "4x", "lots", "4294967297", ""}) {
    EXPECT_EQ(
        run(plos_lint(root + "--threads '" + threads + "'")).status, 2)
        << threads;
  }
}

}  // namespace
