// Golden-regression gate: small seeded configurations — one per trainer
// plus the baselines — whose final objective and accuracies are pinned to
// checked-in golden files at 1e-10 relative tolerance. A refactor that
// silently changes numerics (reduction reordering, RNG-stream drift, QP
// tolerance tweaks) fails tier-1 here instead of drifting the benches.
//
// Regenerating after an INTENTIONAL numeric change:
//
//   PLOS_REGEN_GOLDEN=1 ./test_golden_regression
//
// rewrites the files under tests/golden/ (the path is compiled in via
// PLOS_GOLDEN_DIR); commit the diff together with the change that caused
// it.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "core/baselines.hpp"
#include "core/centralized_plos.hpp"
#include "core/distributed_plos.hpp"
#include "core/evaluation.hpp"
#include "core/logistic_plos.hpp"
#include "data/labeling.hpp"
#include "data/synthetic.hpp"
#include "net/fault.hpp"
#include "net/simnet.hpp"
#include "rng/engine.hpp"

namespace plos::core {
namespace {

using GoldenValues = std::map<std::string, double>;

std::string golden_path(const std::string& name) {
  return std::string(PLOS_GOLDEN_DIR) + "/" + name;
}

bool regen_requested() { return std::getenv("PLOS_REGEN_GOLDEN") != nullptr; }

void write_golden(const std::string& name, const GoldenValues& values) {
  const std::string path = golden_path(name);
  std::FILE* file = std::fopen(path.c_str(), "w");
  ASSERT_NE(file, nullptr) << "cannot write " << path;
  std::fprintf(file,
               "# Golden values for test_golden_regression; regenerate with\n"
               "# PLOS_REGEN_GOLDEN=1 ./test_golden_regression\n");
  for (const auto& [key, value] : values) {
    std::fprintf(file, "%s %.17g\n", key.c_str(), value);
  }
  std::fclose(file);
}

GoldenValues read_golden(const std::string& name) {
  const std::string path = golden_path(name);
  std::FILE* file = std::fopen(path.c_str(), "r");
  EXPECT_NE(file, nullptr) << "missing golden file " << path
                           << " — run with PLOS_REGEN_GOLDEN=1 to create it";
  GoldenValues values;
  if (file == nullptr) return values;
  char key[128];
  double value = 0.0;
  char line[256];
  while (std::fgets(line, sizeof(line), file) != nullptr) {
    if (line[0] == '#' || line[0] == '\n') continue;
    if (std::sscanf(line, "%127s %lf", key, &value) == 2) values[key] = value;
  }
  std::fclose(file);
  return values;
}

void check_against_golden(const std::string& name,
                          const GoldenValues& actual) {
  if (regen_requested()) {
    write_golden(name, actual);
    GTEST_SKIP() << "regenerated " << golden_path(name);
  }
  const GoldenValues golden = read_golden(name);
  ASSERT_EQ(golden.size(), actual.size())
      << name << " key set drifted — regenerate if intentional";
  for (const auto& [key, expected] : golden) {
    const auto it = actual.find(key);
    ASSERT_NE(it, actual.end()) << name << " missing key " << key;
    const double tolerance = 1e-10 * std::max(1.0, std::abs(expected));
    EXPECT_NEAR(it->second, expected, tolerance)
        << name << " key " << key
        << " drifted — if intentional, regenerate with PLOS_REGEN_GOLDEN=1";
  }
}

// One fixed population shared by all golden configs: 6 synthetic users,
// half of them providers at a 30% labeling rate.
data::MultiUserDataset golden_population() {
  data::SyntheticSpec spec;
  spec.num_users = 6;
  spec.points_per_class = 25;
  spec.max_rotation = 1.0;
  rng::Engine engine(2024);
  auto dataset = data::generate_synthetic(spec, engine);
  data::reveal_labels(dataset, {0, 2, 4}, 0.3, engine);
  return dataset;
}

void add_report(GoldenValues& values, const std::string& prefix,
                const AccuracyReport& report) {
  values[prefix + ".providers"] = report.providers;
  values[prefix + ".non_providers"] = report.non_providers;
  values[prefix + ".overall"] = report.overall;
}

TEST(GoldenRegression, CentralizedTrainer) {
  const auto dataset = golden_population();
  CentralizedPlosOptions options;
  options.cutting_plane.epsilon = 1e-2;
  options.cccp.max_iterations = 3;
  const auto result = train_centralized_plos(dataset, options);

  GoldenValues values;
  values["objective"] =
      plos_objective(dataset, result.model, options.params);
  values["constraints"] =
      static_cast<double>(result.diagnostics.final_constraint_count);
  add_report(values, "accuracy",
             evaluate(dataset, predict_all(dataset, result.model)));
  check_against_golden("centralized_synth.txt", values);
}

TEST(GoldenRegression, DistributedTrainer) {
  const auto dataset = golden_population();
  DistributedPlosOptions options;
  options.cutting_plane.epsilon = 1e-2;
  options.cccp.max_iterations = 3;
  options.max_admm_iterations = 60;
  net::SimNetwork network(dataset.num_users(), net::DeviceProfile{},
                          net::LinkProfile{});
  const auto result = train_distributed_plos(dataset, options, &network);

  GoldenValues values;
  values["objective"] =
      plos_objective(dataset, result.model, options.params);
  values["admm_iterations"] =
      static_cast<double>(result.diagnostics.admm_iterations_total);
  values["server_bytes_received"] =
      static_cast<double>(network.server_metrics().bytes_received);
  values["server_bytes_sent"] =
      static_cast<double>(network.server_metrics().bytes_sent);
  add_report(values, "accuracy",
             evaluate(dataset, predict_all(dataset, result.model)));
  check_against_golden("distributed_synth.txt", values);
}

// The synchronous schedule's fault path: churn, CRC-framed retries, and
// the fault-schedule round deadline (stragglers are charged their compute
// but send no upload). Pins the degradation tallies next to the model.
TEST(GoldenRegression, DistributedTrainerUnderFaults) {
  const auto dataset = golden_population();
  DistributedPlosOptions options;
  options.cutting_plane.epsilon = 1e-2;
  options.cccp.max_iterations = 3;
  options.max_admm_iterations = 60;
  net::FaultSpec spec;
  spec.drop_probability = 0.15;
  spec.corrupt_probability = 0.05;
  spec.offline_probability = 0.1;
  spec.straggler_probability = 0.1;
  spec.round_deadline_s = 5.0;
  spec.seed = 31;
  net::SimNetwork network(dataset.num_users(), net::DeviceProfile{},
                          net::LinkProfile{});
  network.set_fault_model(net::FaultModel(spec));
  const auto result = train_distributed_plos(dataset, options, &network);
  const auto& diagnostics = result.diagnostics;

  GoldenValues values;
  values["objective"] =
      plos_objective(dataset, result.model, options.params);
  values["admm_iterations"] =
      static_cast<double>(diagnostics.admm_iterations_total);
  values["server_bytes_received"] =
      static_cast<double>(network.server_metrics().bytes_received);
  values["server_bytes_sent"] =
      static_cast<double>(network.server_metrics().bytes_sent);
  values["devices_offline"] =
      static_cast<double>(diagnostics.devices_offline_total);
  values["deadline_misses"] =
      static_cast<double>(diagnostics.deadline_misses_total);
  values["downlink_failures"] =
      static_cast<double>(diagnostics.downlink_failures_total);
  values["uplink_failures"] =
      static_cast<double>(diagnostics.uplink_failures_total);
  check_against_golden("distributed_synth_faults.txt", values);
}

TEST(GoldenRegression, LogisticTrainer) {
  const auto dataset = golden_population();
  LogisticPlosOptions options;
  options.cccp.max_iterations = 3;
  const auto result = train_logistic_plos(dataset, options);

  GoldenValues values;
  add_report(values, "accuracy",
             evaluate(dataset, predict_all(dataset, result.model)));
  check_against_golden("logistic_synth.txt", values);
}

TEST(GoldenRegression, Baselines) {
  const auto dataset = golden_population();
  GoldenValues values;
  add_report(values, "all", evaluate(dataset, run_all_baseline(dataset)));
  add_report(values, "single",
             evaluate(dataset, run_single_baseline(dataset)));
  add_report(values, "group", evaluate(dataset, run_group_baseline(dataset)));
  check_against_golden("baselines_synth.txt", values);
}

}  // namespace
}  // namespace plos::core
