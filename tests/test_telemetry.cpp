// Tests for the run-telemetry pipeline: JSON reader, round journal,
// convergence watchdog, run manifests, and the plos_inspect diff/check
// machinery — including the determinism contract (journals and manifest
// cores byte-identical at any thread count, DESIGN.md §8 extended to
// telemetry).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/assert.hpp"
#include "core/centralized_plos.hpp"
#include "core/distributed_plos.hpp"
#include "data/dataset.hpp"
#include "data/labeling.hpp"
#include "data/synthetic.hpp"
#include "net/simnet.hpp"
#include "obs/inspect.hpp"
#include "obs/journal.hpp"
#include "obs/json.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/watchdog.hpp"
#include "rng/engine.hpp"

namespace plos {
namespace {

data::MultiUserDataset make_population(std::size_t num_users,
                                       double max_rotation,
                                       std::size_t num_providers, double rate,
                                       std::uint64_t seed,
                                       std::size_t points_per_class = 20) {
  data::SyntheticSpec spec;
  spec.num_users = num_users;
  spec.points_per_class = points_per_class;
  spec.max_rotation = max_rotation;
  rng::Engine engine(seed);
  auto dataset = data::generate_synthetic(spec, engine);
  std::vector<std::size_t> providers(num_providers);
  for (std::size_t i = 0; i < num_providers; ++i) providers[i] = i;
  data::reveal_labels(dataset, providers, rate, engine);
  return dataset;
}

core::CentralizedPlosOptions fast_centralized() {
  core::CentralizedPlosOptions options;
  options.params.lambda = 100.0;
  options.params.cl = 10.0;
  options.params.cu = 1.0;
  options.cutting_plane.epsilon = 1e-2;
  options.cccp.max_iterations = 4;
  return options;
}

core::DistributedPlosOptions fast_distributed() {
  core::DistributedPlosOptions options;
  options.params.lambda = 100.0;
  options.params.cl = 10.0;
  options.params.cu = 1.0;
  options.cutting_plane.epsilon = 1e-2;
  options.cccp.max_iterations = 3;
  options.max_admm_iterations = 40;
  return options;
}

// ---- JSON reader ---------------------------------------------------------

TEST(Json, ParsesScalarsArraysObjects) {
  const auto value =
      obs::json::parse(R"({"a":1.5,"b":[true,null,"x\n"],"c":{"d":-2e3}})");
  ASSERT_TRUE(value.has_value());
  ASSERT_TRUE(value->is_object());
  EXPECT_DOUBLE_EQ(value->find("a")->as_number(), 1.5);
  const auto& array = value->find("b")->as_array();
  ASSERT_EQ(array.size(), 3u);
  EXPECT_TRUE(array[0].as_bool());
  EXPECT_TRUE(array[1].is_null());
  EXPECT_EQ(array[2].as_string(), "x\n");
  EXPECT_DOUBLE_EQ(value->find("c")->find("d")->as_number(), -2000.0);
}

TEST(Json, RejectsMalformedInput) {
  std::string error;
  EXPECT_FALSE(obs::json::parse("{\"a\":", &error).has_value());
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(obs::json::parse("{\"a\":1} trailing", &error).has_value());
  EXPECT_FALSE(obs::json::parse("", &error).has_value());
}

TEST(Json, RoundTripsThroughToJson) {
  const std::string text =
      R"({"n":null,"num":0.125,"s":"q\"uote","v":[1,2,3]})";
  const auto value = obs::json::parse(text);
  ASSERT_TRUE(value.has_value());
  EXPECT_EQ(value->to_json(), text);
}

TEST(Json, FlattenProducesDotPaths) {
  const auto value =
      obs::json::parse(R"({"a":{"b":1,"c":[10,20]},"d":"x"})");
  ASSERT_TRUE(value.has_value());
  const auto leaves = obs::json::flatten(*value);
  ASSERT_EQ(leaves.size(), 4u);
  EXPECT_EQ(leaves[0].first, "a.b");
  EXPECT_EQ(leaves[1].first, "a.c[0]");
  EXPECT_EQ(leaves[2].first, "a.c[1]");
  EXPECT_EQ(leaves[3].first, "d");
  EXPECT_DOUBLE_EQ(leaves[2].second.as_number(), 20.0);
}

// ---- round journal -------------------------------------------------------

TEST(Journal, RecordRoundTripsThroughJsonl) {
  obs::Journal journal;
  obs::RoundRecord centralized;
  centralized.trainer = "centralized";
  centralized.cccp_round = 2;
  centralized.objective = 1.25;
  centralized.constraints = 17;
  centralized.qp_solves = 3;
  centralized.qp_iterations = 420;
  centralized.qp_unconverged = 2;
  journal.append(centralized);

  obs::RoundRecord blowup;
  blowup.trainer = "distributed";
  blowup.cccp_round = 0;
  blowup.admm_iteration = 5;
  blowup.objective = std::numeric_limits<double>::quiet_NaN();
  blowup.objective_finite = false;
  blowup.primal_residual = 0.5;
  blowup.dual_residual = 0.25;
  blowup.participation_rate = 0.75;
  blowup.bytes_to_devices = 1000;
  blowup.bytes_to_server = 2000;
  blowup.messages_dropped = 3;
  blowup.retries = 4;
  journal.append(blowup);

  std::vector<obs::RoundRecord> parsed;
  std::string error;
  ASSERT_TRUE(obs::parse_journal_jsonl(journal.to_jsonl(), parsed, &error))
      << error;
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0].trainer, "centralized");
  EXPECT_EQ(parsed[0].cccp_round, 2);
  EXPECT_EQ(parsed[0].admm_iteration, -1);
  EXPECT_DOUBLE_EQ(parsed[0].objective, 1.25);
  EXPECT_TRUE(parsed[0].objective_finite);
  EXPECT_TRUE(std::isnan(parsed[0].primal_residual));
  EXPECT_EQ(parsed[0].constraints, 17u);
  EXPECT_EQ(parsed[0].qp_iterations, 420);
  EXPECT_EQ(parsed[0].qp_unconverged, 2);
  EXPECT_EQ(parsed[1].qp_unconverged, 0);

  EXPECT_EQ(parsed[1].admm_iteration, 5);
  EXPECT_TRUE(std::isnan(parsed[1].objective));
  EXPECT_FALSE(parsed[1].objective_finite);  // blowup marker survives
  EXPECT_DOUBLE_EQ(parsed[1].participation_rate, 0.75);
  EXPECT_EQ(parsed[1].bytes_to_server, 2000u);
  EXPECT_EQ(parsed[1].retries, 4u);
}

TEST(Journal, AsyncQuorumFieldsRoundTrip) {
  obs::Journal journal;
  obs::RoundRecord record;
  record.trainer = "distributed";
  record.cccp_round = 1;
  record.admm_iteration = 7;
  record.quorum_size = 12;
  record.late_uploads = 3;
  record.evictions_offline = 1;
  record.evictions_late = 2;
  record.evictions_failed = 4;
  record.max_staleness = 5;
  record.staleness_hist = {6, 3, 2, 1, 0, 1, 0, 0};
  journal.append(record);

  std::vector<obs::RoundRecord> parsed;
  std::string error;
  ASSERT_TRUE(obs::parse_journal_jsonl(journal.to_jsonl(), parsed, &error))
      << error;
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].quorum_size, 12u);
  EXPECT_EQ(parsed[0].late_uploads, 3u);
  EXPECT_EQ(parsed[0].evictions_offline, 1u);
  EXPECT_EQ(parsed[0].evictions_late, 2u);
  EXPECT_EQ(parsed[0].evictions_failed, 4u);
  EXPECT_EQ(parsed[0].max_staleness, 5u);
  EXPECT_EQ(parsed[0].staleness_hist,
            (std::vector<std::uint64_t>{6, 3, 2, 1, 0, 1, 0, 0}));
  // Records from trainers that predate the async fields parse with the
  // defaults intact.
  std::vector<obs::RoundRecord> legacy;
  ASSERT_TRUE(obs::parse_journal_jsonl(
      "{\"trainer\":\"distributed\",\"cccp_round\":0,\"admm_iteration\":0}",
      legacy, &error))
      << error;
  ASSERT_EQ(legacy.size(), 1u);
  EXPECT_EQ(legacy[0].quorum_size, 0u);
  EXPECT_EQ(legacy[0].max_staleness, 0u);
  EXPECT_TRUE(legacy[0].staleness_hist.empty());
}

TEST(Journal, ObservabilityFieldsRoundTrip) {
  obs::Journal journal;
  obs::RoundRecord record;
  record.trainer = "async";
  record.cccp_round = 0;
  record.admm_iteration = 3;
  record.eq24_rel = 0.075;
  record.stale_p50 = 1.0;
  record.stale_p90 = 4.0;
  record.stale_p99 = 7.5;
  record.lat_count = 24;
  record.lat_p50 = 0.012;
  record.lat_p90 = 0.031;
  record.lat_p99 = 0.0625;
  record.cause_counts = {9, 1, 2, 0, 1, 0, 3, 0};
  record.tuned_quorum = 0.7;
  record.tuned_staleness_bound = 8;
  record.tune_event = "bound_widen";
  record.tune_trigger = 7.5;
  journal.append(record);

  std::vector<obs::RoundRecord> parsed;
  std::string error;
  ASSERT_TRUE(obs::parse_journal_jsonl(journal.to_jsonl(), parsed, &error))
      << error;
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].eq24_rel, 0.075);
  EXPECT_EQ(parsed[0].stale_p50, 1.0);
  EXPECT_EQ(parsed[0].stale_p90, 4.0);
  EXPECT_EQ(parsed[0].stale_p99, 7.5);
  EXPECT_EQ(parsed[0].lat_count, 24u);
  EXPECT_EQ(parsed[0].lat_p50, 0.012);
  EXPECT_EQ(parsed[0].lat_p90, 0.031);
  EXPECT_EQ(parsed[0].lat_p99, 0.0625);
  EXPECT_EQ(parsed[0].cause_counts,
            (std::vector<std::uint64_t>{9, 1, 2, 0, 1, 0, 3, 0}));
  EXPECT_EQ(parsed[0].tuned_quorum, 0.7);
  EXPECT_EQ(parsed[0].tuned_staleness_bound, 8u);
  EXPECT_EQ(parsed[0].tune_event, "bound_widen");
  EXPECT_EQ(parsed[0].tune_trigger, 7.5);
  // Legacy records without the observability fields parse with defaults.
  std::vector<obs::RoundRecord> legacy;
  ASSERT_TRUE(obs::parse_journal_jsonl(
      "{\"trainer\":\"async\",\"cccp_round\":0,\"admm_iteration\":0}",
      legacy, &error))
      << error;
  ASSERT_EQ(legacy.size(), 1u);
  EXPECT_TRUE(std::isnan(legacy[0].stale_p99));
  EXPECT_TRUE(std::isnan(legacy[0].eq24_rel));
  EXPECT_EQ(legacy[0].lat_count, 0u);
  EXPECT_TRUE(legacy[0].cause_counts.empty());
  EXPECT_TRUE(legacy[0].tune_event.empty());
  EXPECT_EQ(legacy[0].tuned_staleness_bound, 0u);
}

TEST(Journal, DownsamplingKeepsEveryNthFromTheFirst) {
  obs::Journal full;
  obs::Journal sampled;
  sampled.set_every(3);
  EXPECT_EQ(sampled.every(), 3u);
  for (std::uint64_t i = 0; i < 10; ++i) {
    obs::RoundRecord record;
    record.trainer = "async";
    record.admm_iteration = i;
    full.append(record);
    sampled.append(record);
  }
  EXPECT_EQ(sampled.offered(), 10u);
  EXPECT_EQ(sampled.size(), 4u);  // iterations 0, 3, 6, 9
  const std::vector<obs::RoundRecord> kept = sampled.records();
  ASSERT_EQ(kept.size(), 4u);
  for (std::size_t i = 0; i < kept.size(); ++i) {
    EXPECT_EQ(kept[i].admm_iteration, 3 * i);
  }
  // The sampled stream is exactly the full stream's every-3rd line:
  // downsampling drops whole records, never changes what a record says.
  std::istringstream full_lines(full.to_jsonl());
  std::istringstream sampled_lines(sampled.to_jsonl());
  std::string full_line;
  std::string sampled_line;
  std::size_t row = 0;
  while (std::getline(full_lines, full_line)) {
    if (row % 3 == 0) {
      ASSERT_TRUE(std::getline(sampled_lines, sampled_line));
      EXPECT_EQ(sampled_line, full_line) << "row " << row;
    }
    ++row;
  }
  EXPECT_FALSE(std::getline(sampled_lines, sampled_line));
}

TEST(Journal, DownsamplingRejectsZero) {
  obs::Journal journal;
  EXPECT_THROW(journal.set_every(0), PreconditionError);
}

TEST(Journal, ParseReportsMalformedLine) {
  std::vector<obs::RoundRecord> parsed;
  std::string error;
  EXPECT_FALSE(obs::parse_journal_jsonl("{not json}\n", parsed, &error));
  EXPECT_FALSE(error.empty());
}

TEST(Journal, CentralizedTrainerEmitsOneRecordPerRound) {
  const auto dataset = make_population(3, 0.3, 2, 0.4, 11);
  auto options = fast_centralized();
  obs::Journal journal;
  options.journal = &journal;
  const auto result = core::train_centralized_plos(dataset, options);
  ASSERT_EQ(journal.size(),
            static_cast<std::size_t>(result.diagnostics.cccp_iterations));
  const auto records = journal.records();
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].trainer, "centralized");
    EXPECT_EQ(records[i].cccp_round, static_cast<int>(i));
    EXPECT_EQ(records[i].admm_iteration, -1);
    EXPECT_TRUE(std::isfinite(records[i].objective));
    EXPECT_GT(records[i].qp_solves, 0);
    EXPECT_GT(records[i].qp_iterations, 0);
  }
  // Per-round QP solves in the journal sum to the run total.
  int qp_total = 0;
  for (const auto& record : records) qp_total += record.qp_solves;
  EXPECT_EQ(qp_total, result.diagnostics.qp_solves);
}

TEST(Journal, DistributedTrainerRecordsResidualsAndTraffic) {
  const auto dataset = make_population(4, 0.3, 2, 0.4, 12);
  auto options = fast_distributed();
  obs::Journal journal;
  options.journal = &journal;
  net::SimNetwork network(dataset.num_users(), net::DeviceProfile{},
                          net::LinkProfile{});
  const auto result = core::train_distributed_plos(dataset, options, &network);
  ASSERT_EQ(journal.size(),
            static_cast<std::size_t>(result.diagnostics.admm_iterations_total));
  std::uint64_t down = 0, up = 0;
  for (const auto& record : journal.records()) {
    EXPECT_EQ(record.trainer, "distributed");
    EXPECT_GE(record.admm_iteration, 0);
    EXPECT_TRUE(std::isfinite(record.primal_residual));
    EXPECT_TRUE(std::isfinite(record.dual_residual));
    EXPECT_DOUBLE_EQ(record.participation_rate, 1.0);
    down += record.bytes_to_devices;
    up += record.bytes_to_server;
  }
  // Per-iteration byte deltas sum to the network ledger totals (minus the
  // bootstrap round, which precedes the first journaled iteration).
  const auto traffic = network.traffic_snapshot();
  EXPECT_LE(down, traffic.bytes_to_devices);
  EXPECT_LE(up, traffic.bytes_to_server);
  EXPECT_GT(down, 0u);
  EXPECT_GT(up, 0u);
}

TEST(Journal, ByteIdenticalAcrossThreadCountsCentralized) {
  const auto dataset = make_population(4, 0.4, 2, 0.4, 13);
  std::string reference;
  for (int threads : {1, 2, 4, 8}) {
    auto options = fast_centralized();
    options.num_threads = threads;
    obs::Journal journal;
    options.journal = &journal;
    core::train_centralized_plos(dataset, options);
    const std::string jsonl = journal.to_jsonl();
    ASSERT_FALSE(jsonl.empty());
    if (reference.empty()) {
      reference = jsonl;
    } else {
      EXPECT_EQ(jsonl, reference) << "journal differs at " << threads
                                  << " threads";
    }
  }
}

TEST(Journal, ByteIdenticalAcrossThreadCountsDistributed) {
  const auto dataset = make_population(4, 0.4, 2, 0.4, 14);
  std::string reference;
  for (int threads : {1, 2, 4, 8}) {
    auto options = fast_distributed();
    options.num_threads = threads;
    obs::Journal journal;
    options.journal = &journal;
    net::SimNetwork network(dataset.num_users(), net::DeviceProfile{},
                            net::LinkProfile{});
    core::train_distributed_plos(dataset, options, &network);
    const std::string jsonl = journal.to_jsonl();
    ASSERT_FALSE(jsonl.empty());
    if (reference.empty()) {
      reference = jsonl;
    } else {
      EXPECT_EQ(jsonl, reference) << "journal differs at " << threads
                                  << " threads";
    }
  }
}

// ---- watchdog ------------------------------------------------------------

obs::RoundRecord healthy_record(double objective) {
  obs::RoundRecord record;
  record.trainer = "centralized";
  record.objective = objective;
  return record;
}

TEST(Watchdog, FlagsNonFiniteObjective) {
  obs::Watchdog watchdog{obs::WatchdogConfig{}};
  EXPECT_EQ(watchdog.observe(healthy_record(2.0)), obs::WatchdogAction::kNone);
  obs::RoundRecord blowup = healthy_record(
      std::numeric_limits<double>::quiet_NaN());
  blowup.objective_finite = false;
  EXPECT_EQ(watchdog.observe(blowup), obs::WatchdogAction::kWarn);
  ASSERT_EQ(watchdog.violations().size(), 1u);
  EXPECT_EQ(watchdog.violations()[0].kind, obs::ViolationKind::kNonFinite);
  EXPECT_EQ(watchdog.violations()[0].record_index, 1u);
  EXPECT_STREQ(watchdog.verdict(), "warn");
}

TEST(Watchdog, UnsetObjectiveIsNotABlowup) {
  obs::Watchdog watchdog{obs::WatchdogConfig{}};
  obs::RoundRecord record;  // objective stays kUnset, objective_finite true
  record.trainer = "distributed";
  EXPECT_EQ(watchdog.observe(record), obs::WatchdogAction::kNone);
  EXPECT_FALSE(watchdog.triggered());
}

TEST(Watchdog, FlagsInfResidual) {
  obs::Watchdog watchdog{obs::WatchdogConfig{}};
  obs::RoundRecord record = healthy_record(1.0);
  record.primal_residual = std::numeric_limits<double>::infinity();
  EXPECT_EQ(watchdog.observe(record), obs::WatchdogAction::kWarn);
  EXPECT_EQ(watchdog.violations()[0].kind, obs::ViolationKind::kNonFinite);
}

TEST(Watchdog, FlagsObjectiveDivergence) {
  obs::WatchdogConfig config;
  config.divergence_factor = 100.0;
  obs::Watchdog watchdog(config);
  EXPECT_EQ(watchdog.observe(healthy_record(1.0)), obs::WatchdogAction::kNone);
  // 1000 > 100 * (1 + |1.0|)
  EXPECT_EQ(watchdog.observe(healthy_record(1000.0)),
            obs::WatchdogAction::kWarn);
  EXPECT_EQ(watchdog.violations()[0].kind, obs::ViolationKind::kDivergence);
}

TEST(Watchdog, FlagsResidualDivergence) {
  obs::Watchdog watchdog{obs::WatchdogConfig{}};
  obs::RoundRecord good = healthy_record(1.0);
  good.primal_residual = 1e-6;
  EXPECT_EQ(watchdog.observe(good), obs::WatchdogAction::kNone);
  obs::RoundRecord grown = healthy_record(0.9);
  grown.primal_residual = 1.0;  // 1e6x growth > default 1e4x
  EXPECT_EQ(watchdog.observe(grown), obs::WatchdogAction::kWarn);
  EXPECT_EQ(watchdog.violations()[0].kind, obs::ViolationKind::kDivergence);
}

TEST(Watchdog, FlagsStallAfterConfiguredRounds) {
  obs::WatchdogConfig config;
  config.stall_rounds = 2;
  obs::Watchdog watchdog(config);
  EXPECT_EQ(watchdog.observe(healthy_record(1.0)), obs::WatchdogAction::kNone);
  EXPECT_EQ(watchdog.observe(healthy_record(1.0)), obs::WatchdogAction::kNone);
  EXPECT_EQ(watchdog.observe(healthy_record(1.0)), obs::WatchdogAction::kWarn);
  EXPECT_EQ(watchdog.violations()[0].kind, obs::ViolationKind::kStall);
  // Re-armed: the streak restarts instead of firing every record.
  EXPECT_EQ(watchdog.observe(healthy_record(1.0)), obs::WatchdogAction::kNone);
}

TEST(Watchdog, StallDisabledByDefault) {
  obs::Watchdog watchdog{obs::WatchdogConfig{}};
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(watchdog.observe(healthy_record(1.0)),
              obs::WatchdogAction::kNone);
  }
  EXPECT_FALSE(watchdog.triggered());
}

TEST(Watchdog, FlagsParticipationCollapse) {
  obs::WatchdogConfig config;
  config.participation_floor = 0.5;
  config.participation_rounds = 3;
  obs::Watchdog watchdog(config);
  obs::RoundRecord low = healthy_record(1.0);
  low.participation_rate = 0.2;
  EXPECT_EQ(watchdog.observe(low), obs::WatchdogAction::kNone);
  EXPECT_EQ(watchdog.observe(low), obs::WatchdogAction::kNone);
  EXPECT_EQ(watchdog.observe(low), obs::WatchdogAction::kWarn);
  EXPECT_EQ(watchdog.violations()[0].kind, obs::ViolationKind::kParticipation);
  // A healthy round resets the streak.
  obs::RoundRecord ok = healthy_record(1.0);
  ok.participation_rate = 0.9;
  EXPECT_EQ(watchdog.observe(ok), obs::WatchdogAction::kNone);
  EXPECT_EQ(watchdog.observe(low), obs::WatchdogAction::kNone);
}

TEST(Watchdog, FlagsStalenessCollapse) {
  obs::WatchdogConfig config;
  config.staleness_ceiling = 3;
  config.staleness_rounds = 2;
  obs::Watchdog watchdog(config);
  obs::RoundRecord stale = healthy_record(1.0);
  stale.max_staleness = 3;
  EXPECT_EQ(watchdog.observe(stale), obs::WatchdogAction::kNone);
  EXPECT_EQ(watchdog.observe(stale), obs::WatchdogAction::kWarn);
  ASSERT_EQ(watchdog.violations().size(), 1u);
  EXPECT_EQ(watchdog.violations()[0].kind, obs::ViolationKind::kStaleness);
  // A fresh aggregate resets the streak.
  obs::RoundRecord fresh = healthy_record(1.0);
  fresh.max_staleness = 1;
  EXPECT_EQ(watchdog.observe(fresh), obs::WatchdogAction::kNone);
  EXPECT_EQ(watchdog.observe(stale), obs::WatchdogAction::kNone);
}

TEST(Watchdog, StalenessCollapseDefersToTheTunedBound) {
  // Under --auto-tune the controller may widen the bound past the static
  // ceiling; the watchdog must track the journaled tuned bound instead of
  // false-firing on staleness the tuner deliberately allowed.
  obs::WatchdogConfig config;
  config.staleness_ceiling = 3;
  config.staleness_rounds = 2;
  obs::Watchdog watchdog(config);
  obs::RoundRecord widened = healthy_record(1.0);
  widened.max_staleness = 6;          // over the static ceiling...
  widened.tuned_staleness_bound = 8;  // ...but inside the tuned bound
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(watchdog.observe(widened), obs::WatchdogAction::kNone) << i;
  }
  EXPECT_FALSE(watchdog.triggered());
  // Once the fleet pins the tuned bound itself, the policy still fires.
  obs::RoundRecord pinned = healthy_record(1.0);
  pinned.max_staleness = 8;
  pinned.tuned_staleness_bound = 8;
  EXPECT_EQ(watchdog.observe(pinned), obs::WatchdogAction::kNone);
  EXPECT_EQ(watchdog.observe(pinned), obs::WatchdogAction::kWarn);
  ASSERT_EQ(watchdog.violations().size(), 1u);
  EXPECT_EQ(watchdog.violations()[0].kind, obs::ViolationKind::kStaleness);
}

TEST(Watchdog, StalenessPolicyDisabledByDefault) {
  obs::Watchdog watchdog{obs::WatchdogConfig{}};  // ceiling 0 = off
  obs::RoundRecord stale = healthy_record(1.0);
  stale.max_staleness = 1000;
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(watchdog.observe(stale), obs::WatchdogAction::kNone);
  }
  EXPECT_FALSE(watchdog.triggered());
}

TEST(Watchdog, AbortPolicyEscalates) {
  obs::WatchdogConfig config;
  config.on_violation = obs::WatchdogConfig::OnViolation::kAbort;
  obs::Watchdog watchdog(config);
  obs::RoundRecord blowup = healthy_record(1.0);
  blowup.objective_finite = false;
  blowup.objective = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(watchdog.observe(blowup), obs::WatchdogAction::kAbort);
  EXPECT_TRUE(watchdog.should_abort());
  EXPECT_STREQ(watchdog.verdict(), "abort");
}

TEST(Watchdog, NoFalsePositiveOnHealthyRuns) {
  // Default policy over real solver journals must stay quiet: telemetry
  // never flags a converging run.
  const auto dataset = make_population(4, 0.4, 2, 0.4, 15);
  {
    auto options = fast_centralized();
    obs::Journal journal;
    obs::Watchdog watchdog{obs::WatchdogConfig{}};
    options.journal = &journal;
    options.watchdog = &watchdog;
    const auto result = core::train_centralized_plos(dataset, options);
    EXPECT_FALSE(result.diagnostics.watchdog_aborted);
    EXPECT_STREQ(watchdog.verdict(), "ok") << "centralized run flagged";
  }
  {
    auto options = fast_distributed();
    obs::Journal journal;
    obs::Watchdog watchdog{obs::WatchdogConfig{}};
    options.journal = &journal;
    options.watchdog = &watchdog;
    const auto result = core::train_distributed_plos(dataset, options);
    EXPECT_FALSE(result.diagnostics.watchdog_aborted);
    EXPECT_STREQ(watchdog.verdict(), "ok") << "distributed run flagged";
  }
}

TEST(Watchdog, AbortStopsCentralizedTraining) {
  const auto dataset = make_population(3, 0.3, 2, 0.4, 16);
  auto options = fast_centralized();
  // Impossible improvement bar: every round past the first counts as a
  // stall, and the abort policy must stop the run at the round boundary.
  obs::WatchdogConfig config;
  config.on_violation = obs::WatchdogConfig::OnViolation::kAbort;
  config.stall_rounds = 1;
  config.stall_tolerance = 1e9;
  obs::Journal journal;
  obs::Watchdog watchdog(config);
  options.journal = &journal;
  options.watchdog = &watchdog;
  const auto result = core::train_centralized_plos(dataset, options);
  EXPECT_TRUE(result.diagnostics.watchdog_aborted);
  EXPECT_TRUE(watchdog.should_abort());
  EXPECT_EQ(journal.size(), 2u);  // the offending round is the last record
}

TEST(Watchdog, AbortStopsDistributedTraining) {
  const auto dataset = make_population(3, 0.3, 2, 0.4, 17);
  auto options = fast_distributed();
  obs::WatchdogConfig config;
  config.on_violation = obs::WatchdogConfig::OnViolation::kAbort;
  config.stall_rounds = 1;
  config.stall_tolerance = 1e9;
  obs::Watchdog watchdog(config);
  options.watchdog = &watchdog;
  const auto result = core::train_distributed_plos(dataset, options);
  EXPECT_TRUE(result.diagnostics.watchdog_aborted);
  EXPECT_LE(result.diagnostics.admm_iterations_total, 2);
}

TEST(Watchdog, ReplayMatchesOnlineObservation) {
  std::vector<obs::RoundRecord> records;
  records.push_back(healthy_record(2.0));
  records.push_back(healthy_record(1.5));
  records.push_back(healthy_record(1e6));  // diverges
  const auto watchdog = obs::replay_watchdog(records, obs::WatchdogConfig{});
  ASSERT_EQ(watchdog.violations().size(), 1u);
  EXPECT_EQ(watchdog.violations()[0].kind, obs::ViolationKind::kDivergence);
  EXPECT_EQ(watchdog.violations()[0].record_index, 2u);
}

TEST(Watchdog, FlagsUnconvergedSolves) {
  auto& registry = obs::metrics();
  registry.set_enabled(true);
  registry.reset_values();
  obs::Watchdog watchdog{obs::WatchdogConfig{}};
  obs::RoundRecord converged = healthy_record(2.0);
  converged.qp_solves = 4;
  EXPECT_EQ(watchdog.observe(converged), obs::WatchdogAction::kNone);
  obs::RoundRecord budget_spent = healthy_record(1.5);
  budget_spent.qp_solves = 4;
  budget_spent.qp_unconverged = 1;
  EXPECT_EQ(watchdog.observe(budget_spent), obs::WatchdogAction::kWarn);
  const double fired =
      registry.counter("plos.watchdog.unconverged").value();
  registry.set_enabled(false);
  ASSERT_EQ(watchdog.violations().size(), 1u);
  EXPECT_EQ(watchdog.violations()[0].kind, obs::ViolationKind::kUnconverged);
  EXPECT_EQ(watchdog.violations()[0].record_index, 1u);
  EXPECT_EQ(watchdog.violations()[0].message,
            "1 of 4 QP solves did not converge");
  EXPECT_STREQ(obs::violation_kind_name(obs::ViolationKind::kUnconverged),
               "unconverged");
  EXPECT_EQ(fired, 1.0);
  EXPECT_FALSE(watchdog.should_abort());
  EXPECT_STREQ(watchdog.verdict(), "warn");
}

TEST(Watchdog, UnconvergedSolveAbortsUnderAbortPolicy) {
  obs::WatchdogConfig config;
  config.on_violation = obs::WatchdogConfig::OnViolation::kAbort;
  obs::Watchdog watchdog(config);
  obs::RoundRecord record = healthy_record(1.0);
  record.qp_solves = 2;
  record.qp_unconverged = 2;
  EXPECT_EQ(watchdog.observe(record), obs::WatchdogAction::kAbort);
  ASSERT_EQ(watchdog.violations().size(), 1u);
  EXPECT_EQ(watchdog.violations()[0].kind, obs::ViolationKind::kUnconverged);
  EXPECT_TRUE(watchdog.should_abort());
  EXPECT_STREQ(watchdog.verdict(), "abort");
}

// ---- run manifest --------------------------------------------------------

obs::RunManifest sample_manifest() {
  obs::RunManifest manifest;
  manifest.tool = "test";
  obs::fill_build_info(manifest);
  manifest.seed = 42;
  manifest.dataset = {"synth", 4, 2, 160, 3, 0.25, 0x1234abcdu};
  manifest.options["lambda"] = "100";
  manifest.results["accuracy.plos.overall"] = 0.875;
  manifest.watchdog_verdict = "ok";
  manifest.threads = 4;
  manifest.wall_seconds = 1.5;
  manifest.timing["simulated_seconds"] = 2.5;
  return manifest;
}

TEST(Manifest, SerializesAndParses) {
  const obs::RunManifest manifest = sample_manifest();
  const std::string json = obs::manifest_to_json(manifest);
  const auto value = obs::json::parse(json);
  ASSERT_TRUE(value.has_value());
  EXPECT_EQ(value->find("tool")->as_string(), "test");
  EXPECT_DOUBLE_EQ(value->find("seed")->as_number(), 42.0);
  EXPECT_EQ(value->find("dataset")->find("name")->as_string(), "synth");
  EXPECT_EQ(value->find("dataset")->find("content_hash")->as_string(),
            "0x000000001234abcd");
  EXPECT_DOUBLE_EQ(
      value->find("results")->find("accuracy.plos.overall")->as_number(),
      0.875);
  EXPECT_DOUBLE_EQ(value->find("timing")->find("wall_seconds")->as_number(),
                   1.5);
  EXPECT_DOUBLE_EQ(
      value->find("timing")->find("simulated_seconds")->as_number(), 2.5);
}

TEST(Manifest, TimingSectionIsExcludable) {
  const obs::RunManifest manifest = sample_manifest();
  const std::string core = obs::manifest_to_json(manifest, false);
  EXPECT_EQ(core.find("timing"), std::string::npos);
  EXPECT_EQ(core.find("wall_seconds"), std::string::npos);
  // Only timing differs between two otherwise-identical runs.
  obs::RunManifest other = sample_manifest();
  other.wall_seconds = 99.0;
  other.threads = 8;
  other.timing["simulated_seconds"] = 7.0;
  EXPECT_EQ(obs::manifest_to_json(other, false), core);
  EXPECT_NE(obs::manifest_to_json(other), obs::manifest_to_json(manifest));
}

TEST(Manifest, Fnv1aIsStableAndSensitive) {
  obs::Fnv1a a, b, c;
  a.add_u64(1);
  a.add_double(0.5);
  b.add_u64(1);
  b.add_double(0.5);
  c.add_u64(1);
  c.add_double(0.5000000001);
  EXPECT_EQ(a.digest(), b.digest());
  EXPECT_NE(a.digest(), c.digest());
}

TEST(Manifest, DatasetFingerprintIsDeterministic) {
  const auto first = make_population(3, 0.3, 2, 0.4, 21);
  const auto second = make_population(3, 0.3, 2, 0.4, 21);
  const auto third = make_population(3, 0.3, 2, 0.4, 22);  // different seed
  const auto fp1 = data::fingerprint(first, "synth");
  const auto fp2 = data::fingerprint(second, "synth");
  const auto fp3 = data::fingerprint(third, "synth");
  EXPECT_EQ(fp1.content_hash, fp2.content_hash);
  EXPECT_NE(fp1.content_hash, fp3.content_hash);
  EXPECT_EQ(fp1.users, 3u);
  EXPECT_EQ(fp1.providers, 2u);
  EXPECT_GT(fp1.labeled_fraction, 0.0);
  EXPECT_LT(fp1.labeled_fraction, 1.0);
}

// ---- inspect: diff / check -----------------------------------------------

obs::json::Value parse_or_die(const std::string& text) {
  auto value = obs::json::parse(text);
  EXPECT_TRUE(value.has_value()) << text;
  return value.value_or(obs::json::Value{});
}

TEST(Inspect, DiffFindsChangedMissingAndExtraFields) {
  const auto left = parse_or_die(R"({"a":1,"b":{"c":2},"only_left":3})");
  const auto right = parse_or_die(R"({"a":1,"b":{"c":5},"only_right":4})");
  const auto result = obs::diff_values(left, right);
  ASSERT_EQ(result.differences.size(), 3u);
  EXPECT_EQ(result.differences[0].path, "b.c");
  EXPECT_EQ(result.differences[1].path, "only_left");
  EXPECT_EQ(result.differences[1].right, "<missing>");
  EXPECT_EQ(result.differences[2].path, "only_right");
  EXPECT_EQ(result.differences[2].left, "<missing>");
}

TEST(Inspect, DiffRespectsTolerance) {
  const auto left = parse_or_die(R"({"x":1.0})");
  const auto right = parse_or_die(R"({"x":1.0000001})");
  EXPECT_FALSE(obs::diff_values(left, right).identical());
  obs::DiffOptions tolerant;
  tolerant.tolerance = 1e-6;
  EXPECT_TRUE(obs::diff_values(left, right, tolerant).identical());
  obs::DiffOptions per_field;
  per_field.field_tolerances["x"] = 1e-6;
  EXPECT_TRUE(obs::diff_values(left, right, per_field).identical());
}

TEST(Inspect, DiffIgnoresConfiguredPrefixes) {
  const auto left = parse_or_die(R"({"a":1,"timing":{"wall_seconds":1.0}})");
  const auto right = parse_or_die(R"({"a":1,"timing":{"wall_seconds":9.0}})");
  EXPECT_FALSE(obs::diff_values(left, right).identical());
  EXPECT_TRUE(
      obs::diff_values(left, right, obs::default_diff_options()).identical());
}

TEST(Inspect, CheckOptionsIgnoreBuildAndTiming) {
  obs::RunManifest manifest = sample_manifest();
  const auto left = parse_or_die(obs::manifest_to_json(manifest));
  manifest.compiler = "other-compiler 99.9";
  manifest.wall_seconds = 123.0;
  manifest.dataset.content_hash = 0xdeadbeef;
  const auto right = parse_or_die(obs::manifest_to_json(manifest));
  EXPECT_FALSE(
      obs::diff_values(left, right, obs::default_diff_options()).identical());
  EXPECT_TRUE(
      obs::diff_values(left, right, obs::default_check_options()).identical());
  // A result drift beyond tolerance still fails the check.
  manifest.results["accuracy.plos.overall"] = 0.85;
  const auto drifted = parse_or_die(obs::manifest_to_json(manifest));
  const auto result =
      obs::diff_values(left, drifted, obs::default_check_options());
  ASSERT_EQ(result.differences.size(), 1u);
  EXPECT_EQ(result.differences[0].path, "results.accuracy.plos.overall");
}

TEST(Inspect, ConvergenceReportMentionsKeyFacts) {
  const auto manifest = parse_or_die(obs::manifest_to_json(sample_manifest()));
  std::vector<obs::RoundRecord> journal;
  journal.push_back(healthy_record(2.0));
  journal.push_back(healthy_record(1.5));
  journal.back().qp_unconverged = 3;
  const std::string report = obs::convergence_report(&manifest, &journal);
  EXPECT_NE(report.find("synth"), std::string::npos);
  EXPECT_NE(report.find("2 records"), std::string::npos);
  EXPECT_NE(report.find("accuracy.plos.overall"), std::string::npos);
  EXPECT_NE(report.find("3 unconverged"), std::string::npos);
}

TEST(Inspect, ReportReplaysTheWatchdogOverTheJournal) {
  // `plos_inspect report` on a journal file: the default policy replayed
  // over the parsed records names an unconverged step.
  obs::Journal journal;
  journal.append(healthy_record(2.0));
  obs::RoundRecord budget_spent = healthy_record(1.5);
  budget_spent.cccp_round = 1;
  budget_spent.qp_solves = 5;
  budget_spent.qp_unconverged = 2;
  journal.append(budget_spent);
  std::vector<obs::RoundRecord> parsed;
  std::string error;
  ASSERT_TRUE(obs::parse_journal_jsonl(journal.to_jsonl(), parsed, &error))
      << error;
  const std::string report = obs::convergence_report(nullptr, &parsed);
  EXPECT_NE(report.find("replay      watchdog warn (1 violations)"),
            std::string::npos)
      << report;
  EXPECT_NE(report.find("violation   record 1 unconverged: 2 of 5 QP solves "
                        "did not converge"),
            std::string::npos)
      << report;

  // A journal whose solves all converged replays clean.
  parsed.pop_back();
  const std::string clean = obs::convergence_report(nullptr, &parsed);
  EXPECT_NE(clean.find("replay      watchdog ok (0 violations)"),
            std::string::npos)
      << clean;
  EXPECT_EQ(clean.find("violation   record"), std::string::npos) << clean;
}

TEST(Inspect, ManifestCoreByteIdenticalAcrossThreadCounts) {
  // End-to-end: the deterministic manifest core (results + options +
  // dataset fingerprint) of a real training run must not depend on the
  // thread count.
  const auto dataset = make_population(3, 0.3, 2, 0.4, 23);
  std::string reference;
  for (int threads : {1, 4}) {
    auto options = fast_centralized();
    options.num_threads = threads;
    const auto result = core::train_centralized_plos(dataset, options);
    obs::RunManifest manifest;
    manifest.tool = "test";
    obs::fill_build_info(manifest);
    manifest.seed = 23;
    manifest.dataset = data::fingerprint(dataset, "synth");
    manifest.results["final_objective"] =
        result.diagnostics.objective_trace.back();
    manifest.results["cccp_rounds"] =
        static_cast<double>(result.diagnostics.cccp_iterations);
    manifest.threads = threads;
    manifest.wall_seconds = result.diagnostics.train_seconds;
    const std::string core_json = obs::manifest_to_json(manifest, false);
    if (reference.empty()) {
      reference = core_json;
    } else {
      EXPECT_EQ(core_json, reference);
    }
  }
}

}  // namespace
}  // namespace plos
