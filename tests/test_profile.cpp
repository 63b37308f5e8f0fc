// Profiler + bench-gate suite.
//
// Four contracts under test:
//   1. Tree aggregation — repeated PLOS_SPAN scopes at the same position
//      fold into one node; pool workers nest under the span that spawned
//      them (ProfileContextScope); reset() with open spans is safe.
//   2. Structural byte-identity (DESIGN.md §8, §12) — the non-"timing"
//      part of the profile JSON for a full trainer run is byte-identical
//      at any thread count, for both trainers.
//   3. Slices agree with the tree — every Chrome-trace slice carries its
//      node's tree depth on whatever thread ran it, and the per-name slice
//      counts are the tree's call counts.
//   4. bench_check — the BENCH_*.json gate flags counter drift and median
//      wall-time regressions, tolerates timing noise in diff mode, and
//      the checked-in repo-root baselines pass a self-check.
#include <gtest/gtest.h>

#include <cstddef>
#include <map>
#include <string>
#include <utility>

#include "core/centralized_plos.hpp"
#include "core/distributed_plos.hpp"
#include "data/labeling.hpp"
#include "data/synthetic.hpp"
#include "net/simnet.hpp"
#include "obs/inspect.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"
#include "rng/engine.hpp"

namespace plos {
namespace {

class ProfilerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::Profiler::instance().reset();
    obs::Profiler::instance().set_enabled(true);
  }
  void TearDown() override {
    obs::Profiler::instance().set_enabled(false);
    obs::Profiler::instance().reset();
  }
};

TEST_F(ProfilerTest, AggregatesRepeatedSpansIntoOneNode) {
  for (int i = 0; i < 3; ++i) {
    PLOS_SPAN("outer");
    { PLOS_SPAN("inner"); }
    { PLOS_SPAN("inner"); }
  }
  const auto root = obs::Profiler::instance().snapshot();
  ASSERT_EQ(root.children.size(), 1u);
  EXPECT_EQ(root.children[0].name, "outer");
  EXPECT_EQ(root.children[0].count, 3u);
  ASSERT_EQ(root.children[0].children.size(), 1u);
  EXPECT_EQ(root.children[0].children[0].name, "inner");
  EXPECT_EQ(root.children[0].children[0].count, 6u);
}

TEST_F(ProfilerTest, SiblingsAreSortedByName) {
  {
    PLOS_SPAN("top");
    { PLOS_SPAN("zeta"); }
    { PLOS_SPAN("alpha"); }
  }
  const auto root = obs::Profiler::instance().snapshot();
  ASSERT_EQ(root.children.size(), 1u);
  ASSERT_EQ(root.children[0].children.size(), 2u);
  EXPECT_EQ(root.children[0].children[0].name, "alpha");
  EXPECT_EQ(root.children[0].children[1].name, "zeta");
}

TEST_F(ProfilerTest, PoolWorkersInheritSpawningSpan) {
  for (const int threads : {1, 4}) {
    obs::Profiler::instance().reset();
    parallel::ThreadPool pool(threads);
    {
      PLOS_SPAN("parent");
      pool.parallel_for(16, [&](std::size_t) { PLOS_SPAN("child"); });
    }
    const auto root = obs::Profiler::instance().snapshot();
    ASSERT_EQ(root.children.size(), 1u) << "threads=" << threads;
    EXPECT_EQ(root.children[0].name, "parent");
    ASSERT_EQ(root.children[0].children.size(), 1u) << "threads=" << threads;
    EXPECT_EQ(root.children[0].children[0].name, "child");
    EXPECT_EQ(root.children[0].children[0].count, 16u);
  }
}

TEST_F(ProfilerTest, ResetWithOpenSpanClosesAsNoOp) {
  obs::Profiler::instance().span_open("stale");
  obs::Profiler::instance().reset();
  obs::Profiler::instance().span_close();  // generation mismatch: no-op
  const auto root = obs::Profiler::instance().snapshot();
  EXPECT_TRUE(root.children.empty());
}

TEST_F(ProfilerTest, DisabledProfilerRecordsNothing) {
  obs::Profiler::instance().set_enabled(false);
  { PLOS_SPAN("invisible"); }
  EXPECT_TRUE(obs::Profiler::instance().snapshot().children.empty());
}

TEST_F(ProfilerTest, TimingSectionIsPresentOnlyWhenRequested) {
  { PLOS_SPAN("phase"); }
  obs::ProfileJsonOptions with_timing;
  obs::ProfileJsonOptions without_timing;
  without_timing.include_timing = false;
  const std::string full = obs::profile_to_json(with_timing);
  const std::string structural = obs::profile_to_json(without_timing);
  EXPECT_NE(full.find("\"timing\""), std::string::npos);
  EXPECT_EQ(structural.find("\"timing\""), std::string::npos);
  EXPECT_EQ(structural.find("inclusive_ms"), std::string::npos);
  EXPECT_NE(structural.find("\"phase\""), std::string::npos);
}

// ---- structural byte-identity across thread counts -----------------------

data::MultiUserDataset make_population() {
  data::SyntheticSpec spec;
  spec.num_users = 6;
  spec.points_per_class = 20;
  spec.max_rotation = 1.2;
  rng::Engine engine(11);
  auto dataset = data::generate_synthetic(spec, engine);
  data::reveal_labels(dataset, {0, 2, 4}, 0.3, engine);
  return dataset;
}

std::string structural_profile_json() {
  obs::ProfileJsonOptions options;
  options.include_timing = false;
  options.registry = &obs::metrics();
  return obs::profile_to_json(options);
}

TEST_F(ProfilerTest, CentralizedStructuralProfileIsThreadCountInvariant) {
  const auto dataset = make_population();
  obs::metrics().set_enabled(true);
  std::string reference;
  for (const int threads : {1, 2, 4, 8}) {
    obs::Profiler::instance().reset();
    obs::metrics().reset_values();
    core::CentralizedPlosOptions options;
    options.cutting_plane.epsilon = 1e-2;
    options.cccp.max_iterations = 2;
    options.num_threads = threads;
    core::train_centralized_plos(dataset, options);
    const std::string json = structural_profile_json();
    if (threads == 1) {
      reference = json;
      EXPECT_NE(json.find("plos.sign_fit"), std::string::npos);
      EXPECT_NE(json.find("plos.dual_solve"), std::string::npos);
    } else {
      EXPECT_EQ(json, reference) << "threads=" << threads;
    }
  }
}

TEST_F(ProfilerTest, DistributedStructuralProfileIsThreadCountInvariant) {
  const auto dataset = make_population();
  obs::metrics().set_enabled(true);
  std::string reference;
  for (const int threads : {1, 2, 4, 8}) {
    obs::Profiler::instance().reset();
    obs::metrics().reset_values();
    core::DistributedPlosOptions options;
    options.cutting_plane.epsilon = 1e-2;
    options.cccp.max_iterations = 2;
    options.max_admm_iterations = 30;
    options.num_threads = threads;
    net::SimNetwork network(dataset.num_users(), net::DeviceProfile{},
                            net::LinkProfile{});
    core::train_distributed_plos(dataset, options, &network);
    const std::string json = structural_profile_json();
    if (threads == 1) {
      reference = json;
      EXPECT_NE(json.find("plos.device_solve"), std::string::npos);
      EXPECT_NE(json.find("plos.server_update"), std::string::npos);
    } else {
      EXPECT_EQ(json, reference) << "threads=" << threads;
    }
  }
}

// (span name, tree depth) → summed call count of the nodes there; depth 0
// is top level. A name can sit at several positions (net.transmit does).
using DepthCounts = std::map<std::pair<std::string, int>, std::size_t>;

void collect_tree(const obs::Profiler::NodeSnapshot& node, int depth,
                  DepthCounts& counts) {
  for (const auto& child : node.children) {
    counts[{child.name, depth}] += child.count;
    collect_tree(child, depth + 1, counts);
  }
}

TEST_F(ProfilerTest, DistributedSlicesCarryTreeDepthAtAnyThreadCount) {
  // parallel_for runs chunk 0 on the calling thread and chunks 1..k on
  // pool workers; a device solve must sit at its node's depth on all of
  // them, so the slices tally to the tree's counts at every depth.
  const auto dataset = make_population();
  obs::Profiler::instance().set_slices_enabled(true);
  DepthCounts reference;
  for (const int threads : {1, 4}) {
    obs::Profiler::instance().reset();
    core::DistributedPlosOptions options;
    options.cutting_plane.epsilon = 1e-2;
    options.cccp.max_iterations = 2;
    options.max_admm_iterations = 30;
    options.num_threads = threads;
    net::SimNetwork network(dataset.num_users(), net::DeviceProfile{},
                            net::LinkProfile{});
    core::train_distributed_plos(dataset, options, &network);

    DepthCounts tree;
    collect_tree(obs::Profiler::instance().snapshot(), 0, tree);
    DepthCounts slices;
    for (const auto& slice : obs::Profiler::instance().slices()) {
      ++slices[{slice.name, slice.depth}];
    }
    EXPECT_EQ(slices, tree) << "threads=" << threads;
    EXPECT_EQ(tree.count({"plos.device_solve", 3}), 1u) << "threads=" << threads;
    if (threads == 1) {
      reference = slices;
    } else {
      EXPECT_EQ(slices, reference) << "threads=" << threads;
    }
  }
  obs::Profiler::instance().set_slices_enabled(false);
}

// ---- bench_check gate ----------------------------------------------------

obs::json::Value parse_or_die(const std::string& text) {
  std::string error;
  auto parsed = obs::json::parse(text, &error);
  if (!parsed.has_value()) {
    ADD_FAILURE() << "JSON parse failed: " << error;
    return obs::json::Value();
  }
  return *parsed;
}

std::string bench_fixture(int qp_solves, double median_ms) {
  std::string out = "{\"schema_version\":1,\"name\":\"demo\",\"cases\":{";
  out += "\"small\":{\"counters\":{\"qp_solves\":";
  out += std::to_string(qp_solves);
  out += ",\"rounds\":3},\"timing\":{\"reps\":5,\"warmup\":1,\"median_ms\":";
  out += std::to_string(median_ms);
  out += ",\"mad_ms\":0.5,\"min_ms\":9.0}}}}";
  return out;
}

TEST(BenchCheck, IdenticalSuitesPass) {
  const auto baseline = parse_or_die(bench_fixture(12, 10.0));
  const auto result = obs::bench_check(baseline, baseline);
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.counters_compared, 2u);
}

TEST(BenchCheck, CounterDriftFailsInBothDirections) {
  const auto baseline = parse_or_die(bench_fixture(12, 10.0));
  const auto drifted = parse_or_die(bench_fixture(13, 10.0));
  const auto forward = obs::bench_check(drifted, baseline);
  ASSERT_FALSE(forward.ok());
  bool mentions_counter = false;
  for (const auto& violation : forward.violations) {
    if (violation.find("qp_solves") != std::string::npos) {
      mentions_counter = true;
    }
  }
  EXPECT_TRUE(mentions_counter);
  // Drift is symmetric: a run with FEWER solves than baseline also fails.
  EXPECT_FALSE(obs::bench_check(baseline, drifted).ok());
}

TEST(BenchCheck, SlowMedianFailsCheckButPassesDiff) {
  const auto baseline = parse_or_die(bench_fixture(12, 10.0));
  // 100 ms vs 10 ms baseline = 10x, beyond the default 4x allowance.
  const auto slow = parse_or_die(bench_fixture(12, 100.0));
  EXPECT_FALSE(obs::bench_check(slow, baseline).ok());
  obs::BenchCheckOptions diff_mode;
  diff_mode.check_time_regression = false;
  EXPECT_TRUE(obs::bench_check(slow, baseline, diff_mode).ok());
  // The reverse direction (run faster than baseline) is never a failure.
  EXPECT_TRUE(obs::bench_check(baseline, slow).ok());
}

TEST(BenchCheck, SuiteNameAndCaseSetMustMatch) {
  const auto baseline = parse_or_die(bench_fixture(12, 10.0));
  auto renamed_text = bench_fixture(12, 10.0);
  const std::string::size_type at = renamed_text.find("\"demo\"");
  renamed_text.replace(at, 6, "\"other\"");
  EXPECT_FALSE(obs::bench_check(parse_or_die(renamed_text), baseline).ok());

  const auto empty = parse_or_die(
      "{\"schema_version\":1,\"name\":\"demo\",\"cases\":{}}");
  EXPECT_FALSE(obs::bench_check(empty, baseline).ok());  // case missing
  EXPECT_FALSE(obs::bench_check(baseline, empty).ok());  // extra case
}

// A baseline that gates nothing must FAIL, not pass vacuously: a truncated
// or mis-regenerated BENCH_*.json would otherwise disable the perf gate
// while CI keeps reporting green. Both empty-vacuity shapes are covered:
// zero cases, and cases present but carrying zero counters.
TEST(BenchCheck, EmptyBaselineIsAViolationNotAVacuousPass) {
  const auto empty = parse_or_die(
      "{\"schema_version\":1,\"name\":\"demo\",\"cases\":{}}");
  // Run == baseline, so every per-case rule is trivially satisfied — only
  // the non-vacuity rule can (and must) reject this.
  const auto result = obs::bench_check(empty, empty);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.counters_compared, 0u);
  bool names_vacuity = false;
  for (const auto& violation : result.violations) {
    if (violation.find("no cases") != std::string::npos) names_vacuity = true;
  }
  EXPECT_TRUE(names_vacuity);
}

TEST(BenchCheck, CounterlessBaselineIsAViolation) {
  const auto counterless = parse_or_die(
      "{\"schema_version\":1,\"name\":\"demo\",\"cases\":{\"small\":"
      "{\"counters\":{},\"timing\":{\"reps\":5,\"warmup\":1,"
      "\"median_ms\":10.0,\"mad_ms\":0.5,\"min_ms\":9.0}}}}");
  const auto result = obs::bench_check(counterless, counterless);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.counters_compared, 0u);
  bool names_vacuity = false;
  for (const auto& violation : result.violations) {
    if (violation.find("no counters") != std::string::npos) {
      names_vacuity = true;
    }
  }
  EXPECT_TRUE(names_vacuity);
}

TEST(BenchCheck, BenchReportMentionsCasesAndCounters) {
  const auto suite = parse_or_die(bench_fixture(12, 10.0));
  const std::string report = obs::bench_report(suite);
  EXPECT_NE(report.find("demo"), std::string::npos);
  EXPECT_NE(report.find("small"), std::string::npos);
  EXPECT_NE(report.find("qp_solves"), std::string::npos);
}

// The three repo-root baselines must parse, self-check, and carry at
// least one exact counter each — guards against checking in a truncated
// or hand-mangled baseline.
TEST(BenchCheck, CheckedInBaselinesSelfCheck) {
  const char* const names[] = {
      "BENCH_fig12_dist_runtime.json",
      "BENCH_abl04_qp_micro.json",
      "BENCH_cccp_threads.json",
  };
  for (const char* name : names) {
    const std::string path =
        std::string(PLOS_BENCH_BASELINE_DIR) + "/" + name;
    std::string text;
    ASSERT_TRUE(obs::read_file(path, text)) << path;
    const auto suite = parse_or_die(text);
    const auto result = obs::bench_check(suite, suite);
    EXPECT_TRUE(result.ok()) << path;
    EXPECT_GT(result.counters_compared, 0u) << path;
  }
}

}  // namespace
}  // namespace plos
