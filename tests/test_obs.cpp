// Tests for the plos::obs observability layer: metrics registry and the
// Profiler's span slices (Chrome trace).
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/assert.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"

namespace plos::obs {
namespace {

// ---- minimal JSON syntax checker ----------------------------------------
// Recursive-descent validator (no external deps): enough to assert that the
// registry and trace serializers emit well-formed JSON, which is what
// chrome://tracing / Perfetto / downstream tooling require.

class JsonChecker {
 public:
  explicit JsonChecker(std::string_view text) : text_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == text_.size();
  }

 private:
  bool value() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{':
        return object();
      case '[':
        return array();
      case '"':
        return string();
      case 't':
        return literal("true");
      case 'f':
        return literal("false");
      case 'n':
        return literal("null");
      default:
        return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '\\') {
        pos_ += 2;
        continue;
      }
      if (c == '"') {
        ++pos_;
        return true;
      }
      ++pos_;
    }
    return false;
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

bool is_valid_json(std::string_view text) {
  return JsonChecker(text).valid();
}

TEST(JsonChecker, SanityOnKnownInputs) {
  EXPECT_TRUE(is_valid_json(R"({"a":[1,2.5,-3e-2],"b":{"c":"x\"y"},"d":null})"));
  EXPECT_FALSE(is_valid_json(R"({"a":1)"));
  EXPECT_FALSE(is_valid_json(R"({"a":})"));
  EXPECT_FALSE(is_valid_json("{,}"));
}

// ---- metrics -------------------------------------------------------------

TEST(Metrics, CounterAccumulates) {
  Registry registry;
  Counter& counter = registry.counter("c");
  counter.increment();
  counter.add(2.5);
  EXPECT_DOUBLE_EQ(counter.value(), 3.5);
  // Same name resolves to the same instrument.
  EXPECT_EQ(&registry.counter("c"), &counter);
}

TEST(Metrics, DisabledRegistryDropsRecords) {
  Registry registry(/*enabled=*/false);
  Counter& counter = registry.counter("c");
  Histogram& histogram = registry.histogram("h", default_iteration_buckets());
  counter.increment();
  histogram.record(3.0);
  EXPECT_DOUBLE_EQ(counter.value(), 0.0);
  EXPECT_EQ(histogram.count(), 0u);

  registry.set_enabled(true);
  counter.increment();
  histogram.record(3.0);
  EXPECT_DOUBLE_EQ(counter.value(), 1.0);
  EXPECT_EQ(histogram.count(), 1u);
}

TEST(Metrics, HistogramSumIsExactAndResetZeroesIt) {
  // e2ebench's per-layer qp.iterations reads this sum, so it must be the
  // exact total of the recorded values, not a bucket reconstruction.
  Registry registry;
  Histogram& histogram = registry.histogram("h", default_iteration_buckets());
  const double values[] = {0.0, 3.0, 17.0, 2001.0, 2999.0, 9000.0};
  for (const double value : values) histogram.record(value);
  EXPECT_EQ(histogram.count(), 6u);
  EXPECT_EQ(histogram.sum(), 14020.0);
  EXPECT_EQ(histogram.min(), 0.0);
  EXPECT_EQ(histogram.max(), 9000.0);
  EXPECT_EQ(registry.histogram("h", default_iteration_buckets()).sum(),
            14020.0);

  registry.reset_values();
  EXPECT_EQ(histogram.count(), 0u);
  EXPECT_EQ(histogram.sum(), 0.0);
  EXPECT_EQ(histogram.min(), 0.0);
  EXPECT_EQ(histogram.max(), 0.0);
  EXPECT_TRUE(histogram.sketch().empty());
  histogram.record(5.0);
  EXPECT_EQ(histogram.sum(), 5.0);
  EXPECT_EQ(histogram.min(), 5.0);
}

TEST(Metrics, HistogramRejectsValuesOutsideTheSketchDomain) {
  Registry registry;
  Histogram& histogram = registry.histogram("h", default_iteration_buckets());
  EXPECT_THROW(histogram.record(-1.0), PreconditionError);
  EXPECT_EQ(histogram.count(), 0u);
  EXPECT_EQ(histogram.sum(), 0.0);
}

TEST(Metrics, ResetValuesKeepsInstrumentIdentity) {
  Registry registry;
  Counter& counter = registry.counter("c");
  Histogram& histogram = registry.histogram("h", default_iteration_buckets());
  counter.add(5.0);
  histogram.record(1.5);

  registry.reset_values();
  EXPECT_DOUBLE_EQ(counter.value(), 0.0);
  EXPECT_EQ(histogram.count(), 0u);
  // The references still point at the live instruments.
  EXPECT_EQ(&registry.counter("c"), &counter);
  counter.increment();
  EXPECT_DOUBLE_EQ(registry.counter("c").value(), 1.0);
}

TEST(Metrics, SnapshotIsValidJsonWithAllInstruments) {
  Registry registry;
  registry.counter("a.count").add(3.0);
  registry.histogram("c.hist", default_iteration_buckets()).record(4.0);
  const std::string json = registry.to_json();
  EXPECT_TRUE(is_valid_json(json)) << json;
  EXPECT_EQ(json.rfind("{\"counters\":{\"a.count\":3},\"histograms\":{", 0),
            0u)
      << json;
  EXPECT_NE(json.find("\"c.hist\""), std::string::npos);
}

TEST(Metrics, EmptyRegistrySnapshotIsValidJson) {
  const Registry registry;
  EXPECT_TRUE(is_valid_json(registry.to_json()));
}

TEST(Metrics, IterationQuantilesSeparate2001From3000) {
  // Iteration counts near the solvers' 3000-iteration cap must stay
  // distinguishable: 2001 and 3000 land in different sketch buckets.
  Registry registry;
  Histogram& histogram = registry.histogram("h", default_iteration_buckets());
  EXPECT_EQ(histogram.sketch().quantile(0.5), 0.0);  // empty
  for (const double value : {2001.0, 2001.0, 3000.0, 3000.0}) {
    histogram.record(value);
  }
  const QuantileSketch sketch = histogram.sketch();
  const double p25 = sketch.quantile(0.25);
  const double p75 = sketch.quantile(0.75);
  EXPECT_LT(p25, p75);
  EXPECT_LE(p25, 2001.0);
  EXPECT_GT(p75, 2001.0);
  EXPECT_LE(p75, 3000.0);
}

TEST(Metrics, HistogramQuantileSingleValueIsExact) {
  Registry registry;
  Histogram& histogram = registry.histogram("h", default_iteration_buckets());
  histogram.record(7.0);
  // At 8 sub-buckets per octave every integer below 16 is a bucket's lower
  // edge, so a single small iteration count reads back exactly.
  const QuantileSketch sketch = histogram.sketch();
  EXPECT_EQ(sketch.quantile(0.50), 7.0);
  EXPECT_EQ(sketch.quantile(0.99), 7.0);
}

TEST(Metrics, SnapshotsCarryQuantileSummaries) {
  Registry registry;
  Histogram& histogram = registry.histogram("q.hist",
                                            default_iteration_buckets());
  for (int v = 1; v <= 10; ++v) histogram.record(static_cast<double>(v));
  // Sketch quantiles: rank floor(q * 9) of the ten samples 1..10.
  const std::string json = registry.to_json();
  EXPECT_TRUE(is_valid_json(json)) << json;
  EXPECT_NE(json.find("\"q.hist\":{\"count\":10,\"sum\":55,\"min\":1,"
                      "\"max\":10,\"p50\":5,\"p90\":9,\"p99\":9}"),
            std::string::npos)
      << json;
  EXPECT_EQ(json.find("\"bounds\""), std::string::npos) << json;
}

// ---- trace spans (Profiler slices) ---------------------------------------

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Profiler::instance().reset();
    Profiler::instance().set_enabled(true);
    Profiler::instance().set_slices_enabled(true);
  }

  void TearDown() override {
    Profiler::instance().set_slices_enabled(false);
    Profiler::instance().set_enabled(false);
    Profiler::instance().reset();
  }
};

TEST_F(TraceTest, DisabledCollectorRecordsNothing) {
  Profiler::instance().set_enabled(false);
  { PLOS_SPAN("invisible"); }
  EXPECT_TRUE(Profiler::instance().slices().empty());
  EXPECT_TRUE(Profiler::instance().snapshot().children.empty());
  // With slices off the tree still counts the span, but keeps no slice.
  Profiler::instance().set_enabled(true);
  Profiler::instance().set_slices_enabled(false);
  { PLOS_SPAN("tree_only"); }
  EXPECT_TRUE(Profiler::instance().slices().empty());
  EXPECT_EQ(Profiler::instance().snapshot().count, 1u);
}

TEST_F(TraceTest, SpansNestWithDepthAndContainment) {
  {
    PLOS_SPAN("outer");
    {
      PLOS_SPAN("middle");
      { PLOS_SPAN("inner", "index", 3.0); }
    }
  }
  const auto slices = Profiler::instance().slices();
  ASSERT_EQ(slices.size(), 3u);
  // Spans close innermost-first.
  EXPECT_EQ(slices[0].name, "inner");
  EXPECT_EQ(slices[1].name, "middle");
  EXPECT_EQ(slices[2].name, "outer");
  EXPECT_EQ(slices[0].depth, 2);
  EXPECT_EQ(slices[1].depth, 1);
  EXPECT_EQ(slices[2].depth, 0);
  ASSERT_NE(slices[0].arg_name, nullptr);
  EXPECT_EQ(std::string(slices[0].arg_name), "index");
  EXPECT_DOUBLE_EQ(slices[0].arg, 3.0);
  EXPECT_EQ(slices[1].arg_name, nullptr);
  // Child intervals are contained in their parent's interval.
  for (int child = 0; child < 2; ++child) {
    const auto& inner = slices[child];
    const auto& outer = slices[child + 1];
    EXPECT_GE(inner.ts_us, outer.ts_us);
    EXPECT_LE(inner.ts_us + inner.dur_us, outer.ts_us + outer.dur_us);
  }
}

TEST_F(TraceTest, SequentialSpansShareDepthZero) {
  { PLOS_SPAN("first"); }
  { PLOS_SPAN("second"); }
  const auto slices = Profiler::instance().slices();
  ASSERT_EQ(slices.size(), 2u);
  EXPECT_EQ(slices[0].depth, 0);
  EXPECT_EQ(slices[1].depth, 0);
  EXPECT_LE(slices[0].ts_us, slices[1].ts_us);
}

TEST_F(TraceTest, ChromeJsonIsValidAndCarriesEvents) {
  {
    PLOS_SPAN("qp_solve");
    { PLOS_SPAN("projection", "sweep", 2.0); }
  }
  const std::string json = Profiler::instance().to_chrome_json();
  EXPECT_TRUE(is_valid_json(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"qp_solve\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"projection\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":"), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"depth\":1,\"sweep\":2}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"args\":{\"depth\":0}"), std::string::npos) << json;
}

TEST_F(TraceTest, EmptyCollectorStillSerializesValidJson) {
  const std::string json = Profiler::instance().to_chrome_json();
  EXPECT_TRUE(is_valid_json(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\":[]"), std::string::npos);
}

TEST_F(TraceTest, ConcurrentSpansRecordPerThreadTracksWithoutLoss) {
  // Thread pools open spans from many workers at once: the frame stack is
  // thread-local, the shared slice list is mutex-guarded, and each slice
  // carries its recording thread's id so Perfetto renders per-worker
  // tracks. Nothing may be lost or cross-contaminated.
  constexpr int kThreads = 8;
  constexpr int kSpansPerThread = 100;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([] {
      for (int k = 0; k < kSpansPerThread; ++k) {
        PLOS_SPAN("worker_outer", "k", static_cast<double>(k));
        { PLOS_SPAN("worker_inner"); }
      }
    });
  }
  for (auto& t : threads) t.join();

  const auto slices = Profiler::instance().slices();
  ASSERT_EQ(slices.size(),
            static_cast<std::size_t>(kThreads * kSpansPerThread * 2));
  std::map<std::uint32_t, std::pair<int, int>> per_tid;  // (outer, inner)
  for (const auto& slice : slices) {
    EXPECT_GT(slice.tid, 0u);
    if (slice.name == "worker_outer") {
      EXPECT_EQ(slice.depth, 0);
      ++per_tid[slice.tid].first;
    } else {
      ASSERT_EQ(slice.name, "worker_inner");
      EXPECT_EQ(slice.depth, 1);
      ++per_tid[slice.tid].second;
    }
  }
  // Dense per-thread ids: every worker contributed its full span count to
  // its own track.
  ASSERT_EQ(per_tid.size(), static_cast<std::size_t>(kThreads));
  for (const auto& [tid, counts] : per_tid) {
    EXPECT_EQ(counts.first, kSpansPerThread) << "tid " << tid;
    EXPECT_EQ(counts.second, kSpansPerThread) << "tid " << tid;
  }
  EXPECT_TRUE(is_valid_json(Profiler::instance().to_chrome_json()));
}

TEST(Metrics, ConcurrentCounterGaugeHistogramRecording) {
  // The solver records counters and histograms from pool workers; the
  // registry must lose neither integer-valued increments nor samples under
  // concurrency.
  Registry registry(true);
  Counter& counter = registry.counter("c");
  Histogram& histogram = registry.histogram("h", default_iteration_buckets());

  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 500;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&] {
      for (int k = 0; k < kOpsPerThread; ++k) {
        counter.increment();
        histogram.record(static_cast<double>(k % 50));
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_DOUBLE_EQ(counter.value(),
                   static_cast<double>(kThreads * kOpsPerThread));
  EXPECT_EQ(histogram.count(),
            static_cast<std::size_t>(kThreads * kOpsPerThread));
  // Each thread records 0..49 ten times: sum = 8 * 10 * 1225.
  EXPECT_DOUBLE_EQ(histogram.sum(), static_cast<double>(kThreads * 10 * 1225));
  EXPECT_TRUE(is_valid_json(registry.to_json()));
}

}  // namespace
}  // namespace plos::obs
