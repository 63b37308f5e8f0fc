#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <set>

#include "obs/json.hpp"

namespace plos::obs {

void Histogram::record(double value) {
  if (!enabled_->load(std::memory_order_relaxed)) return;
  const std::lock_guard<std::mutex> lock(mutex_);
  const bool first = sketch_.empty();
  sketch_.record(value);  // rejects negative and non-finite values
  sum_ += value;
  min_ = first ? value : std::min(min_, value);
  max_ = first ? value : std::max(max_, value);
}

std::size_t Histogram::count() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<std::size_t>(sketch_.count());
}

double Histogram::sum() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return sum_;
}

double Histogram::min() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return min_;
}

double Histogram::max() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return max_;
}

QuantileSketch Histogram::sketch() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return sketch_;
}

QuantileSketch::Spec default_iteration_buckets() {
  return {/*min_value=*/1.0, /*max_value=*/1048576.0, /*sub_buckets=*/8};
}

Counter& Registry::counter(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_
             .emplace(std::string(name),
                      std::unique_ptr<Counter>(new Counter(&enabled_)))
             .first;
  }
  return *it->second;
}

Histogram& Registry::histogram(std::string_view name,
                               const QuantileSketch::Spec& spec) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name), std::unique_ptr<Histogram>(
                                             new Histogram(&enabled_, spec)))
             .first;
  }
  return *it->second;
}

void Registry::reset_values() {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, counter] : counters_) {
    counter->value_.store(0.0, std::memory_order_relaxed);
  }
  for (auto& [name, histogram] : histograms_) {
    const std::lock_guard<std::mutex> histogram_lock(histogram->mutex_);
    histogram->sketch_ = QuantileSketch(histogram->sketch_.spec());
    histogram->sum_ = 0.0;
    histogram->min_ = 0.0;
    histogram->max_ = 0.0;
  }
}

void Registry::for_each_counter(
    const std::function<void(const std::string&, const Counter&)>& visit)
    const {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [name, counter] : counters_) visit(name, *counter);
}

void Registry::for_each_histogram(
    const std::function<void(const std::string&, const Histogram&)>& visit)
    const {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [name, histogram] : histograms_) visit(name, *histogram);
}

namespace {

// The quantiles both snapshot formats export for every histogram.
struct SummaryQuantile {
  const char* json_key;
  const char* prometheus_label;
  double q;
};
constexpr SummaryQuantile kSummaryQuantiles[] = {
    {"p50", "0.5", 0.50}, {"p90", "0.9", 0.90}, {"p99", "0.99", 0.99}};

}  // namespace

std::string Registry::to_json() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, counter] : counters_) {
    if (!first) out += ',';
    first = false;
    out += json::escape(name);
    out += ':';
    out += json::number(counter->value());
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, histogram] : histograms_) {
    if (!first) out += ',';
    first = false;
    const std::lock_guard<std::mutex> histogram_lock(histogram->mutex_);
    const QuantileSketch& sketch = histogram->sketch_;
    out += json::escape(name);
    out += ":{\"count\":";
    out += json::number(static_cast<double>(sketch.count()));
    out += ",\"sum\":";
    out += json::number(histogram->sum_);
    out += ",\"min\":";
    out += json::number(histogram->min_);
    out += ",\"max\":";
    out += json::number(histogram->max_);
    for (const SummaryQuantile& summary : kSummaryQuantiles) {
      out += ",\"";
      out += summary.json_key;
      out += "\":";
      out += json::number(sketch.quantile(summary.q));
    }
    out += '}';
  }
  out += "}}";
  return out;
}

namespace {

// Prometheus metric names admit [a-zA-Z_:][a-zA-Z0-9_:]*; the registry's
// dotted names map onto that by replacing every other character with '_'.
std::string prometheus_name(std::string_view name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9' && !out.empty()) || c == '_' ||
                    c == ':';
    out += ok ? c : '_';
  }
  // push_back rather than operator=(const char*): the latter trips a GCC 12
  // -Wrestrict false positive (PR105329) under -Werror.
  if (out.empty()) out.push_back('_');
  return out;
}

// Prometheus floats: the JSON rendering plus +Inf/-Inf/NaN.
std::string prometheus_number(double value) {
  if (std::isnan(value)) return "NaN";
  if (std::isinf(value)) return value > 0 ? "+Inf" : "-Inf";
  return json::number(value);
}

}  // namespace

std::string Registry::to_prometheus() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::string out;
  // The exposition format demands exactly one # HELP / # TYPE header per
  // metric family. Distinct dotted registry names can collapse onto the
  // same family after sanitization (every non-admitted character becomes
  // '_'), so headers are deduplicated across the whole dump.
  std::set<std::string> headered;
  const auto header = [&](const std::string& family, const char* type,
                          const std::string& help) {
    if (!headered.insert(family).second) return;
    out += "# HELP " + family + " " + help + "\n";
    out += "# TYPE " + family + " ";
    out += type;
    out += "\n";
  };
  for (const auto& [name, counter] : counters_) {
    const std::string metric = prometheus_name(name);
    header(metric, "counter", "Registry counter " + name + ".");
    out += metric + " " + prometheus_number(counter->value()) + "\n";
  }
  for (const auto& [name, histogram] : histograms_) {
    const std::string metric = prometheus_name(name);
    header(metric, "summary", "Registry histogram " + name + ".");
    const std::lock_guard<std::mutex> histogram_lock(histogram->mutex_);
    const QuantileSketch& sketch = histogram->sketch_;
    for (const SummaryQuantile& summary : kSummaryQuantiles) {
      out += metric + "{quantile=\"" + summary.prometheus_label + "\"} " +
             prometheus_number(sketch.quantile(summary.q)) + "\n";
    }
    out += metric + "_sum " + prometheus_number(histogram->sum_) + "\n";
    out += metric + "_count " + std::to_string(sketch.count()) + "\n";
  }
  return out;
}

Registry& metrics() {
  static Registry* registry = new Registry(/*enabled=*/false);
  return *registry;
}

}  // namespace plos::obs
