#include "obs/metrics.hpp"

#include <algorithm>

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

// The quantiles the snapshot exports for every histogram.
struct SummaryQuantile {
  const char* json_key;
  double q;
};
constexpr SummaryQuantile kSummaryQuantiles[] = {
    {"p50", 0.50}, {"p90", 0.90}, {"p99", 0.99}};

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

Registry& metrics() {
  static Registry* registry = new Registry(/*enabled=*/false);
  return *registry;
}

}  // namespace plos::obs
