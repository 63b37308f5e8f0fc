#include "obs/trace.hpp"

#include <chrono>

#include "obs/json.hpp"
#include "obs/profile.hpp"

namespace plos::obs {

namespace {

std::int64_t steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Small dense thread ids (Chrome renders one lane per tid).
std::uint32_t current_tid() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t tid =
      next.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

thread_local int span_depth = 0;

}  // namespace

TraceCollector& TraceCollector::instance() {
  static TraceCollector* collector = new TraceCollector();
  return *collector;
}

void TraceCollector::set_enabled(bool enabled) {
  if (enabled && !enabled_.load(std::memory_order_relaxed)) {
    epoch_ns_.store(steady_now_ns(), std::memory_order_relaxed);
  }
  enabled_.store(enabled, std::memory_order_relaxed);
}

double TraceCollector::now_us() const {
  return static_cast<double>(steady_now_ns() -
                             epoch_ns_.load(std::memory_order_relaxed)) *
         1e-3;
}

void TraceCollector::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  events_.clear();
}

void TraceCollector::record(Event event) {
  const std::lock_guard<std::mutex> lock(mutex_);
  events_.push_back(std::move(event));
}

std::vector<TraceCollector::Event> TraceCollector::events() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return events_;
}

std::string TraceCollector::to_chrome_json() const {
  const std::vector<Event> snapshot = events();
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (std::size_t i = 0; i < snapshot.size(); ++i) {
    const Event& e = snapshot[i];
    if (i > 0) out += ',';
    out += "{\"name\":";
    out += json::escape(e.name);
    out += ",\"cat\":\"plos\",\"ph\":\"X\",\"pid\":1,\"tid\":";
    out += json::number(static_cast<double>(e.tid));
    out += ",\"ts\":";
    out += json::number(e.ts_us);
    out += ",\"dur\":";
    out += json::number(e.dur_us);
    out += ",\"args\":{\"depth\":";
    out += json::number(static_cast<double>(e.depth));
    if (e.has_arg) {
      out += ',';
      out += json::escape(e.arg_name);
      out += ':';
      out += json::number(e.arg);
    }
    out += "}}";
  }
  out += "]}";
  return out;
}

ScopedSpan::ScopedSpan(const char* name, const char* arg_name, double arg)
    : name_(name), arg_name_(arg_name), arg_(arg) {
  if (Profiler::enabled()) {
    profiled_ = true;
    profile_span_open(name_);
  }
  if (!TraceCollector::enabled()) return;
  active_ = true;
  depth_ = span_depth++;
  start_us_ = TraceCollector::instance().now_us();
}

ScopedSpan::~ScopedSpan() {
  if (profiled_) profile_span_close();
  if (!active_) return;
  --span_depth;
  TraceCollector& collector = TraceCollector::instance();
  TraceCollector::Event event;
  event.name = name_;
  event.ts_us = start_us_;
  event.dur_us = collector.now_us() - start_us_;
  event.tid = current_tid();
  event.depth = depth_;
  if (arg_name_ != nullptr) {
    event.has_arg = true;
    event.arg_name = arg_name_;
    event.arg = arg_;
  }
  collector.record(std::move(event));
}

}  // namespace plos::obs
