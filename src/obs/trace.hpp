// Scoped trace spans serialized to Chrome trace-event JSON.
//
//   void solve() {
//     PLOS_SPAN("qp_solve");                 // or with one numeric arg:
//     PLOS_SPAN("device_solve", "device", t);
//     …
//   }
//
// Spans nest lexically: each records its name, thread, depth, start time,
// and wall duration into the global TraceCollector when the scope exits.
// The collector serializes complete ("ph":"X") events loadable by
// chrome://tracing and Perfetto.
//
// Thread safety: spans may open and close on any thread. The nesting depth
// is thread-local, every event carries the recording thread's dense id (so
// Perfetto renders one track per pool worker), the event vector is mutex-
// guarded, and the epoch is an atomic timestamp so set_enabled() cannot
// race against in-flight now_us() reads.
//
// Collection is off by default: a PLOS_SPAN in a cold collector costs one
// relaxed atomic load and a branch. Enabling mid-process is safe; spans
// already open stay inactive, new ones record.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace plos::obs {

/// Process-global span store (leaky singleton).
class TraceCollector {
 public:
  struct Event {
    std::string name;
    double ts_us = 0.0;   ///< start, µs since the collector epoch
    double dur_us = 0.0;  ///< wall duration in µs
    std::uint32_t tid = 0;
    int depth = 0;  ///< nesting depth at the span's open (0 = top level)
    bool has_arg = false;
    std::string arg_name;
    double arg = 0.0;
  };

  static TraceCollector& instance();

  static bool enabled() {
    return instance().enabled_.load(std::memory_order_relaxed);
  }

  /// Enabling (re)starts the epoch clock; disabling keeps recorded events.
  void set_enabled(bool enabled);
  void clear();

  /// Microseconds since the epoch set by the last enable. Safe to call
  /// concurrently with set_enabled().
  double now_us() const;

  void record(Event event);
  std::vector<Event> events() const;

  /// {"displayTimeUnit":"ms","traceEvents":[…]} — chrome://tracing format.
  std::string to_chrome_json() const;

 private:
  TraceCollector() = default;

  std::atomic<bool> enabled_{false};
  /// steady_clock nanoseconds captured at the last enable; atomic so spans
  /// reading the clock never race a concurrent re-enable.
  std::atomic<std::int64_t> epoch_ns_{0};
  mutable std::mutex mutex_;
  std::vector<Event> events_;
};

/// RAII span. Prefer the PLOS_SPAN macro; the class is public so spans can
/// be opened/closed at non-lexical boundaries when needed.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) : ScopedSpan(name, nullptr, 0.0) {}
  ScopedSpan(const char* name, const char* arg_name, double arg);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_;
  const char* arg_name_;
  double arg_;
  double start_us_ = 0.0;
  int depth_ = 0;
  bool active_ = false;
  /// Spans also feed the aggregating Profiler (obs/profile.hpp) when it
  /// is enabled; tracked separately from active_ so enabling either
  /// collector mid-span keeps open/close calls paired.
  bool profiled_ = false;
};

}  // namespace plos::obs

#define PLOS_SPAN_CONCAT_INNER(a, b) a##b
#define PLOS_SPAN_CONCAT(a, b) PLOS_SPAN_CONCAT_INNER(a, b)
/// PLOS_SPAN("name") or PLOS_SPAN("name", "arg_name", numeric_value).
#define PLOS_SPAN(...) \
  ::plos::obs::ScopedSpan PLOS_SPAN_CONCAT(plos_span_, __LINE__)(__VA_ARGS__)
