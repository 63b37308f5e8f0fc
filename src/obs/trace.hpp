// Scoped spans recorded into the phase profiler (obs/profile.hpp).
//
//   void solve() {
//     PLOS_SPAN("qp_solve");                 // or with one numeric arg:
//     PLOS_SPAN("device_solve", "device", t);
//     …
//   }
//
// Spans nest lexically. Each one opens a node of the Profiler's tree on
// entry and adds its wall time on exit; with the Profiler's slices on, the
// exit also keeps the occurrence (thread, start, duration, arg) for the
// Chrome trace (Profiler::to_chrome_json). Names and arg names are string
// literals: the Profiler keeps the arg-name pointer.
//
// Off by default: a PLOS_SPAN with a disabled Profiler costs one relaxed
// atomic load and a branch. Enabling mid-process is safe; spans already
// open stay inactive, new ones record.
#pragma once

namespace plos::obs {

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
  const char* arg_name_;
  double arg_;
  /// Whether the open reached the Profiler; the close follows it, so a
  /// Profiler enabled mid-span keeps open/close calls paired.
  bool active_ = false;
};

}  // namespace plos::obs

#define PLOS_SPAN_CONCAT_INNER(a, b) a##b
#define PLOS_SPAN_CONCAT(a, b) PLOS_SPAN_CONCAT_INNER(a, b)
/// PLOS_SPAN("name") or PLOS_SPAN("name", "arg_name", numeric_value).
#define PLOS_SPAN(...) \
  ::plos::obs::ScopedSpan PLOS_SPAN_CONCAT(plos_span_, __LINE__)(__VA_ARGS__)
