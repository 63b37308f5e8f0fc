// Metrics registry: named counters and sketch-backed histograms, with
// a JSON snapshot.
//
//   * Counter   — monotonically increasing double (bytes, solves, seconds).
//   * Histogram — a QuantileSketch (obs/sketch.hpp, the repo's one
//                 distribution type: log-bucketed and mergeable) plus exact
//                 count/sum/min/max (QP iteration distributions).
//
// Per-step values (objective per CCCP round, ADMM residuals and
// participation per iteration) are not instruments: the trainers keep them
// in their diagnostics traces and the round journal.
//
// Instruments are created on first lookup and live as long as their
// Registry; `reset_values()` zeroes values but keeps instrument identities,
// so references cached in hot paths (function-local statics against the
// global registry) stay valid across resets.
//
// Recording is gated on the owning registry's enabled flag: a disabled
// registry makes every record call one relaxed atomic load and a branch.
// The global registry (`obs::metrics()`) starts disabled — instrumented
// library code costs nothing until a tool, bench, or test opts in.
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "obs/sketch.hpp"

namespace plos::obs {

class Registry;

class Counter {
 public:
  void add(double delta) {
    if (!enabled_->load(std::memory_order_relaxed)) return;
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  void increment() { add(1.0); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class Registry;
  explicit Counter(const std::atomic<bool>* enabled) : enabled_(enabled) {}

  std::atomic<double> value_{0.0};
  const std::atomic<bool>* enabled_;
};

class Histogram {
 public:
  /// Records one sample; `value` must be finite and >= 0 (the sketch's
  /// domain).
  void record(double value);
  std::size_t count() const;
  double sum() const;
  double min() const;
  double max() const;
  /// Copy of the distribution; QuantileSketch::quantile answers p50/p99.
  QuantileSketch sketch() const;

 private:
  friend class Registry;
  Histogram(const std::atomic<bool>* enabled,
            const QuantileSketch::Spec& spec)
      : sketch_(spec), enabled_(enabled) {}

  mutable std::mutex mutex_;
  QuantileSketch sketch_;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  const std::atomic<bool>* enabled_;
};

/// Sketch layout for work counts of the QP solvers (active-set pivots per
/// device solve, pivots and sweeps per centralized dual solve): 1/8-octave
/// buckets from 1 up to 2^20, past the ~2.5e5 pivots of a 160-user body
/// dual.
QuantileSketch::Spec default_iteration_buckets();

class Registry {
 public:
  explicit Registry(bool enabled = true) : enabled_(enabled) {}

  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Lookup-or-create. References stay valid for the Registry's lifetime.
  Counter& counter(std::string_view name);
  /// On first creation the sketch layout is fixed from `spec`; later
  /// lookups ignore the argument.
  Histogram& histogram(std::string_view name,
                       const QuantileSketch::Spec& spec);

  /// Zeroes every instrument's values; instrument identities survive.
  void reset_values();

  /// Calls `visit` on every counter (histogram) in name order, under the
  /// registry lock; `visit` must not look instruments up.
  void for_each_counter(
      const std::function<void(const std::string&, const Counter&)>& visit)
      const;
  void for_each_histogram(
      const std::function<void(const std::string&, const Histogram&)>& visit)
      const;

  /// Snapshot of all instruments as a JSON object:
  /// {"counters":{name:value,…},
  ///  "histograms":{name:{"count":n,"sum":s,"min":m,"max":M,
  ///                      "p50":…,"p90":…,"p99":…},…}}
  /// count/sum/min/max are exact; p50/p90/p99 are QuantileSketch::quantile
  /// bucket lower edges.
  std::string to_json() const;

 private:
  std::atomic<bool> enabled_;
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

/// The process-global registry used by the built-in solver instrumentation.
/// Leaky singleton, created disabled.
Registry& metrics();

}  // namespace plos::obs
