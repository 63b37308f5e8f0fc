// Hierarchical phase profiler: the one store for PLOS_SPAN scopes.
//
// The Profiler folds occurrences of the same phase at the same tree
// position into one node carrying a call count and accumulated inclusive
// wall time. The result is a compact per-run cost breakdown: which phases
// ran, how often, nested where, and how much wall time each consumed.
// With slices on it also keeps every closed span as one slice (node,
// thread, start, duration, optional arg), which to_chrome_json() renders
// as a Chrome trace-event file for chrome://tracing and Perfetto.
//
// Determinism contract (DESIGN.md §8, §12). The profile JSON splits into
// a structural part and a "timing" quarantine, exactly like the run
// manifest:
//
//   * structure — the phase tree (names, nesting, call counts) and any
//     exact counters taken from a metrics Registry. Byte-identical for a
//     given workload at any thread count, because span nesting is
//     propagated across ThreadPool workers (ProfileContextScope) and the
//     chunk→index map of parallel_for is thread-count-invariant.
//   * "timing" — inclusive/exclusive wall milliseconds per node, peak
//     RSS, and every registry counter whose name ends in "seconds" or
//     "joules" (wall-clock-derived by convention). Never compared by
//     `plos_inspect diff`/`check`, which ignore the timing. prefix.
//
// A slice's depth is its node's depth in the tree, so a span has the same
// depth on every thread and at every thread count; slice timestamps and
// thread ids are wall-clock facts outside the contract.
//
// Thread safety: spans may open/close on any thread; the tree and the
// slice list are mutex-guarded. Pool workers inherit the spawning thread's
// current tree position via ProfileContextScope so a phase keeps its
// parent no matter which thread executes it. A generation counter guards
// reset(): spans still open across a reset close as no-ops instead of
// corrupting the fresh tree.
//
// Off by default: a PLOS_SPAN with a cold profiler costs one relaxed
// atomic load and a branch.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace plos::obs {

class Registry;

/// A position in the profile tree plus the generation it belongs to.
/// Captured on one thread (profile_context()) and installed on another
/// (ProfileContextScope) so spans opened by pool workers nest under the
/// span that spawned the work.
struct ProfileContext {
  std::int32_t node = 0;  ///< index of the current tree node (0 = root)
  std::uint64_t generation = 0;
};

/// Process-global span store: profile tree plus optional slices (leaky
/// singleton).
class Profiler {
 public:
  /// One aggregated phase in the snapshot; children sorted by name.
  struct NodeSnapshot {
    std::string name;
    std::size_t count = 0;
    double inclusive_ms = 0.0;
    std::vector<NodeSnapshot> children;
  };

  /// One closed span occurrence: a Chrome trace "X" event.
  struct Slice {
    std::string name;
    int depth = 0;          ///< tree depth of the span's node (0 = top level)
    std::uint32_t tid = 0;  ///< recording thread's dense id (from 1)
    double ts_us = 0.0;     ///< start, µs since slices were switched on
    double dur_us = 0.0;    ///< wall duration in µs
    const char* arg_name = nullptr;  ///< nullptr when the span has no arg
    double arg = 0.0;
  };

  static Profiler& instance();

  static bool enabled() {
    return instance().enabled_.load(std::memory_order_relaxed);
  }

  void set_enabled(bool enabled);

  /// Also keep every span that opens from now on as a Slice (it is kept
  /// only while the Profiler is enabled). Switching on from off restarts
  /// the slice clock; switching off keeps the recorded slices.
  void set_slices_enabled(bool enabled);

  /// Clears the tree and the slices and bumps the generation; spans
  /// currently open close as no-ops instead of accumulating into the new
  /// tree.
  void reset();

  /// Deep copy of the aggregated tree; the root is a synthetic node
  /// named "root" with count equal to the number of top-level spans.
  NodeSnapshot snapshot() const;

  /// The recorded slices in close order.
  std::vector<Slice> slices() const;

  /// {"displayTimeUnit":"ms","traceEvents":[…]} — chrome://tracing format,
  /// one "ph":"X" event per slice with its depth (and arg) under "args".
  std::string to_chrome_json() const;

  // Internal API used by ScopedSpan and the thread pool ------------------

  /// Enters a phase: finds/creates the child `name` of the calling
  /// thread's current node, increments its call count, and pushes it on
  /// the thread-local frame stack.
  void span_open(const char* name);

  /// Leaves the innermost phase opened on this thread, accumulating its
  /// inclusive wall time and, when it opened with slices on, appending
  /// its slice with the optional arg (skipped when reset() intervened).
  void span_close(const char* arg_name = nullptr, double arg = 0.0);

  /// The calling thread's current tree position.
  ProfileContext context() const;

 private:
  struct Node {
    std::string name;
    std::int32_t parent = -1;
    std::map<std::string, std::int32_t> children;
    std::size_t count = 0;
    std::int64_t inclusive_ns = 0;
  };

  struct SliceRecord {
    std::int32_t node = 0;
    std::uint32_t tid = 0;
    std::int64_t start_ns = 0;  ///< since the slice epoch
    std::int64_t duration_ns = 0;
    const char* arg_name = nullptr;
    double arg = 0.0;
  };

  Profiler();

  void build_snapshot(std::int32_t index, NodeSnapshot& out) const;

  std::atomic<bool> enabled_{false};
  std::atomic<bool> slices_enabled_{false};
  /// steady_clock nanoseconds at the last switch-on of slices; atomic so
  /// closing spans never race a concurrent re-enable.
  std::atomic<std::int64_t> slice_epoch_ns_{0};
  std::atomic<std::uint64_t> generation_{0};
  mutable std::mutex mutex_;
  std::vector<Node> nodes_;
  std::vector<SliceRecord> slices_;
};

/// Captures the calling thread's current profile position. Cheap; valid
/// until the next Profiler::reset().
ProfileContext profile_context();

/// Installs a captured context as the calling thread's base position for
/// the scope's lifetime; restores the previous base on destruction. The
/// thread pool wraps every queued task in one of these.
class ProfileContextScope {
 public:
  explicit ProfileContextScope(const ProfileContext& context);
  ~ProfileContextScope();

  ProfileContextScope(const ProfileContextScope&) = delete;
  ProfileContextScope& operator=(const ProfileContextScope&) = delete;

 private:
  ProfileContext saved_;
};

struct ProfileJsonOptions {
  /// When false the "timing" section (wall times, peak RSS, *seconds /
  /// *joules counters) is omitted entirely, leaving only the structural
  /// part that must be byte-identical across thread counts.
  bool include_timing = true;
  /// Optional metrics registry whose counters/histograms are embedded as
  /// the exact-counter section of the profile.
  const Registry* registry = nullptr;
};

/// Renders the current profile tree (plus optional registry counters) as
/// one compact JSON object:
///   {"schema_version":1,
///    "counters":{name:value,…},                  // exact, deterministic
///    "histograms":{name:{"count","sum","min","max"},…},
///    "tree":{"name","count","children":[…]},     // structural
///    "timing":{"peak_rss_kb":…,
///              "seconds":{name:value,…},         // *seconds/*joules
///              "tree":{"name","inclusive_ms","exclusive_ms",
///                      "children":[…]}}}
/// Counter/histogram names ending in "seconds" or "joules" are
/// quarantined under timing.seconds / timing.histograms.
std::string profile_to_json(const ProfileJsonOptions& options = {});

/// Peak resident set size of the process in kilobytes (getrusage), or 0
/// when unavailable. Lives in the timing quarantine: allocator and OS
/// behavior make it machine-dependent.
long peak_rss_kb();

}  // namespace plos::obs
