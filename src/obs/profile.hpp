// Hierarchical phase profiler: aggregates PLOS_SPAN scopes into one
// deterministic profile tree per run.
//
// Where the TraceCollector records every span occurrence as an event
// stream (for chrome://tracing), the Profiler folds occurrences of the
// same phase at the same tree position into one node carrying a call
// count and accumulated inclusive wall time. The result is a compact
// per-run cost breakdown: which phases ran, how often, nested where, and
// how much wall time each consumed.
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
// Thread safety: spans may open/close on any thread; the tree is mutex-
// guarded. Pool workers inherit the spawning thread's current tree
// position via ProfileContextScope so a phase keeps its parent no matter
// which thread executes it. A generation counter guards reset(): spans
// still open across a reset close as no-ops instead of corrupting the
// fresh tree.
//
// Off by default: a PLOS_SPAN with a cold profiler costs one relaxed
// atomic load and a branch, mirroring TraceCollector.
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

/// Process-global profile tree (leaky singleton).
class Profiler {
 public:
  /// One aggregated phase in the snapshot; children sorted by name.
  struct NodeSnapshot {
    std::string name;
    std::size_t count = 0;
    double inclusive_ms = 0.0;
    std::vector<NodeSnapshot> children;
  };

  static Profiler& instance();

  static bool enabled() {
    return instance().enabled_.load(std::memory_order_relaxed);
  }

  void set_enabled(bool enabled);

  /// Clears the tree and bumps the generation; spans currently open
  /// close as no-ops instead of accumulating into the new tree.
  void reset();

  /// Deep copy of the aggregated tree; the root is a synthetic node
  /// named "root" with count equal to the number of top-level spans.
  NodeSnapshot snapshot() const;

  // Internal API used by ScopedSpan and the thread pool ------------------

  /// Enters a phase: finds/creates the child `name` of the calling
  /// thread's current node, increments its call count, and pushes it on
  /// the thread-local frame stack.
  void span_open(const char* name);

  /// Leaves the innermost phase opened on this thread, accumulating its
  /// inclusive wall time (skipped when reset() intervened).
  void span_close();

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

  Profiler();

  void build_snapshot(std::int32_t index, NodeSnapshot& out) const;

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> generation_{0};
  mutable std::mutex mutex_;
  std::vector<Node> nodes_;
};

/// Shorthands used by ScopedSpan (kept free so trace.cpp stays terse).
void profile_span_open(const char* name);
void profile_span_close();

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
