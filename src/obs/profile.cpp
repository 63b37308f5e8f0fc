#include "obs/profile.hpp"

#include <algorithm>
#include <chrono>
#include <sys/resource.h>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace plos::obs {

namespace {

std::int64_t steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Frame {
  std::int32_t node = 0;
  std::uint64_t generation = 0;
  std::int64_t start_ns = 0;
  bool sliced = false;  ///< slices were on when the span opened
};

// Per-thread frame stack plus the base position installed by
// ProfileContextScope (what a pool worker inherits from its spawner).
struct ThreadState {
  std::vector<Frame> stack;
  ProfileContext base;
};

ThreadState& tls() {
  thread_local ThreadState state;
  return state;
}

// Small dense thread ids (Chrome renders one lane per tid).
std::uint32_t current_tid() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t tid =
      next.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

/// Wall-clock-derived instruments are quarantined by naming convention:
/// anything accumulating seconds (or energy integrated over seconds)
/// varies run to run and must live under "timing".
bool is_timing_instrument(const std::string& name) {
  return name.ends_with("seconds") || name.ends_with("joules");
}

}  // namespace

Profiler::Profiler() {
  Node root;
  root.name = "root";
  nodes_.push_back(std::move(root));
}

Profiler& Profiler::instance() {
  static Profiler* profiler = new Profiler();
  return *profiler;
}

void Profiler::set_enabled(bool enabled) {
  enabled_.store(enabled, std::memory_order_relaxed);
}

void Profiler::set_slices_enabled(bool enabled) {
  if (enabled && !slices_enabled_.load(std::memory_order_relaxed)) {
    slice_epoch_ns_.store(steady_now_ns(), std::memory_order_relaxed);
  }
  slices_enabled_.store(enabled, std::memory_order_relaxed);
}

void Profiler::reset() {
  const std::lock_guard<std::mutex> lock(mutex_);
  nodes_.clear();
  slices_.clear();
  Node root;
  root.name = "root";
  nodes_.push_back(std::move(root));
  generation_.fetch_add(1, std::memory_order_release);
}

void Profiler::span_open(const char* name) {
  const std::uint64_t generation =
      generation_.load(std::memory_order_acquire);
  ThreadState& state = tls();
  std::int32_t parent = 0;
  if (!state.stack.empty()) {
    if (state.stack.back().generation == generation) {
      parent = state.stack.back().node;
    }
  } else if (state.base.generation == generation) {
    parent = state.base.node;
  }
  std::int32_t child = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (parent < 0 || static_cast<std::size_t>(parent) >= nodes_.size()) {
      parent = 0;  // stale context from before a reset: re-root
    }
    const auto it = nodes_[parent].children.find(name);
    if (it != nodes_[parent].children.end()) {
      child = it->second;
    } else {
      child = static_cast<std::int32_t>(nodes_.size());
      nodes_[parent].children.emplace(name, child);
      Node node;
      node.name = name;
      node.parent = parent;
      nodes_.push_back(std::move(node));
    }
    ++nodes_[child].count;
  }
  state.stack.push_back(
      Frame{child, generation, steady_now_ns(),
            slices_enabled_.load(std::memory_order_relaxed)});
}

void Profiler::span_close(const char* arg_name, double arg) {
  ThreadState& state = tls();
  if (state.stack.empty()) return;  // unbalanced close: ignore
  const Frame frame = state.stack.back();
  state.stack.pop_back();
  if (frame.generation != generation_.load(std::memory_order_acquire)) {
    return;  // span opened before a reset; its node is gone
  }
  const std::int64_t elapsed = steady_now_ns() - frame.start_ns;
  const std::uint32_t tid = frame.sliced ? current_tid() : 0;
  const std::int64_t epoch_ns =
      slice_epoch_ns_.load(std::memory_order_relaxed);
  const std::lock_guard<std::mutex> lock(mutex_);
  if (frame.node < 0 || static_cast<std::size_t>(frame.node) >= nodes_.size()) {
    return;
  }
  nodes_[frame.node].inclusive_ns += elapsed;
  if (frame.sliced) {
    slices_.push_back(SliceRecord{frame.node, tid, frame.start_ns - epoch_ns,
                                  elapsed, arg_name, arg});
  }
}

ProfileContext Profiler::context() const {
  const std::uint64_t generation =
      generation_.load(std::memory_order_acquire);
  const ThreadState& state = tls();
  if (!state.stack.empty() &&
      state.stack.back().generation == generation) {
    return ProfileContext{state.stack.back().node, generation};
  }
  if (state.stack.empty() && state.base.generation == generation) {
    return state.base;
  }
  return ProfileContext{0, generation};
}

void Profiler::build_snapshot(std::int32_t index, NodeSnapshot& out) const {
  const Node& node = nodes_[index];
  out.name = node.name;
  out.count = node.count;
  out.inclusive_ms = static_cast<double>(node.inclusive_ns) * 1e-6;
  out.children.reserve(node.children.size());
  for (const auto& [name, child] : node.children) {
    out.children.emplace_back();
    build_snapshot(child, out.children.back());
  }
}

Profiler::NodeSnapshot Profiler::snapshot() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  NodeSnapshot root;
  build_snapshot(0, root);
  root.count = 0;
  for (const NodeSnapshot& child : root.children) root.count += child.count;
  return root;
}

std::vector<Profiler::Slice> Profiler::slices() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  // A node is appended after its parent, so one forward pass sets every
  // depth (the synthetic root sits at -1, top-level phases at 0).
  std::vector<int> depth(nodes_.size(), -1);
  for (std::size_t i = 1; i < nodes_.size(); ++i) {
    depth[i] = depth[nodes_[i].parent] + 1;
  }
  std::vector<Slice> out;
  out.reserve(slices_.size());
  for (const SliceRecord& record : slices_) {
    out.push_back(Slice{nodes_[record.node].name, depth[record.node],
                        record.tid, static_cast<double>(record.start_ns) * 1e-3,
                        static_cast<double>(record.duration_ns) * 1e-3,
                        record.arg_name, record.arg});
  }
  return out;
}

std::string Profiler::to_chrome_json() const {
  const std::vector<Slice> snapshot = slices();
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (std::size_t i = 0; i < snapshot.size(); ++i) {
    const Slice& slice = snapshot[i];
    if (i > 0) out += ',';
    out += "{\"name\":";
    out += json::escape(slice.name);
    out += ",\"cat\":\"plos\",\"ph\":\"X\",\"pid\":1,\"tid\":";
    out += json::number(static_cast<double>(slice.tid));
    out += ",\"ts\":";
    out += json::number(slice.ts_us);
    out += ",\"dur\":";
    out += json::number(slice.dur_us);
    out += ",\"args\":{\"depth\":";
    out += json::number(static_cast<double>(slice.depth));
    if (slice.arg_name != nullptr) {
      out += ',';
      out += json::escape(slice.arg_name);
      out += ':';
      out += json::number(slice.arg);
    }
    out += "}}";
  }
  out += "]}";
  return out;
}

ProfileContext profile_context() { return Profiler::instance().context(); }

ProfileContextScope::ProfileContextScope(const ProfileContext& context)
    : saved_(tls().base) {
  tls().base = context;
}

ProfileContextScope::~ProfileContextScope() { tls().base = saved_; }

ScopedSpan::ScopedSpan(const char* name, const char* arg_name, double arg)
    : arg_name_(arg_name), arg_(arg) {
  if (!Profiler::enabled()) return;
  active_ = true;
  Profiler::instance().span_open(name);
}

ScopedSpan::~ScopedSpan() {
  if (active_) Profiler::instance().span_close(arg_name_, arg_);
}

namespace {

void append_structural_tree(const Profiler::NodeSnapshot& node,
                            std::string& out) {
  out += "{\"name\":";
  out += json::escape(node.name);  // escape() adds the quotes
  out += ",\"count\":";
  out += json::number(static_cast<double>(node.count));
  out += ",\"children\":[";
  for (std::size_t i = 0; i < node.children.size(); ++i) {
    if (i > 0) out += ',';
    append_structural_tree(node.children[i], out);
  }
  out += "]}";
}

void append_timing_tree(const Profiler::NodeSnapshot& node,
                        std::string& out) {
  double children_ms = 0.0;
  for (const Profiler::NodeSnapshot& child : node.children) {
    children_ms += child.inclusive_ms;
  }
  // With parallel children the sum of child inclusive times can exceed
  // the parent's wall time; clamp so "exclusive" never goes negative.
  const double exclusive_ms =
      std::max(0.0, node.inclusive_ms - children_ms);
  out += "{\"name\":";
  out += json::escape(node.name);
  out += ",\"inclusive_ms\":";
  out += json::number(node.inclusive_ms);
  out += ",\"exclusive_ms\":";
  out += json::number(exclusive_ms);
  out += ",\"children\":[";
  for (std::size_t i = 0; i < node.children.size(); ++i) {
    if (i > 0) out += ',';
    append_timing_tree(node.children[i], out);
  }
  out += "]}";
}

void append_number_map(const std::map<std::string, double>& values,
                       std::string& out) {
  out += '{';
  bool first = true;
  for (const auto& [name, value] : values) {
    if (!first) out += ',';
    first = false;
    out += json::escape(name);
    out += ':';
    out += json::number(value);
  }
  out += '}';
}

void append_histogram_map(const std::map<std::string, const Histogram*>& values,
                          std::string& out) {
  out += '{';
  bool first = true;
  for (const auto& [name, h] : values) {
    if (!first) out += ',';
    first = false;
    out += json::escape(name);
    out += ":{\"count\":";
    out += json::number(static_cast<double>(h->count()));
    out += ",\"sum\":";
    out += json::number(h->sum());
    out += ",\"min\":";
    out += json::number(h->min());
    out += ",\"max\":";
    out += json::number(h->max());
    out += '}';
  }
  out += '}';
}

}  // namespace

std::string profile_to_json(const ProfileJsonOptions& options) {
  std::map<std::string, double> counters;
  std::map<std::string, double> timing_counters;
  // Instruments live as long as their registry, so the pointers outlast
  // this call.
  std::map<std::string, const Histogram*> histograms;
  std::map<std::string, const Histogram*> timing_histograms;
  if (options.registry != nullptr) {
    options.registry->for_each_counter(
        [&](const std::string& name, const Counter& counter) {
          (is_timing_instrument(name) ? timing_counters
                                      : counters)[name] = counter.value();
        });
    options.registry->for_each_histogram(
        [&](const std::string& name, const Histogram& histogram) {
          (is_timing_instrument(name) ? timing_histograms
                                      : histograms)[name] = &histogram;
        });
  }

  const Profiler::NodeSnapshot tree = Profiler::instance().snapshot();
  std::string out = "{\"schema_version\":1,\"counters\":";
  append_number_map(counters, out);
  out += ",\"histograms\":";
  append_histogram_map(histograms, out);
  out += ",\"tree\":";
  append_structural_tree(tree, out);
  if (options.include_timing) {
    out += ",\"timing\":{\"peak_rss_kb\":";
    out += json::number(static_cast<double>(peak_rss_kb()));
    out += ",\"seconds\":";
    append_number_map(timing_counters, out);
    out += ",\"histograms\":";
    append_histogram_map(timing_histograms, out);
    out += ",\"tree\":";
    append_timing_tree(tree, out);
    out += '}';
  }
  out += '}';
  return out;
}

long peak_rss_kb() {
  struct rusage usage = {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return usage.ru_maxrss;  // kilobytes on Linux
}

}  // namespace plos::obs
