// Structured logging for the PLOS library.
//
// Design goals, in order:
//   1. Disabled logging is nearly free: every PLOS_LOG_* call below the
//      runtime level costs one relaxed atomic load and one branch; calls
//      below the compile-time floor PLOS_LOG_LEVEL vanish entirely.
//   2. Structured output: a log record is a message plus key=value fields,
//      rendered as one `ts=… level=… msg="…" key=value …` line per record.
//   3. Thread safety: records from concurrent threads never interleave
//      within a line (the sink is written under a mutex).
//
// Usage:
//   PLOS_LOG_INFO("qp solved", obs::F("iters", result.iterations),
//                              obs::F("objective", result.objective));
//
// The compile-time floor is set with -DPLOS_LOG_LEVEL=<0..5> (0 = TRACE
// keeps everything, 5 = OFF strips every call). The default keeps all
// levels compiled in and filters at runtime (default runtime level: INFO,
// default sink: null — the library is silent until a sink is installed).
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace plos::obs {

enum class Level : int {
  kTrace = 0,
  kDebug = 1,
  kInfo = 2,
  kWarn = 3,
  kError = 4,
  kOff = 5,
};

/// Lower-case level name ("trace", …, "off").
const char* level_name(Level level);

/// Parses a lower-case level name; nullopt on anything else.
std::optional<Level> parse_level(std::string_view name);

/// One key=value field of a structured record. Values are pre-rendered to
/// text at the call site (which only happens when the record is enabled).
struct Field {
  std::string key;
  std::string value;
  bool quoted = false;  ///< string values are quoted in the output line
};

namespace detail {
Field signed_field(std::string_view key, long long value);
Field unsigned_field(std::string_view key, unsigned long long value);
}  // namespace detail

// `F` is the intended spelling at call sites; the template covers every
// integer width without platform-dependent overload collisions.
Field F(std::string_view key, double value);
Field F(std::string_view key, bool value);
Field F(std::string_view key, std::string_view value);
Field F(std::string_view key, const char* value);

template <typename T>
  requires(std::is_integral_v<T> && !std::is_same_v<T, bool>)
Field F(std::string_view key, T value) {
  if constexpr (std::is_signed_v<T>) {
    return detail::signed_field(key, static_cast<long long>(value));
  } else {
    return detail::unsigned_field(key, static_cast<unsigned long long>(value));
  }
}

/// Destination for rendered log lines (each `line` includes the trailing
/// newline). Implementations need not lock: Logger serializes writes.
class Sink {
 public:
  virtual ~Sink() = default;
  virtual void write(std::string_view line) = 0;
};

/// Discards everything (the default sink).
class NullSink final : public Sink {
 public:
  void write(std::string_view) override {}
};

/// Writes to stderr, flushing per record so logs survive crashes.
class StderrSink final : public Sink {
 public:
  void write(std::string_view line) override;
};

/// Captures rendered lines in memory; for tests.
class MemorySink final : public Sink {
 public:
  void write(std::string_view line) override;
  std::vector<std::string> lines() const;
  void clear();

 private:
  mutable std::mutex mutex_;
  std::vector<std::string> lines_;
};

namespace detail {
/// The runtime level lives outside Logger so that the enabled check never
/// touches the (guarded) singleton. Constant-initialized: no init guard.
inline std::atomic<int>& runtime_level() {
  static std::atomic<int> level{static_cast<int>(Level::kInfo)};
  return level;
}
}  // namespace detail

/// Process-global logger. Leaky singleton: valid for the whole process
/// lifetime, so references cached by other translation units never dangle.
class Logger {
 public:
  static Logger& instance();

  /// The hot-path filter: one relaxed load + compare.
  static bool enabled(Level level) {
    return static_cast<int>(level) >=
           detail::runtime_level().load(std::memory_order_relaxed);
  }

  void set_level(Level level) {
    detail::runtime_level().store(static_cast<int>(level),
                                  std::memory_order_relaxed);
  }
  Level level() const {
    return static_cast<Level>(
        detail::runtime_level().load(std::memory_order_relaxed));
  }

  /// Installs a sink (shared: callers may keep the pointer to inspect a
  /// MemorySink). Null restores the default NullSink.
  void set_sink(std::shared_ptr<Sink> sink);

  /// Renders and emits one record. Called via the PLOS_LOG_* macros, which
  /// have already checked enabled(); calling it directly always emits.
  void write(Level level, std::string_view message,
             std::initializer_list<Field> fields);

  template <typename... Fs>
  void log(Level level, std::string_view message, const Fs&... fields) {
    write(level, message, {fields...});
  }

 private:
  Logger();

  std::mutex mutex_;
  std::shared_ptr<Sink> sink_;
};

}  // namespace plos::obs

// Numeric aliases usable in -DPLOS_LOG_LEVEL=… and #if comparisons.
#define PLOS_LOG_LEVEL_TRACE 0
#define PLOS_LOG_LEVEL_DEBUG 1
#define PLOS_LOG_LEVEL_INFO 2
#define PLOS_LOG_LEVEL_WARN 3
#define PLOS_LOG_LEVEL_ERROR 4
#define PLOS_LOG_LEVEL_OFF 5

#ifndef PLOS_LOG_LEVEL
#define PLOS_LOG_LEVEL PLOS_LOG_LEVEL_TRACE
#endif

#define PLOS_LOG_AT_LEVEL(level_, ...)                               \
  do {                                                               \
    if (::plos::obs::Logger::enabled(level_)) {                      \
      ::plos::obs::Logger::instance().log(level_, __VA_ARGS__);      \
    }                                                                \
  } while (0)

#if PLOS_LOG_LEVEL <= PLOS_LOG_LEVEL_TRACE
#define PLOS_LOG_TRACE(...) \
  PLOS_LOG_AT_LEVEL(::plos::obs::Level::kTrace, __VA_ARGS__)
#else
#define PLOS_LOG_TRACE(...) ((void)0)
#endif

#if PLOS_LOG_LEVEL <= PLOS_LOG_LEVEL_DEBUG
#define PLOS_LOG_DEBUG(...) \
  PLOS_LOG_AT_LEVEL(::plos::obs::Level::kDebug, __VA_ARGS__)
#else
#define PLOS_LOG_DEBUG(...) ((void)0)
#endif

#if PLOS_LOG_LEVEL <= PLOS_LOG_LEVEL_INFO
#define PLOS_LOG_INFO(...) \
  PLOS_LOG_AT_LEVEL(::plos::obs::Level::kInfo, __VA_ARGS__)
#else
#define PLOS_LOG_INFO(...) ((void)0)
#endif

#if PLOS_LOG_LEVEL <= PLOS_LOG_LEVEL_WARN
#define PLOS_LOG_WARN(...) \
  PLOS_LOG_AT_LEVEL(::plos::obs::Level::kWarn, __VA_ARGS__)
#else
#define PLOS_LOG_WARN(...) ((void)0)
#endif

#if PLOS_LOG_LEVEL <= PLOS_LOG_LEVEL_ERROR
#define PLOS_LOG_ERROR(...) \
  PLOS_LOG_AT_LEVEL(::plos::obs::Level::kError, __VA_ARGS__)
#else
#define PLOS_LOG_ERROR(...) ((void)0)
#endif
