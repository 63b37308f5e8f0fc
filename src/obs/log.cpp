#include "obs/log.hpp"

#include <cstdio>

#include "common/stopwatch.hpp"

namespace plos::obs {

namespace {

std::string format_double(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.9g", value);
  return buffer;
}

// Escapes backslashes, quotes, and newlines so one record stays one line.
std::string escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

// Seconds since process start, shared by every record for a monotone `ts=`.
const Stopwatch& process_clock() {
  static const Stopwatch* watch = new Stopwatch();
  return *watch;
}

}  // namespace

const char* level_name(Level level) {
  switch (level) {
    case Level::kTrace:
      return "trace";
    case Level::kDebug:
      return "debug";
    case Level::kInfo:
      return "info";
    case Level::kWarn:
      return "warn";
    case Level::kError:
      return "error";
    case Level::kOff:
      return "off";
  }
  return "unknown";
}

std::optional<Level> parse_level(std::string_view name) {
  for (Level level : {Level::kTrace, Level::kDebug, Level::kInfo, Level::kWarn,
                      Level::kError, Level::kOff}) {
    if (name == level_name(level)) return level;
  }
  return std::nullopt;
}

namespace detail {

Field signed_field(std::string_view key, long long value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%lld", value);
  return {std::string(key), buffer, false};
}

Field unsigned_field(std::string_view key, unsigned long long value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%llu", value);
  return {std::string(key), buffer, false};
}

}  // namespace detail

Field F(std::string_view key, double value) {
  return {std::string(key), format_double(value), false};
}

Field F(std::string_view key, bool value) {
  return {std::string(key), value ? "true" : "false", false};
}

Field F(std::string_view key, std::string_view value) {
  return {std::string(key), std::string(value), true};
}

Field F(std::string_view key, const char* value) {
  return F(key, std::string_view(value));
}

void StderrSink::write(std::string_view line) {
  std::fwrite(line.data(), 1, line.size(), stderr);
  std::fflush(stderr);
}

void MemorySink::write(std::string_view line) {
  const std::lock_guard<std::mutex> lock(mutex_);
  lines_.emplace_back(line);
}

std::vector<std::string> MemorySink::lines() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return lines_;
}

void MemorySink::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  lines_.clear();
}

Logger::Logger() : sink_(std::make_shared<NullSink>()) {}

Logger& Logger::instance() {
  static Logger* logger = new Logger();  // leaky: outlives all callers
  return *logger;
}

void Logger::set_sink(std::shared_ptr<Sink> sink) {
  const std::lock_guard<std::mutex> lock(mutex_);
  sink_ = sink != nullptr ? std::move(sink) : std::make_shared<NullSink>();
}

void Logger::write(Level level, std::string_view message,
                   std::initializer_list<Field> fields) {
  std::string line;
  line.reserve(64 + message.size() + 24 * fields.size());
  char header[48];
  std::snprintf(header, sizeof(header), "ts=%.6f level=%s msg=\"",
                process_clock().elapsed_seconds(), level_name(level));
  line += header;
  line += escape(message);
  line += '"';
  for (const Field& field : fields) {
    line += ' ';
    line += field.key;
    line += '=';
    if (field.quoted) {
      line += '"';
      line += escape(field.value);
      line += '"';
    } else {
      line += field.value;
    }
  }
  line += '\n';

  const std::lock_guard<std::mutex> lock(mutex_);
  sink_->write(line);
}

}  // namespace plos::obs
