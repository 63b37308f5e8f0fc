#include "obs/flight.hpp"

#include <cmath>
#include <map>

#include "common/assert.hpp"
#include "obs/json.hpp"

namespace plos::obs {

namespace {

// One Chrome trace "X" slice. ts/dur are microseconds on the virtual
// clock; the exact seconds ride in args for the lossless round trip.
void append_slice(std::string& out, const FlightEvent& event) {
  out += "{\"name\":\"";
  out += flight_kind_name(event.kind);
  out += "\",\"cat\":\"flight\",\"ph\":\"X\",\"pid\":1,\"tid\":";
  out += std::to_string(
      event.device == kFlightServerDevice
          ? 0u
          : event.device + 1u);
  out += ",\"ts\":";
  out += json::number(event.t_start * 1e6);
  out += ",\"dur\":";
  out += json::number((event.t_end - event.t_start) * 1e6);
  out += ",\"args\":{\"id\":";
  out += std::to_string(event.id());
  out += ",\"round\":";
  out += std::to_string(event.round);
  out += ",\"device\":";
  out += std::to_string(event.device);
  out += ",\"attempt\":";
  out += std::to_string(event.attempt);
  out += ",\"kind\":";
  out += std::to_string(static_cast<int>(event.kind));
  out += ",\"cause\":";
  out += std::to_string(event.cause);
  out += ",\"staleness\":";
  out += std::to_string(event.staleness);
  out += ",\"t_start\":";
  out += json::number(event.t_start);
  out += ",\"t_end\":";
  out += json::number(event.t_end);
  out += "}}";
}

// One flow-event phase ("s" start, "t" step, "f" finish) at a point on a
// track. Perfetto binds each phase to the slice enclosing its timestamp.
void append_flow(std::string& out, const char* phase, std::uint64_t id,
                 std::uint32_t tid, double t_seconds) {
  out += "{\"name\":\"upload_flow\",\"cat\":\"flight\",\"ph\":\"";
  out += phase;
  out += "\",\"id\":";
  out += std::to_string(id);
  out += ",\"pid\":1,\"tid\":";
  out += std::to_string(tid);
  out += ",\"ts\":";
  out += json::number(t_seconds * 1e6);
  if (phase[0] == 'f') out += ",\"bp\":\"e\"";
  out += "}";
}

}  // namespace

std::string_view flight_kind_name(FlightEventKind kind) {
  switch (kind) {
    case FlightEventKind::kBootstrap:
      return "bootstrap";
    case FlightEventKind::kUploadAttempt:
      return "upload_attempt";
    case FlightEventKind::kDeadlineMiss:
      return "deadline_miss";
    case FlightEventKind::kQuorumCut:
      return "quorum_cut";
    case FlightEventKind::kLateFold:
      return "late_fold";
    case FlightEventKind::kEviction:
      return "eviction";
    case FlightEventKind::kAggregate:
      return "aggregate";
  }
  return "unknown";
}

FlightRecorder::FlightRecorder(std::size_t capacity) : capacity_(capacity) {
  PLOS_CHECK(capacity > 0, "FlightRecorder: capacity must be positive");
  ring_.reserve(capacity);
}

void FlightRecorder::record(const FlightEvent& event) {
  PLOS_CHECK(std::isfinite(event.t_start) && std::isfinite(event.t_end) &&
                 event.t_end >= event.t_start,
             "FlightRecorder: event interval must be finite and ordered");
  if (ring_.size() < capacity_) {
    ring_.push_back(event);
    return;
  }
  // Full: overwrite the oldest (head_ chases the logical start).
  ring_[head_] = event;
  head_ = (head_ + 1) % capacity_;
  ++dropped_;
}

std::size_t FlightRecorder::size() const { return ring_.size(); }

std::vector<FlightEvent> FlightRecorder::events() const {
  std::vector<FlightEvent> out;
  out.reserve(ring_.size());
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(head_ + i) % ring_.size()]);
  }
  return out;
}

std::string FlightRecorder::to_chrome_json() const {
  const std::vector<FlightEvent> ordered = events();

  // Server-side anchors per round, for the upload -> cut -> aggregate
  // flows. std::map keeps the pass deterministic (and the lint rule on
  // this directory bans unordered containers outright).
  struct RoundAnchors {
    double cut = -1.0;
    double aggregate = -1.0;
  };
  std::map<std::uint64_t, RoundAnchors> anchors;
  for (const FlightEvent& event : ordered) {
    if (event.kind == FlightEventKind::kQuorumCut) {
      anchors[event.round].cut = event.t_end;
    } else if (event.kind == FlightEventKind::kAggregate) {
      anchors[event.round].aggregate = event.t_end;
    }
  }

  std::string out = "{\"traceEvents\":[";
  out +=
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
      "\"args\":{\"name\":\"plos flight\"}}";
  out +=
      ",{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
      "\"args\":{\"name\":\"server\"}}";
  for (const FlightEvent& event : ordered) {
    out += ',';
    append_slice(out, event);
    // A delivered upload that the server actually used opens a flow; it
    // steps through the round's quorum cut and finishes at the aggregate.
    if (event.kind == FlightEventKind::kUploadAttempt &&
        event.cause == static_cast<int>(AttemptResult::kDelivered)) {
      const auto anchor = anchors.find(event.round);
      if (anchor != anchors.end() && anchor->second.cut >= 0.0 &&
          anchor->second.aggregate >= 0.0) {
        out += ',';
        append_flow(out, "s", event.id(), event.device + 1, event.t_end);
        out += ',';
        append_flow(out, "t", event.id(), 0, anchor->second.cut);
        out += ',';
        append_flow(out, "f", event.id(), 0, anchor->second.aggregate);
      }
    }
  }
  out += "]}";
  return out;
}

bool parse_flight_json(std::string_view text, std::vector<FlightEvent>& out,
                       std::string* error) {
  std::string parse_error;
  const auto value = json::parse(text, &parse_error);
  if (!value || !value->is_object()) {
    if (error != nullptr) {
      *error = parse_error.empty() ? "flight log: not a JSON object"
                                   : parse_error;
    }
    return false;
  }
  const json::Value* events = value->find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    if (error != nullptr) *error = "flight log: missing traceEvents array";
    return false;
  }
  for (const json::Value& entry : events->as_array()) {
    if (!entry.is_object()) {
      if (error != nullptr) *error = "flight log: non-object trace event";
      return false;
    }
    const json::Value* phase = entry.find("ph");
    if (phase == nullptr || !phase->is_string() ||
        phase->as_string() != "X") {
      continue;  // flow / metadata entries carry no event payload
    }
    const json::Value* args = entry.find("args");
    if (args == nullptr || !args->is_object()) {
      if (error != nullptr) *error = "flight log: slice without args";
      return false;
    }
    const auto number = [&](std::string_view key, double fallback) {
      const json::Value* field = args->find(key);
      return field != nullptr && field->is_number() ? field->as_number()
                                                    : fallback;
    };
    FlightEvent event;
    event.round = static_cast<std::uint64_t>(number("round", 0.0));
    event.device = static_cast<std::uint32_t>(number("device", 0.0));
    event.attempt = static_cast<std::uint32_t>(number("attempt", 0.0));
    event.kind = static_cast<FlightEventKind>(
        static_cast<int>(number("kind", 0.0)));
    event.cause = static_cast<int>(number("cause", 0.0));
    event.staleness = static_cast<std::uint64_t>(number("staleness", 0.0));
    event.t_start = number("t_start", 0.0);
    event.t_end = number("t_end", event.t_start);
    out.push_back(event);
  }
  return true;
}

}  // namespace plos::obs
