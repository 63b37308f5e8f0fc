// Flight recorder: causal per-device lifecycle events on the simulated
// clock.
//
// The journal answers "how did the round go" with bounded aggregates; the
// flight recorder answers "what happened to device 17" — bootstrap, upload
// attempt k (with its retry/backoff, drop, or corruption outcome), deadline
// miss, late fold with the staleness at fold time, eviction with its cause,
// and the server-side quorum cut / aggregate the upload fed into.
//
// Determinism contract (DESIGN.md §15): events are recorded only on the
// aggregation thread, in ascending device order within a round, with ids
// that are pure functions of (round, device, attempt) — so a flight log is
// byte-identical at any thread count, like the journal. Memory is a
// bounded ring buffer: when full, the oldest events are overwritten and
// counted in dropped(), never reallocated.
//
// Export is Chrome trace format (loadable in Perfetto / chrome://tracing):
// one "X" duration slice per event on the device's track (tid = device+1;
// tid 0 = server), plus flow events ("s" -> "t" -> "f") linking each fresh
// upload to the quorum cut and the server aggregate it landed in. The raw
// virtual-clock seconds ride in args so parse_flight_json() round-trips
// events exactly (Chrome's microsecond ts field is lossy).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace plos::obs {

enum class FlightEventKind : int {
  kBootstrap = 0,      ///< device contributed to the bootstrap average
  kUploadAttempt = 1,  ///< one uplink attempt; cause = AttemptResult
  kDeadlineMiss = 2,   ///< upload outlived its per-device deadline
  kQuorumCut = 3,      ///< server event: round cut (staleness = quorum size)
  kLateFold = 4,       ///< cached upload folded; staleness = age at fold
  kEviction = 5,       ///< server block reset; cause = DeviceRoundStatus
  kAggregate = 6,      ///< server event: Eq. 23 update applied
};

/// Outcome of one upload attempt (FlightEventKind::kUploadAttempt cause).
enum class AttemptResult : int {
  kDelivered = 0,
  kDropped = 1,    ///< fault schedule lost the frame in transit
  kCorrupted = 2,  ///< CRC rejected the frame at the receiver
};

/// Device index used for server-side events (quorum cut, aggregate).
inline constexpr std::uint32_t kFlightServerDevice = 0xFFFFFFFFu;

struct FlightEvent {
  std::uint64_t round = 0;    ///< aggregation step of the event
  std::uint32_t device = kFlightServerDevice;
  std::uint32_t attempt = 0;  ///< uplink attempt index; 0 otherwise
  FlightEventKind kind = FlightEventKind::kUploadAttempt;
  int cause = 0;         ///< AttemptResult or core::DeviceRoundStatus
  double t_start = 0.0;  ///< virtual seconds
  double t_end = 0.0;    ///< virtual seconds, >= t_start
  std::uint64_t staleness = 0;  ///< age at fold/eviction; quorum at cut

  /// Deterministic id keyed on (round, device, attempt) — the flow-event
  /// id linking a device upload to its quorum cut and aggregate.
  std::uint64_t id() const {
    return (round << 32) | (static_cast<std::uint64_t>(device & 0xFFFFFFu)
                            << 8) |
           static_cast<std::uint64_t>(attempt & 0xFFu);
  }
};

/// Slice name used in the Chrome trace for a kind ("upload_attempt", ...).
std::string_view flight_kind_name(FlightEventKind kind);

/// Bounded ring buffer of flight events with Chrome-trace export.
class FlightRecorder {
 public:
  /// `capacity` bounds memory: the ring holds at most this many events and
  /// overwrites the oldest beyond it.
  explicit FlightRecorder(std::size_t capacity = 1u << 16);

  /// Appends one event (aggregation thread only; see file comment).
  void record(const FlightEvent& event);

  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }
  /// Events overwritten because the ring was full.
  std::uint64_t dropped() const { return dropped_; }

  /// Retained events, oldest first.
  std::vector<FlightEvent> events() const;

  /// Chrome trace JSON ({"traceEvents": [...]}) with duration slices and
  /// upload -> quorum-cut -> aggregate flow events.
  std::string to_chrome_json() const;

 private:
  std::size_t capacity_;
  std::size_t head_ = 0;  ///< overwrite cursor once the ring is full
  std::uint64_t dropped_ = 0;
  std::vector<FlightEvent> ring_;
};

/// Parses a Chrome trace produced by to_chrome_json() back into events
/// (flow and metadata entries are skipped; the raw seconds in args make
/// the round trip exact). Returns false (and sets `error` when non-null)
/// on malformed input.
bool parse_flight_json(std::string_view text, std::vector<FlightEvent>& out,
                       std::string* error = nullptr);

}  // namespace plos::obs
