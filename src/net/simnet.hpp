// Deterministic star-topology network/device simulator.
//
// Substitute for the paper's §VI-E testbed (Nexus 5 phones + a 3.4 GHz
// server): the scaling experiments measure *shape* — centralized solve time
// growing superlinearly in the number of users while the distributed
// per-device time stays flat, and per-user message volume independent of
// population size. The simulator provides:
//
//   * byte-exact accounting of every message (callers pass the real
//     serialized payload; the network decides what goes on the wire);
//   * a latency + bandwidth link model per device;
//   * a CPU-speed factor per device (phone vs server) applied to *measured*
//     compute times of the real local solver;
//   * an energy model (compute power draw + per-byte radio cost);
//   * synchronous-round wall-clock semantics: devices compute and
//     communicate in parallel, so a round costs
//     server_compute + max_t(downlink_t + device_compute_t + uplink_t)
//     (max over devices, not a sum — matching real concurrent execution);
//   * thread safety: the distributed trainer drives devices from a thread
//     pool, so every accounting entry point and reader serializes on an
//     internal mutex. Byte and message ledgers are integer-exact, which
//     makes the totals independent of the interleaving of concurrent
//     accounting calls; per-device fields are only ever touched by the one
//     worker simulating that device within a round;
//   * one exchange call, transmit_to_device/transmit_to_server, that
//     decides framing itself: with an enabled FaultModel (net/fault.hpp)
//     every attempt carries a CRC32 frame (kFrameHeaderBytes + payload)
//     through a bounded retry/backoff loop — every attempt is charged to
//     the ledgers, drops and CRC rejections are counted, and straggling
//     devices have their compute/link time scaled. All fault decisions are
//     counter-based (keyed on the round counter), so ledgers and outcomes
//     stay bitwise-deterministic at any thread count. Without faults a
//     transmit is one delivered attempt of the bare payload, charged
//     exactly like send_to_device/send_to_server.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <span>
#include <vector>

#include "common/assert.hpp"
#include "net/fault.hpp"
#include "obs/sketch.hpp"

namespace plos::net {

struct DeviceProfile {
  /// Device-seconds per server-second: >1 means slower than the reference
  /// machine the solver actually runs on (phone ≈ 8-15x a desktop core).
  double cpu_slowdown = 10.0;
  double compute_power_watts = 2.0;   ///< CPU power draw while solving
  double tx_energy_j_per_kb = 0.008;  ///< radio transmit cost
  double rx_energy_j_per_kb = 0.005;  ///< radio receive cost
};

struct LinkProfile {
  double latency_s = 0.02;        ///< one-way propagation delay
  double bandwidth_kbps = 2000.0; ///< application-layer throughput
};

/// Accumulated per-device counters.
struct DeviceMetrics {
  std::size_t bytes_sent = 0;
  std::size_t bytes_received = 0;
  std::size_t messages_sent = 0;
  std::size_t messages_received = 0;
  double compute_seconds = 0.0;  ///< device-scaled compute time
  double energy_joules = 0.0;
};

struct ServerMetrics {
  std::size_t bytes_sent = 0;
  std::size_t bytes_received = 0;
  double compute_seconds = 0.0;
};

/// Star topology: one server, N devices, synchronous rounds.
class SimNetwork {
 public:
  SimNetwork(std::size_t num_devices, DeviceProfile device_profile,
             LinkProfile link_profile);

  std::size_t num_devices() const { return devices_.size(); }

  // -- heterogeneous links -------------------------------------------------

  /// Overrides the link profile of one device (default: the constructor's
  /// profile for every device). Needed by the straggler model and any
  /// heterogeneous-fleet experiment; set before training starts.
  void set_device_link(std::size_t device, LinkProfile profile);

  const LinkProfile& device_link(std::size_t device) const;

  /// Overrides the device profile of one device (default: the
  /// constructor's profile for every device). Chronic stragglers — devices
  /// that are persistently slower than the fleet, not just unlucky in one
  /// round — are modeled as per-device cpu_slowdown overrides; compute and
  /// energy ledger charges use the override too. Set before training
  /// starts.
  void set_device_profile(std::size_t device, DeviceProfile profile);

  const DeviceProfile& device_profile(std::size_t device) const;

  // -- fault injection -----------------------------------------------------

  /// Attaches a fault model; transmit_* consult it and the distributed
  /// trainer reads it back for offline/deadline scheduling. Attach before
  /// training starts.
  void set_fault_model(FaultModel model) { fault_ = model; }

  const FaultModel& fault_model() const { return fault_; }

  /// Index of the currently open round (== rounds_completed()); the key the
  /// fault schedule is evaluated against.
  std::uint64_t current_round() const { return rounds_; }

  /// Snapshot of the fault/retry counters.
  FaultCounters fault_counters() const;

  /// Mutually consistent traffic totals taken under one lock; the round
  /// journal computes per-iteration deltas from consecutive snapshots.
  /// All fields are integer-exact ledgers, so snapshots taken at round
  /// boundaries are bitwise thread-count-independent.
  struct TrafficSnapshot {
    std::uint64_t bytes_to_devices = 0;  ///< server-side bytes sent
    std::uint64_t bytes_to_server = 0;   ///< server-side bytes received
    std::uint64_t messages_dropped = 0;  ///< downlink + uplink drops
    std::uint64_t retries = 0;           ///< attempts beyond the first
  };
  TrafficSnapshot traffic_snapshot() const;

  /// Copy of the cumulative per-message link-latency sketch (one sample —
  /// the straggler-scaled transfer window — per on-air message charged to
  /// the ledgers; lost-in-transit attempts are not samples). Counts-only
  /// and guarded by the same lock as the byte ledgers, so snapshots at
  /// round boundaries are bitwise thread-count-independent; the journal
  /// diffs consecutive snapshots for per-round latency quantiles.
  obs::QuantileSketch latency_sketch() const;

  /// Per-attempt detail for the flight recorder (see set_attempt_log).
  /// `result` matches obs::AttemptResult: 0 delivered, 1 dropped in
  /// transit, 2 CRC-rejected at the receiver.
  struct TransmitAttempt {
    int result = 0;
    double seconds = 0.0;  ///< backoff + transfer window of this attempt
  };

  struct TransmitOutcome {
    bool delivered = true;
    int attempts = 1;
    /// Deterministic virtual seconds the exchange occupied on the device's
    /// clock: per-attempt transfer windows plus (jittered) retry backoff,
    /// exactly what the round ledger was charged. Pure function of
    /// (payload size, round, device, direction) through the fault schedule,
    /// so the async engine can build event times from it.
    double seconds = 0.0;
    /// One entry per attempt when attempt logging is on (bounded by the
    /// fault spec's max_retries + 1); empty otherwise.
    std::vector<TransmitAttempt> attempt_log;
  };

  /// Enables per-attempt logs on transmit outcomes (the flight recorder's
  /// retry/drop/corruption causes). Off by default: the log allocates per
  /// message, and only `plos_run --flight-out` consumes it. Never affects
  /// ledgers or outcome seconds.
  void set_attempt_log(bool enabled) { attempt_log_ = enabled; }

  /// Server -> device transmission of a serialized `payload`. With an
  /// enabled fault model the payload travels as a CRC32 frame
  /// (kFrameHeaderBytes + payload.size() bytes per attempt) and is retried
  /// up to the fault spec's max_retries on drop or CRC rejection, charging
  /// every attempt (sender bytes always; receiver bytes/energy only for
  /// attempts that arrive) plus retry backoff to the device's round time.
  /// Corruption frames the payload, flips a schedule-chosen bit and runs
  /// the real unframe/CRC check. Without faults this is one delivered
  /// attempt of payload.size() bytes, charged like send_to_device.
  TransmitOutcome transmit_to_device(std::size_t device,
                                     std::span<const std::uint8_t> payload);

  /// Device -> server transmission; mirror of transmit_to_device.
  TransmitOutcome transmit_to_server(std::size_t device,
                                     std::span<const std::uint8_t> payload);

  // -- accounting entry points ---------------------------------------------

  /// Server -> device message of `bytes` bytes in the current round.
  void send_to_device(std::size_t device, std::size_t bytes);

  /// Device -> server message of `bytes` bytes in the current round.
  void send_to_server(std::size_t device, std::size_t bytes);

  /// Charge `measured_seconds` of reference-machine compute to a device;
  /// the device's cpu_slowdown converts it to simulated device time.
  void account_device_compute(std::size_t device, double measured_seconds);

  /// Charge compute to the server (no scaling).
  void account_server_compute(double measured_seconds);

  /// Close the current synchronous round: simulated wall-clock advances by
  /// the server compute plus the slowest device's compute+communication.
  /// When a fault model with a round deadline is attached, the device term
  /// is capped at the deadline (the server stops waiting for stragglers).
  void end_round();

  /// Fleet-wide device hardware profile (CPU slowdown, energy model).
  /// The constructor's fleet-wide profile (per-device overrides excluded).
  const DeviceProfile& device_profile() const { return device_profile_; }

  // -- results -------------------------------------------------------------

  double total_simulated_seconds() const { return simulated_seconds_; }
  std::size_t rounds_completed() const { return rounds_; }
  const DeviceMetrics& device_metrics(std::size_t device) const;
  const ServerMetrics& server_metrics() const { return server_; }

  /// Mean bytes sent+received per device over the whole run.
  double mean_bytes_per_device() const;

  /// Total device energy in joules.
  double total_device_energy() const;

 private:
  double transfer_seconds(std::size_t device, std::size_t bytes) const;

  /// Shared body of transmit_to_device / transmit_to_server.
  TransmitOutcome transmit(std::size_t device, Direction direction,
                           std::span<const std::uint8_t> payload);

  /// Charges one on-air message to the ledgers (both ends). Caller holds
  /// mutex_; `multiplier` is the straggler time scale for this round.
  void charge_message(std::size_t device, Direction direction,
                      std::size_t bytes, double multiplier);

  /// Guards all ledgers against concurrent accounting from device workers.
  mutable std::mutex mutex_;
  DeviceProfile device_profile_;
  LinkProfile link_profile_;
  std::vector<DeviceProfile> device_profiles_;  ///< per-device overrides
  std::vector<LinkProfile> device_links_;       ///< per-device overrides
  FaultModel fault_;
  FaultCounters fault_counters_;
  std::vector<DeviceMetrics> devices_;
  ServerMetrics server_;
  obs::QuantileSketch latency_sketch_;
  bool attempt_log_ = false;

  // Per-round scratch: compute + comm time accrued by each device and the
  // server within the open round.
  std::vector<double> round_device_seconds_;
  double round_server_seconds_ = 0.0;
  double simulated_seconds_ = 0.0;
  std::size_t rounds_ = 0;
};

}  // namespace plos::net
