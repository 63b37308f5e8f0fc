#include "net/simnet.hpp"

#include <algorithm>

#include "net/serialize.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace plos::net {

namespace {

// The registry mirrors aggregate traffic/energy so metrics snapshots carry
// the communication budget without walking SimNetwork instances. Per-device
// splits stay in DeviceMetrics.
struct SimnetInstruments {
  obs::Counter& bytes_to_device;
  obs::Counter& bytes_to_server;
  obs::Counter& messages_to_device;
  obs::Counter& messages_to_server;
  obs::Counter& device_energy_joules;
  obs::Counter& rounds;
  obs::Counter& messages_dropped;
  obs::Counter& messages_corrupted;
  obs::Counter& retries;
  obs::Counter& failed_messages;
};

SimnetInstruments& simnet_instruments() {
  static SimnetInstruments* instruments = new SimnetInstruments{
      obs::metrics().counter("simnet.bytes_to_device"),
      obs::metrics().counter("simnet.bytes_to_server"),
      obs::metrics().counter("simnet.messages_to_device"),
      obs::metrics().counter("simnet.messages_to_server"),
      obs::metrics().counter("simnet.device_energy_joules"),
      obs::metrics().counter("simnet.rounds"),
      obs::metrics().counter("simnet.messages_dropped"),
      obs::metrics().counter("simnet.messages_corrupted"),
      obs::metrics().counter("simnet.retries"),
      obs::metrics().counter("simnet.failed_messages"),
  };
  return *instruments;
}

}  // namespace

SimNetwork::SimNetwork(std::size_t num_devices, DeviceProfile device_profile,
                       LinkProfile link_profile)
    : device_profile_(device_profile),
      link_profile_(link_profile),
      device_profiles_(num_devices, device_profile),
      device_links_(num_devices, link_profile),
      devices_(num_devices),
      round_device_seconds_(num_devices, 0.0) {
  PLOS_CHECK(num_devices > 0, "SimNetwork: need at least one device");
  PLOS_CHECK(device_profile.cpu_slowdown > 0.0,
             "SimNetwork: cpu_slowdown must be positive");
  PLOS_CHECK(link_profile.bandwidth_kbps > 0.0,
             "SimNetwork: bandwidth must be positive");
}

void SimNetwork::set_device_profile(std::size_t device,
                                    DeviceProfile profile) {
  PLOS_CHECK(device < devices_.size(), "SimNetwork: device out of range");
  PLOS_CHECK(profile.cpu_slowdown > 0.0,
             "SimNetwork: cpu_slowdown must be positive");
  const std::lock_guard<std::mutex> lock(mutex_);
  device_profiles_[device] = profile;
}

const DeviceProfile& SimNetwork::device_profile(std::size_t device) const {
  PLOS_CHECK(device < devices_.size(), "SimNetwork: device out of range");
  return device_profiles_[device];
}

void SimNetwork::set_device_link(std::size_t device, LinkProfile profile) {
  PLOS_CHECK(device < devices_.size(), "SimNetwork: device out of range");
  PLOS_CHECK(profile.bandwidth_kbps > 0.0,
             "SimNetwork: bandwidth must be positive");
  const std::lock_guard<std::mutex> lock(mutex_);
  device_links_[device] = profile;
}

const LinkProfile& SimNetwork::device_link(std::size_t device) const {
  PLOS_CHECK(device < devices_.size(), "SimNetwork: device out of range");
  return device_links_[device];
}

double SimNetwork::transfer_seconds(std::size_t device,
                                    std::size_t bytes) const {
  const LinkProfile& link = device_links_[device];
  const double kb = static_cast<double>(bytes) / 1024.0;
  return link.latency_s + kb * 8.0 / link.bandwidth_kbps;
}

void SimNetwork::charge_message(std::size_t device, Direction direction,
                                std::size_t bytes, double multiplier) {
  const double kb = static_cast<double>(bytes) / 1024.0;
  if (direction == Direction::kDownlink) {
    server_.bytes_sent += bytes;
    devices_[device].bytes_received += bytes;
    devices_[device].messages_received += 1;
    devices_[device].energy_joules += kb * device_profiles_[device].rx_energy_j_per_kb;
    simnet_instruments().bytes_to_device.add(static_cast<double>(bytes));
    simnet_instruments().messages_to_device.increment();
    simnet_instruments().device_energy_joules.add(
        kb * device_profiles_[device].rx_energy_j_per_kb);
  } else {
    server_.bytes_received += bytes;
    devices_[device].bytes_sent += bytes;
    devices_[device].messages_sent += 1;
    devices_[device].energy_joules += kb * device_profiles_[device].tx_energy_j_per_kb;
    simnet_instruments().bytes_to_server.add(static_cast<double>(bytes));
    simnet_instruments().messages_to_server.increment();
    simnet_instruments().device_energy_joules.add(
        kb * device_profiles_[device].tx_energy_j_per_kb);
  }
  const double window = transfer_seconds(device, bytes) * multiplier;
  round_device_seconds_[device] += window;
  // One latency sample per on-air message, straggler-scaled exactly like
  // the round clock. Counts-only, so concurrent workers' recordings merge
  // to the same sketch in any interleaving.
  latency_sketch_.record(window);
}

obs::QuantileSketch SimNetwork::latency_sketch() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return latency_sketch_;
}

void SimNetwork::send_to_device(std::size_t device, std::size_t bytes) {
  PLOS_CHECK(device < devices_.size(), "SimNetwork: device out of range");
  const std::lock_guard<std::mutex> lock(mutex_);
  charge_message(device, Direction::kDownlink, bytes, 1.0);
}

void SimNetwork::send_to_server(std::size_t device, std::size_t bytes) {
  PLOS_CHECK(device < devices_.size(), "SimNetwork: device out of range");
  const std::lock_guard<std::mutex> lock(mutex_);
  charge_message(device, Direction::kUplink, bytes, 1.0);
}

SimNetwork::TransmitOutcome SimNetwork::transmit(
    std::size_t device, Direction direction,
    std::span<const std::uint8_t> payload) {
  PLOS_CHECK(device < devices_.size(), "SimNetwork: device out of range");
  PLOS_SPAN("net.transmit");
  const std::lock_guard<std::mutex> lock(mutex_);
  const std::uint64_t round = rounds_;
  const double multiplier = fault_.time_multiplier(round, device);
  // A faulty link carries CRC32 frames (net/serialize.hpp): every attempt
  // costs the header too. A fault-free link carries the bare payload.
  const std::size_t bytes =
      fault_.enabled() ? kFrameHeaderBytes + payload.size() : payload.size();
  const double kb = static_cast<double>(bytes) / 1024.0;
  const double window = transfer_seconds(device, bytes) * multiplier;
  const int max_attempts =
      fault_.enabled() ? fault_.spec().max_retries + 1 : 1;

  TransmitOutcome outcome;
  // Flight-recorder detail: per-attempt windows and outcomes, appended as
  // each attempt resolves. Bounded by max_attempts; derived from the same
  // deterministic quantities as the ledgers.
  const auto log_attempt = [&](int result, double seconds) {
    if (attempt_log_) outcome.attempt_log.push_back({result, seconds});
  };
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    outcome.attempts = attempt + 1;
    double attempt_seconds = 0.0;
    if (attempt > 0) {
      ++fault_counters_.retries;
      // Seeded jitter (exactly 1.0 when retry_jitter == 0) desynchronizes
      // retry storms; pure counter draw, so the wait is deterministic.
      const double backoff =
          fault_.spec().retry_backoff_s * multiplier *
          fault_.retry_backoff_multiplier(round, device, direction, attempt);
      round_device_seconds_[device] += backoff;
      outcome.seconds += backoff;
      attempt_seconds += backoff;
      simnet_instruments().retries.increment();
    }

    if (fault_.drop(round, device, direction, attempt)) {
      // Lost in transit: the sender's radio paid for the attempt; the
      // receiver decodes nothing but waits out the transfer window.
      if (direction == Direction::kDownlink) {
        server_.bytes_sent += bytes;
        ++fault_counters_.downlink_dropped;
      } else {
        devices_[device].bytes_sent += bytes;
        devices_[device].messages_sent += 1;
        devices_[device].energy_joules +=
            kb * device_profiles_[device].tx_energy_j_per_kb;
        simnet_instruments().device_energy_joules.add(
            kb * device_profiles_[device].tx_energy_j_per_kb);
        ++fault_counters_.uplink_dropped;
      }
      round_device_seconds_[device] += window;
      outcome.seconds += window;
      attempt_seconds += window;
      simnet_instruments().messages_dropped.increment();
      log_attempt(/*result=*/1, attempt_seconds);
      continue;
    }

    charge_message(device, direction, bytes, multiplier);
    outcome.seconds += window;
    attempt_seconds += window;

    if (fault_.corrupt(round, device, direction, attempt)) {
      // Frame the payload, flip the schedule-chosen bit and run the real
      // CRC check: the corruption path exercises the actual frame
      // validation, not a modeled stand-in. The frame is built only here,
      // so undamaged attempts never copy the payload.
      std::vector<std::uint8_t> damaged = frame_message(payload);
      const std::size_t bit = fault_.corrupt_bit(round, device, direction,
                                                 attempt, damaged.size() * 8);
      damaged[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      // CRC32 catches every single-bit flip of a well-formed frame.
      PLOS_CHECK(!unframe_message(damaged).has_value(),
                 "SimNetwork: corrupted frame passed its CRC check");
      if (direction == Direction::kDownlink) {
        ++fault_counters_.downlink_corrupted;
      } else {
        ++fault_counters_.uplink_corrupted;
      }
      simnet_instruments().messages_corrupted.increment();
      log_attempt(/*result=*/2, attempt_seconds);
      continue;  // receiver rejects the frame; sender retries
    }

    outcome.delivered = true;
    log_attempt(/*result=*/0, attempt_seconds);
    return outcome;
  }

  outcome.delivered = false;
  ++fault_counters_.failed_messages;
  simnet_instruments().failed_messages.increment();
  return outcome;
}

SimNetwork::TransmitOutcome SimNetwork::transmit_to_device(
    std::size_t device, std::span<const std::uint8_t> payload) {
  return transmit(device, Direction::kDownlink, payload);
}

SimNetwork::TransmitOutcome SimNetwork::transmit_to_server(
    std::size_t device, std::span<const std::uint8_t> payload) {
  return transmit(device, Direction::kUplink, payload);
}

FaultCounters SimNetwork::fault_counters() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return fault_counters_;
}

SimNetwork::TrafficSnapshot SimNetwork::traffic_snapshot() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  TrafficSnapshot snapshot;
  snapshot.bytes_to_devices = server_.bytes_sent;
  snapshot.bytes_to_server = server_.bytes_received;
  snapshot.messages_dropped =
      fault_counters_.downlink_dropped + fault_counters_.uplink_dropped;
  snapshot.retries = fault_counters_.retries;
  return snapshot;
}

void SimNetwork::account_device_compute(std::size_t device,
                                        double measured_seconds) {
  PLOS_CHECK(device < devices_.size(), "SimNetwork: device out of range");
  PLOS_CHECK(measured_seconds >= 0.0, "SimNetwork: negative compute time");
  const std::lock_guard<std::mutex> lock(mutex_);
  // Straggler multiplier is exactly 1.0 without faults, so the fault-free
  // ledger is bitwise unchanged.
  const double device_seconds = measured_seconds *
                                device_profiles_[device].cpu_slowdown *
                                fault_.time_multiplier(rounds_, device);
  devices_[device].compute_seconds += device_seconds;
  devices_[device].energy_joules +=
      device_seconds * device_profiles_[device].compute_power_watts;
  round_device_seconds_[device] += device_seconds;
  simnet_instruments().device_energy_joules.add(
      device_seconds * device_profiles_[device].compute_power_watts);
}

void SimNetwork::account_server_compute(double measured_seconds) {
  PLOS_CHECK(measured_seconds >= 0.0, "SimNetwork: negative compute time");
  const std::lock_guard<std::mutex> lock(mutex_);
  server_.compute_seconds += measured_seconds;
  round_server_seconds_ += measured_seconds;
}

void SimNetwork::end_round() {
  const std::lock_guard<std::mutex> lock(mutex_);
  double slowest_device =
      *std::max_element(round_device_seconds_.begin(),
                        round_device_seconds_.end());
  // With a round deadline the server proceeds at the deadline at the
  // latest; straggler time past it never reaches the wall clock.
  if (fault_.enabled() && fault_.spec().round_deadline_s > 0.0) {
    slowest_device = std::min(slowest_device, fault_.spec().round_deadline_s);
  }
  simulated_seconds_ += round_server_seconds_ + slowest_device;
  std::fill(round_device_seconds_.begin(), round_device_seconds_.end(), 0.0);
  round_server_seconds_ = 0.0;
  ++rounds_;
  simnet_instruments().rounds.increment();
}

const DeviceMetrics& SimNetwork::device_metrics(std::size_t device) const {
  PLOS_CHECK(device < devices_.size(), "SimNetwork: device out of range");
  return devices_[device];
}

double SimNetwork::mean_bytes_per_device() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  double total = 0.0;
  for (const auto& d : devices_) {
    total += static_cast<double>(d.bytes_sent + d.bytes_received);
  }
  return total / static_cast<double>(devices_.size());
}

double SimNetwork::total_device_energy() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  double total = 0.0;
  for (const auto& d : devices_) total += d.energy_joules;
  return total;
}

}  // namespace plos::net
