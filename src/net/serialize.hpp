// Binary message serialization.
//
// The distributed PLOS evaluation charges every transmitted byte to the
// communication budget (paper Fig. 13), so model parameters are serialized
// into real wire-format buffers rather than estimated: a message costs
// exactly what its encoding occupies. Little-endian fixed-width encoding,
// length-prefixed vectors.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace plos::net {

class Serializer {
 public:
  void write_u32(std::uint32_t v);
  void write_u64(std::uint64_t v);
  void write_f64(double v);
  void write_vector(std::span<const double> v);  ///< u64 length + payload

  const std::vector<std::uint8_t>& buffer() const { return buffer_; }
  std::size_t size_bytes() const { return buffer_.size(); }
  std::vector<std::uint8_t> take() { return std::move(buffer_); }

 private:
  std::vector<std::uint8_t> buffer_;
};

/// Reads values back in write order; throws PreconditionError on underflow.
class Deserializer {
 public:
  explicit Deserializer(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint32_t read_u32();
  std::uint64_t read_u64();
  double read_f64();
  std::vector<double> read_vector();

  std::size_t remaining() const { return data_.size() - offset_; }
  bool exhausted() const { return remaining() == 0; }

 private:
  std::span<const std::uint8_t> data_;
  std::size_t offset_ = 0;
};

// ---- CRC32-checked wire frames -------------------------------------------
//
// The fault-injection path flips real bits in transit (see net/fault.hpp),
// so corrupted uploads must be *detected*, not assumed away. Messages sent
// over a faulty link travel in a fixed 16-byte frame header
//
//   u32 magic 'PLF\x01' | u32 version | u32 payload length | u32 CRC32
//
// and the receiver validates magic, version, length, and checksum before
// decoding; any mismatch is treated as a dropped message (the sender
// retries). CRC32 (IEEE 802.3, reflected polynomial 0xEDB88320) detects all
// single-bit and burst-<=32-bit errors, which covers the simulator's
// single-bit-flip corruption model exactly.
//
// Versioning: SimNetwork decides framing. It charges frame version 1
// (kFrameHeaderBytes + payload) per attempt only when an enabled
// FaultModel is attached, and builds the frame only when a corruption
// draw needs real bytes to flip. Fault-free runs transmit *unframed*
// payloads, so the byte ledgers — and the checked-in goldens that pin
// them — are unchanged for fault-free configurations.

inline constexpr std::uint32_t kFrameMagic = 0x01464C50u;  // "PLF\x01" LE
inline constexpr std::uint32_t kFrameVersion = 1;
inline constexpr std::size_t kFrameHeaderBytes = 16;

/// CRC32 (IEEE) of `data`.
std::uint32_t crc32(std::span<const std::uint8_t> data);

/// Wraps `payload` in a frame header (magic, version, length, CRC32).
std::vector<std::uint8_t> frame_message(std::span<const std::uint8_t> payload);

/// Validates a frame and returns a view of its payload, or nullopt when the
/// magic/version/length/CRC check fails (corrupt or truncated frame). The
/// view aliases `frame`, which must outlive it.
std::optional<std::span<const std::uint8_t>> unframe_message(
    std::span<const std::uint8_t> frame);

}  // namespace plos::net
