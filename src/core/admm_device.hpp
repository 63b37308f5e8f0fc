// The per-device half of distributed ADMM, driven by the quorum round loop
// (core/quorum_admm) under every schedule — synchronous and asynchronous.
//
// One AdmmDevice owns one simulated device: its raw data, CCCP signs, the
// cutting-plane working set of the current CCCP round, and what it holds to
// replay the server's dual step (its u_t, the last w0 and its last
// solution). No solver state outlives a CCCP round (DESIGN.md §13):
// begin_cccp_round starts an empty working set, and a new plane enters it at
// dual 0. Under the thread pool's static chunking each device is touched by
// exactly one worker per round, so none of this needs locking. The wire
// formats of the exchange live here too (DESIGN.md §9).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/cutting_plane.hpp"
#include "core/distributed_plos.hpp"
#include "obs/journal.hpp"
#include "obs/sketch.hpp"
#include "qp/simplex_qp.hpp"

namespace plos::core {

/// Over-relaxation of the consensus step (Eckstein & Bertsekas 1992; Boyd
/// et al. §3.4.3, which recommends α in [1.5, 1.8]). Same fixed point as
/// plain ADMM; applied only in steps where every block is fresh.
inline constexpr double kAdmmRelaxation = 1.6;

/// How the server's dual u_t of one block moved since its device's last
/// delivered broadcast (DESIGN.md §9 "Wire framing"). A broadcast carries
/// the code in its message type word. The device replays the step from
/// what it holds (HeldDual); only kExplicit puts u_t itself on the wire.
enum class DualFold : std::uint32_t {
  kExplicit = 1,      ///< (w0, u_t): the device could not replay the step
  kRelaxedFresh = 4,  ///< u_t += x̂_t − w0 (all-fresh, over-relaxed step)
  kPlainFresh = 5,    ///< u_t += w_t − v_t − w0 (plain Eq. 23)
  kLateFold = 6,      ///< u_t += w_t − v_t − w0_sent (late fold, §14.2)
  kUnchanged = 7,     ///< u_t kept
  kZeroed = 8,        ///< u_t = 0 (eviction)
};

/// x̂_t = α(w_t − v_t) + (1 − α)·w0_old, α = kAdmmRelaxation: the relaxed
/// point of an all-fresh step, read by the w0 sum and the dual step.
linalg::Vector relaxed_point(std::span<const double> w,
                             std::span<const double> v,
                             std::span<const double> w0_old);

/// One block's dual step under `fold`. The server's update
/// (admm_server_update) applies it, and a device replays it from its own
/// last solve, so both run these statements. (w, v) answered the
/// consensus w0_solved; w0_new is the consensus the step produced.
/// kUnchanged keeps u; kExplicit is not a step.
void step_dual(DualFold fold, std::span<const double> w,
               std::span<const double> v, std::span<const double> w0_solved,
               std::span<const double> w0_new, linalg::Vector& u);

/// The prox center w0 − u_t a device solves Eq. 22 around.
linalg::Vector prox_center(std::span<const double> w0,
                           std::span<const double> u);

/// The two scales of the device solve (Eq. 22): w_t = center + κ·z with
/// κ = T/(2λ) + 1/ρ, and v_t = (T/(2λ))·z. Device and server compute them
/// with these statements, so a rebuilt block matches the device's bits.
struct ProxScales {
  ProxScales(std::size_t num_users, const DistributedPlosOptions& options);
  double kappa;     ///< T/(2λ) + 1/ρ
  double v_over_g;  ///< T/(2λ)
};

/// A device's answer to one round: (w_t, v_t, ξ_t) of Eq. 22.
struct LocalSolution {
  linalg::Vector w;
  linalg::Vector v;
  double xi = 0.0;
};

/// What an upload carries: the dual combination z = Σγ·s of the device's
/// working set, the slack ξ_t, and whether any QP solve ran. Without one,
/// z = 0 and w_t is the center itself.
struct DeviceUpload {
  bool solved = false;
  linalg::Vector z;
  double xi = 0.0;
};

/// Rebuilds (w_t, v_t, ξ_t) from an upload and the center the device
/// solved around. The device builds its own solution with it too, so the
/// server's block is the device's bit for bit (a −0.0 in an unsolved
/// center included).
LocalSolution solution_from_upload(const DeviceUpload& upload,
                                   std::span<const double> center,
                                   const ProxScales& scales);

/// What a broadcast carries: the consensus w0, the fold code, and u_t
/// (kExplicit only; empty otherwise).
struct DeviceBroadcast {
  DualFold fold = DualFold::kUnchanged;
  linalg::Vector w0;
  linalg::Vector u;
};

// Wire formats (DESIGN.md §9). Sizes are what the simulator charges, so
// they are real serializations, not estimates. The engine hands these
// payloads to SimNetwork::transmit_*, which adds the CRC32 frame header
// only when a fault model is enabled. The decoders throw
// PreconditionError on a truncated or overlong payload, an unknown
// message type, or a vector whose length is not `dim`.
std::vector<std::uint8_t> encode_broadcast(DualFold fold,
                                           std::span<const double> w0,
                                           std::span<const double> u);
DeviceBroadcast decode_broadcast(std::span<const std::uint8_t> payload,
                                 std::size_t dim);
std::vector<std::uint8_t> encode_upload(const DeviceUpload& upload);
DeviceUpload decode_upload(std::span<const std::uint8_t> payload,
                           std::size_t dim);

/// What one device holds between broadcasts to replay its dual step: the
/// u_t and w0 of its last round and the (w_t, v_t) it solved there. A
/// device keeps its own. The server keeps a copy per device, built from
/// its delivered broadcasts and the uploads it received, and replays a
/// fold on it before it chooses a code.
struct HeldDual {
  linalg::Vector u;
  linalg::Vector w0;  ///< empty before the first broadcast
  linalg::Vector w;   ///< empty when the solution is not held
  linalg::Vector v;

  /// u_t after `fold`, for a broadcast of consensus w0_now; nullopt when
  /// the fold reads a solution this copy does not hold, or is kExplicit.
  std::optional<linalg::Vector> replay(DualFold fold,
                                       std::span<const double> w0_now) const;
};

/// Whether two vectors are equal bit for bit (−0.0 ≠ 0.0, NaN payloads
/// compared as bits).
bool same_bits(std::span<const double> a, std::span<const double> b);

/// Why a device sat out a round (or didn't); tallied into the
/// graceful-degradation diagnostics after each ADMM iteration.
enum DeviceRoundStatus : char {
  kParticipated = 0,
  kUnavailable = 1,     // reserved: no producer; keeps cause_counts 8 wide
  kOffline = 2,         // fault schedule churn window
  kDownlinkFailed = 3,  // broadcast lost after all retries
  kDeadlineMissed = 4,  // straggler; server stopped waiting
  kUplinkFailed = 5,    // update lost/corrupt after all retries
  kLateUpload = 6,      // async: arrived after the quorum cut, folded later
  kBusy = 7,            // async: previous upload still in flight
};

/// Size of the DeviceRoundStatus vocabulary — the journal's cause_counts
/// vector has exactly this many slots in enum order.
inline constexpr std::size_t kDeviceRoundStatusCount = 8;

/// One simulated device (see file comment).
class AdmmDevice {
 public:
  AdmmDevice(const data::UserData& user, std::size_t num_users,
             std::size_t dim, const DistributedPlosOptions& options);

  /// Local SVM (fit_svm, C = 1) on revealed labels for the bootstrap round,
  /// its QP solves added to counts(); empty when the device has no labels.
  linalg::Vector bootstrap_weights();

  /// Starts a CCCP round: fix linearization signs at the current w_t and
  /// reset the working set (the planes depend on the signs).
  void begin_cccp_round(std::span<const double> current_weights,
                        bool first_round, std::uint64_t seed);

  /// One ADMM round on the device: decodes the broadcast, takes u_t from
  /// it or replays the fold, solves the local problem (Eq. 22) around
  /// w0 − u_t, and returns the upload payload.
  std::vector<std::uint8_t> answer(std::span<const std::uint8_t> broadcast);

  /// The dual u_t the device last solved with.
  const linalg::Vector& held_dual() const { return held_.u; }

  /// A device's counters; the engine sums them over the fleet.
  struct Counts {
    int qp_solves = 0;       ///< cumulative dual QP solves
    int qp_iterations = 0;   ///< cumulative QP pivots across those solves
    int qp_unconverged = 0;  ///< of those solves, not converged
    std::size_t planes = 0;  ///< cutting planes in the working set now
  };
  Counts counts() const {
    return {qp_solves_, qp_iterations_, qp_unconverged_,
            working_set_.planes.size()};
  }

 private:
  PlosUserContext ctx_;
  const DistributedPlosOptions* options_;
  double num_users_;
  std::size_t dim_;
  ProxScales scales_;
  std::vector<int> signs_;
  qp::SimplexBlock working_set_;  ///< this CCCP round's planes, scale κ
  linalg::Vector shifted_;   ///< b_a − ⟨s_a, d⟩ at the current prox center
  HeldDual held_;
  int qp_solves_ = 0;
  int qp_iterations_ = 0;
  int qp_unconverged_ = 0;
};

/// Server-side freshness bookkeeping behind the journal's staleness
/// fields. Tracks, per device, the aggregation step whose data the
/// server's cached block (w_t, v_t, ξ_t) was computed in; a block's age
/// at step k is the number of steps its data lags behind k. Every schedule
/// maintains it the same way; the synchronous one just never evicts.
class StalenessLedger {
 public:
  /// Buckets of the journal staleness histogram; the last is open-ended.
  static constexpr std::size_t kHistogramBuckets = 8;

  explicit StalenessLedger(std::size_t num_users);

  /// Block `t` now holds data computed in aggregation step `step`.
  void refresh(std::size_t t, std::uint64_t step);

  /// Age of block `t` at aggregation step `step`: 0 when refreshed this
  /// step, `step + 1` when still carrying the bootstrap-round state.
  std::uint64_t age(std::size_t t, std::uint64_t step) const;

  /// Max age over all blocks at step `step`.
  std::uint64_t max_age(std::uint64_t step) const;

  /// Bucket layout of the fleet staleness sketch every schedule journals
  /// (sub-integer resolution up to 16 rounds, ~12% relative beyond).
  static obs::QuantileSketch::Spec staleness_sketch_spec() {
    return obs::QuantileSketch::Spec{/*min_value=*/1.0,
                                     /*max_value=*/65536.0,
                                     /*sub_buckets=*/8};
  }

  /// Fills record.max_staleness, record.staleness_hist (one count per
  /// block, bucket = min(age, kHistogramBuckets - 1)), and the sketch
  /// quantiles record.stale_p50/p90/p99.
  void fill_record(obs::RoundRecord& record, std::uint64_t step) const;

 private:
  /// Data step + 1 per device; 0 = bootstrap-era block, never refreshed.
  std::vector<std::uint64_t> data_step_;
};

}  // namespace plos::core
