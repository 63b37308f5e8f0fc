// The distributed PLOS round loop (paper §V, Algorithm 2): bounded-staleness
// ADMM with quorum aggregation.
//
// One engine runs every distributed schedule. A round is event-driven on
// the simulated clock:
//
//   * every dispatched device's round trip gets a deterministic virtual
//     completion time (core/latency.hpp) built from the SimNetwork link
//     charges and a QP-work compute proxy — never from measured wall time;
//   * completion and deadline events go into a deterministic event queue
//     (net/event_queue.hpp) with the total order (time, round, device,
//     kind); the server aggregates as soon as a configurable quorum of
//     on-time uploads has arrived, cutting the round at that event's time;
//   * uploads that miss the cut (or their per-device deadline) are not
//     lost: they arrive later on the virtual clock and are folded into a
//     subsequent aggregate. The block's dual then takes a full step
//     against the consensus the device solved on, u_t += w_t − v_t −
//     w0_sent, which completes that device's own ADMM step;
//   * bounded staleness: a server block whose data is older than
//     `staleness_bound` aggregation steps is evicted — reset to the
//     consensus (w_t = w0, v_t = 0, ξ_t = 0, u_t = 0) — and the device
//     re-bootstraps from the current consensus on its next dispatch;
//   * per-device deadlines adapt from an EWMA of observed round-trip
//     latencies (core/latency.hpp), so chronically slow devices stop
//     gating the quorum without being dropped from training;
//   * a straggler past the fault schedule's round deadline
//     (net::FaultModel::misses_deadline) is charged its compute but sends
//     no upload — the server stopped waiting for it.
//
// The synchronous trainer (core/distributed_plos.hpp) is this engine's
// degenerate schedule: quorum 1.0, no per-device deadline, a staleness
// bound that is never reached. Then every delivered upload is on time and
// inside the cut, nothing is ever late, busy, or evicted, and each round
// is the paper's barrier (DESIGN.md §14). Only a step where every block is
// fresh over-relaxes the consensus update (admm_server_update below): every
// fault-free step of this schedule, while a quorum < 1 cut leaves blocks
// cached and runs plain Eq. 23. Every schedule is bitwise-deterministic at
// any thread count: scheduling decisions derive from counter-based draws
// and the deterministic event order, and all cross-device arithmetic
// happens on the aggregation thread in ascending device order.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/admm_device.hpp"
#include "core/autotune.hpp"
#include "core/distributed_plos.hpp"
#include "core/latency.hpp"
#include "data/dataset.hpp"
#include "net/simnet.hpp"
#include "obs/flight.hpp"

namespace plos::core {

/// Read-only server state handed to the on_aggregate observer after each
/// aggregation step. References are only valid inside the callback.
struct QuorumAggregateView {
  std::uint64_t aggregation_step;  ///< aggregates completed so far
  double virtual_seconds;          ///< virtual clock at this round's cut
  const linalg::Vector& w0;        ///< consensus after the update
  const std::vector<linalg::Vector>& w;  ///< per-user blocks (w_t)
};

struct QuorumAdmmOptions {
  DistributedPlosOptions base;
  /// Fraction of the fleet whose on-time uploads close a round, in (0, 1].
  /// The per-round target is max(1, ceil(quorum * num_users)); when fewer
  /// uploads than that can arrive (failures, busy devices) the round cuts
  /// at its last event instead. 1.0 restores the synchronous barrier.
  double quorum = 0.6;
  /// Max aggregation steps a server block's data may lag behind before the
  /// block is evicted. 0 is only meaningful fault-free (nothing ever ages).
  std::uint64_t staleness_bound = 3;
  /// Adapt per-device deadlines from the latency EWMA (core/latency.hpp).
  /// When false, no deadline applies at all.
  bool adaptive_deadline = true;
  LatencyModelSpec latency;
  /// Observability-driven controller (core/autotune.hpp): when enabled,
  /// `quorum` and `staleness_bound` above are only the starting point — the
  /// hysteresis rule walks both knobs per aggregation step from the
  /// journal's staleness sketch, and every decision lands in the journal's
  /// tuned_*/tune_* fields. Disabled by default: the configured values stay
  /// fixed and the journal's tune fields keep their defaults (which keeps
  /// quorum-1.0 journals byte-identical to the synchronous trainer's).
  AutoTuneConfig autotune;
  /// Borrowed flight recorder (obs/flight.hpp): when set, the engine logs
  /// the causal per-device lifecycle — upload attempt k with its
  /// retry/drop/corruption outcome, deadline misses, late folds with the
  /// staleness at fold, evictions with their cause, quorum cuts and
  /// aggregates — on the virtual clock, recorded on the aggregation thread
  /// so the log is byte-identical at any thread count. Null disables all
  /// recording (and the per-attempt transmit logs it needs).
  obs::FlightRecorder* flight = nullptr;
  /// Observer called on the aggregation thread after every server update
  /// (benches use it to track accuracy against the virtual clock). It must
  /// not feed anything back into training: the engine's FP sequence — and
  /// the determinism contract — do not depend on it.
  std::function<void(const QuorumAggregateView&)> on_aggregate;
};

/// Schedule-specific outcome, alongside the distributed diagnostics.
struct QuorumAdmmDiagnostics {
  /// Fresh (on-time, pre-cut) uploads aggregated per ADMM step.
  std::vector<std::uint64_t> quorum_trace;
  std::uint64_t late_uploads_total = 0;  ///< cached uploads folded in late
  std::uint64_t evictions_offline_total = 0;
  std::uint64_t evictions_late_total = 0;
  std::uint64_t evictions_failed_total = 0;
  std::uint64_t max_staleness_seen = 0;  ///< max block age at any aggregate
  /// Delivered broadcasts by dual path (DESIGN.md §9): the device replayed
  /// u_t from a fold code, or u_t travelled in full.
  std::uint64_t broadcasts_folded = 0;
  std::uint64_t broadcasts_explicit = 0;
  /// Auto-tune outcome (meaningful when options.autotune.enabled): knob
  /// values in force at the end of the run and the number of journaled
  /// controller actions (holds excluded).
  double final_quorum = 0.0;
  std::uint64_t final_staleness_bound = 0;
  std::uint64_t tune_actions = 0;
  /// Simulated wall-clock of the whole ADMM phase: the sum of round cut
  /// times. Under the synchronous schedule every round waits for its
  /// slowest device, so the quorum speedup is the ratio of this field
  /// between two runs.
  double virtual_seconds = 0.0;
};

struct QuorumAdmmResult {
  PersonalizedModel model;
  DistributedPlosDiagnostics diagnostics;
  QuorumAdmmDiagnostics async;
};

/// Relative term of the Eq. 24 thresholds in CCCP round c (inexact CCCP,
/// DESIGN.md §3): max(1e-2, 0.3·2⁻ᶜ), so 0.3 in round 0, halving each
/// round, and 1e-2 from round 5 on. The engine reads a term above 1e-2
/// only from an aggregate in which every block was refreshed since the
/// round began, and never for a stop that would end CCCP on its objective
/// tolerance.
double eq24_relative_term(int cccp_round);

/// Stop-rule sums of one server step, all over the unrelaxed per-block
/// residual r_t = w_t − v_t − w0 against the new consensus.
struct ServerUpdateSums {
  double primal_sq = 0.0;  ///< Σ ||r_t||²
  double w_sq = 0.0;       ///< Σ ||w_t||²
  double target_sq = 0.0;  ///< Σ ||w0 + v_t||²
  double u_sq = 0.0;       ///< Σ ||u_t||², after the dual step
};

/// The server's closed-form step (Eq. 23) over the cached blocks (w_t, v_t).
/// `w0` is the consensus broadcast this step on entry and the new one on
/// return; `u` holds the duals in force and is stepped in place. Blocks
/// with fresh[t] != 0 were refreshed this step; a non-empty late_w0[t]
/// marks a late-folded block and holds the consensus its device solved
/// against; every other block keeps its dual. When every block is fresh,
/// w_t − v_t is replaced by x̂_t = α(w_t − v_t) + (1 − α)·w0 (α =
/// kAdmmRelaxation) in the w0 sum and the dual step; any other step is
/// plain Eq. 23. Each block's dual moves by step_dual; when `folds` is set
/// it receives the step each block took (kUnchanged for none).
ServerUpdateSums admm_server_update(const std::vector<linalg::Vector>& w,
                                    const std::vector<linalg::Vector>& v,
                                    const std::vector<char>& fresh,
                                    const std::vector<linalg::Vector>& late_w0,
                                    double rho, linalg::Vector& w0,
                                    std::vector<linalg::Vector>& u,
                                    std::vector<DualFold>* folds = nullptr);

/// Trains distributed PLOS under the given schedule. Every exchange goes
/// through `network`'s transmit_* (which decides framing and retries from
/// its fault model), and completion times are built from the link seconds
/// and device profiles it reports. It must have one device per user.
QuorumAdmmResult train_quorum_admm(const data::MultiUserDataset& dataset,
                                   const QuorumAdmmOptions& options,
                                   net::SimNetwork& network);

}  // namespace plos::core
