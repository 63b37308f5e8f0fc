// Round journal: append-only per-round time series of a training run.
//
// Both trainers emit one RoundRecord per optimization step — the
// centralized trainer per CCCP round, the distributed trainer per ADMM
// iteration — carrying the convergence state (objective, ADMM residuals),
// work counters (cutting planes in force, QP solves/iterations), and the
// communication picture (participation rate, bytes and fault counters from
// the simulated network). Records are appended on the aggregation thread
// in loop order, and every field derives from the deterministic solver
// state or the integer-exact network ledgers — never from measured wall
// time — so for a fixed seed the serialized journal is byte-identical at
// any thread count (the DESIGN.md §8 contract extended to telemetry).
//
// Serialization is JSON Lines: one self-describing object per record, so
// a journal can be tailed, truncated, or streamed and stays parseable.
// Unset fields (e.g. ADMM residuals in a centralized run) serialize as
// null; numerically non-finite values also serialize as null but keep a
// "finite":false marker so NaN blowups survive the round-trip visibly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace plos::obs {

struct RoundRecord {
  static constexpr double kUnset = std::numeric_limits<double>::quiet_NaN();

  std::string trainer;      ///< "centralized" | "distributed"
  int cccp_round = 0;       ///< outer CCCP round index, 0-based
  int admm_iteration = -1;  ///< within-round ADMM index; -1 for centralized

  double objective = kUnset;
  double primal_residual = kUnset;  ///< distributed only
  double dual_residual = kUnset;    ///< distributed only
  /// Relative term of Eq. 24's stop test in force this step (distributed
  /// only): above 1e-2 in the loose early CCCP rounds (DESIGN.md §3).
  double eq24_rel = kUnset;

  std::size_t constraints = 0;  ///< cutting planes in force after the step
  int qp_solves = 0;            ///< dual QP solves performed by the step
  int qp_iterations = 0;        ///< summed QP iterations/pivots of the step
  int qp_unconverged = 0;       ///< of the step's solves, not converged

  double participation_rate = kUnset;  ///< distributed only
  std::uint64_t bytes_to_devices = 0;  ///< downlink bytes this step
  std::uint64_t bytes_to_server = 0;   ///< uplink bytes this step
  std::uint64_t messages_dropped = 0;  ///< fault-injected losses this step
  std::uint64_t retries = 0;           ///< retransmissions this step

  // Aggregation freshness (distributed trainers; zeros for centralized).
  // The synchronous schedule reports quorum_size == participants and
  // never evicts; the asynchronous quorum schedule fills all of them.
  std::uint64_t quorum_size = 0;   ///< fresh uploads aggregated this step
  std::uint64_t late_uploads = 0;  ///< cached late uploads folded this step
  std::uint64_t evictions_offline = 0;  ///< stale blocks reset: device offline
  std::uint64_t evictions_late = 0;     ///< stale blocks reset: straggling/busy
  std::uint64_t evictions_failed = 0;   ///< stale blocks reset: link failures
  std::uint64_t max_staleness = 0;      ///< oldest server block age (rounds)
  /// Per-block age histogram at aggregation time (last bucket open-ended);
  /// empty for trainers without server-side caching (centralized).
  std::vector<std::uint64_t> staleness_hist;

  // Fleet distribution summaries (obs::QuantileSketch, DESIGN.md §15):
  // O(buckets) aggregates replacing any O(users) journal rows, filled on
  // the aggregation thread so they are byte-identical at any thread count.
  /// Staleness quantiles over all server blocks at aggregation time, from
  /// the same ledger pass that fills staleness_hist (unset when the
  /// trainer has no server-side caching).
  double stale_p50 = kUnset;
  double stale_p90 = kUnset;
  double stale_p99 = kUnset;
  /// On-air messages charged this step (the latency sample count).
  std::uint64_t lat_count = 0;
  /// Per-message link-latency quantiles this step, from SimNetwork's
  /// cumulative sketch delta (unset when no network or no messages).
  double lat_p50 = kUnset;
  double lat_p90 = kUnset;
  double lat_p99 = kUnset;
  /// Device-outcome tally for the step, indexed by core::DeviceRoundStatus
  /// (participated, unavailable, offline, ...). One count per device —
  /// the fleet participation distribution. Empty for centralized runs.
  std::vector<std::uint64_t> cause_counts;

  // Auto-tune decision trail (async engine with --auto-tune; defaults
  // elsewhere, which keeps degenerate-mode journals byte-identical).
  /// Quorum fraction in force for the step (unset without auto-tune).
  double tuned_quorum = kUnset;
  /// Staleness bound in force for the step (0 without auto-tune).
  std::uint64_t tuned_staleness_bound = 0;
  /// Controller action this step: "" (none), "hold", "quorum_down",
  /// "quorum_up", "bound_widen", "bound_tighten".
  std::string tune_event;
  /// The percentile value that triggered the action (unset when none).
  double tune_trigger = kUnset;

  /// True when the optional double fields were actually produced but came
  /// out non-finite (they serialize as null either way; this flag keeps
  /// the distinction).  Maintained by record_to_json/parse.
  bool objective_finite = true;
};

/// Serializes one record as a compact single-line JSON object (no trailing
/// newline).
std::string record_to_json(const RoundRecord& record);

/// Thread-safe append-only record collector with JSONL export.
class Journal {
 public:
  /// Round-downsampling for long runs (`plos_run --journal-every N`):
  /// keep every n-th offered record, starting with the first. Only whole
  /// aggregation-boundary records are dropped — kept records are byte-
  /// identical to an undownsampled run's. Default 1 keeps everything.
  void set_every(std::uint64_t n);
  std::uint64_t every() const;

  /// Records offered to append(), including downsampled-away ones.
  std::uint64_t offered() const;

  void append(const RoundRecord& record);

  std::size_t size() const;
  bool empty() const { return size() == 0; }
  /// Copy of all records in append order.
  std::vector<RoundRecord> records() const;

  /// All records as JSON Lines (each line newline-terminated).
  std::string to_jsonl() const;

 private:
  mutable std::mutex mutex_;
  std::uint64_t every_ = 1;
  std::uint64_t offered_ = 0;
  std::vector<RoundRecord> records_;
};

/// Parses a JSONL journal back into records. Blank lines are skipped.
/// Returns false (and sets `error` when non-null) on the first malformed
/// line; `out` then holds the records parsed so far.
bool parse_journal_jsonl(std::string_view text, std::vector<RoundRecord>& out,
                         std::string* error = nullptr);

}  // namespace plos::obs
