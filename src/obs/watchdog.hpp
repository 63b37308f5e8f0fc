// Convergence watchdog: online violation detection over the round journal.
//
// Federated-personalization loops fail in characteristic ways — a NaN in
// the objective from a blown-up QP, a dual QP that spends its budget
// without converging, a stall where rounds stop improving, outright
// divergence of the objective or the ADMM residuals, and (under fault
// injection) a participation collapse where most devices silently stop
// reaching the server. The watchdog is a policy object fed every
// RoundRecord as it is produced; it classifies and keeps violations,
// bumps `plos.watchdog.*` metrics, and — when configured with
// OnViolation::kAbort — tells the trainer to stop the run at the next safe
// point instead of burning rounds on a doomed trajectory. It writes
// nothing itself: callers render its result with watchdog_summary().
//
// Detection is purely a function of the observed record sequence, so a
// watchdogged run stays bitwise-deterministic at any thread count, and
// the same policies can be replayed offline over a journal file
// (`plos_inspect report` does exactly that).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/journal.hpp"

namespace plos::obs {

enum class WatchdogAction {
  kNone,   ///< record looked healthy
  kWarn,   ///< violation detected, training may continue
  kAbort,  ///< violation detected and policy says stop the run
};

enum class ViolationKind {
  kNonFinite,      ///< NaN/Inf objective or residual
  kStall,          ///< no objective improvement over stall_rounds records
  kDivergence,     ///< objective or residual growth beyond tolerance
  kParticipation,  ///< participation rate below floor for too many rounds
  kStaleness,      ///< max server-block staleness at/above ceiling too long
  kUnconverged,    ///< a QP solve of the step returned converged == false
};

const char* violation_kind_name(ViolationKind kind);

struct WatchdogViolation {
  ViolationKind kind;
  std::size_t record_index;  ///< 0-based index of the offending record
  std::string message;       ///< human-readable diagnostic
};

struct WatchdogConfig {
  enum class OnViolation { kWarn, kAbort };
  /// What a detected violation does to the run. Warn-only by default:
  /// telemetry must never change training behavior unless asked to.
  OnViolation on_violation = OnViolation::kWarn;

  /// Stall: no new best objective over this many consecutive records.
  /// 0 disables stall detection (ADMM objectives wiggle by design; enable
  /// per-experiment with a budget that fits the solver's horizon).
  int stall_rounds = 0;
  /// Relative improvement below this does not count as progress.
  double stall_tolerance = 1e-9;

  /// Divergence: objective exceeding divergence_factor * (1 + |best|)
  /// after at least one finite objective was seen. <= 0 disables.
  double divergence_factor = 100.0;
  /// Divergence of the ADMM primal residual relative to the best residual
  /// seen so far (growth by this factor). <= 0 disables.
  double residual_divergence_factor = 1e4;

  /// Participation collapse: participation_rate below the floor for
  /// participation_rounds consecutive records. Floor <= 0 disables.
  double participation_floor = 0.0;
  int participation_rounds = 3;

  /// Staleness collapse (async quorum engine): max_staleness at or above
  /// this ceiling for staleness_rounds consecutive records means the
  /// server keeps aggregating around the same dead blocks — the quorum is
  /// met by a fast subset while the rest of the fleet never lands an
  /// upload. 0 disables (the synchronous engine never evicts, so stale
  /// blocks there are ordinary non-participation). When a record carries a
  /// tuned_staleness_bound (> 0, from the --auto-tune controller), that
  /// per-record bound replaces this static ceiling — the watchdog follows
  /// the knob in force instead of false-firing while the bound widens.
  std::uint64_t staleness_ceiling = 0;
  int staleness_rounds = 3;
};

class Watchdog {
 public:
  explicit Watchdog(WatchdogConfig config = {});

  /// Feeds one record; returns the action the policy demands for it.
  /// Also bumps plos.watchdog.* metrics when a violation fires.
  WatchdogAction observe(const RoundRecord& record);

  const WatchdogConfig& config() const { return config_; }
  bool triggered() const { return !violations_.empty(); }
  /// True once a violation fired under OnViolation::kAbort; trainers poll
  /// this at round boundaries.
  bool should_abort() const { return abort_; }
  const std::vector<WatchdogViolation>& violations() const {
    return violations_;
  }
  std::size_t records_seen() const { return records_seen_; }

  /// "ok" (nothing fired), "warn" (violations, run completed), or
  /// "abort" (a violation stopped the run).
  const char* verdict() const;

 private:
  WatchdogAction report(ViolationKind kind, std::string message);

  WatchdogConfig config_;
  std::size_t records_seen_ = 0;
  bool abort_ = false;

  bool has_best_objective_ = false;
  double best_objective_ = 0.0;
  int records_since_improvement_ = 0;

  bool has_best_residual_ = false;
  double best_primal_residual_ = 0.0;

  int low_participation_streak_ = 0;
  int high_staleness_streak_ = 0;

  std::vector<WatchdogViolation> violations_;
};

/// The watchdog's result, rendered once for every caller (`plos_run` after
/// training, `plos_inspect report` for its replay):
/// "watchdog <verdict> (<n> violations)", then, once a violation fired,
/// `separator` and the first one as "record <i> <kind>: <detail>".
std::string watchdog_summary(const Watchdog& watchdog,
                             std::string_view separator);

/// Replays a journal through a fresh watchdog (for offline analysis of a
/// journal file); returns the watchdog in its final state.
Watchdog replay_watchdog(const std::vector<RoundRecord>& records,
                         const WatchdogConfig& config);

}  // namespace plos::obs
