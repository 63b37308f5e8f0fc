// Journal-driven quorum/staleness auto-tuning for the quorum ADMM engine
// (core/quorum_admm.hpp).
//
// Instead of hand-tuned `--quorum` and
// `--staleness-bound` values, the controller reads the fleet staleness
// sketch the journal already carries (stale_p50/p90/p99 from
// StalenessLedger::fill_record) and walks both knobs toward the knee
// of the staleness/latency trade-off:
//
//   * a fleet whose staleness tail is comfortably inside the bound is
//     paying barrier time for freshness it does not need -> lower the
//     quorum one step (stragglers stop pacing the cut; their uploads fold
//     in late under the bound);
//   * a staleness tail at the bound means blocks are about to be evicted
//     wholesale -> double the bound (keep chronically late devices'
//     uploads usable), and once the bound is maxed out, raise the quorum
//     back (the fleet genuinely cannot keep up);
//   * a tail pinned at zero with a wide bound -> halve the bound back
//     (tight bounds keep the eviction safety net meaningful).
//
// The rule is a deterministic hysteresis: a signal must persist for two
// consecutive aggregation steps before acting, and every action is
// followed by one step of enforced hold — so one noisy round never flips a
// knob, and decisions are a pure function of the journal sequence (bitwise
// thread-count-independent, DESIGN.md §15). Every decision is journaled
// with the percentile value that triggered it. The walk's constants live
// in autotune.cpp.
#pragma once

#include <cstdint>

#include "obs/journal.hpp"

namespace plos::core {

struct AutoTuneConfig {
  bool enabled = false;
};

/// One observe() outcome: the knob values in force for the *next* step and
/// the action (if any) that moved them.
struct AutoTuneDecision {
  /// "", "hold" (signal pending, hysteresis not satisfied), "quorum_down",
  /// "quorum_up", "bound_widen", or "bound_tighten".
  const char* event = "";
  /// Percentile value that triggered the action (RoundRecord::kUnset when
  /// event is "" or "hold").
  double trigger = obs::RoundRecord::kUnset;
  double quorum = 0.0;
  std::uint64_t staleness_bound = 0;
};

/// Deterministic hysteresis controller (see file comment). Drive it on the
/// aggregation thread: observe() after each journal record is filled; the
/// returned knobs apply from the next aggregation step.
class AutoTuner {
 public:
  /// Starts from the configured knobs, clamped into the walk's range.
  AutoTuner(double initial_quorum, std::uint64_t initial_bound);

  double quorum() const { return quorum_; }
  std::uint64_t staleness_bound() const { return bound_; }

  /// Feeds one aggregation step's record (stale_p99 must be filled) and
  /// returns the decision for the next step.
  AutoTuneDecision observe(const obs::RoundRecord& record);

 private:
  double quorum_;
  std::uint64_t bound_;
  int cooldown_left_ = 0;
  int widen_streak_ = 0;
  int lower_streak_ = 0;
  int tighten_streak_ = 0;
};

}  // namespace plos::core
