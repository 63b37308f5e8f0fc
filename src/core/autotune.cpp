#include "core/autotune.hpp"

#include <algorithm>
#include <cmath>

namespace plos::core {

namespace {

/// Quorum fraction bounds and step of the hysteresis walk.
constexpr double kMinQuorum = 0.5;
constexpr double kMaxQuorum = 1.0;
constexpr double kQuorumStep = 0.1;
/// Staleness-bound bounds; the bound moves by doubling/halving.
constexpr std::uint64_t kMinBound = 2;
constexpr std::uint64_t kMaxBound = 64;
/// Consecutive steps a signal must persist before the controller acts.
constexpr int kPatience = 2;
/// Steps of enforced hold after every action. One step is enough for the
/// next aggregate to reflect the new knobs (the streak counters keep
/// accruing through the hold, so a persistent signal is not forgotten);
/// longer holds mostly stretch the transient on straggler fleets
/// (bench/abl10_autotune).
constexpr int kCooldown = 1;
/// Widen the bound when stale_p99 >= kWidenFraction * bound.
constexpr double kWidenFraction = 0.75;

}  // namespace

AutoTuner::AutoTuner(double initial_quorum, std::uint64_t initial_bound)
    : quorum_(std::clamp(initial_quorum, kMinQuorum, kMaxQuorum)),
      bound_(std::clamp(initial_bound, kMinBound, kMaxBound)) {}

AutoTuneDecision AutoTuner::observe(const obs::RoundRecord& record) {
  AutoTuneDecision decision;
  decision.quorum = quorum_;
  decision.staleness_bound = bound_;
  const double p99 = record.stale_p99;
  if (std::isnan(p99)) return decision;  // no sketch in the record

  // Streaks update every step, including during cooldown — a persistent
  // signal keeps its evidence while the hold expires. All comparisons are
  // exact FP against journaled values, so the walk is bitwise-reproducible
  // from the journal alone.
  const double bound = static_cast<double>(bound_);
  const bool widen_signal = p99 >= kWidenFraction * bound;
  // The tail fits in half the bound: the cut is fresher than it needs to
  // be, so stop paying barrier time for it.
  const bool lower_signal = !widen_signal && 2.0 * p99 <= bound;
  // The tail fits in a quarter of the bound: the eviction net is slack.
  const bool tighten_signal = !widen_signal && 4.0 * p99 <= bound;
  widen_streak_ = widen_signal ? widen_streak_ + 1 : 0;
  lower_streak_ = lower_signal ? lower_streak_ + 1 : 0;
  tighten_streak_ = tighten_signal ? tighten_streak_ + 1 : 0;

  if (cooldown_left_ > 0) {
    --cooldown_left_;
    decision.event = "hold";
    return decision;
  }

  const auto act = [&](const char* event, double trigger) {
    decision.event = event;
    decision.trigger = trigger;
    decision.quorum = quorum_;
    decision.staleness_bound = bound_;
    cooldown_left_ = kCooldown;
    widen_streak_ = 0;
    lower_streak_ = 0;
    tighten_streak_ = 0;
  };

  // Priority: protect blocks from wholesale eviction first, then chase
  // the cheaper cut, then reel the bound back in.
  if (widen_streak_ >= kPatience) {
    if (bound_ < kMaxBound) {
      bound_ = std::min(bound_ * 2, kMaxBound);
      act("bound_widen", p99);
    } else if (quorum_ < kMaxQuorum) {
      // Bound maxed out and the tail still grows: the fleet cannot keep
      // up with the cut pace — wait for more of it.
      quorum_ = std::min(quorum_ + kQuorumStep, kMaxQuorum);
      act("quorum_up", p99);
    }
    return decision;
  }
  if (lower_streak_ >= kPatience && quorum_ > kMinQuorum) {
    quorum_ = std::max(quorum_ - kQuorumStep, kMinQuorum);
    act("quorum_down", p99);
    return decision;
  }
  if (tighten_streak_ >= kPatience && bound_ > kMinBound &&
      quorum_ <= kMinQuorum) {
    // Only tighten once the quorum walk has settled: halving the bound
    // mid-descent would evict the very blocks the descent makes late.
    bound_ = std::max(bound_ / 2, kMinBound);
    act("bound_tighten", p99);
    return decision;
  }
  return decision;
}

}  // namespace plos::core
