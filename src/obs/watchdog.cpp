#include "obs/watchdog.hpp"

#include <cmath>

#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace plos::obs {

namespace {

Counter& kind_counter(ViolationKind kind) {
  switch (kind) {
    case ViolationKind::kNonFinite:
      return metrics().counter("plos.watchdog.nonfinite");
    case ViolationKind::kStall:
      return metrics().counter("plos.watchdog.stall");
    case ViolationKind::kDivergence:
      return metrics().counter("plos.watchdog.divergence");
    case ViolationKind::kParticipation:
      return metrics().counter("plos.watchdog.participation");
    case ViolationKind::kStaleness:
      return metrics().counter("plos.watchdog.staleness");
    case ViolationKind::kUnconverged:
      return metrics().counter("plos.watchdog.unconverged");
  }
  return metrics().counter("plos.watchdog.unknown");  // unreachable
}

}  // namespace

const char* violation_kind_name(ViolationKind kind) {
  switch (kind) {
    case ViolationKind::kNonFinite:
      return "nonfinite";
    case ViolationKind::kStall:
      return "stall";
    case ViolationKind::kDivergence:
      return "divergence";
    case ViolationKind::kParticipation:
      return "participation";
    case ViolationKind::kStaleness:
      return "staleness";
    case ViolationKind::kUnconverged:
      return "unconverged";
  }
  return "unknown";
}

Watchdog::Watchdog(WatchdogConfig config) : config_(config) {}

WatchdogAction Watchdog::report(ViolationKind kind, std::string message) {
  kind_counter(kind).increment();
  metrics().counter("plos.watchdog.violations").increment();
  violations_.push_back({kind, records_seen_ - 1, std::move(message)});
  if (config_.on_violation == WatchdogConfig::OnViolation::kWarn) {
    return WatchdogAction::kWarn;
  }
  abort_ = true;
  return WatchdogAction::kAbort;
}

WatchdogAction Watchdog::observe(const RoundRecord& record) {
  ++records_seen_;
  WatchdogAction action = WatchdogAction::kNone;
  const auto escalate = [&action](WatchdogAction fired) {
    if (static_cast<int>(fired) > static_cast<int>(action)) action = fired;
  };

  // -- non-finite values ---------------------------------------------------
  // objective == NaN means either "field unset" (objective_finite stays
  // true) or a genuine blowup (trainer sets objective_finite = false); the
  // residuals have no such marker, so any produced non-finite residual is
  // treated as a blowup.
  const bool objective_blowup =
      !record.objective_finite || std::isinf(record.objective);
  const bool residual_blowup =
      (!std::isnan(record.primal_residual) &&
       !std::isfinite(record.primal_residual)) ||
      (!std::isnan(record.dual_residual) &&
       !std::isfinite(record.dual_residual));
  if (objective_blowup || residual_blowup) {
    escalate(report(ViolationKind::kNonFinite,
                    objective_blowup ? "objective is not finite"
                                     : "ADMM residual is not finite"));
  }

  // -- unconverged QP solves -------------------------------------------------
  // A solve that spent its budget returns a feasible but suboptimal dual, so
  // the step's model is not the one the cutting-plane loop certified.
  if (record.qp_unconverged > 0) {
    escalate(report(ViolationKind::kUnconverged,
                    std::to_string(record.qp_unconverged) + " of " +
                        std::to_string(record.qp_solves) +
                        " QP solves did not converge"));
  }

  const bool has_objective =
      record.objective_finite && std::isfinite(record.objective);

  // -- divergence ----------------------------------------------------------
  if (has_objective && config_.divergence_factor > 0.0 &&
      has_best_objective_ &&
      record.objective >
          config_.divergence_factor * (1.0 + std::abs(best_objective_))) {
    escalate(report(
        ViolationKind::kDivergence,
        "objective " + json::number(record.objective) + " exceeds " +
            json::number(config_.divergence_factor) + "x (1 + |best " +
            json::number(best_objective_) + "|)"));
  }
  if (std::isfinite(record.primal_residual) &&
      config_.residual_divergence_factor > 0.0) {
    if (has_best_residual_ &&
        record.primal_residual >
            config_.residual_divergence_factor *
                (best_primal_residual_ + 1e-300)) {
      escalate(report(ViolationKind::kDivergence,
                      "primal residual " +
                          json::number(record.primal_residual) + " grew " +
                          json::number(config_.residual_divergence_factor) +
                          "x beyond best " +
                          json::number(best_primal_residual_)));
    }
    if (!has_best_residual_ ||
        record.primal_residual < best_primal_residual_) {
      has_best_residual_ = true;
      best_primal_residual_ = record.primal_residual;
    }
  }

  // -- stall ---------------------------------------------------------------
  if (has_objective) {
    const bool improved =
        !has_best_objective_ ||
        record.objective <
            best_objective_ -
                config_.stall_tolerance * (1.0 + std::abs(best_objective_));
    if (improved) {
      has_best_objective_ = true;
      best_objective_ = record.objective;
      records_since_improvement_ = 0;
    } else {
      ++records_since_improvement_;
      if (config_.stall_rounds > 0 &&
          records_since_improvement_ >= config_.stall_rounds) {
        escalate(report(ViolationKind::kStall,
                        "no objective improvement over " +
                            std::to_string(records_since_improvement_) +
                            " records (best " +
                            json::number(best_objective_) + ")"));
        records_since_improvement_ = 0;  // re-arm instead of firing per round
      }
    }
  }

  // -- participation collapse ----------------------------------------------
  if (config_.participation_floor > 0.0 &&
      !std::isnan(record.participation_rate)) {
    if (record.participation_rate < config_.participation_floor) {
      ++low_participation_streak_;
      if (low_participation_streak_ >= config_.participation_rounds) {
        escalate(report(
            ViolationKind::kParticipation,
            "participation " + json::number(record.participation_rate) +
                " below floor " + json::number(config_.participation_floor) +
                " for " + std::to_string(low_participation_streak_) +
                " consecutive records"));
        low_participation_streak_ = 0;  // re-arm
      }
    } else {
      low_participation_streak_ = 0;
    }
  }

  // -- staleness collapse ----------------------------------------------------
  if (config_.staleness_ceiling > 0) {
    // Under --auto-tune the controller may legitimately widen the staleness
    // bound past a statically configured ceiling; the journaled tuned bound
    // overrides the static value so the watchdog tracks the knob that is
    // actually in force instead of false-firing mid-widen.
    const std::uint64_t ceiling = record.tuned_staleness_bound > 0
                                      ? record.tuned_staleness_bound
                                      : config_.staleness_ceiling;
    if (record.max_staleness >= ceiling) {
      ++high_staleness_streak_;
      if (high_staleness_streak_ >= config_.staleness_rounds) {
        escalate(report(
            ViolationKind::kStaleness,
            "max staleness " + std::to_string(record.max_staleness) +
                " at or above ceiling " + std::to_string(ceiling) + " for " +
                std::to_string(high_staleness_streak_) +
                " consecutive records"));
        high_staleness_streak_ = 0;  // re-arm
      }
    } else {
      high_staleness_streak_ = 0;
    }
  }
  return action;
}

const char* Watchdog::verdict() const {
  if (abort_) return "abort";
  return violations_.empty() ? "ok" : "warn";
}

std::string watchdog_summary(const Watchdog& watchdog,
                             std::string_view separator) {
  std::string out = std::string("watchdog ") + watchdog.verdict() + " (" +
                    std::to_string(watchdog.violations().size()) +
                    " violations)";
  if (watchdog.triggered()) {
    const WatchdogViolation& first = watchdog.violations().front();
    out += separator;
    out += "record " + std::to_string(first.record_index) + " " +
           violation_kind_name(first.kind) + ": " + first.message;
  }
  return out;
}

Watchdog replay_watchdog(const std::vector<RoundRecord>& records,
                         const WatchdogConfig& config) {
  Watchdog watchdog(config);
  for (const RoundRecord& record : records) {
    watchdog.observe(record);
    if (watchdog.should_abort()) break;
  }
  return watchdog;
}

}  // namespace plos::obs
