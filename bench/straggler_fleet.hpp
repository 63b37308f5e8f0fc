// Chronic-straggler harness shared by ablations 9 and 10 (EXPERIMENTS.md
// A9, A10): one synthetic population, a fleet where 30% of the devices
// run on 6x-slower CPUs on every dispatch, compute-bound local solves,
// and the accuracy of the consensus model after every aggregation step
// against the virtual clock, from which time-to-accuracy is read.
#pragma once

#include <cstdint>

#include "async/async_admm.hpp"
#include "data/dataset.hpp"

namespace plos::bench {

/// 20 rotated synthetic users, 60 points per class, labels revealed for
/// 10 spread providers at a 5% rate.
data::MultiUserDataset straggler_dataset();

/// Accuracy band every case's time-to-accuracy is read against: one point
/// below the barrier's final accuracy (0.794, 1906 of 2400 samples) when
/// the band was frozen. A fixed number, so a change to one case's schedule
/// moves that case's tta alone, never the other rows'.
inline constexpr double kBarrierBand = 0.784;

/// Knobs of one async quorum run. The defaults are the synchronous
/// barrier: a quorum of 1.0 waits for every device and nothing is ever
/// late or evicted.
struct QuorumCase {
  double quorum = 1.0;
  std::uint64_t staleness_bound = 1u << 20;
  bool adaptive_deadline = false;
  bool auto_tune = false;
  bool stragglers = true;  ///< devices t with t % 10 < 3 are 6x slower
};

struct CaseOutcome {
  async::AsyncQuorumResult result;
  double accuracy = 0.0;
  /// Time-to-accuracy: the earliest virtual time at which the consensus
  /// model's accuracy, read after every aggregation step, enters
  /// [kBarrierBand, 1] and never leaves it. Infinity when it never
  /// settles.
  double tta = 0.0;
};

CaseOutcome run_quorum_case(const data::MultiUserDataset& dataset,
                            const QuorumCase& knobs);

}  // namespace plos::bench
