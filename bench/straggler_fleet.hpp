// Chronic-straggler harness shared by ablations 9 and 10 (EXPERIMENTS.md
// A9, A10): one synthetic population, a fleet where 30% of the devices
// run on 6x-slower CPUs on every dispatch, compute-bound local solves,
// and the accuracy of the consensus model after every aggregation step
// against the virtual clock, from which time-to-accuracy is read.
#pragma once

#include <cstdint>
#include <vector>

#include "async/async_admm.hpp"
#include "data/dataset.hpp"

namespace plos::bench {

/// 20 rotated synthetic users, 60 points per class, labels revealed for
/// 10 spread providers at a 5% rate.
data::MultiUserDataset straggler_dataset();

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

struct AccuracySample {
  double virtual_seconds = 0.0;
  double accuracy = 0.0;
};

struct CaseOutcome {
  async::AsyncQuorumResult result;
  double accuracy = 0.0;
  /// Accuracy after every aggregation step, against the virtual clock.
  std::vector<AccuracySample> trace;
};

CaseOutcome run_quorum_case(const data::MultiUserDataset& dataset,
                            const QuorumCase& knobs);

/// Earliest virtual time at which the run enters the accuracy band
/// [target, 1] and never leaves it again. Infinity when it never settles.
double time_to_accuracy(const std::vector<AccuracySample>& trace,
                        double target);

}  // namespace plos::bench
