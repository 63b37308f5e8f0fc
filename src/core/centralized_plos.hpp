// Centralized PLOS (paper §IV, Algorithm 1).
//
// Solves the joint personalization objective (Eq. 2/4) with:
//   * a CCCP outer loop that linearizes the non-convex |w_t·x| terms of
//     unlabeled samples at the previous iterate;
//   * a 1-slack cutting-plane loop per convex subproblem;
//   * the structured dual QP (Eq. 16) over all users' working sets, with
//     per-user capped-simplex constraints Σ_k γ_kt ≤ T/(2λ).
//
// The feature map Φ (Eq. 7) is never materialized. The dual Hessian is
// (λ/T)·S Sᵀ + blockdiag_t(S_t S_tᵀ) over the d-dimensional constraint
// vectors s, and only the per-user Grams S_t S_tᵀ are stored:
// qp::solve_block_sweeps solves one user's block exactly at a time, under
// a damped Newton method on w0 and in sweeps against the others held
// fixed, until a whole sweep changes nothing. The primal is recovered as
// v_t = z_t = Σ_{k∈t} γ s and w0 = (λ/T) Σ_t z_t.
#pragma once

#include <cstdint>
#include <vector>

#include "core/model.hpp"
#include "core/options.hpp"
#include "data/dataset.hpp"
#include "obs/journal.hpp"
#include "obs/watchdog.hpp"

namespace plos::core {

struct CentralizedPlosOptions {
  PlosHyperParams params;
  CuttingPlaneOptions cutting_plane;
  CccpOptions cccp;
  /// Initialization is fixed: w0 starts from a pooled linear SVM (C = 1) on
  /// all revealed labels, or from a random unit direction when nobody
  /// provides labels (PLOS then is pure maximum-margin clustering). The
  /// first-round CCCP signs of users with zero labels come from 2-means
  /// clustering of their own data (cluster_initial_signs) instead of
  /// sign(w0·x): the personal cluster structure is exactly what the
  /// unlabeled loss is meant to exploit, and this keeps the linearization
  /// from inheriting w0's systematic per-user errors.
  std::uint64_t seed = 99;  ///< cluster-init / no-label fallback randomness
  /// Worker threads for per-user separation and CCCP sign fitting (the dual
  /// solve is serial). 0 = all hardware threads, 1 = legacy serial.
  /// Results are bitwise identical for every value (see DESIGN.md §8).
  int num_threads = 1;
  /// Telemetry sinks, both optional and borrowed (caller owns, must
  /// outlive the call). The journal receives one RoundRecord per started
  /// CCCP round, appended on the aggregation thread in round order, so
  /// its serialized form is byte-identical at any thread count. The
  /// watchdog observes every record; under OnViolation::kAbort a
  /// violation stops training at the next round boundary (the best
  /// iterate so far is kept and diagnostics.watchdog_aborted is set).
  obs::Journal* journal = nullptr;
  obs::Watchdog* watchdog = nullptr;
};

struct PlosDiagnostics {
  std::vector<double> objective_trace;  ///< objective after each CCCP round
  int cccp_iterations = 0;
  int qp_solves = 0;       ///< dual QP solves, the SVM start's included
  int qp_unconverged = 0;  ///< of those, solves not converged
  std::size_t final_constraint_count = 0;
  double train_seconds = 0.0;
  /// Dual QP solves per *started* CCCP round, including a final round
  /// rejected by the descent safeguard (the journal's per-round qp_solves);
  /// round 0 counts the SVM start's.
  std::vector<int> round_qp_solves;
  /// True when the convergence watchdog aborted the run (see
  /// CentralizedPlosOptions::watchdog).
  bool watchdog_aborted = false;
};

struct CentralizedPlosResult {
  PersonalizedModel model;
  PlosDiagnostics diagnostics;
};

/// Trains on the dataset's revealed labels plus the structure of all
/// unlabeled samples. Deterministic for fixed options.
CentralizedPlosResult train_centralized_plos(
    const data::MultiUserDataset& dataset,
    const CentralizedPlosOptions& options = {});

/// The paper-scale objective (Eq. 3, outer minimization merged):
/// ||w0||² + (λ/T) Σ||v_t||² + Σ_t (Cl/m_t Σ hinge(y w·x) + Cu/m_t Σ
/// hinge(|w·x|)), hinge(m) = hinge_loss(m) = max(0, 1 − m). CCCP decreases
/// this monotonically; exposed for tests. The logistic trainer passes its
/// own `margin_loss` in place of hinge.
double hinge_loss(double margin);
double plos_objective(const data::MultiUserDataset& dataset,
                      const PersonalizedModel& model,
                      const PlosHyperParams& params,
                      double (*margin_loss)(double) = hinge_loss);

}  // namespace plos::core
