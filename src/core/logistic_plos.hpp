// Logistic-loss PLOS — the paper's §VII future work ("extend the proposed
// framework to other machine learning models") implemented for logistic
// regression.
//
// The objective keeps the PLOS structure but swaps hinge losses for their
// smooth logistic counterparts:
//
//   ||w0||² + (λ/T) Σ_t ||v_t||²
//     + Σ_t (Cl/m_t) Σ_labeled  log(1 + exp(−y_i  w_t·x_i))
//     + Σ_t (Cu/m_t) Σ_unlabeled log(1 + exp(−|w_t·x_i|))
//
// The unlabeled "hat" loss log(1+e^{−|z|}) is non-convex; it admits the DC
// decomposition log(1+e^{|z|}) − |z|, and fixing s = sign(z₀) gives the
// majorizer log(1+e^{−s z}) (tight at z₀, an upper bound everywhere since
// s·z ≤ |z|). The CCCP outer loop therefore mirrors the hinge solver; each
// inner problem is smooth and convex and is minimized jointly over
// (w0, v_1, …, v_T) with L-BFGS instead of cutting planes + QP.
#pragma once

#include "core/centralized_plos.hpp"  // PersonalizedModel, PlosDiagnostics
#include "core/options.hpp"
#include "data/dataset.hpp"
#include "opt/lbfgs.hpp"

namespace plos::core {

struct LogisticPlosOptions {
  PlosHyperParams params;
  CccpOptions cccp;
  opt::LbfgsOptions lbfgs{300, 1e-6, 8, 1e-4, 0.5, 40};
  /// Same fixed initialization as the hinge trainer (pooled SVM, 2-means
  /// signs for users without labels); seeds the no-label fallback.
  std::uint64_t seed = 99;
};

struct LogisticPlosResult {
  PersonalizedModel model;
  PlosDiagnostics diagnostics;  ///< qp_solves counts L-BFGS runs here
};

LogisticPlosResult train_logistic_plos(const data::MultiUserDataset& dataset,
                                       const LogisticPlosOptions& options = {});

/// The non-convex objective above (used for CCCP monotonicity tests).
double logistic_plos_objective(const data::MultiUserDataset& dataset,
                               const PersonalizedModel& model,
                               const PlosHyperParams& params);

}  // namespace plos::core
