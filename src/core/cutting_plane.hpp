// Shared 1-slack cutting-plane machinery for both PLOS solvers.
//
// After the paper's reformulation (Eq. 4) each user contributes constraints
// indexed by subset-selection vectors c ∈ {0,1}^{m_t}. A constraint enters
// the optimization only through two derived quantities:
//
//   s_c = (1/m_t) [ Cl Σ_{labeled, c_i=1} y_i x_i
//                 + Cu Σ_{unlabeled, c_i=1} sign_i x_i ]      ∈ R^d
//   b_c = (1/m_t) [ Cl · #labeled selected + Cu · #unlabeled selected ]
//
// reading "w satisfies s_c·w ≥ b_c − ξ_t". sign_i is the CCCP linearization
// sign of the unlabeled point (fixed within one convex subproblem). The most
// violated constraint selects exactly the samples with margin < 1 (Eq. 14).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "core/options.hpp"
#include "data/dataset.hpp"
#include "linalg/vector.hpp"
#include "qp/simplex_qp.hpp"

namespace plos::core {

/// One cutting plane: the pair (s_c, b_c) above.
struct CuttingPlane {
  linalg::Vector s;
  double offset = 0.0;  ///< b_c
};

/// Per-user immutable view used by the PLOS solvers: index lists split by
/// label visibility, plus the revealed labels.
struct PlosUserContext {
  const data::UserData* user = nullptr;
  std::vector<std::size_t> labeled;    ///< indices with revealed labels
  std::vector<std::size_t> unlabeled;  ///< the rest

  std::size_t num_samples() const { return user->num_samples(); }

  static PlosUserContext from_user(const data::UserData& user);
};

/// CCCP linearization signs for one user's unlabeled samples:
/// sign_i = sign(w_t · x_i), with sign(0) = +1. Ordered as ctx.unlabeled.
std::vector<int> cccp_signs(const PlosUserContext& ctx,
                            std::span<const double> user_weights);

/// Result of fitting the personal deviation for one user with fixed signs:
/// min over (v, ξ) of (λ/T)||v||² + ξ subject to the user's 1-slack
/// constraints at w = w0 + v. This is user t's contribution to the PLOS
/// objective (Eq. 4) with w0 held fixed: solve_prox_cutting_planes around
/// w0 with κ = T/(2λ), the ρ→∞ limit of the device's Eq. 22.
struct LocalDeviationFit {
  linalg::Vector weights;  ///< w = w0 + v
  double objective = 0.0;  ///< (λ/T)||v||² + ξ
};

LocalDeviationFit fit_local_deviation(const PlosUserContext& ctx,
                                      std::span<const int> signs,
                                      std::span<const double> global_weights,
                                      double lambda_over_t, double cl,
                                      double cu, double epsilon,
                                      int max_iterations);

/// Initial CCCP signs for a user with NO labels, chosen by PLOS's own
/// objective. Two candidate assignments — the current weights' predictions
/// and a 2-means clustering of the user's data (polarity aligned with the
/// weights by majority vote) — are each refined by a short local CCCP
/// (alternate fit_local_deviation with re-signing) and scored by the final
/// local objective (λ/T)||v||² + ξ. The λ coupling arbitrates exactly as in
/// the global problem: a wide-margin split far from w0 wins only when its
/// margin gain outweighs the deviation penalty. Runs entirely on the
/// user's own data (device-local in the distributed setting).
std::vector<int> cluster_initial_signs(const PlosUserContext& ctx,
                                       std::span<const double> user_weights,
                                       double lambda_over_t, double cl,
                                       double cu, std::uint64_t seed);

/// The sign rule of every trainer at the start of a CCCP round:
/// cluster_initial_signs for a user without labels in the first round,
/// cccp_signs at the user's current weights otherwise.
std::vector<int> round_signs(const PlosUserContext& ctx,
                             std::span<const double> user_weights,
                             bool first_round, double lambda_over_t, double cl,
                             double cu, std::uint64_t seed);

/// The CCCP outer loop of all three trainers (Algorithms 1 and 2): calls
/// round(c, previous) for c = 0, 1, ... inside a "plos.cccp_round" span,
/// `previous` being the last round's objective (+∞ in round 0). A round
/// returns its objective, or nullopt to stop the loop at once. The loop
/// also stops after options.max_iterations rounds, or when |previous −
/// objective| ≤ tol·(1 + |objective|), which round 0 never meets. Returns
/// the number of rounds run.
int run_cccp(const CccpOptions& options,
             const std::function<std::optional<double>(int, double)>& round);

/// run_cccp's tolerance test: |previous − objective| ≤ tol·(1 + |objective|).
bool cccp_tolerance_met(const CccpOptions& options, double previous,
                        double objective);

/// Unit-norm Gaussian direction drawn from a fresh engine seeded with
/// `seed`: the symmetry-breaking start when nobody reveals a label, where
/// PLOS degenerates to maximum-margin clustering.
linalg::Vector random_unit_direction(std::size_t dim, std::uint64_t seed);


/// The most violated constraint (Eq. 14) for user `ctx` at weights `w`:
/// selects labeled samples with y_i (w·x_i) < 1 and unlabeled samples with
/// sign_i (w·x_i) < 1.
CuttingPlane most_violated_constraint(const PlosUserContext& ctx,
                                      std::span<const int> signs,
                                      std::span<const double> user_weights,
                                      double cl, double cu);

/// Violation b_c − s_c·w − ξ of a constraint at weights w with slack ξ.
double constraint_violation(const CuttingPlane& plane,
                            std::span<const double> user_weights, double xi);

/// Optimal slack of a working set at weights w, its linear terms read as
/// the plane offsets: ξ = max(0, max_{c ∈ Ω} b_c − s_c·w).
double optimal_slack(const qp::SimplexBlock& working_set,
                     std::span<const double> user_weights);

/// The separation step of every cutting-plane loop: the most violated
/// constraint at w (Eq. 14), unless it beats the working set's slack at w
/// by at most ε.
std::optional<CuttingPlane> separate(const PlosUserContext& ctx,
                                     std::span<const int> signs,
                                     std::span<const double> user_weights,
                                     const qp::SimplexBlock& working_set,
                                     double cl, double cu, double epsilon);

/// Appends `plane` to a working set at dual 0 and bumps
/// "plos.cutting_plane.constraints_added": the one grow site of both
/// trainers and the local fit.
void add_constraint(qp::SimplexBlock& working_set, CuttingPlane plane);

struct ProxCuttingPlaneResult {
  linalg::Vector w;        ///< center + κ·z, or center before any solve
  double xi = 0.0;         ///< optimal slack of the working set at w
  int qp_solves = 0;       ///< dual QP solves of this call
  int qp_pivots = 0;       ///< their summed active-set pivots
  int qp_unconverged = 0;  ///< of those solves, not converged
};

/// w = center + κ·z, the primal of the prox dual below. The server rebuilds
/// a device's w_t from its upload with it (core/admm_device).
linalg::Vector prox_primal(std::span<const double> center, double kappa,
                           std::span<const double> z);

/// The prox cutting-plane loop of the device solve (Eq. 22) and the local
/// fit: min ‖w − center‖²/(2κ) + ξ over the user's 1-slack constraints,
/// κ = working_set.scale(), through the capped-simplex dual
/// max Σγ_a (b_a − s_a·center) − ½κ‖z‖², z = Σγ_a s_a, γ ≥ 0, Σγ ≤ 1,
/// whose primal is w = center + κ·z. `shifted` lends storage for the terms
/// b_a − s_a·center, rewritten every call. A non-empty working set is
/// re-solved at the new center first; then the loop separates at w, stops
/// at ε or after `max_iterations` planes, else adds the plane and re-solves
/// from the previous γ. On return working_set.z holds z.
ProxCuttingPlaneResult solve_prox_cutting_planes(
    const PlosUserContext& ctx, std::span<const int> signs, double cl,
    double cu, std::span<const double> center, qp::SimplexBlock& working_set,
    linalg::Vector& shifted, double epsilon, int max_iterations);

/// Plane budget of fit_svm. The loop ends on its exact stop far below it
/// (about 20 planes for a pooled 20-user fit, DESIGN.md §3); a fit that
/// spends it is reported unconverged.
inline constexpr int kSvmMaxPlanes = 1000;

/// A linear L1-hinge SVM through the origin (append a constant-1 feature
/// for an affine one, see data::augment_bias).
struct SvmFit {
  linalg::Vector weights;  ///< w; empty when there is no labeled sample
  /// Σ_i α_i − ½‖w‖² at the final dual, α_i ∈ [0, C]: a lower bound on the
  /// optimum, so primal − dual_objective bounds the fit's objective gap.
  double dual_objective = 0.0;
  int qp_solves = 0;  ///< dual QP solves
  int qp_pivots = 0;  ///< their summed active-set pivots
  /// Unconverged dual solves, plus one when the plane budget ended the loop.
  int qp_unconverged = 0;

  /// Whether the loop ended on its exact stop with every dual solve
  /// converged.
  bool exact() const { return qp_unconverged == 0; }
};

/// min ½‖w‖² + C·Σ_{i ∈ ctx.labeled} max(0, 1 − y_i w·x_i), the unlabeled
/// samples ignored. The objective is κ times solve_prox_cutting_planes' at
/// center 0 with κ = C·m_t, Cl = 1 and no unlabeled term, so that loop
/// solves it with ε = 0: it stops once the oracle's most violated selection
/// is no more violated than the working set's slack. A selection already
/// in the working set is rebuilt bit for bit and always stops it, and there
/// are finitely many selections, so the stop is exact. Bumps
/// "plos.svm.fits", and "plos.svm.inexact_fits" when !exact().
SvmFit fit_svm(const PlosUserContext& ctx, double c);

/// fit_svm over `samples` with `labels` in {−1, +1}; C > 0 and the samples
/// share one dimension.
SvmFit fit_svm(std::vector<linalg::Vector> samples,
               std::span<const int> labels, double c);

/// The start of the centralized hinge and logistic trainers, inside a
/// "plos.initial_weights" span: fit_svm (C = 1) pooled over every revealed
/// label, or random_unit_direction(dataset.dim(), seed) without any solve
/// when there are none.
SvmFit initial_global_weights(const data::MultiUserDataset& dataset,
                              std::uint64_t seed);

}  // namespace plos::core
