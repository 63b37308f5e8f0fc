// Convex QP over a product of capped simplices, solved with FISTA
// (accelerated projected gradient) plus adaptive restart.
//
// This is the dual shape of the centralized PLOS cutting-plane QP (paper
// Eq. 16): one group per user t with cap T/(2λ). Single-group duals (the
// distributed device QP of Eq. 22 and the local deviation fit) go to the
// exact active-set solver in qp/simplex_qp.hpp instead.
//
//   minimize    f(γ) = ½ γᵀ H γ − cᵀ γ
//   subject to  γ ≥ 0,  Σ_{k ∈ group g} γ_k ≤ cap_g  for every group g
//
// H must be symmetric PSD. Groups must partition {0, …, n−1}.
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"

namespace plos::qp {

struct CappedSimplexQpProblem {
  linalg::Matrix hessian;                        ///< H (n x n, symmetric PSD)
  linalg::Vector linear;                         ///< c (n)
  std::vector<std::vector<std::size_t>> groups;  ///< partition of indices
  linalg::Vector caps;                           ///< one cap per group
};

struct QpOptions {
  /// Stop when the norm of the projected-gradient step falls below this.
  double tolerance = 1e-9;
  int max_iterations = 5000;
  /// Optional warm start; projected onto the feasible set before use.
  /// Cutting-plane loops re-solve a growing problem, so passing the previous
  /// solution (padded with zeros for new variables) cuts iterations sharply.
  /// A warm start that already satisfies the convergence test is returned
  /// unchanged after zero iterations (see QpResult::iterations), which is
  /// what makes warm-started re-solves bitwise-idempotent.
  linalg::Vector warm_start;
};

struct QpResult {
  linalg::Vector solution;
  double objective = 0.0;  ///< f at the solution (minimization form)
  /// FISTA iterations, or active-set pivots for solve_simplex_qp; 0 = the
  /// (projected) warm start already passed.
  int iterations = 0;
  bool converged = false;
};

/// Validates the problem (shapes, group partition, caps) and solves it.
QpResult solve_capped_simplex_qp(const CappedSimplexQpProblem& problem,
                                 const QpOptions& options = {});

/// Max KKT violation of `gamma` for `problem`: feasibility violation plus
/// stationarity measured as the norm of the unit-step projected gradient.
/// Near-zero means near-optimal; used by tests and solver diagnostics.
double kkt_residual(const CappedSimplexQpProblem& problem,
                    std::span<const double> gamma);

}  // namespace plos::qp
