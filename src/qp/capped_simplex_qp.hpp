// Dense reference form of a convex QP over a product of capped simplices,
// and its KKT residual: the checker the solver tests measure against.
//
//   minimize    f(γ) = ½ γᵀ H γ − cᵀ γ
//   subject to  γ ≥ 0,  Σ_{k ∈ group g} γ_k ≤ cap_g  for every group g
//
// H must be symmetric PSD. Groups must partition {0, …, n−1}. The solvers
// themselves live in qp/simplex_qp.hpp and never form H densely across
// groups.
#pragma once

#include <cstddef>
#include <span>
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

/// Validates the problem (shapes, group partition, caps) and returns the
/// max KKT violation of `gamma`: feasibility violation plus stationarity
/// measured as the norm of the unit-step projected gradient. Near-zero
/// means near-optimal.
double kkt_residual(const CappedSimplexQpProblem& problem,
                    std::span<const double> gamma);

}  // namespace plos::qp
