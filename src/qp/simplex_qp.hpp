// Exact primal active-set solver for the single capped-simplex QP
//
//   minimize    f(γ) = ½ γᵀ H γ − cᵀ γ
//   subject to  γ ≥ 0,  Σ γ ≤ cap
//
// with H symmetric PSD (rank-deficient is fine). This is the dual of the
// distributed per-device problem (paper Eq. 22, cap 1) and of the local
// deviation fit behind the first-round CCCP signs. Those duals are tiny
// (a handful to a few dozen planes) and their H = κ·S Sᵀ is low-rank with
// near-collinear planes, which is where FISTA crawls; a few pivots of an
// active-set method solve them to rounding (DESIGN.md §13.5).
#pragma once

#include <span>

#include "linalg/matrix.hpp"
#include "qp/capped_simplex_qp.hpp"  // QpResult

namespace plos::qp {

/// Pivot budget of solve_simplex_qp. A solve that spends it returns its
/// current feasible iterate with converged == false.
inline constexpr int kSimplexQpMaxPivots = 500;

/// Solves the QP above. `warm_start` is empty (start from γ = 0) or holds
/// c.size() values; it is projected onto the feasible set before use. A warm
/// start that already passes the optimality test comes back unchanged, bit
/// for bit, after zero pivots. QpResult::iterations counts pivots.
QpResult solve_simplex_qp(const linalg::Matrix& h, std::span<const double> c,
                          double cap,
                          std::span<const double> warm_start = {});

}  // namespace plos::qp
