// Euclidean projections onto the feasible sets used by the PLOS QP duals.
#pragma once

#include <span>

#include "linalg/vector.hpp"

namespace plos::qp {

/// In-place projection of x onto { v : v >= 0, sum(v) <= cap }.
///
/// If clipping negatives already satisfies the cap the clipped point is the
/// projection; otherwise the point is projected onto the simplex
/// { v >= 0, sum(v) = cap } with the sort-based threshold method
/// (Held/Wolfe/Crowder). cap must be >= 0.
void project_capped_simplex(std::span<double> x, double cap);

/// Same projection, bit for bit, with a caller-owned sort buffer: once
/// `scratch` has capacity for x.size() values the call does not allocate,
/// which is what keeps the block sweeps of qp/simplex_qp.hpp heap-free.
void project_capped_simplex(std::span<double> x, double cap,
                            linalg::Vector& scratch);

/// Shaves the excess off the largest coordinate (first index on ties) until
/// the left-to-right sum of x — the one the projection's feasibility check
/// uses — is <= cap. For a non-negative x whose sum is a few ulps over cap
/// this is the whole repair; every other coordinate keeps its bits.
void shave_to_cap(std::span<double> x, double cap);

}  // namespace plos::qp
