// Cholesky factorization.
//
// Used by the multivariate-normal sampler to factor covariances. The QP
// solvers factor their own small systems in place (qp/simplex_qp).
#pragma once

#include <optional>

#include "linalg/matrix.hpp"

namespace plos::linalg {

/// Lower-triangular Cholesky factor L with A = L L^T.
/// Returns std::nullopt when A is not (numerically) positive definite.
std::optional<Matrix> cholesky(const Matrix& a);

}  // namespace plos::linalg
