#include "linalg/cholesky.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"

namespace plos::linalg {

std::optional<Matrix> cholesky(const Matrix& a) {
  PLOS_CHECK(a.rows() == a.cols(), "cholesky: matrix must be square");
  const std::size_t n = a.rows();
  // Checked-build precondition: the factorization only reads the lower
  // triangle, so an asymmetric input silently factors the wrong matrix.
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const double scale = std::max({1.0, std::abs(a(i, j)), std::abs(a(j, i))});
      PLOS_DCHECK(std::abs(a(i, j) - a(j, i)) <= 1e-9 * scale,
                  "cholesky: asymmetric input at (" << i << "," << j << "): "
                                                    << a(i, j) << " vs "
                                                    << a(j, i));
    }
  }
  Matrix l(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    double d = a(j, j);
    for (std::size_t k = 0; k < j; ++k) d -= l(j, k) * l(j, k);
    if (d <= 0.0 || !std::isfinite(d)) return std::nullopt;
    l(j, j) = std::sqrt(d);
    for (std::size_t i = j + 1; i < n; ++i) {
      double s = a(i, j);
      for (std::size_t k = 0; k < j; ++k) s -= l(i, k) * l(j, k);
      l(i, j) = s / l(j, j);
    }
  }
  return l;
}

}  // namespace plos::linalg
