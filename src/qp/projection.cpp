#include "qp/projection.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/assert.hpp"
#include "linalg/kernels.hpp"

namespace plos::qp {

void project_capped_simplex(std::span<double> x, double cap) {
  linalg::Vector scratch;
  project_capped_simplex(x, cap, scratch);
}

void project_capped_simplex(std::span<double> x, double cap,
                            linalg::Vector& scratch) {
  PLOS_CHECK(cap >= 0.0, "project_capped_simplex: negative cap");
  for (double& v : x) {
    if (v < 0.0) v = 0.0;
  }
  // Same left-to-right add order as the fused clamp-and-sum loop this
  // replaces: clamping only rewrites elements before any is added.
  const double clipped_sum = linalg::kernels::serial_sum(x);
  // A NaN or infinite coordinate would make the ulp-shaving loop below spin
  // forever (NaN fails both of its exit tests), so reject it here.
  PLOS_CHECK(std::isfinite(clipped_sum),
             "project_capped_simplex: non-finite input sum " << clipped_sum);
  if (clipped_sum <= cap) return;

  // Project onto { v >= 0, sum(v) = cap }: find theta such that
  // sum_i max(x_i - theta, 0) = cap, via descending sort.
  linalg::Vector& u = scratch;
  u.assign(x.begin(), x.end());
  std::sort(u.begin(), u.end(), std::greater<double>());
  double running = 0.0;
  double theta = 0.0;
  for (std::size_t k = 0; k < u.size(); ++k) {
    running += u[k];
    const double candidate = (running - cap) / static_cast<double>(k + 1);
    if (k + 1 == u.size() || u[k + 1] <= candidate) {
      theta = candidate;
      break;
    }
  }
  for (double& v : x) v = std::max(v - theta, 0.0);

  // The threshold step can leave the floating-point sum a few ulps ABOVE
  // cap, and a re-projection of such a point would re-enter this branch and
  // drift every coordinate by an ulp. The shave's post-condition makes the
  // projection bitwise idempotent: a second application hits the early
  // return and touches nothing.
  shave_to_cap(x, cap);
}

void shave_to_cap(std::span<double> x, double cap) {
  for (;;) {
    const double sum = linalg::kernels::serial_sum(x);
    PLOS_CHECK(std::isfinite(sum), "shave_to_cap: non-finite sum " << sum);
    if (sum <= cap) break;
    std::size_t arg = 0;
    for (std::size_t i = 1; i < x.size(); ++i) {
      if (x[i] > x[arg]) arg = i;
    }
    double shaved = x[arg] - (sum - cap);
    // Guarantee strict progress even when the excess rounds away.
    if (!(shaved < x[arg])) shaved = std::nextafter(x[arg], 0.0);
    x[arg] = std::max(shaved, 0.0);
  }
}

}  // namespace plos::qp
