#include "qp/capped_simplex_qp.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"
#include "linalg/kernels.hpp"
#include "qp/projection.hpp"

namespace plos::qp {

namespace {

void validate(const CappedSimplexQpProblem& p) {
  const std::size_t n = p.linear.size();
  PLOS_CHECK(p.hessian.rows() == n && p.hessian.cols() == n,
             "CappedSimplexQp: hessian/linear size mismatch");
  PLOS_CHECK(p.groups.size() == p.caps.size(),
             "CappedSimplexQp: groups/caps size mismatch");
  std::vector<char> seen(n, 0);
  for (const auto& g : p.groups) {
    PLOS_CHECK(!g.empty(), "CappedSimplexQp: empty group");
    for (std::size_t idx : g) {
      PLOS_CHECK(idx < n, "CappedSimplexQp: group index out of range");
      PLOS_CHECK(!seen[idx], "CappedSimplexQp: groups must be disjoint");
      seen[idx] = 1;
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    PLOS_CHECK(seen[i], "CappedSimplexQp: groups must cover all indices");
  }
  for (double cap : p.caps) {
    PLOS_CHECK(cap >= 0.0, "CappedSimplexQp: negative cap");
  }
}

// Projects x onto the product of the groups' capped simplices, one group
// at a time: the feasible set is a product over groups, so projection
// decomposes exactly.
void project_groups(const CappedSimplexQpProblem& p, linalg::Vector& x) {
  linalg::Vector block;
  for (std::size_t g = 0; g < p.groups.size(); ++g) {
    const auto& idx = p.groups[g];
    block.resize(idx.size());
    for (std::size_t k = 0; k < idx.size(); ++k) block[k] = x[idx[k]];
    project_capped_simplex(block, p.caps[g]);
    for (std::size_t k = 0; k < idx.size(); ++k) x[idx[k]] = block[k];
  }
}

}  // namespace

double kkt_residual(const CappedSimplexQpProblem& problem,
                    std::span<const double> gamma) {
  validate(problem);
  PLOS_CHECK(gamma.size() == problem.linear.size(),
             "kkt_residual: gamma size mismatch");

  double feasibility = 0.0;
  for (double v : gamma) feasibility = std::max(feasibility, -v);
  for (std::size_t g = 0; g < problem.groups.size(); ++g) {
    const double s =
        linalg::kernels::serial_gather_sum(gamma, problem.groups[g]);
    feasibility = std::max(feasibility, s - problem.caps[g]);
  }

  // Stationarity on a convex set: x is optimal iff x == P(x - grad(x)).
  linalg::Vector probe(gamma.begin(), gamma.end());
  linalg::Vector grad = problem.hessian.matvec(gamma);
  linalg::axpy(-1.0, problem.linear, grad);
  linalg::axpy(-1.0, grad, probe);
  project_groups(problem, probe);
  linalg::Vector x(gamma.begin(), gamma.end());
  const double stationarity = std::sqrt(linalg::squared_distance(probe, x));

  return std::max(feasibility, stationarity);
}

}  // namespace plos::qp
