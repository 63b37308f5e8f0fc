// Test support for qp::solve_block_sweeps: builds blocks from plain planes
// and forms the dense reference problem H = κ·S Sᵀ + blockdiag_t(S_t S_tᵀ)
// that the solver itself never forms, so qp::kkt_residual can check it.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "linalg/kernels.hpp"
#include "linalg/vector.hpp"
#include "qp/capped_simplex_qp.hpp"
#include "qp/simplex_qp.hpp"

namespace plos::qp::test_support {

/// One plane of a block under construction.
struct PlaneSpec {
  linalg::Vector s;
  double linear = 0.0;
  double gamma = 0.0;  ///< starting dual (0 = cold)
};

inline std::vector<SimplexBlock> make_blocks(
    const std::vector<std::vector<PlaneSpec>>& specs, double coupling) {
  std::vector<SimplexBlock> blocks(specs.size());
  for (std::size_t t = 0; t < specs.size(); ++t) {
    for (const PlaneSpec& plane : specs[t]) {
      blocks[t].append(plane.s, plane.linear, plane.gamma, coupling);
    }
  }
  return blocks;
}

/// The dense problem over every plane in block order; one group per
/// non-empty block.
inline CappedSimplexQpProblem dense_problem(
    std::span<const SimplexBlock> blocks, double coupling, double cap) {
  std::vector<const linalg::Vector*> planes;
  std::vector<std::size_t> owner;
  CappedSimplexQpProblem problem;
  for (std::size_t t = 0; t < blocks.size(); ++t) {
    if (blocks[t].planes.empty()) continue;
    problem.groups.emplace_back();
    problem.caps.push_back(cap);
    for (std::size_t a = 0; a < blocks[t].planes.size(); ++a) {
      problem.groups.back().push_back(planes.size());
      planes.push_back(&blocks[t].planes[a]);
      owner.push_back(t);
      problem.linear.push_back(blocks[t].linear[a]);
    }
  }
  const std::size_t n = planes.size();
  problem.hessian = linalg::Matrix(n, n);
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = 0; b < n; ++b) {
      const double scale = coupling + (owner[a] == owner[b] ? 1.0 : 0.0);
      problem.hessian(a, b) =
          scale * linalg::kernels::blocked_dot(*planes[a], *planes[b]);
    }
  }
  return problem;
}

/// Every block's γ, concatenated in block order (dense_problem's order).
inline linalg::Vector flat_gamma(std::span<const SimplexBlock> blocks) {
  linalg::Vector gamma;
  for (const SimplexBlock& block : blocks) {
    gamma.insert(gamma.end(), block.gamma.begin(), block.gamma.end());
  }
  return gamma;
}

/// f(γ) = ½ γᵀHγ − cᵀγ of the dense problem.
inline double dense_objective(const CappedSimplexQpProblem& problem,
                              std::span<const double> gamma) {
  const linalg::Vector hx = problem.hessian.matvec(gamma);
  return 0.5 * linalg::dot(gamma, hx) - linalg::dot(problem.linear, gamma);
}

}  // namespace plos::qp::test_support
