// Test support for the QP solvers: the dense reference form of a convex QP
// over a product of capped simplices and its KKT residual (the checker the
// solver tests measure against), helpers that build qp::solve_block_sweeps
// blocks from plain planes and form the dense problem
// H = κ·S Sᵀ + blockdiag_t(S_t S_tᵀ) that the solver itself never forms,
// and a sweep-only Gauss–Seidel reference without the Newton phase.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "linalg/kernels.hpp"
#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"
#include "qp/projection.hpp"
#include "qp/simplex_qp.hpp"

namespace plos::qp::test_support {

/// minimize    f(γ) = ½ γᵀ H γ − cᵀ γ
/// subject to  γ ≥ 0,  Σ_{k ∈ group g} γ_k ≤ cap_g  for every group g
///
/// H must be symmetric PSD. Groups must partition {0, …, n−1}.
struct CappedSimplexQpProblem {
  linalg::Matrix hessian;                        ///< H (n x n, symmetric PSD)
  linalg::Vector linear;                         ///< c (n)
  std::vector<std::vector<std::size_t>> groups;  ///< partition of indices
  linalg::Vector caps;                           ///< one cap per group
};

/// Projects x onto the product of the groups' capped simplices, one group
/// at a time: the feasible set is a product over groups, so projection
/// decomposes exactly.
inline void project_groups(const CappedSimplexQpProblem& p,
                           linalg::Vector& x) {
  linalg::Vector block;
  for (std::size_t g = 0; g < p.groups.size(); ++g) {
    const auto& idx = p.groups[g];
    block.resize(idx.size());
    for (std::size_t k = 0; k < idx.size(); ++k) block[k] = x[idx[k]];
    project_capped_simplex(block, p.caps[g]);
    for (std::size_t k = 0; k < idx.size(); ++k) x[idx[k]] = block[k];
  }
}

/// Validates the problem (shapes, group partition, caps) and returns the
/// max KKT violation of `gamma`: feasibility violation plus stationarity
/// measured as the norm of the unit-step projected gradient. Near-zero
/// means near-optimal.
inline double kkt_residual(const CappedSimplexQpProblem& problem,
                           std::span<const double> gamma) {
  const std::size_t n = problem.linear.size();
  PLOS_CHECK(problem.hessian.rows() == n && problem.hessian.cols() == n,
             "CappedSimplexQp: hessian/linear size mismatch");
  PLOS_CHECK(problem.groups.size() == problem.caps.size(),
             "CappedSimplexQp: groups/caps size mismatch");
  std::vector<char> seen(n, 0);
  for (const auto& g : problem.groups) {
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
  for (double cap : problem.caps) {
    PLOS_CHECK(cap >= 0.0, "CappedSimplexQp: negative cap");
  }
  PLOS_CHECK(gamma.size() == n, "kkt_residual: gamma size mismatch");

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

/// One plane of a block under construction.
struct PlaneSpec {
  linalg::Vector s;
  double linear = 0.0;
  double gamma = 0.0;  ///< starting dual (0 = cold)
};

inline std::vector<SimplexBlock> make_blocks(
    const std::vector<std::vector<PlaneSpec>>& specs) {
  std::vector<SimplexBlock> blocks(specs.size());
  for (std::size_t t = 0; t < specs.size(); ++t) {
    for (const PlaneSpec& plane : specs[t]) {
      blocks[t].append(plane.s, plane.linear);
      blocks[t].gamma.back() = plane.gamma;
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

struct SweepOnlyResult {
  double objective = 0.0;
  int sweeps = 0;
  bool converged = false;
};

/// Gauss–Seidel over the blocks, each solved exactly by
/// qp::solve_simplex_qp, with no Newton phase: the road solve_block_sweeps
/// shortens. Block t solves min ½(κ+1)·γᵀG_tγ − (c_t − S_t·u)ᵀγ with
/// u = κ·Σ_{t'≠t} z_t', warm-started at its γ; the dual has converged when
/// a whole sweep makes no pivot and moves no γ by a single bit. Updates
/// every block's γ and z in place.
inline SweepOnlyResult solve_sweeps_only(std::span<SimplexBlock> blocks,
                                         double coupling, double cap) {
  std::size_t dim = 0;
  for (const SimplexBlock& block : blocks) {
    if (!block.planes.empty()) dim = block.planes.front().size();
  }
  const auto refresh_z = [dim](SimplexBlock& block) {
    block.z.assign(dim, 0.0);
    for (std::size_t a = 0; a < block.planes.size(); ++a) {
      linalg::axpy(block.gamma[a], block.planes[a], block.z);
    }
  };
  std::vector<linalg::Matrix> hessians;
  for (SimplexBlock& block : blocks) {
    linalg::Matrix h = block.gram;
    for (std::size_t i = 0; i < h.rows(); ++i) {
      for (std::size_t j = 0; j < h.cols(); ++j) h(i, j) *= coupling + 1.0;
    }
    hessians.push_back(std::move(h));
    refresh_z(block);
  }
  SweepOnlyResult result;
  linalg::Vector total(dim);
  linalg::Vector u(dim);
  while (!result.converged && result.sweeps < kMaxBlockSweeps) {
    ++result.sweeps;
    std::fill(total.begin(), total.end(), 0.0);
    for (const SimplexBlock& block : blocks) linalg::axpy(1.0, block.z, total);
    bool passed = true;
    for (std::size_t t = 0; t < blocks.size(); ++t) {
      SimplexBlock& block = blocks[t];
      if (block.planes.empty()) continue;
      for (std::size_t j = 0; j < dim; ++j) {
        u[j] = coupling * (total[j] - block.z[j]);
      }
      linalg::Vector linear(block.planes.size());
      for (std::size_t a = 0; a < linear.size(); ++a) {
        linear[a] = block.linear[a] - linalg::dot(block.planes[a], u);
      }
      const QpResult solved =
          solve_simplex_qp(hessians[t], linear, cap, block.gamma);
      if (solved.iterations > 0 || !solved.converged) passed = false;
      if (!std::equal(solved.solution.begin(), solved.solution.end(),
                      block.gamma.begin(), [](double x, double y) {
                        return std::bit_cast<std::uint64_t>(x) ==
                               std::bit_cast<std::uint64_t>(y);
                      })) {
        passed = false;
        linalg::axpy(-1.0, block.z, total);
        block.gamma = solved.solution;
        refresh_z(block);
        linalg::axpy(1.0, block.z, total);
      }
    }
    result.converged = passed;
  }
  // f(γ) = ½ (κ‖Σ_t z_t‖² + Σ_t ‖z_t‖²) − Σ_t c_tᵀ γ_t.
  std::fill(total.begin(), total.end(), 0.0);
  double quadratic = 0.0;
  double linear_term = 0.0;
  for (const SimplexBlock& block : blocks) {
    linalg::axpy(1.0, block.z, total);
    quadratic += linalg::dot(block.z, block.z);
    linear_term += linalg::dot(block.linear, block.gamma);
  }
  quadratic += coupling * linalg::dot(total, total);
  result.objective = 0.5 * quadratic - linear_term;
  return result;
}

}  // namespace plos::qp::test_support
