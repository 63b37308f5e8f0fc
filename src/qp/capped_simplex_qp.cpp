#include "qp/capped_simplex_qp.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/assert.hpp"
#include "common/stopwatch.hpp"
#include "linalg/kernels.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
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

// Caller-owned buffers for project_groups: the gathered group and the
// projection's sort buffer. Reserved for the widest group up front, so
// projecting inside the FISTA loop never touches the heap.
struct ProjectionScratch {
  linalg::Vector block;
  linalg::Vector sorted;

  explicit ProjectionScratch(const CappedSimplexQpProblem& p) {
    std::size_t widest = 0;
    for (const auto& g : p.groups) widest = std::max(widest, g.size());
    block.reserve(widest);
    sorted.reserve(widest);
  }
};

void project_groups(const CappedSimplexQpProblem& p, linalg::Vector& x,
                    ProjectionScratch& scratch) {
  // Gather/scatter per group; the feasible set is a product over groups so
  // projection decomposes exactly.
  linalg::Vector& block = scratch.block;
  for (std::size_t g = 0; g < p.groups.size(); ++g) {
    const auto& idx = p.groups[g];
    block.resize(idx.size());
    for (std::size_t k = 0; k < idx.size(); ++k) block[k] = x[idx[k]];
    project_capped_simplex(block, p.caps[g], scratch.sorted);
    for (std::size_t k = 0; k < idx.size(); ++k) x[idx[k]] = block[k];
  }
}

// f(x) = ½ xᵀHx − cᵀx from a precomputed hx = H·x.
double objective_from(const CappedSimplexQpProblem& p,
                      std::span<const double> x, std::span<const double> hx) {
  return 0.5 * linalg::dot(x, hx) - linalg::dot(p.linear, x);
}

// Power-iteration overestimate of λmax(H), the gradient Lipschitz constant
// FISTA steps against (a loose overestimate only slows convergence, so a
// handful of iterations with a safety factor is enough). Adds its H·v
// products to `matvecs`.
double lipschitz_estimate(const linalg::Matrix& h, std::size_t& matvecs) {
  const std::size_t n = h.rows();
  linalg::Vector v(n, 1.0 / std::sqrt(static_cast<double>(n)));
  linalg::Vector hv(n);
  double lambda = 0.0;
  for (int it = 0; it < 30; ++it) {
    h.matvec_into(v, hv);
    ++matvecs;
    const double nrm = linalg::norm(hv);
    if (nrm <= 1e-300) return 1e-12;  // H ~ 0: any small constant works
    lambda = nrm;
    linalg::scale(hv, 1.0 / nrm);
    std::swap(v, hv);
  }
  return 1.1 * lambda + 1e-12;
}

}  // namespace

QpResult solve_capped_simplex_qp(const CappedSimplexQpProblem& problem,
                                 const QpOptions& options) {
  PLOS_SPAN("qp.capped_simplex_solve");
  const Stopwatch watch;
  validate(problem);
  const std::size_t n = problem.linear.size();

  QpResult result;
  if (n == 0) {
    result.converged = true;
    return result;
  }

  static obs::Counter& warm_hits =
      obs::metrics().counter("qp.capped_simplex.warm_hits");
  std::size_t matvecs = 0;  // every H·x of this solve, power iteration too
  const double step = 1.0 / lipschitz_estimate(problem.hessian, matvecs);

  // Every buffer the loop touches is sized here; the loop body itself does
  // no heap allocation (DESIGN.md §13.4).
  ProjectionScratch scratch(problem);
  linalg::Vector x(n, 0.0);
  if (!options.warm_start.empty()) {
    PLOS_CHECK(options.warm_start.size() == n,
               "CappedSimplexQp: warm start size mismatch");
    x = options.warm_start;
  }
  project_groups(problem, x, scratch);
  linalg::Vector y = x;       // FISTA extrapolation point
  linalg::Vector x_prev = x;
  linalg::Vector x_next(n);
  linalg::Vector hx(n);       // H·x_next, shared by pg and f_next
  linalg::Vector pg(n);       // ∇f(x_next)
  linalg::Vector grad_y(n);   // ∇f(y)
  linalg::Vector probe(n);
  double momentum = 1.0;      // FISTA t_k sequence

  // f(x) and ∇f(x) share one H·x. Since y == x, that gradient is also
  // iteration 0's ∇f(y).
  problem.hessian.matvec_into(x, hx);
  ++matvecs;
  double f_prev = objective_from(problem, x, hx);
  grad_y = hx;
  linalg::axpy(-1.0, problem.linear, grad_y);
  bool grad_y_current = true;

  // Iteration-0 convergence test: when the projected warm start already
  // satisfies the stopping rule it is returned unchanged, so re-solving
  // from a converged solution is bitwise-idempotent (the property-test
  // suite pins this) and late ADMM iterations whose working set and prox
  // center barely moved skip the FISTA loop entirely.
  {
    probe = x;
    linalg::axpy(-step, grad_y, probe);
    project_groups(problem, probe, scratch);
    const double pg_step0 = std::sqrt(linalg::squared_distance(probe, x)) /
                            std::max(step, 1e-300);
    if (pg_step0 <= options.tolerance * (1.0 + std::abs(f_prev))) {
      result.converged = true;
      if (!options.warm_start.empty()) warm_hits.increment();
    }
  }

  for (int it = 0; !result.converged && it < options.max_iterations; ++it) {
    if (!grad_y_current) {
      problem.hessian.matvec_into(y, grad_y);
      ++matvecs;
      linalg::axpy(-1.0, problem.linear, grad_y);
    }
    x_next = y;
    linalg::axpy(-step, grad_y, x_next);
    project_groups(problem, x_next, scratch);

    // Convergence: projected-gradient step measured at the new iterate.
    // The same H·x_next yields the gradient and the objective.
    problem.hessian.matvec_into(x_next, hx);
    ++matvecs;
    pg = hx;
    linalg::axpy(-1.0, problem.linear, pg);
    probe = x_next;
    linalg::axpy(-step, pg, probe);
    project_groups(problem, probe, scratch);
    const double pg_step = std::sqrt(linalg::squared_distance(probe, x_next)) /
                           std::max(step, 1e-300);

    const double f_next = objective_from(problem, x_next, hx);
    // Adaptive restart (O'Donoghue & Candès): drop momentum on non-descent.
    if (f_next > f_prev) {
      momentum = 1.0;
      y = x_next;
      // y == x_next, so the next ∇f(y) is the pg just computed.
      std::swap(grad_y, pg);
      grad_y_current = true;
    } else {
      const double momentum_next =
          0.5 * (1.0 + std::sqrt(1.0 + 4.0 * momentum * momentum));
      const double beta = (momentum - 1.0) / momentum_next;
      y = x_next;
      for (std::size_t i = 0; i < n; ++i) y[i] += beta * (x_next[i] - x_prev[i]);
      momentum = momentum_next;
      grad_y_current = false;
    }
    // x_prev ← x ← x_next; the stale buffer left in x_next is overwritten
    // at the top of the next iteration.
    std::swap(x_prev, x);
    std::swap(x, x_next);
    f_prev = f_next;
    result.iterations = it + 1;

    if (pg_step <= options.tolerance * (1.0 + std::abs(f_next))) {
      result.converged = true;
      break;
    }
  }

  result.solution = std::move(x);
  // f_prev is f at the returned iterate, computed by the same sequence a
  // fresh objective evaluation would run.
  result.objective = PLOS_CHECK_FINITE(f_prev);

  // Checked-build postcondition: the iterate is (numerically) inside the
  // capped simplex — dual feasibility of the recovered multipliers.
  for (std::size_t i = 0; i < n; ++i) {
    PLOS_DCHECK(result.solution[i] >= -1e-9,
                "CappedSimplexQp: negative multiplier gamma[" << i << "]="
                                                             << result.solution[i]);
  }
  for (std::size_t g = 0; g < problem.groups.size(); ++g) {
    const double sum =
        linalg::kernels::serial_gather_sum(result.solution, problem.groups[g]);
    PLOS_DCHECK(sum <= problem.caps[g] + 1e-9 * (1.0 + problem.caps[g]),
                "CappedSimplexQp: group " << g << " sum " << sum
                                          << " exceeds cap " << problem.caps[g]);
  }

  // Instrument handles are resolved once; the registry is a process-lifetime
  // singleton, so the cached references never dangle across reset_values().
  static obs::Counter& solves = obs::metrics().counter("qp.capped_simplex.solves");
  static obs::Counter& seconds =
      obs::metrics().counter("qp.capped_simplex.seconds");
  static obs::Histogram& iterations = obs::metrics().histogram(
      "qp.capped_simplex.iterations", obs::default_iteration_buckets());
  static obs::Counter& matvec_count =
      obs::metrics().counter("qp.capped_simplex.matvecs");
  static obs::Counter& unconverged =
      obs::metrics().counter("qp.capped_simplex.unconverged");
  solves.increment();
  seconds.add(watch.elapsed_seconds());
  iterations.record(static_cast<double>(result.iterations));
  matvec_count.add(static_cast<double>(matvecs));
  if (!result.converged) unconverged.increment();
  return result;
}

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
  ProjectionScratch scratch(problem);
  project_groups(problem, probe, scratch);
  linalg::Vector x(gamma.begin(), gamma.end());
  const double stationarity = std::sqrt(linalg::squared_distance(probe, x));

  return std::max(feasibility, stationarity);
}

}  // namespace plos::qp
