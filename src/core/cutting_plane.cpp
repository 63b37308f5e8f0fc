#include "core/cutting_plane.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "cluster/kmeans.hpp"
#include "common/assert.hpp"
#include "common/stopwatch.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "rng/engine.hpp"

namespace plos::core {

PlosUserContext PlosUserContext::from_user(const data::UserData& user) {
  PlosUserContext ctx;
  ctx.user = &user;
  ctx.labeled = user.revealed_indices();
  ctx.unlabeled = user.hidden_indices();
  return ctx;
}

std::vector<int> cccp_signs(const PlosUserContext& ctx,
                            std::span<const double> user_weights) {
  PLOS_CHECK(ctx.user != nullptr, "cccp_signs: null user");
  std::vector<int> signs;
  signs.reserve(ctx.unlabeled.size());
  for (std::size_t i : ctx.unlabeled) {
    const double value = linalg::dot(user_weights, ctx.user->samples[i]);
    signs.push_back(value >= 0.0 ? 1 : -1);
  }
  return signs;
}

LocalDeviationFit fit_local_deviation(const PlosUserContext& ctx,
                                      std::span<const int> signs,
                                      std::span<const double> global_weights,
                                      double lambda_over_t, double cl,
                                      double cu, double epsilon,
                                      int max_iterations) {
  PLOS_CHECK(ctx.user != nullptr, "fit_local_deviation: null user");
  PLOS_CHECK(lambda_over_t > 0.0,
             "fit_local_deviation: lambda_over_t must be positive");
  const double kappa = 1.0 / (2.0 * lambda_over_t);  // = T/(2λ)
  qp::SimplexBlock working_set(kappa);
  linalg::Vector shifted;
  ProxCuttingPlaneResult solved = solve_prox_cutting_planes(
      ctx, signs, cl, cu, global_weights, working_set, shifted, epsilon,
      max_iterations);

  // ρ→∞ limit of the device solve: v = κ z and w = w0 + v.
  const linalg::Vector v = linalg::scaled(working_set.z, kappa);
  LocalDeviationFit fit;
  fit.weights = std::move(solved.w);
  fit.objective = PLOS_CHECK_FINITE(lambda_over_t * linalg::squared_norm(v) +
                                    solved.xi);
  return fit;
}

namespace {

// Short local CCCP: alternate deviation fitting and re-signing. Returns the
// final signs and the final local objective.
std::pair<std::vector<int>, double> refine_signs_locally(
    const PlosUserContext& ctx, std::vector<int> signs,
    std::span<const double> global_weights, double lambda_over_t, double cl,
    double cu) {
  double objective = 0.0;
  for (int round = 0; round < 4; ++round) {
    const LocalDeviationFit fit =
        fit_local_deviation(ctx, signs, global_weights, lambda_over_t, cl, cu,
                            /*epsilon=*/1e-2, /*max_iterations=*/50);
    objective = fit.objective;
    std::vector<int> next = cccp_signs(ctx, fit.weights);
    if (next == signs) break;
    signs = std::move(next);
  }
  return {std::move(signs), objective};
}

}  // namespace

std::vector<int> cluster_initial_signs(const PlosUserContext& ctx,
                                       std::span<const double> user_weights,
                                       double lambda_over_t, double cl,
                                       double cu, std::uint64_t seed) {
  PLOS_CHECK(ctx.user != nullptr, "cluster_initial_signs: null user");
  PLOS_CHECK(ctx.labeled.empty(),
             "cluster_initial_signs: only for users without labels");
  if (ctx.unlabeled.empty()) return {};
  const std::vector<int> weight_signs = cccp_signs(ctx, user_weights);
  if (ctx.unlabeled.size() < 4) return weight_signs;

  std::vector<linalg::Vector> points;
  points.reserve(ctx.unlabeled.size());
  for (std::size_t i : ctx.unlabeled) points.push_back(ctx.user->samples[i]);
  rng::Engine engine(seed);
  const auto clusters = cluster::kmeans(points, 2, engine);

  std::vector<int> cluster_signs(ctx.unlabeled.size());
  int agreement = 0;  // cluster-0-positive convention vs current weights
  for (std::size_t k = 0; k < ctx.unlabeled.size(); ++k) {
    cluster_signs[k] = clusters.assignments[k] == 0 ? 1 : -1;
    agreement += (weight_signs[k] > 0) == (cluster_signs[k] > 0) ? 1 : -1;
  }
  if (agreement < 0) {
    for (int& s : cluster_signs) s = -s;
  }

  auto [refined_weight_signs, weight_score] = refine_signs_locally(
      ctx, weight_signs, user_weights, lambda_over_t, cl, cu);
  const bool one_sided =
      std::all_of(cluster_signs.begin(), cluster_signs.end(),
                  [&](int s) { return s == cluster_signs.front(); });
  if (one_sided) return refined_weight_signs;

  auto [refined_cluster_signs, cluster_score] = refine_signs_locally(
      ctx, std::move(cluster_signs), user_weights, lambda_over_t, cl, cu);
  return cluster_score < weight_score ? std::move(refined_cluster_signs)
                                      : std::move(refined_weight_signs);
}

std::vector<int> round_signs(const PlosUserContext& ctx,
                             std::span<const double> user_weights,
                             bool first_round, double lambda_over_t, double cl,
                             double cu, std::uint64_t seed) {
  if (first_round && ctx.labeled.empty()) {
    return cluster_initial_signs(ctx, user_weights, lambda_over_t, cl, cu,
                                 seed);
  }
  return cccp_signs(ctx, user_weights);
}

int run_cccp(const CccpOptions& options,
             const std::function<std::optional<double>(int, double)>& round) {
  double previous = std::numeric_limits<double>::infinity();
  for (int c = 0; c < options.max_iterations; ++c) {
    PLOS_SPAN("plos.cccp_round", "round", c);
    const std::optional<double> objective = round(c, previous);
    if (!objective ||
        (c > 0 && cccp_tolerance_met(options, previous, *objective))) {
      return c + 1;
    }
    previous = *objective;
  }
  return std::max(options.max_iterations, 0);
}

bool cccp_tolerance_met(const CccpOptions& options, double previous,
                        double objective) {
  return std::abs(previous - objective) <=
         options.objective_tolerance * (1.0 + std::abs(objective));
}

linalg::Vector random_unit_direction(std::size_t dim, std::uint64_t seed) {
  rng::Engine engine(seed);
  linalg::Vector w = engine.gaussian_vector(dim);
  const double n = linalg::norm(w);
  if (n > 0.0) linalg::scale(w, 1.0 / n);
  return w;
}

CuttingPlane most_violated_constraint(const PlosUserContext& ctx,
                                      std::span<const int> signs,
                                      std::span<const double> user_weights,
                                      double cl, double cu) {
  const Stopwatch watch;
  PLOS_CHECK(ctx.user != nullptr, "most_violated_constraint: null user");
  PLOS_CHECK(signs.size() == ctx.unlabeled.size(),
             "most_violated_constraint: signs/unlabeled size mismatch");
  const std::size_t m = ctx.num_samples();
  PLOS_CHECK(m > 0, "most_violated_constraint: user has no samples");

  CuttingPlane plane;
  plane.s = linalg::zeros(user_weights.size());
  std::size_t selected_labeled = 0;
  std::size_t selected_unlabeled = 0;

  for (std::size_t i : ctx.labeled) {
    const auto& x = ctx.user->samples[i];
    const double y = static_cast<double>(ctx.user->true_labels[i]);
    if (y * linalg::dot(user_weights, x) < 1.0) {
      linalg::axpy(cl * y, x, plane.s);
      ++selected_labeled;
    }
  }
  for (std::size_t k = 0; k < ctx.unlabeled.size(); ++k) {
    const auto& x = ctx.user->samples[ctx.unlabeled[k]];
    const double sign = static_cast<double>(signs[k]);
    if (sign * linalg::dot(user_weights, x) < 1.0) {
      linalg::axpy(cu * sign, x, plane.s);
      ++selected_unlabeled;
    }
  }

  const double inv_m = 1.0 / static_cast<double>(m);
  linalg::scale(plane.s, inv_m);
  plane.offset = inv_m * (cl * static_cast<double>(selected_labeled) +
                          cu * static_cast<double>(selected_unlabeled));

  static obs::Counter& separations =
      obs::metrics().counter("plos.cutting_plane.separations");
  static obs::Counter& seconds =
      obs::metrics().counter("plos.cutting_plane.separation_seconds");
  separations.increment();
  seconds.add(watch.elapsed_seconds());
  return plane;
}

double constraint_violation(const CuttingPlane& plane,
                            std::span<const double> user_weights, double xi) {
  return plane.offset - linalg::dot(plane.s, user_weights) - xi;
}

double optimal_slack(const qp::SimplexBlock& working_set,
                     std::span<const double> user_weights) {
  double xi = 0.0;
  for (std::size_t a = 0; a < working_set.planes.size(); ++a) {
    xi = std::max(xi, working_set.linear[a] -
                          linalg::dot(working_set.planes[a], user_weights));
  }
  // Slack non-negativity: ξ = max(0, violations) by construction; NaN plane
  // terms would poison the max silently, so re-assert in checked builds.
  PLOS_DCHECK(xi >= 0.0, "optimal_slack: negative or NaN slack " << xi);
  return xi;
}

void add_constraint(qp::SimplexBlock& working_set, CuttingPlane plane) {
  working_set.append(std::move(plane.s), plane.offset);
  static obs::Counter& constraints =
      obs::metrics().counter("plos.cutting_plane.constraints_added");
  constraints.increment();
}

std::optional<CuttingPlane> separate(const PlosUserContext& ctx,
                                     std::span<const int> signs,
                                     std::span<const double> user_weights,
                                     const qp::SimplexBlock& working_set,
                                     double cl, double cu, double epsilon) {
  CuttingPlane plane =
      most_violated_constraint(ctx, signs, user_weights, cl, cu);
  const double xi = optimal_slack(working_set, user_weights);
  if (constraint_violation(plane, user_weights, xi) <= epsilon) {
    return std::nullopt;
  }
  return plane;
}

linalg::Vector prox_primal(std::span<const double> center, double kappa,
                           std::span<const double> z) {
  linalg::Vector w(center.begin(), center.end());
  linalg::axpy(kappa, z, w);
  return w;
}

ProxCuttingPlaneResult solve_prox_cutting_planes(
    const PlosUserContext& ctx, std::span<const int> signs, double cl,
    double cu, std::span<const double> center, qp::SimplexBlock& working_set,
    linalg::Vector& shifted, double epsilon, int max_iterations) {
  const std::size_t dim = center.size();
  const double kappa = working_set.scale();
  ProxCuttingPlaneResult result;
  result.w.assign(center.begin(), center.end());
  if (working_set.planes.empty()) working_set.z.assign(dim, 0.0);
  if (ctx.num_samples() == 0) return result;

  const auto solve_dual = [&] {
    const qp::QpResult solved = qp::solve_simplex_qp(
        working_set.gram, shifted, /*cap=*/1.0, working_set.gamma);
    ++result.qp_solves;
    result.qp_pivots += solved.iterations;
    if (!solved.converged) ++result.qp_unconverged;
    working_set.gamma = solved.solution;
    working_set.refresh_z(dim);
    result.w = prox_primal(center, kappa, working_set.z);
  };

  // The planes depend only on the signs, but the center moved: re-derive
  // the shifted terms and re-solve over the planes already held before
  // looking for new violations. Within the call each appended plane adds
  // only its own term.
  shifted.resize(working_set.planes.size());
  for (std::size_t a = 0; a < shifted.size(); ++a) {
    shifted[a] =
        working_set.linear[a] - linalg::dot(working_set.planes[a], center);
  }
  if (!working_set.planes.empty()) solve_dual();

  for (int it = 0; it < max_iterations; ++it) {
    std::optional<CuttingPlane> plane =
        separate(ctx, signs, result.w, working_set, cl, cu, epsilon);
    if (!plane) break;
    shifted.push_back(plane->offset - linalg::dot(plane->s, center));
    add_constraint(working_set, std::move(*plane));
    solve_dual();
  }
  result.xi = optimal_slack(working_set, result.w);
  return result;
}

SvmFit fit_svm(const PlosUserContext& ctx, double c) {
  PLOS_CHECK(ctx.user != nullptr, "fit_svm: null user");
  PLOS_CHECK(c > 0.0, "fit_svm: C must be positive");
  SvmFit fit;
  if (ctx.labeled.empty()) return fit;
  const PlosUserContext labeled{ctx.user, ctx.labeled, {}};
  const double kappa = c * static_cast<double>(ctx.num_samples());
  qp::SimplexBlock working_set(kappa);
  linalg::Vector shifted;
  const linalg::Vector center =
      linalg::zeros(ctx.user->samples[ctx.labeled.front()].size());
  ProxCuttingPlaneResult solved = solve_prox_cutting_planes(
      labeled, {}, /*cl=*/1.0, /*cu=*/0.0, center, working_set, shifted,
      /*epsilon=*/0.0, kSvmMaxPlanes);

  fit.qp_solves = solved.qp_solves;
  fit.qp_pivots = solved.qp_pivots;
  // The loop adds one plane per step until the oracle stops it, so a full
  // budget means the budget ended it.
  const bool budget_spent =
      working_set.planes.size() == static_cast<std::size_t>(kSvmMaxPlanes);
  fit.qp_unconverged = solved.qp_unconverged + (budget_spent ? 1 : 0);
  // α_i = C·Σ_{a ∋ i} γ_a: Σα = κ·Σ_a γ_a b_a and Σ α_i y_i x_i = κ·z = w.
  fit.dual_objective = kappa * linalg::dot(working_set.gamma,
                                           working_set.linear) -
                       0.5 * linalg::squared_norm(solved.w);
  fit.weights = std::move(solved.w);

  static obs::Counter& fits = obs::metrics().counter("plos.svm.fits");
  static obs::Counter& inexact =
      obs::metrics().counter("plos.svm.inexact_fits");
  fits.increment();
  if (!fit.exact()) inexact.increment();
  return fit;
}

SvmFit fit_svm(std::vector<linalg::Vector> samples,
               std::span<const int> labels, double c) {
  PLOS_CHECK(samples.size() == labels.size(),
             "fit_svm: samples/labels size mismatch");
  for (int y : labels) {
    PLOS_CHECK(y == 1 || y == -1, "fit_svm: labels must be +/-1");
  }
  for (const linalg::Vector& x : samples) {
    PLOS_CHECK(x.size() == samples.front().size(), "fit_svm: ragged samples");
  }
  data::UserData user;
  user.samples = std::move(samples);
  user.true_labels.assign(labels.begin(), labels.end());
  user.revealed.assign(user.samples.size(), true);
  return fit_svm(PlosUserContext::from_user(user), c);
}

SvmFit initial_global_weights(const data::MultiUserDataset& dataset,
                              std::uint64_t seed) {
  PLOS_SPAN("plos.initial_weights");
  std::vector<linalg::Vector> xs;
  std::vector<int> ys;
  for (const auto& user : dataset.users) {
    for (std::size_t i : user.revealed_indices()) {
      xs.push_back(user.samples[i]);
      ys.push_back(user.true_labels[i]);
    }
  }
  if (!xs.empty()) return fit_svm(std::move(xs), ys, /*c=*/1.0);
  SvmFit start;
  start.weights = random_unit_direction(dataset.dim(), seed);
  return start;
}

}  // namespace plos::core
