#include "core/centralized_plos.hpp"

#include <cmath>
#include <optional>
#include <utility>

#include "common/assert.hpp"
#include "common/stopwatch.hpp"
#include "core/cutting_plane.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"
#include "qp/simplex_qp.hpp"

namespace plos::core {

namespace {

// One convex subproblem (Algorithm 1, step 3): the cutting-plane loop over
// the joint dual (Eq. 16), held as one qp::SimplexBlock per user — the
// user's planes, offsets, block Gram and duals; a new constraint enters its
// user's block at dual 0. The blocks live for this call: no solver state
// outlives a CCCP round (DESIGN.md §13). Every dual solve recovers (w0,
// v_t) into `model`. Returns the summed dual pivots.
int solve_subproblem(parallel::ThreadPool& pool,
                     const std::vector<PlosUserContext>& contexts,
                     const std::vector<std::vector<int>>& signs,
                     const CentralizedPlosOptions& options,
                     PersonalizedModel& model, PlosDiagnostics& diagnostics) {
  const std::size_t num_users = contexts.size();
  const double lambda_over_t =
      options.params.lambda / static_cast<double>(num_users);
  std::vector<qp::SimplexBlock> blocks(num_users);
  // The subproblem starts from the empty working set's optimum w' = 0
  // (every sample violates its margin there), so the cutting-plane loop
  // genuinely optimizes the PLOS objective instead of merely certifying
  // the init — an SVM init that happens to satisfy all margins must not
  // short-circuit training.
  std::vector<linalg::Vector> weights(
      num_users, linalg::zeros(model.global_weights.size()));
  int pivots = 0;

  // Per-iteration separation results, one slot per user so the parallel
  // oracle writes race-free and the ordered reduction below adds accepted
  // constraints in ascending user order — the exact serial sequence.
  std::vector<CuttingPlane> separated(num_users);
  std::vector<char> violated(num_users, 0);

  for (int it = 0; it < options.cutting_plane.max_iterations; ++it) {
    PLOS_SPAN("plos.cutting_plane_iteration", "iteration", it);
    // Separation oracle (Eq. 12): one most-violated constraint per user,
    // embarrassingly parallel — a user's plane, s_kt statistics, and
    // slack depend only on their own working set and weights, never on
    // constraints other users add within the same iteration.
    {
      PLOS_SPAN("plos.separation");
      pool.parallel_for(num_users, [&](std::size_t t) {
        violated[t] = 0;
        if (contexts[t].num_samples() == 0) return;
        std::optional<CuttingPlane> plane =
            separate(contexts[t], signs[t], weights[t], blocks[t],
                     options.params.cl, options.params.cu,
                     options.cutting_plane.epsilon);
        if (plane) {
          separated[t] = std::move(*plane);
          violated[t] = 1;
        }
      });
    }
    bool added = false;
    for (std::size_t t = 0; t < num_users; ++t) {
      if (!violated[t]) continue;
      add_constraint(blocks[t], std::move(separated[t]));
      added = true;
    }
    if (!added) break;

    {
      PLOS_SPAN("plos.dual_solve");
      const qp::BlockSweepResult solved = qp::solve_block_sweeps(
          blocks, lambda_over_t,
          static_cast<double>(num_users) / (2.0 * options.params.lambda));
      pivots += solved.pivots;
      if (!solved.converged) ++diagnostics.qp_unconverged;
      // v_t = z_t = Σ_{a∈t} γ_a s_a and w0 = (λ/T) Σ_t z_t.
      model.global_weights = linalg::zeros(model.global_weights.size());
      for (std::size_t t = 0; t < num_users; ++t) {
        model.user_deviations[t] = blocks[t].z;
        linalg::axpy(1.0, blocks[t].z, model.global_weights);
      }
      linalg::scale(model.global_weights, lambda_over_t);
    }
    ++diagnostics.qp_solves;
    pool.parallel_for(num_users, [&](std::size_t t) {
      weights[t] = model.user_weights(t);
    });
  }
  diagnostics.final_constraint_count = 0;
  for (const qp::SimplexBlock& block : blocks) {
    diagnostics.final_constraint_count += block.planes.size();
  }
  return pivots;
}

}  // namespace

double hinge_loss(double margin) { return std::max(0.0, 1.0 - margin); }

double plos_objective(const data::MultiUserDataset& dataset,
                      const PersonalizedModel& model,
                      const PlosHyperParams& params,
                      double (*margin_loss)(double)) {
  const std::size_t num_users = dataset.num_users();
  PLOS_CHECK(model.num_users() == num_users, "plos_objective: user mismatch");
  double objective = linalg::squared_norm(model.global_weights);
  for (std::size_t t = 0; t < num_users; ++t) {
    objective += params.lambda / static_cast<double>(num_users) *
                 linalg::squared_norm(model.user_deviations[t]);
    const auto& user = dataset.users[t];
    if (user.num_samples() == 0) continue;
    const linalg::Vector w = model.user_weights(t);
    double labeled_loss = 0.0;
    double unlabeled_loss = 0.0;
    for (std::size_t i = 0; i < user.num_samples(); ++i) {
      const double value = linalg::dot(w, user.samples[i]);
      if (user.revealed[i]) {
        const double label = static_cast<double>(user.true_labels[i]);
        labeled_loss += margin_loss(label * value);
      } else {
        unlabeled_loss += margin_loss(std::abs(value));
      }
    }
    objective += (params.cl * labeled_loss + params.cu * unlabeled_loss) /
                 static_cast<double>(user.num_samples());
  }
  return objective;
}

CentralizedPlosResult train_centralized_plos(
    const data::MultiUserDataset& dataset,
    const CentralizedPlosOptions& options) {
  dataset.check_invariants();
  const std::size_t num_users = dataset.num_users();
  const std::size_t dim = dataset.dim();
  PLOS_CHECK(num_users > 0, "train_centralized_plos: no users");
  PLOS_CHECK(dim > 0, "train_centralized_plos: empty dataset");
  PLOS_CHECK(options.params.lambda > 0.0,
             "train_centralized_plos: lambda must be positive");

  PLOS_SPAN("plos.centralized_train");
  parallel::ThreadPool pool(options.num_threads);
  const Stopwatch watch;
  CentralizedPlosResult result;
  result.model = PersonalizedModel::zeros(num_users, dim);
  SvmFit start = initial_global_weights(dataset, options.seed);
  result.model.global_weights = std::move(start.weights);
  // Round 0's record counts the start's solves with its own.
  result.diagnostics.qp_solves = start.qp_solves;
  result.diagnostics.qp_unconverged = start.qp_unconverged;

  std::vector<PlosUserContext> contexts;
  contexts.reserve(num_users);
  for (const auto& user : dataset.users) {
    contexts.push_back(PlosUserContext::from_user(user));
  }

  const auto cccp_round = [&](int cccp, double previous_objective)
      -> std::optional<double> {
    const int round_qp_solves_before =
        cccp == 0 ? 0 : result.diagnostics.qp_solves;
    const int round_qp_unconverged_before =
        cccp == 0 ? 0 : result.diagnostics.qp_unconverged;

    // Fix the CCCP linearization signs at the current iterate. Each user's
    // signs depend only on their own data, weights, and a per-user seed, so
    // the loop parallelizes with no cross-user state.
    std::vector<std::vector<int>> signs(num_users);
    {
      PLOS_SPAN("plos.sign_fit");
      pool.parallel_for(num_users, [&](std::size_t t) {
        signs[t] = round_signs(
            contexts[t], result.model.user_weights(t), cccp == 0,
            options.params.lambda / static_cast<double>(num_users),
            options.params.cl, options.params.cu, options.seed + t);
      });
    }

    // Fresh working sets per convex subproblem. The iterate above only
    // fixed the CCCP signs; it is kept for the rollback below.
    PersonalizedModel previous_model =
        std::exchange(result.model, PersonalizedModel::zeros(num_users, dim));
    const int round_qp_iterations =
        solve_subproblem(pool, contexts, signs, options, result.model,
                         result.diagnostics) +
        (cccp == 0 ? start.qp_pivots : 0);

    const double objective =
        plos_objective(dataset, result.model, options.params);
    result.diagnostics.round_qp_solves.push_back(
        result.diagnostics.qp_solves - round_qp_solves_before);
    // Telemetry: one journal record per started round — including a round
    // the descent safeguard rejects below, since the rejected objective is
    // exactly what convergence analysis and the watchdog need to see. All
    // record fields are deterministic solver state, so the journal is
    // byte-identical at any thread count.
    bool aborted = false;
    if (options.journal != nullptr || options.watchdog != nullptr) {
      obs::RoundRecord record;
      record.trainer = "centralized";
      record.cccp_round = cccp;
      record.objective = objective;
      record.objective_finite = std::isfinite(objective);
      record.constraints = result.diagnostics.final_constraint_count;
      record.qp_solves = result.diagnostics.round_qp_solves.back();
      record.qp_iterations = round_qp_iterations;
      record.qp_unconverged =
          result.diagnostics.qp_unconverged - round_qp_unconverged_before;
      if (options.journal != nullptr) options.journal->append(record);
      aborted = options.watchdog != nullptr &&
                options.watchdog->observe(record) ==
                    obs::WatchdogAction::kAbort;
    }
    result.diagnostics.watchdog_aborted = aborted;
    // CCCP descent safeguard: the subproblems are solved only to the
    // cutting-plane tolerance, so a round can fail to improve the true
    // objective — in that case keep the previous iterate and stop. A
    // watchdog abort keeps the best iterate the same way: a round whose
    // objective regressed (the usual divergence-abort shape) must not
    // become the result.
    if (objective > previous_objective) {
      result.model = std::move(previous_model);
      return std::nullopt;
    }
    if (aborted) return std::nullopt;
    result.diagnostics.objective_trace.push_back(objective);
    return objective;
  };
  result.diagnostics.cccp_iterations = run_cccp(options.cccp, cccp_round);

  result.diagnostics.train_seconds = watch.elapsed_seconds();
  return result;
}

}  // namespace plos::core
