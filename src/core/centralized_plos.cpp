#include "core/centralized_plos.hpp"

#include <cmath>
#include <optional>

#include "common/assert.hpp"
#include "common/stopwatch.hpp"
#include "core/cutting_plane.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"
#include "qp/simplex_qp.hpp"

namespace plos::core {

namespace {

// The joint dual (Eq. 16) as one qp::SimplexBlock per user: the user's
// planes, offsets, block Gram and duals. Adding a constraint appends one
// plane to its user's block at dual 0. A DualState lives for one CCCP
// round: no solver state outlives it (DESIGN.md §13).
class DualState {
 public:
  DualState(std::size_t num_users, double lambda)
      : lambda_over_t_(lambda / static_cast<double>(num_users)),
        cap_(static_cast<double>(num_users) / (2.0 * lambda)),
        blocks_(num_users) {}

  /// Constraints over every user's working set.
  std::size_t size() const {
    std::size_t total = 0;
    for (const qp::SimplexBlock& block : blocks_) total += block.planes.size();
    return total;
  }

  const qp::SimplexBlock& block(std::size_t user) const {
    return blocks_[user];
  }

  void add_constraint(std::size_t user, CuttingPlane plane) {
    core::add_constraint(blocks_[user], std::move(plane));
  }

  /// Solves the dual and recovers (w0, v_t) into `model`:
  /// v_t = z_t = Σ_{a∈t} γ_a s_a and w0 = (λ/T) Σ_t z_t.
  qp::BlockSweepResult solve(PersonalizedModel& model) {
    const qp::BlockSweepResult result =
        qp::solve_block_sweeps(blocks_, lambda_over_t_, cap_);
    model.global_weights = linalg::zeros(model.global_weights.size());
    for (std::size_t t = 0; t < blocks_.size(); ++t) {
      model.user_deviations[t] = blocks_[t].z;
      linalg::axpy(1.0, blocks_[t].z, model.global_weights);
    }
    linalg::scale(model.global_weights, lambda_over_t_);
    return result;
  }

 private:
  double lambda_over_t_;
  double cap_;
  std::vector<qp::SimplexBlock> blocks_;
};

}  // namespace

double plos_objective(const data::MultiUserDataset& dataset,
                      const PersonalizedModel& model,
                      const PlosHyperParams& params) {
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
        labeled_loss += std::max(0.0, 1.0 - label * value);
      } else {
        unlabeled_loss += std::max(0.0, 1.0 - std::abs(value));
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
  result.model.global_weights = initial_global_weights(dataset, options.seed);

  std::vector<PlosUserContext> contexts;
  contexts.reserve(num_users);
  for (const auto& user : dataset.users) {
    contexts.push_back(PlosUserContext::from_user(user));
  }

  double previous_objective = std::numeric_limits<double>::infinity();
  PersonalizedModel previous_model = result.model;
  for (int cccp = 0; cccp < options.cccp.max_iterations; ++cccp) {
    PLOS_SPAN("plos.cccp_round", "round", cccp);
    const int round_qp_solves_before = result.diagnostics.qp_solves;
    const int round_qp_unconverged_before =
        result.diagnostics.qp_unconverged;
    int round_qp_iterations = 0;
    result.diagnostics.cccp_iterations = cccp + 1;

    // Fix the CCCP linearization signs at the current iterate. Each user's
    // signs depend only on their own data, weights, and a per-user seed, so
    // the loop parallelizes with no cross-user state.
    std::vector<std::vector<int>> signs(num_users);
    std::vector<linalg::Vector> weights(num_users);
    {
      PLOS_SPAN("plos.sign_fit");
      pool.parallel_for(num_users, [&](std::size_t t) {
        weights[t] = result.model.user_weights(t);
        if (cccp == 0 && contexts[t].labeled.empty()) {
          signs[t] = cluster_initial_signs(
              contexts[t], weights[t],
              options.params.lambda / static_cast<double>(num_users),
              options.params.cl, options.params.cu, options.seed + t);
        } else {
          signs[t] = cccp_signs(contexts[t], weights[t]);
        }
      });
    }

    // Fresh working sets per convex subproblem (Algorithm 1, step 3). The
    // initialization model above only fixes the CCCP signs; the convex
    // subproblem itself starts from the empty working set's optimum w' = 0
    // (every sample violates its margin there), so the cutting-plane loop
    // genuinely optimizes the PLOS objective instead of merely certifying
    // the init — an SVM init that happens to satisfy all margins must not
    // short-circuit training.
    DualState dual(num_users, options.params.lambda);
    for (auto& w : weights) w.assign(dim, 0.0);
    result.model = PersonalizedModel::zeros(num_users, dim);

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
              separate(contexts[t], signs[t], weights[t], dual.block(t),
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
        dual.add_constraint(t, std::move(separated[t]));
        added = true;
      }
      if (!added) break;

      {
        PLOS_SPAN("plos.dual_solve");
        const qp::BlockSweepResult solved = dual.solve(result.model);
        round_qp_iterations += solved.pivots;
        if (!solved.converged) ++result.diagnostics.qp_unconverged;
      }
      ++result.diagnostics.qp_solves;
      pool.parallel_for(num_users, [&](std::size_t t) {
        weights[t] = result.model.user_weights(t);
      });
    }
    result.diagnostics.final_constraint_count = dual.size();

    const double objective =
        plos_objective(dataset, result.model, options.params);
    result.diagnostics.round_qp_solves.push_back(
        result.diagnostics.qp_solves - round_qp_solves_before);
    // Telemetry: one journal record per started round — including a round
    // the descent safeguard rejects below, since the rejected objective is
    // exactly what convergence analysis and the watchdog need to see. All
    // record fields are deterministic solver state, so the journal is
    // byte-identical at any thread count.
    if (options.journal != nullptr || options.watchdog != nullptr) {
      obs::RoundRecord record;
      record.trainer = "centralized";
      record.cccp_round = cccp;
      record.objective = objective;
      record.objective_finite = std::isfinite(objective);
      record.constraints = dual.size();
      record.qp_solves = result.diagnostics.round_qp_solves.back();
      record.qp_iterations = round_qp_iterations;
      record.qp_unconverged =
          result.diagnostics.qp_unconverged - round_qp_unconverged_before;
      if (options.journal != nullptr) options.journal->append(record);
      if (options.watchdog != nullptr &&
          options.watchdog->observe(record) == obs::WatchdogAction::kAbort) {
        result.diagnostics.watchdog_aborted = true;
        // Keep the best iterate: a round whose objective regressed (the
        // usual divergence-abort shape) must not become the result.
        if (objective > previous_objective) result.model = previous_model;
        break;
      }
    }
    // CCCP descent safeguard: the subproblems are solved only to the
    // cutting-plane tolerance, so a round can fail to improve the true
    // objective — in that case keep the previous iterate and stop.
    if (objective > previous_objective) {
      result.model = previous_model;
      break;
    }
    result.diagnostics.objective_trace.push_back(objective);
    if (previous_objective - objective <=
        options.cccp.objective_tolerance * (1.0 + std::abs(objective))) {
      break;
    }
    previous_objective = objective;
    previous_model = result.model;
  }

  result.diagnostics.train_seconds = watch.elapsed_seconds();
  return result;
}

}  // namespace plos::core
