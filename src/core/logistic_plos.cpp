#include "core/logistic_plos.hpp"

#include <cmath>

#include "common/assert.hpp"
#include "common/stopwatch.hpp"
#include "core/cutting_plane.hpp"

namespace plos::core {

namespace {

// log(1 + exp(-m)) computed without overflow.
double log1p_exp_neg(double margin) {
  if (margin > 0.0) return std::log1p(std::exp(-margin));
  return -margin + std::log1p(std::exp(margin));
}

// d/dm log(1+exp(-m)) = -sigmoid(-m).
double neg_sigmoid_neg(double margin) {
  if (margin > 0.0) {
    const double e = std::exp(-margin);
    return -e / (1.0 + e);
  }
  const double e = std::exp(margin);
  return -1.0 / (1.0 + e);
}

// Flattened layout of the inner problem's variables: [w0 | v_1 | ... | v_T].
template <class T>
std::span<T> block(std::span<T> x, std::size_t index, std::size_t dim) {
  return x.subspan(index * dim, dim);
}

}  // namespace

double logistic_plos_objective(const data::MultiUserDataset& dataset,
                               const PersonalizedModel& model,
                               const PlosHyperParams& params) {
  return plos_objective(dataset, model, params, log1p_exp_neg);
}

LogisticPlosResult train_logistic_plos(const data::MultiUserDataset& dataset,
                                       const LogisticPlosOptions& options) {
  dataset.check_invariants();
  const std::size_t num_users = dataset.num_users();
  const std::size_t dim = dataset.dim();
  PLOS_CHECK(num_users > 0, "train_logistic_plos: no users");
  PLOS_CHECK(dim > 0, "train_logistic_plos: empty dataset");
  PLOS_CHECK(options.params.lambda > 0.0,
             "train_logistic_plos: lambda must be positive");

  const Stopwatch watch;
  LogisticPlosResult result;
  result.model = PersonalizedModel::zeros(num_users, dim);

  std::vector<PlosUserContext> contexts;
  contexts.reserve(num_users);
  for (const auto& user : dataset.users) {
    contexts.push_back(PlosUserContext::from_user(user));
  }

  result.model.global_weights =
      initial_global_weights(dataset, options.seed).weights;

  const double lambda_over_t =
      options.params.lambda / static_cast<double>(num_users);

  const auto cccp_round = [&](int cccp, double) -> std::optional<double> {
    // Freeze linearization signs at the current iterate.
    std::vector<std::vector<int>> signs(num_users);
    for (std::size_t t = 0; t < num_users; ++t) {
      signs[t] = round_signs(contexts[t], result.model.user_weights(t),
                             cccp == 0, lambda_over_t, options.params.cl,
                             options.params.cu, options.seed + t);
    }

    // Smooth convex inner problem over [w0 | v_1 | ... | v_T].
    const auto objective_fn = [&](std::span<const double> x,
                                  std::span<double> gradient) {
      std::fill(gradient.begin(), gradient.end(), 0.0);
      const auto w0 = block(x, 0, dim);
      double value = linalg::squared_norm(w0);
      linalg::axpy(2.0, w0, block(gradient, 0, dim));

      for (std::size_t t = 0; t < num_users; ++t) {
        const auto v = block(x, t + 1, dim);
        value += lambda_over_t * linalg::squared_norm(v);
        linalg::axpy(2.0 * lambda_over_t, v, block(gradient, t + 1, dim));

        const auto& user = dataset.users[t];
        const std::size_t m = user.num_samples();
        if (m == 0) continue;
        const double inv_m = 1.0 / static_cast<double>(m);

        std::size_t unlabeled_pos = 0;
        for (std::size_t i = 0; i < m; ++i) {
          const double label =
              user.revealed[i]
                  ? static_cast<double>(user.true_labels[i])
                  : static_cast<double>(signs[t][unlabeled_pos++]);
          const double weight =
              (user.revealed[i] ? options.params.cl : options.params.cu) *
              inv_m;
          const auto& xi = user.samples[i];
          const double margin =
              label * (linalg::dot(w0, xi) + linalg::dot(v, xi));
          value += weight * log1p_exp_neg(margin);
          const double coeff = weight * label * neg_sigmoid_neg(margin);
          linalg::axpy(coeff, xi, block(gradient, 0, dim));
          linalg::axpy(coeff, xi, block(gradient, t + 1, dim));
        }
      }
      return value;
    };

    linalg::Vector x0((num_users + 1) * dim, 0.0);
    std::copy(result.model.global_weights.begin(),
              result.model.global_weights.end(), x0.begin());
    for (std::size_t t = 0; t < num_users; ++t) {
      std::copy(result.model.user_deviations[t].begin(),
                result.model.user_deviations[t].end(),
                x0.begin() + static_cast<std::ptrdiff_t>((t + 1) * dim));
    }

    const auto solved = opt::minimize_lbfgs(objective_fn, std::move(x0),
                                            options.lbfgs);
    ++result.diagnostics.qp_solves;  // one smooth solve per CCCP round

    std::copy(solved.x.begin(), solved.x.begin() + static_cast<std::ptrdiff_t>(dim),
              result.model.global_weights.begin());
    for (std::size_t t = 0; t < num_users; ++t) {
      const auto v = block(std::span<const double>(solved.x), t + 1, dim);
      result.model.user_deviations[t].assign(v.begin(), v.end());
    }

    const double objective =
        logistic_plos_objective(dataset, result.model, options.params);
    result.diagnostics.objective_trace.push_back(objective);
    return objective;
  };
  result.diagnostics.cccp_iterations = run_cccp(options.cccp, cccp_round);

  result.diagnostics.train_seconds = watch.elapsed_seconds();
  return result;
}

}  // namespace plos::core
