#include "core/logistic_plos.hpp"

#include <cmath>
#include <limits>

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
std::span<const double> block(std::span<const double> x, std::size_t index,
                              std::size_t dim) {
  return x.subspan(index * dim, dim);
}
std::span<double> block(std::span<double> x, std::size_t index,
                        std::size_t dim) {
  return x.subspan(index * dim, dim);
}

}  // namespace

double logistic_plos_objective(const data::MultiUserDataset& dataset,
                               const PersonalizedModel& model,
                               const PlosHyperParams& params) {
  const std::size_t num_users = dataset.num_users();
  PLOS_CHECK(model.num_users() == num_users,
             "logistic_plos_objective: user mismatch");
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
        labeled_loss += log1p_exp_neg(label * value);
      } else {
        unlabeled_loss += log1p_exp_neg(std::abs(value));
      }
    }
    objective += (params.cl * labeled_loss + params.cu * unlabeled_loss) /
                 static_cast<double>(user.num_samples());
  }
  return objective;
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

  result.model.global_weights = initial_global_weights(dataset, options.seed);

  const double lambda_over_t =
      options.params.lambda / static_cast<double>(num_users);

  double previous_objective = std::numeric_limits<double>::infinity();
  for (int cccp = 0; cccp < options.cccp.max_iterations; ++cccp) {
    result.diagnostics.cccp_iterations = cccp + 1;

    // Freeze linearization signs at the current iterate.
    std::vector<std::vector<int>> signs(num_users);
    for (std::size_t t = 0; t < num_users; ++t) {
      const linalg::Vector w = result.model.user_weights(t);
      if (cccp == 0 && contexts[t].labeled.empty()) {
        signs[t] =
            cluster_initial_signs(contexts[t], w, lambda_over_t,
                                  options.params.cl, options.params.cu,
                                  options.seed + t);
      } else {
        signs[t] = cccp_signs(contexts[t], w);
      }
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
    if (std::abs(previous_objective - objective) <=
        options.cccp.objective_tolerance * (1.0 + std::abs(objective))) {
      break;
    }
    previous_objective = objective;
  }

  result.diagnostics.train_seconds = watch.elapsed_seconds();
  return result;
}

}  // namespace plos::core
