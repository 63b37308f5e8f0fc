#include "core/baselines.hpp"

#include <algorithm>
#include <optional>

#include "cluster/kmeans.hpp"
#include "cluster/lsh.hpp"
#include "cluster/spectral.hpp"
#include "common/assert.hpp"
#include "core/cutting_plane.hpp"
#include "parallel/thread_pool.hpp"

namespace plos::core {

namespace {

linalg::Vector train_pooled_svm(const data::MultiUserDataset& dataset,
                                const std::vector<std::size_t>& member_users,
                                double c) {
  std::vector<linalg::Vector> xs;
  std::vector<int> ys;
  for (std::size_t t : member_users) {
    const auto& user = dataset.users[t];
    for (std::size_t i : user.revealed_indices()) {
      xs.push_back(user.samples[i]);
      ys.push_back(user.true_labels[i]);
    }
  }
  return fit_svm(std::move(xs), ys, c).weights;
}

UserPrediction predict_with_svm(const data::UserData& user,
                                std::span<const double> weights) {
  UserPrediction p;
  p.labels.reserve(user.num_samples());
  for (const auto& x : user.samples) {
    p.labels.push_back(linalg::dot(weights, x) >= 0.0 ? 1 : -1);
  }
  return p;
}

/// Cluster the pooled samples of `member_users` with k-means (k = 2) and
/// emit per-user ±1 cluster ids, flagged for best-assignment scoring.
void cluster_members(const data::MultiUserDataset& dataset,
                     const std::vector<std::size_t>& member_users,
                     rng::Engine& engine,
                     std::vector<UserPrediction>& predictions) {
  std::vector<linalg::Vector> pooled;
  for (std::size_t t : member_users) {
    const auto& s = dataset.users[t].samples;
    pooled.insert(pooled.end(), s.begin(), s.end());
  }
  if (pooled.empty()) return;
  const std::size_t k = std::min<std::size_t>(2, pooled.size());
  const auto result = cluster::kmeans(pooled, k, engine);
  std::size_t cursor = 0;
  for (std::size_t t : member_users) {
    UserPrediction p;
    p.match_clusters = true;
    for (std::size_t i = 0; i < dataset.users[t].num_samples(); ++i) {
      p.labels.push_back(result.assignments[cursor++] == 0 ? 1 : -1);
    }
    predictions[t] = std::move(p);
  }
}

}  // namespace

std::vector<UserPrediction> run_all_baseline(
    const data::MultiUserDataset& dataset, const BaselineOptions& options) {
  dataset.check_invariants();
  std::vector<std::size_t> everyone(dataset.num_users());
  for (std::size_t t = 0; t < everyone.size(); ++t) everyone[t] = t;
  const auto model = train_pooled_svm(dataset, everyone, options.svm_c);

  parallel::ThreadPool pool(options.num_threads);
  std::vector<UserPrediction> predictions(dataset.num_users());
  pool.parallel_for(dataset.num_users(), [&](std::size_t t) {
    predictions[t] = predict_with_svm(dataset.users[t], model);
  });
  return predictions;
}

std::vector<UserPrediction> run_single_baseline(
    const data::MultiUserDataset& dataset, const BaselineOptions& options) {
  dataset.check_invariants();
  rng::Engine engine(options.seed);
  // Fork the per-user k-means streams serially, in the exact order the
  // serial loop consumed the parent stream (label-free users, ascending t);
  // the fits themselves then parallelize with one private engine each.
  std::vector<std::optional<rng::Engine>> cluster_engines(dataset.num_users());
  for (std::size_t t = 0; t < dataset.num_users(); ++t) {
    if (!dataset.users[t].provides_labels()) cluster_engines[t] = engine.fork(t);
  }
  parallel::ThreadPool pool(options.num_threads);
  std::vector<UserPrediction> predictions(dataset.num_users());
  pool.parallel_for(dataset.num_users(), [&](std::size_t t) {
    const auto& user = dataset.users[t];
    if (user.provides_labels()) {
      const auto model = train_pooled_svm(dataset, {t}, options.svm_c);
      predictions[t] = predict_with_svm(user, model);
    } else {
      cluster_members(dataset, {t}, *cluster_engines[t], predictions);
    }
  });
  return predictions;
}

std::vector<std::size_t> group_users(const data::MultiUserDataset& dataset,
                                     const GroupBaselineOptions& options) {
  dataset.check_invariants();
  const std::size_t num_users = dataset.num_users();
  PLOS_CHECK(num_users > 0, "group_users: no users");
  rng::Engine engine(options.base.seed);

  const cluster::RandomHyperplaneHasher hasher(dataset.dim(), options.lsh_bits,
                                               engine);
  // The hasher is immutable once built; per-user histograms and the upper
  // similarity triangle write disjoint slots, so both loops parallelize.
  parallel::ThreadPool pool(options.base.num_threads);
  std::vector<linalg::Vector> histograms(num_users);
  pool.parallel_for(num_users, [&](std::size_t t) {
    histograms[t] = hasher.histogram(dataset.users[t].samples);
  });

  linalg::Matrix similarity(num_users, num_users);
  pool.parallel_for(num_users, [&](std::size_t i) {
    for (std::size_t j = i; j < num_users; ++j) {
      const double s =
          cluster::generalized_jaccard(histograms[i], histograms[j]);
      similarity(i, j) = s;
      similarity(j, i) = s;
    }
  });

  const std::size_t k = std::min(options.num_groups, num_users);
  return cluster::spectral_clustering(similarity, k, engine);
}

std::vector<UserPrediction> run_group_baseline(
    const data::MultiUserDataset& dataset,
    const GroupBaselineOptions& options) {
  const std::vector<std::size_t> assignment = group_users(dataset, options);
  const std::size_t k = std::min(options.num_groups, dataset.num_users());

  rng::Engine engine(options.base.seed);
  // Membership lists and the k-means engine forks are computed serially in
  // ascending group order (matching the serial stream consumption); the
  // per-group SVM fits / clusterings then run in parallel — groups touch
  // disjoint members, so the prediction writes never alias.
  std::vector<std::vector<std::size_t>> group_members(k);
  std::vector<std::optional<rng::Engine>> group_engines(k);
  std::vector<char> group_has_labels(k, 0);
  for (std::size_t t = 0; t < dataset.num_users(); ++t) {
    group_members[assignment[t]].push_back(t);
  }
  for (std::size_t g = 0; g < k; ++g) {
    if (group_members[g].empty()) continue;
    group_has_labels[g] = std::any_of(
        group_members[g].begin(), group_members[g].end(), [&](std::size_t t) {
          return dataset.users[t].provides_labels();
        });
    if (!group_has_labels[g]) group_engines[g] = engine.fork(g);
  }

  parallel::ThreadPool pool(options.base.num_threads);
  std::vector<UserPrediction> predictions(dataset.num_users());
  pool.parallel_for(k, [&](std::size_t g) {
    const std::vector<std::size_t>& members = group_members[g];
    if (members.empty()) return;
    if (group_has_labels[g]) {
      const auto model =
          train_pooled_svm(dataset, members, options.base.svm_c);
      for (std::size_t t : members) {
        predictions[t] = predict_with_svm(dataset.users[t], model);
      }
    } else {
      cluster_members(dataset, members, *group_engines[g], predictions);
    }
  });
  return predictions;
}

}  // namespace plos::core
