// Hot-path state of the trainers (DESIGN.md §13): the content interner
// behind qp::WarmStore plane ids, and proof that the cross-round warm
// starts and the device Lipschitz memo actually engage in a default run.
// Their bitwise neutrality is covered by the trainer goldens and by
// test_parallel_equivalence.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/centralized_plos.hpp"
#include "core/distributed_plos.hpp"
#include "core/gram_cache.hpp"
#include "data/labeling.hpp"
#include "data/synthetic.hpp"
#include "obs/metrics.hpp"
#include "rng/engine.hpp"

namespace plos::core {
namespace {

// ---- PlaneGramCache interning ---------------------------------------------

TEST(PlaneInterning, IdsFollowBitwiseContent) {
  auto& registry = obs::metrics();
  registry.set_enabled(true);
  registry.reset_values();

  PlaneGramCache gram;
  const linalg::Vector a{0.25, -1.5, 3.0};
  // Equal doubles in a separate vector share the id.
  const linalg::Vector a_copy{0.25, -1.5, 3.0};
  // One ulp away in a single coordinate is a different plane.
  linalg::Vector a_ulp = a;
  a_ulp[1] = std::nextafter(a_ulp[1], 0.0);
  // +0.0 and -0.0 compare equal as doubles but are different bit patterns.
  const linalg::Vector plus_zero{0.0, 1.0};
  const linalg::Vector minus_zero{-0.0, 1.0};
  // A prefix of a plane is a different plane.
  const linalg::Vector a_prefix{0.25, -1.5};

  const std::uint32_t id_a = gram.intern(a);
  EXPECT_EQ(gram.intern(a_copy), id_a);
  const std::uint32_t id_ulp = gram.intern(a_ulp);
  EXPECT_NE(id_ulp, id_a);
  const std::uint32_t id_plus = gram.intern(plus_zero);
  const std::uint32_t id_minus = gram.intern(minus_zero);
  EXPECT_NE(id_plus, id_minus);
  const std::uint32_t id_prefix = gram.intern(a_prefix);
  EXPECT_NE(id_prefix, id_a);
  EXPECT_NE(id_prefix, id_ulp);
  // Re-interning returns the original ids.
  EXPECT_EQ(gram.intern(a_ulp), id_ulp);
  EXPECT_EQ(gram.intern(minus_zero), id_minus);

  const double interned =
      registry.counter("plos.gram_cache.planes_interned").value();
  const double reused =
      registry.counter("plos.gram_cache.planes_reused").value();
  registry.set_enabled(false);

  // Five distinct planes (a, a_ulp, +0, -0, prefix); three repeats.
  EXPECT_EQ(interned, 5.0);
  EXPECT_EQ(reused, 3.0);
}

// ---- Warm starts and the Lipschitz memo engage ----------------------------
//
// The global registry starts disabled; these tests enable it around one
// training run and read the counters back. They are deliberately not
// parameterized — counters are process-global and cumulative.

data::MultiUserDataset make_population() {
  data::SyntheticSpec spec;
  spec.num_users = 5;
  spec.points_per_class = 18;
  spec.max_rotation = 1.1;
  rng::Engine engine(23);
  auto dataset = data::generate_synthetic(spec, engine);
  data::reveal_labels(dataset, {0, 2}, 0.3, engine);
  return dataset;
}

struct CounterSnapshot {
  double planes_reused;
  double warm_store_hits;
  double lipschitz_reuses;
};

CounterSnapshot snapshot() {
  auto& registry = obs::metrics();
  return {registry.counter("plos.gram_cache.planes_reused").value(),
          registry.counter("qp.warm_store.hits").value(),
          registry.counter("qp.capped_simplex.lipschitz_reuses").value()};
}

TEST(CacheCounters, CentralizedRunRecordsReuse) {
  const auto dataset = make_population();
  CentralizedPlosOptions options;
  options.cutting_plane.epsilon = 1e-2;
  options.cccp.max_iterations = 3;
  auto& registry = obs::metrics();
  registry.set_enabled(true);
  registry.reset_values();
  (void)train_centralized_plos(dataset, options);
  const auto counters = snapshot();
  registry.set_enabled(false);

  // Later CCCP rounds re-derive planes bitwise, and cross-round warm-start
  // seeding must land at least one hit.
  EXPECT_GT(counters.planes_reused, 0.0);
  EXPECT_GT(counters.warm_store_hits, 0.0);
}

TEST(CacheCounters, DistributedRunRecordsReuse) {
  const auto dataset = make_population();
  DistributedPlosOptions options;
  options.cutting_plane.epsilon = 1e-2;
  options.cccp.max_iterations = 3;
  options.max_admm_iterations = 50;
  auto& registry = obs::metrics();
  registry.set_enabled(true);
  registry.reset_values();
  (void)train_distributed_plos(dataset, options, nullptr);
  const auto counters = snapshot();
  registry.set_enabled(false);

  EXPECT_GT(counters.planes_reused, 0.0);
  EXPECT_GT(counters.warm_store_hits, 0.0);
  // Per-device prox-QPs re-solve against an unchanged Hessian once per ADMM
  // iteration — the memoized Lipschitz estimate must be reused there.
  EXPECT_GT(counters.lipschitz_reuses, 0.0);
}

}  // namespace
}  // namespace plos::core
