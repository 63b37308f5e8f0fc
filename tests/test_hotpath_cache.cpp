// Hot-path state of the trainers (DESIGN.md §13): the content-keyed seed
// lookup of qp::WarmSeeds, and proof that the cross-round warm starts
// actually engage in a default run of each trainer. Their bitwise
// neutrality is covered by the trainer goldens and by
// test_parallel_equivalence.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/centralized_plos.hpp"
#include "core/distributed_plos.hpp"
#include "data/labeling.hpp"
#include "data/synthetic.hpp"
#include "obs/metrics.hpp"
#include "qp/warm_store.hpp"
#include "rng/engine.hpp"

namespace plos::core {
namespace {

// ---- WarmSeeds lookup -------------------------------------------------------

TEST(WarmSeeds, SeedFollowsBitwiseContent) {
  auto& registry = obs::metrics();
  registry.set_enabled(true);
  registry.reset_values();

  const linalg::Vector a{0.25, -1.5, 3.0};
  const linalg::Vector plus_zero{0.0, 1.0};
  // A plane listed twice (it re-entered the working set within a round):
  // the last-listed γ wins.
  const linalg::Vector twice{2.0, -2.0};

  qp::WarmSeeds seeds;
  // Before any assign the set is empty: every lookup is a cold zero.
  const double empty_seed = seeds.seed(a);
  seeds.assign({a, twice, plus_zero, twice}, {0.5, 0.125, 0.75, 0.375});

  // Equal doubles in a separate vector hit.
  const linalg::Vector a_copy{0.25, -1.5, 3.0};
  const double copy_seed = seeds.seed(a_copy);
  const double twice_seed = seeds.seed(linalg::Vector{2.0, -2.0});
  const double plus_seed = seeds.seed(linalg::Vector{0.0, 1.0});
  // One ulp away in a single coordinate is a different plane.
  linalg::Vector a_ulp = a;
  a_ulp[1] = std::nextafter(a_ulp[1], 0.0);
  const double ulp_seed = seeds.seed(a_ulp);
  // +0.0 and -0.0 compare equal as doubles but are different bit patterns.
  const double minus_seed = seeds.seed(linalg::Vector{-0.0, 1.0});
  // A prefix of a stored plane is a different plane.
  const double prefix_seed = seeds.seed(linalg::Vector{0.25, -1.5});
  // Assigning an empty working set forgets every stored plane.
  seeds.assign({}, {});
  const double cleared_seed = seeds.seed(a);

  const double hits = registry.counter("qp.warm_store.hits").value();
  const double misses = registry.counter("qp.warm_store.misses").value();
  registry.set_enabled(false);

  EXPECT_EQ(empty_seed, 0.0);
  EXPECT_EQ(copy_seed, 0.5);
  EXPECT_EQ(twice_seed, 0.375);
  EXPECT_EQ(plus_seed, 0.75);
  EXPECT_EQ(ulp_seed, 0.0);
  EXPECT_EQ(minus_seed, 0.0);
  EXPECT_EQ(prefix_seed, 0.0);
  EXPECT_EQ(cleared_seed, 0.0);
  // Three hits (copy, twice, +0.0); five misses (two empty sets, ulp,
  // -0.0, prefix).
  EXPECT_EQ(hits, 3.0);
  EXPECT_EQ(misses, 5.0);
}

// ---- Warm starts engage ---------------------------------------------------
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

double warm_store_hits() {
  return obs::metrics().counter("qp.warm_store.hits").value();
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
  const double hits = warm_store_hits();
  registry.set_enabled(false);

  // Later CCCP rounds re-derive planes bitwise, and cross-round warm-start
  // seeding must land at least one hit.
  EXPECT_GT(hits, 0.0);
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
  const double hits = warm_store_hits();
  registry.set_enabled(false);

  EXPECT_GT(hits, 0.0);
}

}  // namespace
}  // namespace plos::core
