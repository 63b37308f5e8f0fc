// Tests for the asynchronous bounded-staleness quorum engine: degenerate
// bitwise equivalence with the synchronous trainer, cross-thread byte
// identity, the bounded-staleness property, threshold-stopped ADMM under
// chronic stragglers, the inexact-CCCP stop schedule and its guards, the
// server step's fixed point and relaxation gate, and the latency/deadline
// model.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>
#include <string>
#include <vector>

#include "async/async_admm.hpp"
#include "common/assert.hpp"
#include "core/autotune.hpp"
#include "core/cutting_plane.hpp"
#include "core/distributed_plos.hpp"
#include "core/latency.hpp"
#include "core/quorum_admm.hpp"
#include "data/labeling.hpp"
#include "data/synthetic.hpp"
#include "linalg/vector.hpp"
#include "net/simnet.hpp"
#include "obs/flight.hpp"
#include "obs/journal.hpp"
#include "rng/engine.hpp"

namespace plos::async {
namespace {

data::MultiUserDataset make_population(std::size_t num_users,
                                       double max_rotation,
                                       std::size_t num_providers,
                                       double training_rate,
                                       std::uint64_t seed,
                                       std::size_t points_per_class = 30) {
  data::SyntheticSpec spec;
  spec.num_users = num_users;
  spec.points_per_class = points_per_class;
  spec.max_rotation = max_rotation;
  rng::Engine engine(seed);
  auto dataset = data::generate_synthetic(spec, engine);
  std::vector<std::size_t> providers(num_providers);
  for (std::size_t i = 0; i < num_providers; ++i) providers[i] = i;
  data::reveal_labels(dataset, providers, training_rate, engine);
  return dataset;
}

core::DistributedPlosOptions fast_base() {
  core::DistributedPlosOptions options;
  options.params.lambda = 100.0;
  options.params.cl = 10.0;
  options.params.cu = 1.0;
  options.cutting_plane.epsilon = 1e-2;
  options.cccp.max_iterations = 3;
  options.max_admm_iterations = 60;
  return options;
}

/// Degenerate configuration: 100% quorum, no deadlines — contractually
/// bit-identical to the synchronous engine.
AsyncQuorumOptions degenerate_options(std::uint64_t staleness_bound = 0) {
  AsyncQuorumOptions options;
  options.base = fast_base();
  options.quorum = 1.0;
  options.staleness_bound = staleness_bound;
  options.adaptive_deadline = false;
  return options;
}

void expect_models_bitwise_equal(const core::PersonalizedModel& a,
                                 const core::PersonalizedModel& b) {
  ASSERT_EQ(a.global_weights.size(), b.global_weights.size());
  for (std::size_t j = 0; j < a.global_weights.size(); ++j) {
    EXPECT_EQ(a.global_weights[j], b.global_weights[j]) << "w0[" << j << "]";
  }
  ASSERT_EQ(a.user_deviations.size(), b.user_deviations.size());
  for (std::size_t t = 0; t < a.user_deviations.size(); ++t) {
    ASSERT_EQ(a.user_deviations[t].size(), b.user_deviations[t].size());
    for (std::size_t j = 0; j < a.user_deviations[t].size(); ++j) {
      EXPECT_EQ(a.user_deviations[t][j], b.user_deviations[t][j])
          << "dev[" << t << "][" << j << "]";
    }
  }
}

TEST(AsyncQuorum, DegenerateMatchesSyncBitwiseFaultFree) {
  auto dataset = make_population(6, 0.4, 3, 0.4, 21);

  obs::Journal sync_journal;
  auto sync_options = fast_base();
  sync_options.journal = &sync_journal;
  net::SimNetwork sync_net(6, net::DeviceProfile{}, net::LinkProfile{});
  const auto sync =
      core::train_distributed_plos(dataset, sync_options, &sync_net);

  obs::Journal async_journal;
  auto async_options = degenerate_options();  // staleness_bound = 0
  async_options.base.journal = &async_journal;
  net::SimNetwork async_net(6, net::DeviceProfile{}, net::LinkProfile{});
  const auto async_result =
      train_async_quorum_plos(dataset, async_options, &async_net);

  expect_models_bitwise_equal(sync.model, async_result.model);
  EXPECT_EQ(sync_journal.to_jsonl(), async_journal.to_jsonl());
  const auto sync_traffic = sync_net.traffic_snapshot();
  const auto async_traffic = async_net.traffic_snapshot();
  EXPECT_EQ(sync_traffic.bytes_to_devices, async_traffic.bytes_to_devices);
  EXPECT_EQ(sync_traffic.bytes_to_server, async_traffic.bytes_to_server);
  EXPECT_EQ(sync_traffic.messages_dropped, async_traffic.messages_dropped);
  EXPECT_EQ(sync_traffic.retries, async_traffic.retries);
  // Nothing was ever late, busy, or evicted.
  EXPECT_EQ(async_result.async.late_uploads_total, 0u);
  EXPECT_EQ(async_result.async.evictions_offline_total, 0u);
  EXPECT_EQ(async_result.async.evictions_late_total, 0u);
  EXPECT_EQ(async_result.async.evictions_failed_total, 0u);
  EXPECT_EQ(async_result.async.max_staleness_seen, 0u);
}

TEST(AsyncQuorum, DegenerateMatchesSyncBitwiseUnderFaults) {
  auto dataset = make_population(6, 0.4, 3, 0.4, 22);
  net::FaultSpec spec;
  spec.drop_probability = 0.15;
  spec.offline_probability = 0.15;
  spec.straggler_probability = 0.2;
  spec.straggler_slowdown = 3.0;
  spec.round_deadline_s = 0.0;  // the sync engine must wait, like quorum=1
  spec.seed = 5;

  obs::Journal sync_journal;
  auto sync_options = fast_base();
  sync_options.journal = &sync_journal;
  net::SimNetwork sync_net(6, net::DeviceProfile{}, net::LinkProfile{});
  sync_net.set_fault_model(net::FaultModel(spec));
  const auto sync =
      core::train_distributed_plos(dataset, sync_options, &sync_net);

  obs::Journal async_journal;
  // A bound larger than any possible run length: the sync engine never
  // evicts, so the degenerate async run must not either.
  auto async_options = degenerate_options(/*staleness_bound=*/1u << 20);
  async_options.base.journal = &async_journal;
  net::SimNetwork async_net(6, net::DeviceProfile{}, net::LinkProfile{});
  async_net.set_fault_model(net::FaultModel(spec));
  const auto async_result =
      train_async_quorum_plos(dataset, async_options, &async_net);

  expect_models_bitwise_equal(sync.model, async_result.model);
  EXPECT_EQ(sync_journal.to_jsonl(), async_journal.to_jsonl());
  const auto sync_traffic = sync_net.traffic_snapshot();
  const auto async_traffic = async_net.traffic_snapshot();
  EXPECT_EQ(sync_traffic.bytes_to_devices, async_traffic.bytes_to_devices);
  EXPECT_EQ(sync_traffic.bytes_to_server, async_traffic.bytes_to_server);
  EXPECT_EQ(sync_traffic.messages_dropped, async_traffic.messages_dropped);
  EXPECT_EQ(sync_traffic.retries, async_traffic.retries);
  EXPECT_EQ(sync.diagnostics.devices_offline_total,
            async_result.diagnostics.devices_offline_total);
  EXPECT_EQ(sync.diagnostics.downlink_failures_total,
            async_result.diagnostics.downlink_failures_total);
  EXPECT_EQ(sync.diagnostics.uplink_failures_total,
            async_result.diagnostics.uplink_failures_total);
}

/// Full async configuration (partial quorum, tight staleness bound,
/// adaptive deadlines, churn + stragglers): models, journals, and the
/// virtual clock must be bitwise identical at every thread count.
TEST(AsyncQuorum, ByteIdenticalAcrossThreadCounts) {
  auto dataset = make_population(8, 0.5, 4, 0.4, 23);
  net::FaultSpec spec;
  spec.drop_probability = 0.1;
  spec.offline_probability = 0.2;
  spec.straggler_probability = 0.3;
  spec.straggler_slowdown = 5.0;
  spec.retry_jitter = 0.5;
  spec.seed = 9;

  std::string reference_journal;
  core::PersonalizedModel reference_model;
  double reference_virtual = 0.0;
  for (int threads : {1, 2, 4, 8}) {
    obs::Journal journal;
    AsyncQuorumOptions options;
    options.base = fast_base();
    options.base.num_threads = threads;
    options.base.journal = &journal;
    options.quorum = 0.6;
    options.staleness_bound = 2;
    options.adaptive_deadline = true;
    net::SimNetwork network(8, net::DeviceProfile{}, net::LinkProfile{});
    network.set_fault_model(net::FaultModel(spec));
    const auto result = train_async_quorum_plos(dataset, options, &network);
    if (threads == 1) {
      reference_journal = journal.to_jsonl();
      reference_model = result.model;
      reference_virtual = result.async.virtual_seconds;
      EXPECT_FALSE(reference_journal.empty());
    } else {
      EXPECT_EQ(journal.to_jsonl(), reference_journal)
          << "journal diverged at " << threads << " threads";
      expect_models_bitwise_equal(reference_model, result.model);
      EXPECT_EQ(result.async.virtual_seconds, reference_virtual)
          << "virtual clock diverged at " << threads << " threads";
    }
  }
}

/// The bounded-staleness property: with 20% churn and a bound of S, no
/// server block older than S steps ever enters an aggregate — at any
/// thread count — and the bound actually bites (evictions happen).
TEST(AsyncQuorum, NoAggregateEverSeesBlocksOlderThanBound) {
  auto dataset = make_population(10, 0.5, 5, 0.4, 24);
  constexpr std::uint64_t kBound = 3;
  net::FaultSpec spec;
  spec.offline_probability = 0.2;  // 20% churn
  spec.drop_probability = 0.1;
  spec.straggler_probability = 0.3;
  spec.straggler_slowdown = 6.0;
  spec.seed = 31;

  for (int threads : {1, 2, 4, 8}) {
    obs::Journal journal;
    AsyncQuorumOptions options;
    options.base = fast_base();
    options.base.num_threads = threads;
    options.base.journal = &journal;
    options.quorum = 0.5;
    options.staleness_bound = kBound;
    net::SimNetwork network(10, net::DeviceProfile{}, net::LinkProfile{});
    network.set_fault_model(net::FaultModel(spec));
    const auto result = train_async_quorum_plos(dataset, options, &network);

    EXPECT_LE(result.async.max_staleness_seen, kBound);
    std::uint64_t evictions = 0;
    for (const obs::RoundRecord& record : journal.records()) {
      EXPECT_LE(record.max_staleness, kBound)
          << "stale block in aggregate at cccp " << record.cccp_round
          << " admm " << record.admm_iteration << " (" << threads
          << " threads)";
      ASSERT_FALSE(record.staleness_hist.empty());
      for (std::size_t bucket = static_cast<std::size_t>(kBound) + 1;
           bucket < record.staleness_hist.size(); ++bucket) {
        EXPECT_EQ(record.staleness_hist[bucket], 0u);
      }
      evictions += record.evictions_offline + record.evictions_late +
                   record.evictions_failed;
    }
    // The property must not hold vacuously: churn at this rate has to
    // trigger evictions, otherwise the bound was never exercised.
    EXPECT_GT(evictions, 0u) << "at " << threads << " threads";
  }
}

/// A partial quorum must cut rounds earlier than the full barrier on a
/// straggler-heavy fleet: same fleet, same faults, less virtual time.
TEST(AsyncQuorum, PartialQuorumShortensVirtualTime) {
  auto dataset = make_population(10, 0.4, 5, 0.4, 25);
  net::FaultSpec spec;
  spec.straggler_probability = 0.3;
  spec.straggler_slowdown = 8.0;
  spec.seed = 41;

  const auto run = [&](double quorum) {
    AsyncQuorumOptions options;
    options.base = fast_base();
    options.quorum = quorum;
    options.staleness_bound = 1u << 20;  // isolate the quorum effect
    options.adaptive_deadline = false;
    // Work-weighted compute: at ~1.5 pivots per device solve, 10 ms per
    // pivot (x10 device CPU) puts a device's compute well above its ~50 ms
    // link time, so a straggler's slowdown multiplies real solver work.
    options.latency.compute_per_qp_iter_s = 1e-2;
    net::SimNetwork network(10, net::DeviceProfile{}, net::LinkProfile{});
    network.set_fault_model(net::FaultModel(spec));
    return train_async_quorum_plos(dataset, options, &network);
  };

  const auto barrier = run(1.0);
  const auto quorum = run(0.6);
  ASSERT_GT(barrier.async.virtual_seconds, 0.0);
  EXPECT_LT(quorum.async.virtual_seconds,
            0.8 * barrier.async.virtual_seconds);
}

/// Late folds on a chronic-straggler fleet must let ADMM stop on the
/// Eq. 24 thresholds. The fleet is e2ebench's async-quorum workload: 60%
/// quorum, staleness bound 12, 30% of devices 6x slower, 10% drops, 1%
/// corruption and 10% offline devices per round. A late upload's dual
/// steps in full against the consensus its device solved on; a step
/// against the current consensus discounted by 1/(1 + age) set up a limit
/// cycle that ran nearly every CCCP round into the ADMM cap here.
TEST(QuorumAdmm, ChronicStragglersStopOnThresholdsBeforeTheCap) {
  constexpr std::size_t kUsers = 20;
  constexpr int kCap = 150;
  constexpr int kCccpRounds = 3;
  std::uint64_t iterations = 0;
  std::uint64_t budget = 0;
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const auto dataset =
        make_population(kUsers, std::numbers::pi / 2.0, kUsers / 2, 0.05,
                        seed, /*points_per_class=*/60);
    core::PersonalizedModel reference;
    for (int threads : {1, 4}) {
      net::SimNetwork network(kUsers, net::DeviceProfile{},
                              net::LinkProfile{});
      for (std::size_t t = 0; t < kUsers; ++t) {
        if (t % 10 >= 3) continue;
        net::DeviceProfile profile;
        profile.cpu_slowdown *= 6.0;
        network.set_device_profile(t, profile);
      }
      net::FaultSpec faults;
      faults.drop_probability = 0.1;
      faults.corrupt_probability = 0.01;
      faults.offline_probability = 0.1;
      faults.seed = seed;
      network.set_fault_model(net::FaultModel(faults));

      AsyncQuorumOptions options;
      options.base.params.lambda = 100.0;
      options.base.params.cl = 10.0;
      options.base.params.cu = 1.0;
      options.base.cutting_plane.epsilon = 5e-2;
      options.base.cccp.max_iterations = kCccpRounds;
      options.base.max_admm_iterations = kCap;
      options.base.num_threads = threads;
      options.quorum = 0.6;
      options.staleness_bound = 12;
      options.adaptive_deadline = false;
      options.latency.compute_base_s = 5e-2;
      options.latency.seed = seed;
      const auto result = train_async_quorum_plos(dataset, options, &network);

      for (double x : result.model.global_weights) {
        ASSERT_TRUE(std::isfinite(x));
      }
      for (const auto& deviation : result.model.user_deviations) {
        for (double x : deviation) ASSERT_TRUE(std::isfinite(x));
      }
      if (threads == 1) {
        reference = result.model;
        iterations += result.diagnostics.admm_iterations_total;
        budget += static_cast<std::uint64_t>(
            result.diagnostics.cccp_iterations * kCap);
      } else {
        expect_models_bitwise_equal(reference, result.model);
      }
    }
  }
  // Hitting the cap in most rounds spends ~95% of the budget; stopping on
  // the thresholds spends about half of it.
  EXPECT_LT(iterations * 10, budget * 7)
      << iterations << " ADMM iterations of a " << budget << " budget";
}

// ---- Inexact CCCP (DESIGN.md §3) -------------------------------------------

// The chronic-straggler fleet above (e2ebench's async-quorum workload): 20
// users, 60% quorum, staleness bound 12, 30% of devices 6x slower, 10%
// drops, 1% corruption and 10% offline devices per round, three CCCP
// rounds, journaled and flight-recorded.
constexpr std::size_t kChronicUsers = 20;
constexpr int kChronicCap = 150;

AsyncQuorumResult run_chronic_straggler_fleet(std::uint64_t seed,
                                              int threads,
                                              obs::Journal* journal,
                                              obs::FlightRecorder* flight) {
  const auto dataset =
      make_population(kChronicUsers, std::numbers::pi / 2.0,
                      kChronicUsers / 2, 0.05, seed, /*points_per_class=*/60);
  net::SimNetwork network(kChronicUsers, net::DeviceProfile{},
                          net::LinkProfile{});
  for (std::size_t t = 0; t < kChronicUsers; ++t) {
    if (t % 10 >= 3) continue;
    net::DeviceProfile profile;
    profile.cpu_slowdown *= 6.0;
    network.set_device_profile(t, profile);
  }
  net::FaultSpec faults;
  faults.drop_probability = 0.1;
  faults.corrupt_probability = 0.01;
  faults.offline_probability = 0.1;
  faults.seed = seed;
  network.set_fault_model(net::FaultModel(faults));

  AsyncQuorumOptions options;
  options.base.params.lambda = 100.0;
  options.base.params.cl = 10.0;
  options.base.params.cu = 1.0;
  options.base.cutting_plane.epsilon = 5e-2;
  options.base.cccp.max_iterations = 3;
  options.base.max_admm_iterations = kChronicCap;
  options.base.num_threads = threads;
  options.base.journal = journal;
  options.quorum = 0.6;
  options.staleness_bound = 12;
  options.adaptive_deadline = false;
  options.latency.compute_base_s = 5e-2;
  options.latency.seed = seed;
  options.flight = flight;
  return train_async_quorum_plos(dataset, options, &network);
}

TEST(InexactCccp, RelativeTermHalvesPerRoundDownToOnePercent) {
  const double expected[] = {0.3,    0.15, 0.075, 0.0375, 0.01875,
                             0.01,   0.01, 0.01,  0.01};
  for (int c = 0; c < 9; ++c) {
    EXPECT_EQ(core::eq24_relative_term(c), expected[c]) << "round " << c;
  }
  EXPECT_EQ(core::eq24_relative_term(40), 0.01);
}

/// A late upload enters the first aggregate after it lands. An upload that
/// lands while a step waits for its quorum is folded once the cut has
/// advanced the clock, so a fold whose upload had landed by the previous
/// step's aggregate is one that pass had to leave: stashed in that very
/// step (age 0 there), or with an age there already equal to the bound.
/// Most folds land mid-step, where a fold before the dispatch alone would
/// have held them back one step.
TEST(QuorumAdmm, LateUploadEntersTheFirstAggregateAfterItLands) {
  constexpr std::uint64_t kBound = 12;  // run_chronic_straggler_fleet's
  int folds = 0;
  int mid_step_folds = 0;
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    obs::Journal journal;
    obs::FlightRecorder flight;
    run_chronic_straggler_fleet(seed, /*threads=*/1, &journal, &flight);
    ASSERT_EQ(flight.dropped(), 0u);
    const std::size_t steps = journal.records().size();
    std::vector<double> aggregate_at(steps, -1.0);
    for (const obs::FlightEvent& event : flight.events()) {
      if (event.kind != obs::FlightEventKind::kAggregate) continue;
      ASSERT_LT(event.round, steps);
      aggregate_at[event.round] = event.t_end;
    }
    for (const obs::FlightEvent& event : flight.events()) {
      if (event.kind != obs::FlightEventKind::kLateFold) continue;
      ++folds;
      const std::uint64_t k = event.round;
      const std::uint64_t age = event.staleness;
      ASSERT_GE(k, 1u);
      ASSERT_GE(age, 1u);
      EXPECT_LE(event.t_start, event.t_end) << "folded before it landed";
      EXPECT_LE(event.t_end, aggregate_at[k]);
      if (event.t_start > aggregate_at[k - 1]) {
        ++mid_step_folds;
        EXPECT_EQ(event.t_end, aggregate_at[k])
            << "seed " << seed << " step " << k << " device "
            << event.device << ": landed mid-step, folded before the cut";
      } else {
        const std::uint64_t age_before = age - 1;
        EXPECT_TRUE(age_before == 0 || age_before >= kBound)
            << "seed " << seed << " step " << k << " device "
            << event.device << " landed at " << event.t_start
            << ", before step " << k - 1 << "'s aggregate at "
            << aggregate_at[k - 1] << ", and missed it at age "
            << age_before;
      }
    }
  }
  EXPECT_GT(folds, 0);
  EXPECT_GT(mid_step_folds * 2, folds)
      << mid_step_folds << " of " << folds << " late folds landed mid-step";
}

/// On e2ebench's async fleet, a step reads its round's loose term only when
/// every block was refreshed since the round began: fresh, or by a late
/// fold, and not reset by an eviction since. The flight recorder shows
/// late folds and evictions per block, but not which delivered uploads
/// made the cut, so the check counts every delivered upload as a refresh.
/// That over-approximates the refreshed set, so a loose step it flags read
/// an aggregate with a block not refreshed. A round whose objective meets
/// the CCCP tolerance ends the run, and its last step reads 1e-2. Journals
/// and models are byte-identical at 1 and 4 threads.
TEST(InexactCccp, LooseStopsReadOnlyFullyRefreshedAggregates) {
  const core::CccpOptions cccp = AsyncQuorumOptions{}.base.cccp;
  int loose_stops = 0;
  int guarded_steps = 0;
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    std::string reference_journal;
    core::PersonalizedModel reference_model;
    for (int threads : {1, 4}) {
      obs::Journal journal;
      obs::FlightRecorder flight;
      const auto result =
          run_chronic_straggler_fleet(seed, threads, &journal, &flight);
      if (threads == 1) {
        reference_journal = journal.to_jsonl();
        reference_model = result.model;
      } else {
        EXPECT_EQ(journal.to_jsonl(), reference_journal) << "seed " << seed;
        expect_models_bitwise_equal(reference_model, result.model);
        continue;
      }

      const std::vector<obs::RoundRecord> records = journal.records();
      ASSERT_EQ(flight.dropped(), 0u);
      std::vector<std::vector<char>> delivered(
          records.size(), std::vector<char>(kChronicUsers, 0));
      std::vector<std::vector<char>> folded = delivered;
      std::vector<std::vector<char>> evicted = delivered;
      for (const obs::FlightEvent& event : flight.events()) {
        ASSERT_LT(event.round, records.size());
        if (event.kind == obs::FlightEventKind::kUploadAttempt &&
            event.cause == static_cast<int>(obs::AttemptResult::kDelivered)) {
          delivered[event.round][event.device] = 1;
        } else if (event.kind == obs::FlightEventKind::kLateFold) {
          folded[event.round][event.device] = 1;
        } else if (event.kind == obs::FlightEventKind::kEviction) {
          evicted[event.round][event.device] = 1;
        }
      }

      // Within a step, evictions of aged uploads and late folds come
      // before the new uploads land; no block is both folded and evicted.
      std::vector<char> refreshed(kChronicUsers, 0);
      std::vector<double> round_objective;
      for (std::size_t k = 0; k < records.size(); ++k) {
        const obs::RoundRecord& record = records[k];
        if (k == 0 || record.cccp_round != records[k - 1].cccp_round) {
          std::fill(refreshed.begin(), refreshed.end(), 0);
        }
        for (std::size_t t = 0; t < kChronicUsers; ++t) {
          if (delivered[k][t] != 0 || folded[k][t] != 0) {
            refreshed[t] = 1;
          } else if (evicted[k][t] != 0) {
            refreshed[t] = 0;
          }
        }
        const bool all_refreshed =
            std::all_of(refreshed.begin(), refreshed.end(),
                        [](char r) { return r != 0; });
        const double schedule = core::eq24_relative_term(record.cccp_round);
        if (record.eq24_rel > 0.01) {
          EXPECT_TRUE(all_refreshed)
              << "seed " << seed << " step " << k << " read "
              << record.eq24_rel << " with a block not refreshed";
          EXPECT_EQ(record.eq24_rel, schedule);
        } else {
          EXPECT_EQ(record.eq24_rel, 0.01);
          if (schedule > 0.01 && !all_refreshed) ++guarded_steps;
        }
        const bool last_of_round =
            k + 1 == records.size() ||
            records[k + 1].cccp_round != record.cccp_round;
        if (!last_of_round) continue;
        if (record.eq24_rel > 0.01 &&
            record.admm_iteration + 1 < kChronicCap) {
          ++loose_stops;
        }
        if (!round_objective.empty() &&
            core::cccp_tolerance_met(cccp, round_objective.back(),
                                     record.objective)) {
          EXPECT_EQ(k + 1, records.size())
              << "seed " << seed << ": CCCP met its tolerance in round "
              << record.cccp_round << " and went on";
          EXPECT_EQ(record.eq24_rel, 0.01)
              << "seed " << seed << ": CCCP ended on a loose round "
              << record.cccp_round;
        }
        round_objective.push_back(record.objective);
      }
      EXPECT_EQ(static_cast<int>(round_objective.size()),
                result.diagnostics.cccp_iterations);
    }
  }
  // Neither half holds vacuously: some rounds stopped loose, and some steps
  // were held at 1e-2 by a block not yet refreshed.
  EXPECT_GT(loose_stops, 0);
  EXPECT_GT(guarded_steps, 0);
}

/// An eviction un-refreshes its block: on a churned fleet whose every
/// delivered upload is fresh (quorum 1.0, no deadlines, churn only), the
/// refreshed set is known exactly from the flight log, and a step reads
/// 1e-2 while any evicted block has not been refreshed again. The check
/// counts the steps where only such blocks held the term at 1e-2, so the
/// guard, not some other unrefreshed block, was what decided them.
TEST(InexactCccp, EvictedBlockHoldsOnePercentUntilRefreshed) {
  constexpr std::size_t kUsers = 10;
  int eviction_guarded_steps = 0;
  for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    const auto dataset = make_population(kUsers, 0.5, 5, 0.4, 30 + seed);
    net::FaultSpec faults;
    faults.offline_probability = 0.3;
    faults.seed = seed;
    net::SimNetwork network(kUsers, net::DeviceProfile{}, net::LinkProfile{});
    network.set_fault_model(net::FaultModel(faults));
    obs::Journal journal;
    obs::FlightRecorder flight;
    AsyncQuorumOptions options = degenerate_options(/*staleness_bound=*/2);
    options.base.cccp.max_iterations = 5;
    options.base.journal = &journal;
    options.flight = &flight;
    train_async_quorum_plos(dataset, options, &network);

    const std::vector<obs::RoundRecord> records = journal.records();
    ASSERT_EQ(flight.dropped(), 0u);
    std::vector<std::vector<char>> fresh(records.size(),
                                         std::vector<char>(kUsers, 0));
    std::vector<std::vector<char>> evicted = fresh;
    for (const obs::FlightEvent& event : flight.events()) {
      ASSERT_LT(event.round, records.size());
      ASSERT_NE(event.kind, obs::FlightEventKind::kLateFold);
      if (event.kind == obs::FlightEventKind::kUploadAttempt &&
          event.cause == static_cast<int>(obs::AttemptResult::kDelivered)) {
        fresh[event.round][event.device] = 1;
      } else if (event.kind == obs::FlightEventKind::kEviction) {
        evicted[event.round][event.device] = 1;
      }
    }

    // Per block: 0 not refreshed this CCCP round, 1 refreshed, 2 evicted
    // after a refresh and not refreshed since. Within a step the fresh
    // uploads land before the evictions of aged blocks.
    std::vector<int> state(kUsers, 0);
    for (std::size_t k = 0; k < records.size(); ++k) {
      const obs::RoundRecord& record = records[k];
      if (k == 0 || record.cccp_round != records[k - 1].cccp_round) {
        std::fill(state.begin(), state.end(), 0);
      }
      for (std::size_t t = 0; t < kUsers; ++t) {
        if (fresh[k][t] != 0) state[t] = 1;
        if (evicted[k][t] != 0) state[t] = state[t] == 0 ? 0 : 2;
      }
      const bool any_evicted =
          std::find(state.begin(), state.end(), 2) != state.end();
      const bool none_unrefreshed =
          std::find(state.begin(), state.end(), 0) == state.end();
      if (any_evicted) {
        EXPECT_EQ(record.eq24_rel, 0.01)
            << "seed " << seed << " step " << k
            << " read a loose term with an evicted block not refreshed";
        if (none_unrefreshed &&
            core::eq24_relative_term(record.cccp_round) > 0.01) {
          ++eviction_guarded_steps;
        }
      }
    }
  }
  // Not vacuous: some loose-round steps were held at 1e-2 by evicted
  // blocks alone.
  EXPECT_GT(eviction_guarded_steps, 0);
}

/// A loose stop that would end CCCP on its objective tolerance is refused:
/// with a tolerance wide enough to end CCCP in round 1, whose scheduled
/// term is 0.15, the round still runs on to 1e-2.
TEST(InexactCccp, ToleranceStopRunsOnToOnePercent) {
  auto dataset = make_population(6, 0.4, 3, 0.4, 21);
  obs::Journal journal;
  auto options = fast_base();
  options.cccp.max_iterations = 8;
  options.cccp.objective_tolerance = 0.05;
  options.journal = &journal;
  net::SimNetwork network(6, net::DeviceProfile{}, net::LinkProfile{});
  const auto result = core::train_distributed_plos(dataset, options, &network);

  const std::vector<obs::RoundRecord> records = journal.records();
  ASSERT_FALSE(records.empty());
  const obs::RoundRecord& last = records.back();
  ASSERT_EQ(last.cccp_round + 1, result.diagnostics.cccp_iterations);
  ASSERT_LT(result.diagnostics.cccp_iterations, 5)
      << "CCCP did not end on its tolerance in a loose round";
  EXPECT_GT(core::eq24_relative_term(last.cccp_round), 0.01);
  EXPECT_EQ(last.eq24_rel, 0.01);
  // Round 0 is loose throughout: its blocks are all fresh from step 0.
  for (const obs::RoundRecord& record : records) {
    if (record.cccp_round == 0) {
      EXPECT_EQ(record.eq24_rel, 0.3);
    }
  }
}

TEST(AsyncQuorum, RejectsInvalidQuorum) {
  auto dataset = make_population(3, 0.3, 2, 0.4, 26);
  AsyncQuorumOptions options;
  options.base = fast_base();
  net::SimNetwork network(3, net::DeviceProfile{}, net::LinkProfile{});
  options.quorum = 0.0;
  EXPECT_THROW(train_async_quorum_plos(dataset, options, &network),
               PreconditionError);
  options.quorum = 1.5;
  EXPECT_THROW(train_async_quorum_plos(dataset, options, &network),
               PreconditionError);
  options.quorum = 0.5;
  EXPECT_THROW(train_async_quorum_plos(dataset, options, nullptr),
               PreconditionError);
}

// ---- Server step (Eq. 23, core::admm_server_update) ------------------------

struct ServerState {
  std::vector<linalg::Vector> w, v, u, late_w0;
  std::vector<char> fresh;
  linalg::Vector w0;
};

// Random blocks at an ADMM fixed point: w_t − v_t = w0 for every t, and
// Σ_t u_t = 2·w0/ρ, the stationarity condition of the w0 subproblem.
ServerState fixed_point_state(std::size_t users, std::size_t dim, double rho,
                              rng::Engine& engine) {
  ServerState s;
  s.w0 = engine.gaussian_vector(dim);
  s.late_w0.resize(users);
  s.fresh.assign(users, 1);
  linalg::Vector u_sum = linalg::zeros(dim);
  for (std::size_t t = 0; t < users; ++t) {
    s.v.push_back(engine.gaussian_vector(dim));
    s.w.push_back(linalg::add(s.w0, s.v.back()));
    if (t + 1 < users) {
      s.u.push_back(engine.gaussian_vector(dim));
      linalg::axpy(1.0, s.u.back(), u_sum);
    } else {
      s.u.push_back(linalg::scaled(s.w0, 2.0 / rho));
      linalg::axpy(-1.0, u_sum, s.u.back());
    }
  }
  return s;
}

// Random blocks away from any fixed point, all fresh.
ServerState random_state(std::size_t users, std::size_t dim,
                         rng::Engine& engine) {
  ServerState s;
  s.w0 = engine.gaussian_vector(dim);
  s.late_w0.resize(users);
  s.fresh.assign(users, 1);
  for (std::size_t t = 0; t < users; ++t) {
    s.w.push_back(engine.gaussian_vector(dim));
    s.v.push_back(engine.gaussian_vector(dim));
    s.u.push_back(engine.gaussian_vector(dim));
  }
  return s;
}

core::ServerUpdateSums server_step(ServerState& s, double rho) {
  return core::admm_server_update(s.w, s.v, s.fresh, s.late_w0, rho, s.w0,
                                  s.u);
}

TEST(ServerStep, RelaxedStepKeepsTheAdmmFixedPoint) {
  rng::Engine engine(41);
  for (std::size_t users : {1u, 2u, 7u, 40u}) {
    for (std::size_t dim : {1u, 3u, 29u}) {
      for (double rho : {0.2, 1.0, 5.0}) {
        ServerState s = fixed_point_state(users, dim, rho, engine);
        const linalg::Vector w0_before = s.w0;
        const std::vector<linalg::Vector> u_before = s.u;
        const core::ServerUpdateSums sums = server_step(s, rho);
        EXPECT_TRUE(linalg::approx_equal(s.w0, w0_before, 1e-12))
            << "T=" << users << " d=" << dim << " rho=" << rho;
        for (std::size_t t = 0; t < users; ++t) {
          EXPECT_TRUE(linalg::approx_equal(s.u[t], u_before[t], 1e-12))
              << "u[" << t << "] T=" << users << " d=" << dim;
        }
        EXPECT_LT(sums.primal_sq, 1e-20);
      }
    }
  }
}

TEST(ServerStep, AllFreshStepIsOverRelaxed) {
  // w0 = ρ/(2+Tρ)·Σ_t (x̂_t + u_t) and u_t += x̂_t − w0, with
  // x̂_t = α(w_t − v_t) + (1 − α)·w0_old; the stop sums stay unrelaxed.
  rng::Engine engine(42);
  const double rho = 1.5;
  ServerState s = random_state(5, 4, engine);
  const ServerState before = s;
  const core::ServerUpdateSums sums = server_step(s, rho);
  const double alpha = core::kAdmmRelaxation;
  std::vector<linalg::Vector> relaxed;
  linalg::Vector w0 = linalg::zeros(4);
  for (std::size_t t = 0; t < 5; ++t) {
    relaxed.push_back(linalg::scaled(linalg::sub(before.w[t], before.v[t]),
                                     alpha));
    linalg::axpy(1.0 - alpha, before.w0, relaxed[t]);
    linalg::axpy(1.0, linalg::add(relaxed[t], before.u[t]), w0);
  }
  linalg::scale(w0, rho / (2.0 + 5.0 * rho));
  EXPECT_TRUE(linalg::approx_equal(s.w0, w0, 1e-12));
  double primal_sq = 0.0;
  for (std::size_t t = 0; t < 5; ++t) {
    linalg::Vector u = linalg::add(before.u[t], relaxed[t]);
    linalg::axpy(-1.0, w0, u);
    EXPECT_TRUE(linalg::approx_equal(s.u[t], u, 1e-12)) << "u[" << t << "]";
    linalg::Vector residual = linalg::sub(before.w[t], before.v[t]);
    linalg::axpy(-1.0, w0, residual);
    primal_sq += linalg::squared_norm(residual);
  }
  EXPECT_NEAR(sums.primal_sq, primal_sq, 1e-12 * (1.0 + primal_sq));
}

TEST(ServerStep, PartialStepIsPlainEq23Bitwise) {
  // One cached block and one late-folded block: no relaxation anywhere,
  // the same statements in the same order as plain Eq. 23.
  rng::Engine engine(43);
  const double rho = 1.0;
  const std::size_t users = 6, dim = 5;
  ServerState s = random_state(users, dim, engine);
  s.fresh[2] = 0;  // cached: keeps its dual
  s.fresh[4] = 0;  // late-folded against an older consensus
  s.late_w0[4] = engine.gaussian_vector(dim);
  const ServerState before = s;
  const core::ServerUpdateSums sums = server_step(s, rho);

  linalg::Vector w0 = linalg::zeros(dim);
  for (std::size_t t = 0; t < users; ++t) {
    linalg::axpy(1.0, before.w[t], w0);
    linalg::axpy(-1.0, before.v[t], w0);
    linalg::axpy(1.0, before.u[t], w0);
  }
  linalg::scale(w0, rho / (2.0 + static_cast<double>(users) * rho));
  EXPECT_TRUE(linalg::approx_equal(s.w0, w0, 0.0));
  double primal_sq = 0.0;
  for (std::size_t t = 0; t < users; ++t) {
    linalg::Vector residual = linalg::sub(before.w[t], w0);
    linalg::axpy(-1.0, before.v[t], residual);
    primal_sq += linalg::squared_norm(residual);
    linalg::Vector u = before.u[t];
    if (before.fresh[t] != 0) {
      u = linalg::add(before.u[t], residual);
    } else if (!before.late_w0[t].empty()) {
      u = linalg::sub(before.w[t], before.late_w0[t]);
      linalg::axpy(-1.0, before.v[t], u);
      linalg::axpy(1.0, before.u[t], u);
    }
    EXPECT_TRUE(linalg::approx_equal(s.u[t], u, 0.0)) << "u[" << t << "]";
  }
  EXPECT_EQ(sums.primal_sq, primal_sq);
}

// ---- AutoTuner ------------------------------------------------------------

obs::RoundRecord record_with_tail(double stale_p99) {
  obs::RoundRecord record;
  record.stale_p99 = stale_p99;
  return record;
}

// The walk's constants (autotune.cpp): quorum in [0.5, 1] by 0.1, bound in
// [2, 64] by doubling/halving, widen at p99 >= 0.75 * bound, patience 2,
// cooldown 1.

TEST(AutoTuner, WidensBoundAfterPatienceThenHoldsThroughCooldown) {
  core::AutoTuner tuner(0.6, 4);
  // p99 at 3.5 >= 0.75 * 4: widen signal, but patience 2 means the first
  // sighting produces no action.
  core::AutoTuneDecision d = tuner.observe(record_with_tail(3.5));
  EXPECT_STREQ(d.event, "");
  EXPECT_EQ(tuner.staleness_bound(), 4u);
  d = tuner.observe(record_with_tail(3.5));
  EXPECT_STREQ(d.event, "bound_widen");
  EXPECT_EQ(d.trigger, 3.5);
  EXPECT_EQ(tuner.staleness_bound(), 8u);
  EXPECT_EQ(d.staleness_bound, 8u);
  // The cooldown step holds even though the signal persists at the new
  // bound (7 >= 0.75 * 8)...
  d = tuner.observe(record_with_tail(7.0));
  EXPECT_STREQ(d.event, "hold");
  EXPECT_EQ(tuner.staleness_bound(), 8u);
  // ...and the streak that began in the hold carried through it, so the
  // next step acts at once.
  d = tuner.observe(record_with_tail(7.0));
  EXPECT_STREQ(d.event, "bound_widen");
  EXPECT_EQ(tuner.staleness_bound(), 16u);
}

TEST(AutoTuner, RaisesQuorumOnceBoundIsMaxed) {
  core::AutoTuner tuner(0.6, 64);
  tuner.observe(record_with_tail(63.0));  // 63 >= 0.75 * 64: widen signal
  const core::AutoTuneDecision d = tuner.observe(record_with_tail(63.0));
  EXPECT_STREQ(d.event, "quorum_up");
  EXPECT_EQ(tuner.staleness_bound(), 64u);
  EXPECT_NEAR(tuner.quorum(), 0.7, 1e-12);
}

TEST(AutoTuner, LowersQuorumWhenTailIsComfortablyInsideTheBound) {
  core::AutoTuner tuner(0.8, 64);
  tuner.observe(record_with_tail(2.0));  // 2 * 2 <= 64: lower signal
  const core::AutoTuneDecision d = tuner.observe(record_with_tail(2.0));
  EXPECT_STREQ(d.event, "quorum_down");
  EXPECT_NEAR(tuner.quorum(), 0.7, 1e-12);
  EXPECT_EQ(tuner.staleness_bound(), 64u);  // tighten deferred to the floor
}

TEST(AutoTuner, TightensBoundOnlyAfterQuorumReachesTheFloor) {
  core::AutoTuner tuner(0.5, 64);  // quorum already at the 0.5 floor
  tuner.observe(record_with_tail(1.0));  // 4 * 1 <= 64: tighten signal
  const core::AutoTuneDecision d = tuner.observe(record_with_tail(1.0));
  EXPECT_STREQ(d.event, "bound_tighten");
  EXPECT_EQ(tuner.staleness_bound(), 32u);
  EXPECT_NEAR(tuner.quorum(), 0.5, 1e-12);
}

TEST(AutoTuner, NoisyRoundDoesNotFlipAKnob) {
  core::AutoTuner tuner(0.6, 4);
  // Alternate widen / quiet: the streak resets each quiet step, so with
  // patience = 2 nothing ever fires.
  for (int i = 0; i < 10; ++i) {
    const double p99 = (i % 2 == 0) ? 3.9 : 0.0;
    const core::AutoTuneDecision d = tuner.observe(record_with_tail(p99));
    EXPECT_TRUE(d.event[0] == '\0' || std::string(d.event) == "hold") << i;
  }
  EXPECT_EQ(tuner.staleness_bound(), 4u);
  EXPECT_NEAR(tuner.quorum(), 0.6, 1e-12);
}

TEST(AutoTuner, UnsetSketchMeansNoDecision) {
  core::AutoTuner tuner(0.6, 4);
  const core::AutoTuneDecision d = tuner.observe(obs::RoundRecord{});
  EXPECT_STREQ(d.event, "");
  EXPECT_TRUE(std::isnan(d.trigger));
}

TEST(AutoTuner, ClampsInitialKnobsAndRejectsBadConfig) {
  core::AutoTuner high(1.5, 1000);
  EXPECT_NEAR(high.quorum(), 1.0, 1e-12);
  EXPECT_EQ(high.staleness_bound(), 64u);
  core::AutoTuner low(0.1, 0);
  EXPECT_NEAR(low.quorum(), 0.5, 1e-12);
  EXPECT_EQ(low.staleness_bound(), 2u);
}

TEST(LatencyModel, CompletionSecondsIsDeterministicAndJitterBounded) {
  core::LatencyModelSpec spec;
  spec.jitter = 0.2;
  spec.seed = 77;
  const double base = spec.compute_base_s;
  const double a = core::completion_seconds(spec, 0.1, 50, 10.0, 1.0, 3, 4);
  const double b = core::completion_seconds(spec, 0.1, 50, 10.0, 1.0, 3, 4);
  EXPECT_EQ(a, b);
  const double nominal =
      0.1 + (base + spec.compute_per_qp_iter_s * 50.0) * 10.0;
  EXPECT_GE(a, nominal * 0.8);
  EXPECT_LT(a, nominal * 1.2);
  // Different devices draw different jitter.
  const double c = core::completion_seconds(spec, 0.1, 50, 10.0, 1.0, 3, 5);
  EXPECT_NE(a, c);
  // Zero jitter is exactly the nominal time.
  spec.jitter = 0.0;
  EXPECT_EQ(core::completion_seconds(spec, 0.1, 50, 10.0, 1.0, 3, 4), nominal);
  // The straggler multiplier scales only the compute proxy.
  spec.jitter = 0.0;
  const double slowed = core::completion_seconds(spec, 0.1, 50, 10.0, 3.0, 3, 4);
  EXPECT_DOUBLE_EQ(slowed,
                   0.1 + (base + spec.compute_per_qp_iter_s * 50.0) * 30.0);
}

TEST(AdaptiveDeadlinesTest, EwmaTracksObservationsAndSlackApplies) {
  core::AdaptiveDeadlines deadlines(2, /*adaptive=*/true);
  // No observations yet: no deadline.
  EXPECT_TRUE(std::isinf(deadlines.deadline(0)));
  deadlines.observe(0, 1.0);
  EXPECT_DOUBLE_EQ(deadlines.ewma(0), 1.0);
  EXPECT_DOUBLE_EQ(deadlines.deadline(0), 2.0);
  deadlines.observe(0, 2.0);  // EWMA weight 0.3 on the newest latency
  EXPECT_DOUBLE_EQ(deadlines.ewma(0), 1.3);
  EXPECT_DOUBLE_EQ(deadlines.deadline(0), 2.6);
  // Device 1 is untouched.
  EXPECT_TRUE(std::isinf(deadlines.deadline(1)));

  // Non-adaptive deadlines stay infinite after observations.
  core::AdaptiveDeadlines fixed(1, /*adaptive=*/false);
  fixed.observe(0, 100.0);
  EXPECT_TRUE(std::isinf(fixed.deadline(0)));
}

}  // namespace
}  // namespace plos::async
