// Tests for the fault-injection layer and the fault-tolerant distributed
// trainer: counter-based schedule determinism (including across thread
// counts), drop/offline/corrupt accounting, straggler/deadline semantics,
// convergence under 20% dropout, and random participation expressed as
// churn.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/assert.hpp"
#include "core/distributed_plos.hpp"
#include "core/evaluation.hpp"
#include "data/labeling.hpp"
#include "data/synthetic.hpp"
#include "net/fault.hpp"
#include "net/serialize.hpp"
#include "net/simnet.hpp"
#include "rng/engine.hpp"

namespace plos::net {
namespace {

// ---- FaultModel schedule --------------------------------------------------

TEST(FaultModel, DisabledModelNeverFaults) {
  const FaultModel inert;
  EXPECT_FALSE(inert.enabled());
  for (std::uint64_t round = 0; round < 50; ++round) {
    EXPECT_FALSE(inert.offline(round, 0));
    EXPECT_FALSE(inert.straggler(round, 0));
    EXPECT_FALSE(inert.drop(round, 0, Direction::kUplink, 0));
    EXPECT_FALSE(inert.corrupt(round, 0, Direction::kDownlink, 0));
    EXPECT_EQ(inert.time_multiplier(round, 0), 1.0);
  }
}

TEST(FaultModel, DrawsAreReproducible) {
  FaultSpec spec;
  spec.drop_probability = 0.3;
  spec.offline_probability = 0.2;
  spec.straggler_probability = 0.25;
  spec.seed = 7;
  const FaultModel a(spec);
  const FaultModel b(spec);
  for (std::uint64_t round = 0; round < 100; ++round) {
    for (std::size_t device = 0; device < 5; ++device) {
      EXPECT_EQ(a.offline(round, device), b.offline(round, device));
      EXPECT_EQ(a.straggler(round, device), b.straggler(round, device));
      for (int attempt = 0; attempt < 3; ++attempt) {
        EXPECT_EQ(a.drop(round, device, Direction::kUplink, attempt),
                  b.drop(round, device, Direction::kUplink, attempt));
        EXPECT_EQ(a.drop(round, device, Direction::kDownlink, attempt),
                  b.drop(round, device, Direction::kDownlink, attempt));
      }
    }
  }
}

TEST(FaultModel, SeedDecorrelatesSchedules) {
  FaultSpec spec;
  spec.drop_probability = 0.5;
  spec.seed = 1;
  FaultSpec other = spec;
  other.seed = 2;
  const FaultModel a(spec);
  const FaultModel b(other);
  int differences = 0;
  for (std::uint64_t round = 0; round < 400; ++round) {
    if (a.drop(round, 0, Direction::kUplink, 0) !=
        b.drop(round, 0, Direction::kUplink, 0)) {
      ++differences;
    }
  }
  EXPECT_GT(differences, 100);  // ~50% expected for independent fair draws
}

TEST(FaultModel, EmpiricalRatesMatchProbabilities) {
  FaultSpec spec;
  spec.drop_probability = 0.2;
  spec.offline_probability = 0.1;
  spec.seed = 11;
  const FaultModel model(spec);
  int drops = 0, offline = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const auto round = static_cast<std::uint64_t>(i);
    drops += model.drop(round, i % 7, Direction::kUplink, 0) ? 1 : 0;
    offline += model.offline(round, i % 7) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(drops) / n, 0.2, 0.02);
  EXPECT_NEAR(static_cast<double>(offline) / n, 0.1, 0.02);
}

TEST(FaultModel, DirectionsAndAttemptsAreIndependentDraws) {
  FaultSpec spec;
  spec.drop_probability = 0.5;
  spec.seed = 13;
  const FaultModel model(spec);
  int up_vs_down = 0, first_vs_retry = 0;
  for (std::uint64_t round = 0; round < 400; ++round) {
    if (model.drop(round, 0, Direction::kUplink, 0) !=
        model.drop(round, 0, Direction::kDownlink, 0)) {
      ++up_vs_down;
    }
    if (model.drop(round, 0, Direction::kUplink, 0) !=
        model.drop(round, 0, Direction::kUplink, 1)) {
      ++first_vs_retry;
    }
  }
  EXPECT_GT(up_vs_down, 100);
  EXPECT_GT(first_vs_retry, 100);
}

TEST(FaultModel, StragglerMultiplierAndDeadline) {
  FaultSpec spec;
  spec.straggler_probability = 1.0;
  spec.straggler_slowdown = 6.0;
  spec.seed = 17;
  const FaultModel no_deadline(spec);
  EXPECT_TRUE(no_deadline.straggler(0, 0));
  EXPECT_EQ(no_deadline.time_multiplier(0, 0), 6.0);
  // Without a deadline the server waits: nobody misses.
  EXPECT_FALSE(no_deadline.misses_deadline(0, 0));
  spec.round_deadline_s = 2.0;
  const FaultModel with_deadline(spec);
  EXPECT_TRUE(with_deadline.misses_deadline(0, 0));
}

TEST(FaultModel, InvalidSpecThrows) {
  FaultSpec spec;
  spec.drop_probability = 1.5;
  EXPECT_THROW(FaultModel{spec}, PreconditionError);
  spec = {};
  spec.straggler_slowdown = 0.5;
  spec.straggler_probability = 0.1;
  EXPECT_THROW(FaultModel{spec}, PreconditionError);
  spec = {};
  spec.max_retries = -1;
  spec.drop_probability = 0.1;
  EXPECT_THROW(FaultModel{spec}, PreconditionError);
  // Churn is how partial participation is expressed, so its probability
  // is range-checked on both sides.
  spec = {};
  spec.offline_probability = 1.5;
  EXPECT_THROW(FaultModel{spec}, PreconditionError);
  spec.offline_probability = -0.5;
  EXPECT_THROW(FaultModel{spec}, PreconditionError);
}

// ---- SimNetwork fault accounting -----------------------------------------

// SimNetwork holds a mutex and is neither movable nor copyable, so the
// helper hands back a unique_ptr.
std::unique_ptr<SimNetwork> make_network(std::size_t devices,
                                         const FaultSpec& spec) {
  auto net =
      std::make_unique<SimNetwork>(devices, DeviceProfile{}, LinkProfile{});
  net->set_fault_model(FaultModel(spec));
  return net;
}

std::vector<std::uint8_t> test_payload(std::size_t payload_bytes = 64) {
  return std::vector<std::uint8_t>(payload_bytes, 0xAB);
}

TEST(SimNetworkFaults, AlwaysDropExhaustsRetriesAndFails) {
  FaultSpec spec;
  spec.drop_probability = 1.0;
  spec.max_retries = 2;
  const auto net = make_network(2, spec);
  const auto payload = test_payload();
  const std::size_t frame_bytes = kFrameHeaderBytes + payload.size();
  const auto outcome = net->transmit_to_server(0, payload);
  EXPECT_FALSE(outcome.delivered);
  EXPECT_EQ(outcome.attempts, 3);  // 1 try + 2 retries
  const auto counters = net->fault_counters();
  EXPECT_EQ(counters.uplink_dropped, 3u);
  EXPECT_EQ(counters.retries, 2u);
  EXPECT_EQ(counters.failed_messages, 1u);
  // Sender paid for every attempt; the server never decoded a byte.
  EXPECT_EQ(net->device_metrics(0).bytes_sent, 3 * frame_bytes);
  EXPECT_EQ(net->server_metrics().bytes_received, 0u);
}

TEST(SimNetworkFaults, AlwaysCorruptIsDetectedByCrcAndFails) {
  FaultSpec spec;
  spec.corrupt_probability = 1.0;
  spec.max_retries = 1;
  const auto net = make_network(1, spec);
  const auto payload = test_payload();
  const std::size_t frame_bytes = kFrameHeaderBytes + payload.size();
  const auto outcome = net->transmit_to_device(0, payload);
  EXPECT_FALSE(outcome.delivered);
  EXPECT_EQ(outcome.attempts, 2);
  const auto counters = net->fault_counters();
  EXPECT_EQ(counters.downlink_corrupted, 2u);
  EXPECT_EQ(counters.failed_messages, 1u);
  // Corrupt frames traveled the whole way: both ends are charged.
  EXPECT_EQ(net->device_metrics(0).bytes_received, 2 * frame_bytes);
  EXPECT_EQ(net->server_metrics().bytes_sent, 2 * frame_bytes);
}

TEST(SimNetworkFaults, FaultFreeTransmitMatchesPlainSend) {
  SimNetwork faulty(2, DeviceProfile{}, LinkProfile{});  // no fault model
  SimNetwork plain(2, DeviceProfile{}, LinkProfile{});
  const auto payload = test_payload();
  const auto outcome = faulty.transmit_to_server(1, payload);
  EXPECT_TRUE(outcome.delivered);
  EXPECT_EQ(outcome.attempts, 1);
  plain.send_to_server(1, payload.size());
  EXPECT_EQ(faulty.device_metrics(1).bytes_sent,
            plain.device_metrics(1).bytes_sent);
  EXPECT_EQ(faulty.server_metrics().bytes_received,
            plain.server_metrics().bytes_received);
  EXPECT_EQ(faulty.fault_counters().failed_messages, 0u);
  // The link time is the one the ledger charged to the round.
  plain.end_round();
  EXPECT_EQ(outcome.seconds, plain.total_simulated_seconds());
}

TEST(SimNetworkFaults, EnabledModelFramesPayload) {
  // Framing follows the fault model, not whether a fault fires: an enabled
  // model whose only fault is churn (which transmit never consults) still
  // puts a CRC32 frame on the wire; a disabled one sends the bare payload.
  FaultSpec spec;
  spec.offline_probability = 0.5;
  const auto framed = make_network(1, spec);
  ASSERT_TRUE(framed->fault_model().enabled());
  SimNetwork bare(1, DeviceProfile{}, LinkProfile{});
  const auto payload = test_payload(100);
  for (int k = 0; k < 3; ++k) {
    EXPECT_TRUE(framed->transmit_to_server(0, payload).delivered);
    EXPECT_TRUE(framed->transmit_to_device(0, payload).delivered);
    EXPECT_TRUE(bare.transmit_to_server(0, payload).delivered);
    EXPECT_TRUE(bare.transmit_to_device(0, payload).delivered);
  }
  EXPECT_EQ(framed->server_metrics().bytes_received,
            3 * (payload.size() + kFrameHeaderBytes));
  EXPECT_EQ(framed->server_metrics().bytes_sent,
            3 * (payload.size() + kFrameHeaderBytes));
  EXPECT_EQ(bare.server_metrics().bytes_received, 3 * payload.size());
  EXPECT_EQ(bare.server_metrics().bytes_sent, 3 * payload.size());
  EXPECT_EQ(framed->fault_counters().retries, 0u);
}

TEST(SimNetworkFaults, TransmitOutcomesKeyOnRoundCounter) {
  FaultSpec spec;
  spec.drop_probability = 0.5;
  spec.max_retries = 0;
  spec.seed = 23;
  // Two identical networks stepping through rounds in lockstep agree on
  // every outcome; their drop pattern varies over rounds.
  const auto a = make_network(1, spec);
  const auto b = make_network(1, spec);
  const auto payload = test_payload();
  int delivered = 0;
  for (int round = 0; round < 40; ++round) {
    const auto oa = a->transmit_to_server(0, payload);
    const auto ob = b->transmit_to_server(0, payload);
    EXPECT_EQ(oa.delivered, ob.delivered);
    delivered += oa.delivered ? 1 : 0;
    a->end_round();
    b->end_round();
  }
  EXPECT_GT(delivered, 5);
  EXPECT_LT(delivered, 35);
}

TEST(SimNetworkFaults, StragglerScalesComputeAndDeadlineCapsRound) {
  FaultSpec spec;
  spec.straggler_probability = 1.0;
  spec.straggler_slowdown = 10.0;
  const auto slow = make_network(1, spec);
  slow->account_device_compute(0, 0.1);  // 0.1 * 10 cpu_slowdown * 10 straggler
  EXPECT_DOUBLE_EQ(slow->device_metrics(0).compute_seconds, 10.0);
  slow->end_round();
  EXPECT_DOUBLE_EQ(slow->total_simulated_seconds(), 10.0);

  spec.round_deadline_s = 3.0;
  const auto capped = make_network(1, spec);
  capped->account_device_compute(0, 0.1);
  capped->end_round();
  // The device took 10 simulated seconds but the server moved on at 3.
  EXPECT_DOUBLE_EQ(capped->total_simulated_seconds(), 3.0);
}

TEST(SimNetworkFaults, PerDeviceLinkOverrides) {
  SimNetwork net(2, DeviceProfile{}, LinkProfile{0.01, 1024.0});
  LinkProfile slow_link;
  slow_link.latency_s = 0.05;
  slow_link.bandwidth_kbps = 256.0;
  net.set_device_link(1, slow_link);
  EXPECT_DOUBLE_EQ(net.device_link(0).bandwidth_kbps, 1024.0);
  EXPECT_DOUBLE_EQ(net.device_link(1).bandwidth_kbps, 256.0);
  // 1 KiB over the slow link: 0.05 + 8/256 s; over the default: 0.01 + 8/1024.
  net.send_to_device(1, 1024);
  net.end_round();
  EXPECT_NEAR(net.total_simulated_seconds(), 0.05 + 8.0 / 256.0, 1e-12);
  EXPECT_THROW(net.set_device_link(5, slow_link), PreconditionError);
  LinkProfile bad;
  bad.bandwidth_kbps = 0.0;
  EXPECT_THROW(net.set_device_link(0, bad), PreconditionError);
}

TEST(SimNetworkFaults, DeviceMetricsOutOfRangeThrows) {
  SimNetwork net(2, DeviceProfile{}, LinkProfile{});
  EXPECT_THROW(net.device_metrics(2), PreconditionError);
  EXPECT_THROW(net.device_link(2), PreconditionError);
}

// ---- Retry backoff jitter -------------------------------------------------

TEST(FaultModel, RetryBackoffMultiplierIdentityWithoutJitter) {
  // Disabled model and jitter-free spec are both bitwise identities.
  const FaultModel inert;
  EXPECT_EQ(inert.retry_backoff_multiplier(0, 0, Direction::kUplink, 1), 1.0);
  FaultSpec spec;
  spec.drop_probability = 0.5;  // enabled, but no jitter configured
  spec.seed = 3;
  const FaultModel model(spec);
  for (int attempt = 1; attempt <= 4; ++attempt) {
    EXPECT_EQ(model.retry_backoff_multiplier(2, 1, Direction::kDownlink,
                                             attempt),
              1.0);
  }
}

TEST(FaultModel, RetryBackoffMultiplierJitterIsBoundedAndDeterministic) {
  FaultSpec spec;
  spec.drop_probability = 0.5;
  spec.retry_jitter = 0.4;
  spec.seed = 11;
  const FaultModel model(spec);
  const FaultModel twin(spec);
  bool saw_distinct = false;
  double first = 0.0;
  for (std::uint64_t round = 0; round < 4; ++round) {
    for (std::size_t device = 0; device < 4; ++device) {
      for (int attempt = 1; attempt <= 3; ++attempt) {
        const double m = model.retry_backoff_multiplier(
            round, device, Direction::kUplink, attempt);
        EXPECT_GE(m, 1.0 - spec.retry_jitter);
        EXPECT_LT(m, 1.0 + spec.retry_jitter);
        // Pure counter draw: a twin model replays it exactly.
        EXPECT_EQ(m, twin.retry_backoff_multiplier(round, device,
                                                   Direction::kUplink,
                                                   attempt));
        if (round == 0 && device == 0 && attempt == 1) first = m;
        if (m != first) saw_distinct = true;
      }
    }
  }
  EXPECT_TRUE(saw_distinct);  // the draws actually vary across the key space
}

TEST(FaultModel, CounterUniformExternalKindsAreIndependent) {
  // The async latency jitter keys its family from 0x10 up; distinct kinds
  // over the same (seed, round, device) key must decorrelate.
  const double a = counter_uniform(42, 0x10, 3, 1, 0, 0);
  const double b = counter_uniform(42, 0x11, 3, 1, 0, 0);
  EXPECT_GE(a, 0.0);
  EXPECT_LT(a, 1.0);
  EXPECT_NE(a, b);
  EXPECT_EQ(a, counter_uniform(42, 0x10, 3, 1, 0, 0));
}

}  // namespace
}  // namespace plos::net

namespace plos::core {
namespace {

data::MultiUserDataset make_population(std::uint64_t seed,
                                       std::size_t num_users = 6) {
  data::SyntheticSpec spec;
  spec.num_users = num_users;
  spec.points_per_class = 30;
  spec.max_rotation = 0.5;
  rng::Engine engine(seed);
  auto dataset = data::generate_synthetic(spec, engine);
  std::vector<std::size_t> providers;
  for (std::size_t t = 0; t < num_users; t += 2) providers.push_back(t);
  data::reveal_labels(dataset, providers, 0.3, engine);
  return dataset;
}

DistributedPlosOptions fast_options(int num_threads = 1) {
  DistributedPlosOptions options;
  options.params.lambda = 100.0;
  options.params.cl = 10.0;
  options.params.cu = 1.0;
  options.cutting_plane.epsilon = 1e-2;
  options.cccp.max_iterations = 3;
  options.max_admm_iterations = 100;
  options.num_threads = num_threads;
  return options;
}

net::FaultSpec mixed_fault_spec() {
  net::FaultSpec spec;
  spec.drop_probability = 0.15;
  spec.corrupt_probability = 0.05;
  spec.offline_probability = 0.1;
  spec.straggler_probability = 0.1;
  // Any straggler misses when a deadline is set (the decision keys on the
  // schedule, not on measured time); the magnitude only caps the clock.
  spec.round_deadline_s = 5.0;
  spec.seed = 31;
  return spec;
}

struct FaultyRun {
  DistributedPlosResult result;
  std::vector<std::size_t> device_bytes_sent;
  std::vector<std::size_t> device_bytes_received;
  std::size_t server_bytes_sent = 0;
  std::size_t server_bytes_received = 0;
  std::size_t uplink_messages = 0;
  std::size_t downlink_messages = 0;
  net::FaultCounters counters;
};

FaultyRun run_faulty(const data::MultiUserDataset& dataset,
                     const net::FaultSpec& spec,
                     const DistributedPlosOptions& options) {
  net::SimNetwork network(dataset.num_users(), net::DeviceProfile{},
                          net::LinkProfile{});
  network.set_fault_model(net::FaultModel(spec));
  FaultyRun run;
  run.result = train_distributed_plos(dataset, options, &network);
  for (std::size_t t = 0; t < dataset.num_users(); ++t) {
    run.device_bytes_sent.push_back(network.device_metrics(t).bytes_sent);
    run.device_bytes_received.push_back(
        network.device_metrics(t).bytes_received);
    run.uplink_messages += network.device_metrics(t).messages_sent;
    run.downlink_messages += network.device_metrics(t).messages_received;
  }
  run.server_bytes_sent = network.server_metrics().bytes_sent;
  run.server_bytes_received = network.server_metrics().bytes_received;
  run.counters = network.fault_counters();
  return run;
}

FaultyRun run_faulty(const data::MultiUserDataset& dataset,
                     const net::FaultSpec& spec, int num_threads) {
  return run_faulty(dataset, spec, fast_options(num_threads));
}

TEST(FaultTolerantDistributedPlos, DeterministicAcrossThreadCounts) {
  // The core acceptance criterion: with faults enabled, models, per-device
  // byte ledgers, fault counters, and the participation trace are bitwise
  // identical for every thread count.
  const auto dataset = make_population(41);
  const auto reference = run_faulty(dataset, mixed_fault_spec(), 1);
  // The faults actually fired — otherwise this test proves nothing.
  EXPECT_GT(reference.counters.downlink_dropped +
                reference.counters.uplink_dropped,
            0u);
  EXPECT_GT(reference.result.diagnostics.devices_offline_total, 0u);
  for (const int threads : {2, 4, 8}) {
    const auto run = run_faulty(dataset, mixed_fault_spec(), threads);
    EXPECT_TRUE(
        linalg::approx_equal(reference.result.model.global_weights,
                             run.result.model.global_weights, 0.0))
        << "threads=" << threads;
    for (std::size_t t = 0; t < dataset.num_users(); ++t) {
      EXPECT_TRUE(
          linalg::approx_equal(reference.result.model.user_deviations[t],
                               run.result.model.user_deviations[t], 0.0))
          << "threads=" << threads << " device=" << t;
      EXPECT_EQ(reference.device_bytes_sent[t], run.device_bytes_sent[t]);
      EXPECT_EQ(reference.device_bytes_received[t],
                run.device_bytes_received[t]);
    }
    EXPECT_EQ(reference.server_bytes_sent, run.server_bytes_sent);
    EXPECT_EQ(reference.server_bytes_received, run.server_bytes_received);
    EXPECT_EQ(reference.counters.downlink_dropped,
              run.counters.downlink_dropped);
    EXPECT_EQ(reference.counters.uplink_dropped, run.counters.uplink_dropped);
    EXPECT_EQ(reference.counters.downlink_corrupted,
              run.counters.downlink_corrupted);
    EXPECT_EQ(reference.counters.uplink_corrupted,
              run.counters.uplink_corrupted);
    EXPECT_EQ(reference.counters.retries, run.counters.retries);
    EXPECT_EQ(reference.counters.failed_messages,
              run.counters.failed_messages);
    EXPECT_EQ(reference.result.diagnostics.participation_trace,
              run.result.diagnostics.participation_trace);
    EXPECT_EQ(reference.result.diagnostics.objective_trace,
              run.result.diagnostics.objective_trace);
  }
}

TEST(FaultTolerantDistributedPlos, TwentyPercentDropoutStaysWithinTwoPercent) {
  // Acceptance criterion: 20% per-round device dropout (churn) costs at
  // most 2 accuracy points against the fault-free run.
  const auto dataset = make_population(42, 8);
  net::SimNetwork clean_net(8, net::DeviceProfile{}, net::LinkProfile{});
  const auto clean =
      train_distributed_plos(dataset, fast_options(), &clean_net);

  net::FaultSpec spec;
  spec.offline_probability = 0.2;
  spec.seed = 43;
  const auto faulty = run_faulty(dataset, spec, 1);

  const auto clean_report =
      evaluate(dataset, predict_all(dataset, clean.model));
  const auto faulty_report =
      evaluate(dataset, predict_all(dataset, faulty.result.model));
  EXPECT_GT(faulty.result.diagnostics.devices_offline_total, 0u);
  EXPECT_GE(faulty_report.overall, clean_report.overall - 0.02);
}

TEST(FaultTolerantDistributedPlos, ParticipationTraceReflectsChurn) {
  const auto dataset = make_population(44, 8);
  net::FaultSpec spec;
  spec.offline_probability = 0.3;
  spec.seed = 45;
  const auto run = run_faulty(dataset, spec, 1);
  const auto& trace = run.result.diagnostics.participation_trace;
  ASSERT_EQ(trace.size(),
            static_cast<std::size_t>(
                run.result.diagnostics.admm_iterations_total));
  double mean = 0.0;
  bool any_partial = false;
  for (double p : trace) {
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
    mean += p;
    any_partial = any_partial || p < 1.0;
  }
  mean /= static_cast<double>(trace.size());
  EXPECT_TRUE(any_partial);
  EXPECT_NEAR(mean, 0.7, 0.15);
}

TEST(FaultTolerantDistributedPlos, FaultFreeRunHasCleanDiagnostics) {
  const auto dataset = make_population(46);
  net::SimNetwork network(6, net::DeviceProfile{}, net::LinkProfile{});
  const auto result =
      train_distributed_plos(dataset, fast_options(), &network);
  EXPECT_EQ(result.diagnostics.devices_offline_total, 0u);
  EXPECT_EQ(result.diagnostics.uplink_failures_total, 0u);
  EXPECT_EQ(result.diagnostics.fault_counters.retries, 0u);
  for (double p : result.diagnostics.participation_trace) {
    EXPECT_EQ(p, 1.0);
  }
}

TEST(FaultTolerantDistributedPlos, DeadlineDropsStragglerUploads) {
  const auto dataset = make_population(47, 6);
  net::FaultSpec spec;
  spec.straggler_probability = 0.25;
  spec.straggler_slowdown = 8.0;
  spec.round_deadline_s = 0.5;
  spec.seed = 48;
  const auto run = run_faulty(dataset, spec, 1);
  const auto& diag = run.result.diagnostics;
  EXPECT_GT(diag.deadline_misses_total, 0u);
  // With stragglers as the only fault (no drops, no corruption, no churn),
  // each of the 6 devices uploads once per ADMM iteration — except when it
  // missed the deadline, in which case it never transmits. The bootstrap
  // adds one upload per label provider (3 of 6: devices without revealed
  // labels have no local SVM to contribute). The ledger must show exactly
  // that many uplinks.
  const std::size_t expected =
      3 + 6 * static_cast<std::size_t>(diag.admm_iterations_total) -
      diag.deadline_misses_total;
  EXPECT_EQ(run.uplink_messages, expected);
}

TEST(FaultTolerantDistributedPlos, CorruptionIsRecoveredByRetries) {
  const auto dataset = make_population(49, 6);
  net::FaultSpec spec;
  spec.corrupt_probability = 0.1;
  spec.max_retries = 5;  // enough retries that messages almost always land
  spec.seed = 50;
  const auto run = run_faulty(dataset, spec, 1);
  EXPECT_GT(run.counters.downlink_corrupted + run.counters.uplink_corrupted,
            0u);
  EXPECT_GT(run.counters.retries, 0u);
  // With 5 retries at 10% corruption the failure probability per message is
  // 1e-6; the run should see (virtually) no undelivered messages.
  EXPECT_EQ(run.counters.failed_messages, 0u);
  const auto report =
      evaluate(dataset, predict_all(dataset, run.result.model));
  EXPECT_GT(report.overall, 0.75);
}

TEST(FaultTolerantDistributedPlos, EveryCorruptedAttemptIsCounted) {
  // Corruption is the only fault, so every attempt that reached its
  // receiver was either delivered or CRC-rejected: the on-air message
  // ledgers minus the deliveries the trainer saw must equal the corruption
  // counters exactly, in both directions.
  const auto dataset = make_population(51, 6);
  net::FaultSpec spec;
  spec.corrupt_probability = 0.3;
  spec.max_retries = 1;
  spec.seed = 52;
  const auto run = run_faulty(dataset, spec, 2);
  const auto& diag = run.result.diagnostics;
  EXPECT_GT(run.counters.downlink_corrupted, 0u);
  EXPECT_GT(run.counters.uplink_corrupted, 0u);
  EXPECT_GT(diag.downlink_failures_total + diag.uplink_failures_total, 0u);
  EXPECT_EQ(run.counters.failed_messages,
            diag.downlink_failures_total + diag.uplink_failures_total);
  // Each of the 6 devices is sent (w0, u_t) once per ADMM iteration.
  const std::size_t downlinks =
      6 * static_cast<std::size_t>(diag.admm_iterations_total);
  EXPECT_EQ(run.downlink_messages, run.counters.downlink_corrupted +
                                       downlinks -
                                       diag.downlink_failures_total);
  // Uploads: one per bootstrap label provider (3 of 6) plus one per
  // received broadcast.
  const std::size_t uplinks = 3 + downlinks - diag.downlink_failures_total;
  EXPECT_EQ(run.uplink_messages, run.counters.uplink_corrupted + uplinks -
                                     diag.uplink_failures_total);
}

// ---- random participation as churn ---------------------------------------
//
// A device that responds to a round with probability p is a device that
// is offline with probability 1 - p: its last uploads stay in force on the
// server and its dual refreshes only when it next delivers.

net::FaultSpec churn_spec(double offline_probability) {
  net::FaultSpec spec;
  spec.offline_probability = offline_probability;
  spec.seed = 7;
  return spec;
}

// A sparse fleet needs more rounds to reach consensus.
DistributedPlosOptions churn_options() {
  DistributedPlosOptions options = fast_options();
  options.max_admm_iterations = 150;
  return options;
}

TEST(FaultTolerantDistributedPlos, HalfFleetOfflineStillLearns) {
  const auto dataset = make_population(2);
  const auto run = run_faulty(dataset, churn_spec(0.5), churn_options());
  EXPECT_GT(run.result.diagnostics.devices_offline_total, 0u);
  const auto report =
      evaluate(dataset, predict_all(dataset, run.result.model));
  EXPECT_GT(report.overall, 0.75);
}

TEST(FaultTolerantDistributedPlos, HeavyChurnDegradesGracefully) {
  const auto dataset = make_population(3);
  // Churn also applies to the bootstrap round. When it takes every label
  // provider offline there, the server starts from a random direction
  // instead of the providers' SVM average, and this population can settle
  // far from the fault-free model. This schedule lets provider 2 through,
  // so the comparison isolates churn during the ADMM rounds.
  net::FaultSpec spec = churn_spec(0.7);
  spec.seed = 1;
  const net::FaultModel schedule(spec);
  ASSERT_FALSE(schedule.offline(0, 0) && schedule.offline(0, 2) &&
               schedule.offline(0, 4));

  net::SimNetwork clean_net(6, net::DeviceProfile{}, net::LinkProfile{});
  const auto clean =
      train_distributed_plos(dataset, churn_options(), &clean_net);
  const auto sparse = run_faulty(dataset, spec, churn_options());
  const auto clean_report =
      evaluate(dataset, predict_all(dataset, clean.model));
  const auto sparse_report =
      evaluate(dataset, predict_all(dataset, sparse.result.model));
  EXPECT_GT(sparse.result.diagnostics.devices_offline_total, 0u);
  EXPECT_GT(sparse_report.overall, clean_report.overall - 0.15);
}

TEST(FaultTolerantDistributedPlos, ChurnCutsServerBytesPerRound) {
  // Offline devices receive no broadcast and send no update, so the
  // server's per-round traffic shrinks with the fleet — even though churn
  // switches every message to a CRC32 frame.
  const auto dataset = make_population(4, 8);
  net::SimNetwork clean_net(8, net::DeviceProfile{}, net::LinkProfile{});
  const auto clean =
      train_distributed_plos(dataset, churn_options(), &clean_net);
  const auto sparse = run_faulty(dataset, churn_spec(0.6), churn_options());

  const double clean_bytes_per_round =
      static_cast<double>(clean_net.server_metrics().bytes_received) /
      std::max(1, clean.diagnostics.admm_iterations_total);
  const double sparse_bytes_per_round =
      static_cast<double>(sparse.server_bytes_received) /
      std::max(1, sparse.result.diagnostics.admm_iterations_total);
  EXPECT_LT(sparse_bytes_per_round, 0.8 * clean_bytes_per_round);
}

// The participation schedule is the fault schedule: its seed alone fixes
// which devices answer which round.
TEST(AsyncDistributedPlos, DeterministicGivenScheduleSeed) {
  const auto dataset = make_population(5);
  const auto a = run_faulty(dataset, churn_spec(0.4), churn_options());
  const auto b = run_faulty(dataset, churn_spec(0.4), churn_options());
  EXPECT_GT(a.result.diagnostics.devices_offline_total, 0u);
  EXPECT_TRUE(linalg::approx_equal(a.result.model.global_weights,
                                   b.result.model.global_weights, 0.0));
  EXPECT_EQ(a.result.diagnostics.participation_trace,
            b.result.diagnostics.participation_trace);
  EXPECT_EQ(a.server_bytes_received, b.server_bytes_received);

  net::FaultSpec reseeded = churn_spec(0.4);
  reseeded.seed = 8;
  const auto c = run_faulty(dataset, reseeded, churn_options());
  EXPECT_NE(a.result.diagnostics.participation_trace,
            c.result.diagnostics.participation_trace);
}

// Participation p is churn with offline probability 1 - p, so a
// participation outside [0, 1] is refused before any round runs.
TEST(AsyncDistributedPlos, InvalidParticipationThrows) {
  const auto dataset = make_population(6);
  for (const double participation : {1.5, -0.5}) {
    EXPECT_THROW(
        run_faulty(dataset, churn_spec(1.0 - participation), churn_options()),
        PreconditionError)
        << "participation=" << participation;
  }
}

}  // namespace
}  // namespace plos::core
