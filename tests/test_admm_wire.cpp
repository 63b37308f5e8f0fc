// Tests for the ADMM wire exchange (DESIGN.md §9 "Wire framing"): the
// broadcast and upload layouts round-trip every fold code, the decoders
// reject malformed payloads, a device's replay of each dual fold is the
// server's step bit for bit, and under drops, corruption, churn, deadline
// misses, late folds and evictions every device holds the server's u_t
// after each delivered broadcast.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "async/async_admm.hpp"
#include "common/assert.hpp"
#include "core/admm_device.hpp"
#include "core/cutting_plane.hpp"
#include "core/distributed_plos.hpp"
#include "core/quorum_admm.hpp"
#include "data/labeling.hpp"
#include "data/synthetic.hpp"
#include "linalg/vector.hpp"
#include "net/fault.hpp"
#include "net/simnet.hpp"
#include "rng/engine.hpp"

namespace plos::core {
namespace {

constexpr DualFold kEveryFold[] = {
    DualFold::kExplicit,  DualFold::kRelaxedFresh, DualFold::kPlainFresh,
    DualFold::kLateFold,  DualFold::kUnchanged,    DualFold::kZeroed};

void expect_same_bits(const linalg::Vector& actual,
                      const linalg::Vector& expected, const char* what) {
  EXPECT_TRUE(same_bits(actual, expected)) << what;
}

TEST(AdmmWire, BroadcastRoundTripsEveryFoldCode) {
  rng::Engine engine(5);
  const linalg::Vector w0 = engine.gaussian_vector(7);
  const linalg::Vector u = engine.gaussian_vector(7);
  for (DualFold fold : kEveryFold) {
    const auto payload = encode_broadcast(fold, w0, u);
    const DeviceBroadcast decoded = decode_broadcast(payload, 7);
    EXPECT_EQ(decoded.fold, fold);
    expect_same_bits(decoded.w0, w0, "w0");
    if (fold == DualFold::kExplicit) {
      expect_same_bits(decoded.u, u, "u");
    } else {
      EXPECT_TRUE(decoded.u.empty());
    }
  }
}

TEST(AdmmWire, UploadRoundTripsBothKinds) {
  rng::Engine engine(6);
  for (bool solved : {true, false}) {
    const DeviceUpload upload{solved, engine.gaussian_vector(5), 0.25};
    const DeviceUpload decoded = decode_upload(encode_upload(upload), 5);
    EXPECT_EQ(decoded.solved, solved);
    expect_same_bits(decoded.z, upload.z, "z");
    EXPECT_EQ(decoded.xi, upload.xi);
  }
}

// The byte table of DESIGN.md §9: a u32 type, u64-prefixed vectors and an
// f64 slack.
TEST(AdmmWire, MessageSizesMatchTheByteTable) {
  for (auto [dim, folded, explicit_dual, upload] :
       {std::array<std::size_t, 4>{3, 36, 68, 44},
        std::array<std::size_t, 4>{121, 980, 1956, 988}}) {
    const linalg::Vector x = linalg::zeros(dim);
    EXPECT_EQ(encode_broadcast(DualFold::kRelaxedFresh, x, x).size(), folded);
    EXPECT_EQ(encode_broadcast(DualFold::kExplicit, x, x).size(),
              explicit_dual);
    EXPECT_EQ(encode_upload(DeviceUpload{true, x, 0.0}).size(), upload);
  }
}

TEST(AdmmWire, DecodersRejectMalformedPayloads) {
  rng::Engine engine(7);
  const linalg::Vector w0 = engine.gaussian_vector(4);
  const linalg::Vector u = engine.gaussian_vector(4);
  const auto broadcast = encode_broadcast(DualFold::kExplicit, w0, u);
  const auto upload = encode_upload(DeviceUpload{true, u, 1.0});

  // Every proper prefix is truncated.
  for (std::size_t n = 0; n < broadcast.size(); ++n) {
    const std::vector<std::uint8_t> cut(broadcast.begin(),
                                        broadcast.begin() + n);
    EXPECT_THROW(decode_broadcast(cut, 4), PreconditionError) << n;
  }
  for (std::size_t n = 0; n < upload.size(); ++n) {
    const std::vector<std::uint8_t> cut(upload.begin(), upload.begin() + n);
    EXPECT_THROW(decode_upload(cut, 4), PreconditionError) << n;
  }
  // Trailing bytes.
  auto longer = broadcast;
  longer.push_back(0);
  EXPECT_THROW(decode_broadcast(longer, 4), PreconditionError);
  longer = upload;
  longer.push_back(0);
  EXPECT_THROW(decode_upload(longer, 4), PreconditionError);

  // Unknown types: a broadcast is not an upload and vice versa.
  auto retyped = broadcast;
  for (std::uint8_t type : {0, 2, 3, 9, 255}) {
    retyped[0] = type;
    EXPECT_THROW(decode_broadcast(retyped, 4), PreconditionError)
        << int{type};
  }
  retyped = upload;
  for (std::uint8_t type : {0, 1, 4, 7, 255}) {
    retyped[0] = type;
    EXPECT_THROW(decode_upload(retyped, 4), PreconditionError) << int{type};
  }

  // A vector whose length is not dim.
  EXPECT_THROW(decode_broadcast(broadcast, 3), PreconditionError);
  EXPECT_THROW(decode_broadcast(broadcast, 5), PreconditionError);
  EXPECT_THROW(decode_upload(upload, 3), PreconditionError);
  EXPECT_THROW(decode_upload(upload, 5), PreconditionError);
  const linalg::Vector short_u = engine.gaussian_vector(3);
  EXPECT_THROW(
      decode_broadcast(encode_broadcast(DualFold::kExplicit, w0, short_u), 4),
      PreconditionError);
}

// Without a QP solve w_t is the center itself. center + κ·0 would turn a
// −0.0 coordinate into +0.0, so the flag, not z = 0, decides.
TEST(AdmmWire, UnsolvedUploadRebuildsTheCenterBitForBit) {
  DistributedPlosOptions options;
  const ProxScales scales(4, options);
  const linalg::Vector center = {-0.0, 1.5, -2.25};
  const DeviceUpload unsolved =
      decode_upload(encode_upload({false, linalg::zeros(3), 0.0}), 3);
  const LocalSolution sol = solution_from_upload(unsolved, center, scales);
  expect_same_bits(sol.w, center, "w");
  EXPECT_TRUE(std::signbit(sol.w[0]));
  expect_same_bits(sol.v, linalg::zeros(3), "v");

  const LocalSolution solved =
      solution_from_upload({true, linalg::zeros(3), 0.0}, center, scales);
  EXPECT_FALSE(std::signbit(solved.w[0]));
  expect_same_bits(solved.w, prox_primal(center, scales.kappa,
                                         linalg::zeros(3)),
                   "solved w");
}

struct Blocks {
  std::vector<linalg::Vector> w, v, u, late_w0;
  std::vector<char> fresh;
  linalg::Vector w0;
};

Blocks random_blocks(std::size_t users, std::size_t dim,
                     rng::Engine& engine) {
  Blocks b;
  b.w0 = engine.gaussian_vector(dim);
  b.late_w0.resize(users);
  b.fresh.assign(users, 1);
  for (std::size_t t = 0; t < users; ++t) {
    b.w.push_back(engine.gaussian_vector(dim));
    b.v.push_back(engine.gaussian_vector(dim));
    b.u.push_back(engine.gaussian_vector(dim));
  }
  return b;
}

// A device that solved (w_t, v_t) around the broadcast w0 with dual u_t
// replays the server's step from the next broadcast alone.
TEST(AdmmWire, ReplayIsTheServerStepBitwise) {
  rng::Engine engine(8);
  const std::size_t users = 5, dim = 6;
  for (bool all_fresh : {true, false}) {
    Blocks b = random_blocks(users, dim, engine);
    if (!all_fresh) {
      b.fresh[1] = 0;  // cached: keeps its dual
      b.fresh[3] = 0;  // late-folded against an older consensus
      b.late_w0[3] = engine.gaussian_vector(dim);
    }
    const Blocks before = b;
    std::vector<DualFold> folds;
    admm_server_update(b.w, b.v, b.fresh, b.late_w0, 1.3, b.w0, b.u, &folds);
    ASSERT_EQ(folds.size(), users);
    for (std::size_t t = 0; t < users; ++t) {
      DualFold expected = DualFold::kPlainFresh;
      if (all_fresh) {
        expected = DualFold::kRelaxedFresh;
      } else if (t == 1) {
        expected = DualFold::kUnchanged;
      } else if (t == 3) {
        expected = DualFold::kLateFold;
      }
      EXPECT_EQ(folds[t], expected) << "block " << t;
      const linalg::Vector& solved_w0 =
          t == 3 && !all_fresh ? before.late_w0[t] : before.w0;
      const HeldDual held{before.u[t], solved_w0, before.w[t], before.v[t]};
      const std::optional<linalg::Vector> replayed =
          held.replay(folds[t], b.w0);
      ASSERT_TRUE(replayed.has_value());
      expect_same_bits(*replayed, b.u[t], "replayed u");
    }
  }
  // A fold that reads the solution needs one; kExplicit never replays.
  rng::Engine other(9);
  const HeldDual unsolved{other.gaussian_vector(3), other.gaussian_vector(3),
                          {}, {}};
  const linalg::Vector w0 = other.gaussian_vector(3);
  EXPECT_FALSE(unsolved.replay(DualFold::kRelaxedFresh, w0).has_value());
  EXPECT_FALSE(unsolved.replay(DualFold::kPlainFresh, w0).has_value());
  EXPECT_FALSE(unsolved.replay(DualFold::kLateFold, w0).has_value());
  EXPECT_FALSE(unsolved.replay(DualFold::kExplicit, w0).has_value());
  expect_same_bits(*unsolved.replay(DualFold::kUnchanged, w0), unsolved.u,
                   "unchanged");
  expect_same_bits(*unsolved.replay(DualFold::kZeroed, w0),
                   linalg::zeros(3), "zeroed");
}

data::MultiUserDataset population(std::size_t users, std::uint64_t seed) {
  data::SyntheticSpec spec;
  spec.num_users = users;
  spec.points_per_class = 30;
  spec.max_rotation = 0.5;
  rng::Engine engine(seed);
  auto dataset = data::generate_synthetic(spec, engine);
  std::vector<std::size_t> providers;
  for (std::size_t t = 0; t < users; t += 2) providers.push_back(t);
  data::reveal_labels(dataset, providers, 0.4, engine);
  return dataset;
}

DistributedPlosOptions small_base() {
  DistributedPlosOptions options;
  options.params.lambda = 100.0;
  options.params.cl = 10.0;
  options.params.cu = 1.0;
  options.cutting_plane.epsilon = 1e-2;
  options.cccp.max_iterations = 3;
  options.max_admm_iterations = 60;
  return options;
}

// train_distributed_plos's schedule, run through the engine to read its
// broadcast counters.
QuorumAdmmOptions synchronous_schedule(int threads) {
  QuorumAdmmOptions schedule;
  schedule.base = small_base();
  schedule.base.num_threads = threads;
  schedule.quorum = 1.0;
  schedule.staleness_bound = std::numeric_limits<std::uint64_t>::max();
  schedule.adaptive_deadline = false;
  return schedule;
}

// Fault free, the synchronous schedule over-relaxes every step and every
// device answers it, so no broadcast needs u_t on the wire.
TEST(AdmmWire, FaultFreeSynchronousRunSendsNoDual) {
  const auto dataset = population(6, 4);
  net::SimNetwork network(6, net::DeviceProfile{}, net::LinkProfile{});
  const QuorumAdmmResult result =
      train_quorum_admm(dataset, synchronous_schedule(1), network);
  EXPECT_EQ(result.async.broadcasts_explicit, 0u);
  EXPECT_EQ(result.async.broadcasts_folded,
            6u * static_cast<std::uint64_t>(
                     result.diagnostics.admm_iterations_total));
}

// The engine checks after every delivered broadcast that the device holds
// the server's u_t bit for bit (a mismatch throws PreconditionError). Two
// faulted fleets drive every way a dual can move between downloads: the
// synchronous schedule with a fault round deadline, and a 60 % quorum with
// adaptive deadlines and a tight staleness bound. Both the fold-code path
// and the explicit-u_t path must run.
TEST(AdmmWire, FaultedFleetDualsAgreeAfterEveryDownload) {
  net::FaultSpec faults;
  faults.drop_probability = 0.15;
  faults.corrupt_probability = 0.1;
  faults.offline_probability = 0.2;
  faults.straggler_probability = 0.3;
  faults.straggler_slowdown = 6.0;
  faults.seed = 17;
  const auto dataset = population(10, 3);

  QuorumAdmmDiagnostics async_total;
  DistributedPlosDiagnostics total;
  for (int threads : {1, 4}) {
    net::FaultSpec sync_faults = faults;
    sync_faults.round_deadline_s = 0.5;
    net::SimNetwork sync_net(10, net::DeviceProfile{}, net::LinkProfile{});
    sync_net.set_fault_model(net::FaultModel(sync_faults));
    QuorumAdmmResult sync;
    ASSERT_NO_THROW(sync = train_quorum_admm(
                        dataset, synchronous_schedule(threads), sync_net));

    net::SimNetwork async_net(10, net::DeviceProfile{}, net::LinkProfile{});
    async_net.set_fault_model(net::FaultModel(faults));
    async::AsyncQuorumOptions options;
    options.base = small_base();
    options.base.num_threads = threads;
    options.quorum = 0.6;
    options.staleness_bound = 2;
    options.adaptive_deadline = true;
    async::AsyncQuorumResult async_result;
    ASSERT_NO_THROW(async_result = async::train_async_quorum_plos(
                        dataset, options, &async_net));

    for (const QuorumAdmmResult* r : {&sync, &async_result}) {
      async_total.broadcasts_folded += r->async.broadcasts_folded;
      async_total.broadcasts_explicit += r->async.broadcasts_explicit;
      async_total.late_uploads_total += r->async.late_uploads_total;
      async_total.evictions_offline_total +=
          r->async.evictions_offline_total + r->async.evictions_late_total +
          r->async.evictions_failed_total;
      total.devices_offline_total += r->diagnostics.devices_offline_total;
      total.deadline_misses_total += r->diagnostics.deadline_misses_total;
      total.downlink_failures_total += r->diagnostics.downlink_failures_total;
      total.uplink_failures_total += r->diagnostics.uplink_failures_total;
      const net::FaultCounters& counters = r->diagnostics.fault_counters;
      total.fault_counters.downlink_dropped +=
          counters.downlink_dropped + counters.uplink_dropped;
      total.fault_counters.downlink_corrupted +=
          counters.downlink_corrupted + counters.uplink_corrupted;
    }
  }
  // Every fault the test claims to cover happened.
  EXPECT_GT(total.fault_counters.downlink_dropped, 0u);
  EXPECT_GT(total.fault_counters.downlink_corrupted, 0u);
  EXPECT_GT(total.devices_offline_total, 0u);
  EXPECT_GT(total.deadline_misses_total, 0u);
  EXPECT_GT(total.downlink_failures_total + total.uplink_failures_total, 0u);
  EXPECT_GT(async_total.late_uploads_total, 0u);
  EXPECT_GT(async_total.evictions_offline_total, 0u);
  // Both dual paths ran.
  EXPECT_GT(async_total.broadcasts_folded, 0u);
  EXPECT_GT(async_total.broadcasts_explicit, 0u);
}

}  // namespace
}  // namespace plos::core
