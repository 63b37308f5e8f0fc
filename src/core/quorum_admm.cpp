#include "core/quorum_admm.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <utility>

#include "common/assert.hpp"
#include "common/stopwatch.hpp"
#include "core/admm_device.hpp"
#include "linalg/kernels.hpp"
#include "linalg/vector.hpp"
#include "net/event_queue.hpp"
#include "net/serialize.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"

namespace plos::core {

namespace {

// Relative residual term (Boyd et al. §3.3.1) added to the paper's absolute
// Eq. 24 thresholds: without it the absolute rule never fires on data whose
// feature scale puts ||w_t|| well above eps_abs.
constexpr double kEpsRel = 1e-2;
// Inexact CCCP: CCCP round 0's relative term, halved every round down to
// kEpsRel (eq24_relative_term).
constexpr double kEpsRelStart = 0.3;

// A round trip that missed this step's cut or its deadline: the upload
// still arrives at `arrival` on the virtual clock and is folded into a
// later aggregate unless its data ages past the staleness bound first.
// While active, the device is busy and is not re-dispatched.
struct PendingUpload {
  bool active = false;
  double arrival = 0.0;         ///< absolute virtual seconds
  std::uint64_t data_step = 0;  ///< aggregation step the solve was based on
  linalg::Vector w0_sent;       ///< consensus the device solved against
  LocalSolution sol;            ///< rebuilt from the decoded upload
  char cause = kLateUpload;  ///< kLateUpload | kDeadlineMissed
};

// The devices' counters summed over the fleet, in one pass.
AdmmDevice::Counts fleet_counts(const std::vector<AdmmDevice>& devices) {
  AdmmDevice::Counts total;
  for (const AdmmDevice& device : devices) {
    const AdmmDevice::Counts counts = device.counts();
    total.qp_solves += counts.qp_solves;
    total.qp_iterations += counts.qp_iterations;
    total.qp_unconverged += counts.qp_unconverged;
    total.planes += counts.planes;
  }
  return total;
}

// Server-side state of one train_quorum_admm run: the devices it drives,
// the consensus w0, the cached blocks (w_t, v_t, ξ_t) with their duals u_t,
// its copy of what each device holds to replay a dual fold, the in-flight
// uploads and the scheduling state. Devices are simulated
// concurrently: each worker owns a disjoint set of device indices per round
// (static chunking), so all per-device state — working sets, solution
// slots, SimNetwork per-device ledgers — is written by exactly one thread
// per round and results match the serial schedule bitwise. Cross-device
// work (the round cut, the w0 update, the objective) stays on the calling
// thread, in fixed device order.
struct Server {
  Server(const data::MultiUserDataset& dataset,
         const QuorumAdmmOptions& schedule, net::SimNetwork& net)
      : options(schedule),
        base(schedule.base),
        network(net),
        flight(schedule.flight),
        pool(schedule.base.num_threads),
        num_users(dataset.num_users()),
        dim(dataset.dim()),
        scales(num_users, schedule.base),
        tracked(base.journal != nullptr || base.watchdog != nullptr ||
                schedule.autotune.enabled),
        u(num_users, linalg::zeros(dim)),
        v(num_users, linalg::zeros(dim)),
        xi(num_users, 0.0),
        held(num_users, HeldDual{linalg::zeros(dim), {}, {}, {}}),
        last_fold(num_users, DualFold::kUnchanged),
        pending(num_users),
        staleness(num_users),
        deadlines(num_users, schedule.adaptive_deadline),
        last_miss_cause(num_users, kParticipated),
        refreshed(num_users, 0),
        tuner(schedule.quorum, schedule.staleness_bound),
        quorum_now(schedule.autotune.enabled ? tuner.quorum()
                                             : schedule.quorum),
        staleness_bound_now(schedule.autotune.enabled
                                ? tuner.staleness_bound()
                                : schedule.staleness_bound) {
    result.model = PersonalizedModel::zeros(num_users, dim);
    devices.reserve(num_users);
    for (const data::UserData& user : dataset.users) {
      devices.emplace_back(user, num_users, dim, base);
    }
  }

  // Records one flight event of this aggregation step, if a recorder is set.
  void fly(std::size_t device, obs::FlightEventKind kind, int cause,
           double t_start, double t_end, std::uint64_t staleness_value = 0,
           std::uint32_t attempt = 0) const {
    if (flight == nullptr) return;
    flight->record(obs::FlightEvent{
        aggregation_step, static_cast<std::uint32_t>(device), attempt, kind,
        cause, t_start, t_end, staleness_value});
  }

  const QuorumAdmmOptions& options;
  const DistributedPlosOptions& base;
  // Fault injection rides on the network: its FaultModel drives churn,
  // stragglers, and the round deadline here, and framing and retries
  // inside transmit_*. A disabled model never fires and scales time by
  // exactly 1.0. All fault draws are pure functions of (seed, round,
  // device, ...), so workers can evaluate them concurrently without
  // breaking the determinism contract.
  net::SimNetwork& network;
  obs::FlightRecorder* const flight;
  parallel::ThreadPool pool;
  const std::size_t num_users;
  const std::size_t dim;
  const ProxScales scales;
  // Journal, watchdog or auto-tuner: the per-step record is built. The
  // controller reads it, so untraced, untuned runs skip its fleet sums.
  const bool tracked;
  std::vector<AdmmDevice> devices;
  QuorumAdmmResult result;

  linalg::Vector w0;
  std::vector<linalg::Vector> w;
  std::vector<linalg::Vector> u;
  std::vector<linalg::Vector> v;
  linalg::Vector xi;
  // What each device holds from its last delivered broadcast (and, when
  // its upload arrived, its solution), and the dual step last applied to
  // u_t since then; dispatch replays the one on the other to choose the
  // broadcast's fold code.
  std::vector<HeldDual> held;
  std::vector<DualFold> last_fold;

  // Scheduling state. The staleness ledger behind the journal's staleness
  // fields ticks once per ADMM iteration, spanning CCCP rounds.
  std::vector<PendingUpload> pending;
  StalenessLedger staleness;
  AdaptiveDeadlines deadlines;
  // Why each device last failed to deliver fresh — attributes a later
  // eviction of its block to a cause.
  std::vector<char> last_miss_cause;
  // Blocks refreshed (fresh or by a late fold) since the CCCP round began;
  // an eviction clears the flag. The round's loose Eq. 24 term is read
  // only when every flag is set.
  std::vector<char> refreshed;
  std::uint64_t aggregation_step = 0;
  double virtual_seconds = 0.0;

  // Observability loop closure: the controller walks the quorum and the
  // staleness bound from the journal's staleness sketch; when disabled the
  // configured values stay in force verbatim.
  AutoTuner tuner;
  double quorum_now;
  std::uint64_t staleness_bound_now;

  // Telemetry baselines for per-iteration deltas. Snapshots are taken on
  // the aggregation thread at iteration boundaries (after the pool join),
  // so every journal field is deterministic at any thread count; the
  // link-latency sketch is journaled as per-step quantiles of the delta
  // between consecutive snapshots (DESIGN.md §15).
  net::SimNetwork::TrafficSnapshot previous_traffic;
  obs::QuantileSketch previous_latency;
};

// One device's round trip in an aggregation step. Its dispatch worker
// fills it; the cut adds the deadline.
struct Trip {
  bool dispatched = false;
  bool delivered = false;
  bool downloaded = false;  ///< the broadcast reached the device
  DualFold fold = DualFold::kUnchanged;  ///< the broadcast's dual code
  double completion = 0.0;  ///< virtual seconds from the round start
  LocalSolution sol;        ///< rebuilt from the decoded upload
  // Uplink attempt log for the flight recorder; the replay reads the trips
  // in ascending device order, so the log order never depends on worker
  // interleaving.
  std::vector<net::SimNetwork::TransmitAttempt> attempts;
  double deadline = 0.0;  ///< in force at the cut
  bool on_time = false;   ///< delivered within the deadline
};

// One aggregation step's per-device bookkeeping, filled stage by stage.
struct Step {
  explicit Step(const Server& s)
      : round(s.network.current_round()),
        w0_old(s.w0),
        status(s.num_users, kParticipated),
        fresh(s.num_users, 0),
        late_w0(s.num_users),
        trips(s.num_users) {}

  const std::uint64_t round;    ///< network round of this step's dispatch
  const linalg::Vector w0_old;  ///< consensus broadcast this step
  std::vector<char> status;
  std::vector<char> fresh;
  // Consensus each late-folded block was solved against; empty for every
  // other block.
  std::vector<linalg::Vector> late_w0;
  std::uint64_t fresh_count = 0;
  std::uint64_t late_count = 0;
  std::uint64_t ev_offline = 0, ev_late = 0, ev_failed = 0;
  // The step's devices per DeviceRoundStatus, counted by the tally.
  obs::CauseCounters causes{kDeviceRoundStatusCount};

  std::vector<Trip> trips;
  double t_cut = 0.0;  ///< round length on the virtual clock

  // Filled by the server update.
  ServerUpdateSums sums;
  double objective = 0.0;
  double primal_residual = 0.0;
  double dual_residual = 0.0;
  double eq24_rel = kEpsRel;  ///< relative term of this step's stop test
};

// Bootstrap round: the average of the devices' local SVMs is the initial
// w0, or a random symmetry-breaking direction when nobody provided labels.
void bootstrap(Server& s) {
  PLOS_SPAN("plos.bootstrap");
  // Local SVM fits run in parallel on the devices; the upload accounting
  // and the server-side average stay in ascending device order so the
  // floating-point sum matches the serial path bitwise.
  std::vector<linalg::Vector> locals(s.num_users);
  s.pool.parallel_for(s.num_users, [&](std::size_t t) {
    Stopwatch device_watch;
    locals[t] = s.devices[t].bootstrap_weights();
    s.network.account_device_compute(t, device_watch.elapsed_seconds());
  });
  s.w0 = linalg::zeros(s.dim);
  std::size_t contributors = 0;
  const std::uint64_t bootstrap_round = s.network.current_round();
  for (std::size_t t = 0; t < s.num_users; ++t) {
    if (locals[t].empty()) continue;
    if (s.network.fault_model().offline(bootstrap_round, t)) {
      ++s.result.diagnostics.devices_offline_total;
      continue;
    }
    net::Serializer serializer;
    serializer.write_u32(/*message type*/ 0);
    serializer.write_vector(locals[t]);
    if (!s.network.transmit_to_server(t, serializer.buffer()).delivered) {
      ++s.result.diagnostics.uplink_failures_total;
      continue;  // bootstrap upload lost: average over the others
    }
    linalg::axpy(1.0, locals[t], s.w0);
    ++contributors;
    s.fly(t, obs::FlightEventKind::kBootstrap, kParticipated, 0.0, 0.0);
  }
  if (contributors > 0) {
    linalg::scale(s.w0, 1.0 / static_cast<double>(contributors));
  }
  s.network.end_round();
  if (linalg::norm(s.w0) == 0.0) {
    s.w0 = random_unit_direction(s.dim, s.base.seed);
  }
  s.w.assign(s.num_users, s.w0);
  s.previous_traffic = s.network.traffic_snapshot();
  s.previous_latency = s.network.latency_sketch();
  // The flight recorder needs the network's per-attempt transmit logs.
  if (s.flight != nullptr) s.network.set_attempt_log(true);
}

// Resets a server block whose data aged past the staleness bound: the
// device re-bootstraps from the current consensus (w_t = w0, v_t = 0,
// ξ_t = 0) with a cleared dual.
void evict(Server& s, Step& step, std::size_t t, char cause) {
  s.fly(t, obs::FlightEventKind::kEviction, cause, s.virtual_seconds,
        s.virtual_seconds, s.staleness.age(t, s.aggregation_step));
  s.w[t] = step.w0_old;
  s.v[t] = linalg::zeros(s.dim);
  s.xi[t] = 0.0;
  s.u[t] = linalg::zeros(s.dim);
  s.last_fold[t] = DualFold::kZeroed;
  s.staleness.refresh(t, s.aggregation_step);
  s.refreshed[t] = 0;
  switch (cause) {
    case kOffline:
      ++step.ev_offline;
      break;
    case kDownlinkFailed:
    case kUplinkFailed:
      ++step.ev_failed;
      break;
    default:  // late, busy, deadline-missed
      ++step.ev_late;
      break;
  }
}

// Folds the late uploads that have arrived by now; an upload whose data
// aged past the bound evicts its block instead. Runs twice per step: before
// the dispatch, which frees the devices whose uploads landed and marks the
// others busy, and after the cut has advanced the clock, so an upload that
// landed while the step waited for its quorum enters this step's aggregate
// rather than the next one's. The second pass leaves two kinds of upload
// to the next step: those this step stashed (their devices solved against
// this step's consensus), and those whose age already equals the bound.
// Such a block would be folded into one aggregate and evicted by the next
// step's staleness check; that swing of the dual doubled the ADMM steps of
// a quorum 0.7, bound 4 run on a chronic-straggler fleet (DESIGN.md §14.1).
void fold_late_uploads(Server& s, Step& step, bool at_cut) {
  for (std::size_t t = 0; t < s.num_users; ++t) {
    PendingUpload& pending = s.pending[t];
    if (!pending.active) continue;
    const std::uint64_t age = s.aggregation_step - pending.data_step;
    if (at_cut && (age == 0 || age >= s.staleness_bound_now)) continue;
    if (pending.arrival > s.virtual_seconds) {
      // Still in flight: the device is not re-dispatched.
      if (!at_cut) step.status[t] = kBusy;
      continue;
    }
    pending.active = false;
    step.status[t] = pending.cause;
    if (age > s.staleness_bound_now) {
      // The cached upload is older than the bound: discard it and evict
      // the block outright — applying it would let data older than S
      // steps into the aggregate.
      evict(s, step, t, pending.cause);
      continue;
    }
    s.w[t] = std::move(pending.sol.w);
    s.v[t] = std::move(pending.sol.v);
    s.xi[t] = pending.sol.xi;
    step.late_w0[t] = std::move(pending.w0_sent);
    s.staleness.refresh(t, pending.data_step);
    s.refreshed[t] = 1;
    ++step.late_count;
    s.fly(t, obs::FlightEventKind::kLateFold, pending.cause, pending.arrival,
          s.virtual_seconds, age);
  }
}

// The broadcast's dual code for device t: the step last applied to u_t
// if the device, replaying it from what it holds, lands on u_t bit for
// bit; kExplicit otherwise.
DualFold choose_fold(const Server& s, std::size_t t) {
  const DualFold fold = s.last_fold[t];
  const std::optional<linalg::Vector> replayed = s.held[t].replay(fold, s.w0);
  return replayed && same_bits(*replayed, s.u[t]) ? fold : DualFold::kExplicit;
}

// Scatter, local solves, gather (buffered): the T independent per-device
// prox-QPs (Eq. 22), solved concurrently. Each side works from the decoded
// bytes: the device answers the broadcast payload, and the server rebuilds
// the block from the upload payload around the center it sent. Solutions
// are buffered and applied on the aggregation thread once the event order
// decides who made the cut; churned-out devices, failed round trips, and
// deadline misses leave the server's cached block in place even though
// the device's local working set may have advanced.
void dispatch(Server& s, Step& step) {
  const net::FaultModel& fault = s.network.fault_model();
  s.pool.parallel_for(s.num_users, [&](std::size_t t) {
    if (s.pending[t].active) return;  // busy
    if (fault.offline(step.round, t)) {
      step.status[t] = kOffline;
      return;
    }
    Trip& trip = step.trips[t];
    trip.fold = choose_fold(s, t);
    const std::vector<std::uint8_t> broadcast =
        encode_broadcast(trip.fold, s.w0, s.u[t]);
    const auto downlink = s.network.transmit_to_device(t, broadcast);
    if (!downlink.delivered) {
      step.status[t] = kDownlinkFailed;
      return;  // device never received the broadcast this round
    }
    trip.downloaded = true;
    s.held[t] = HeldDual{s.u[t], s.w0, {}, {}};
    s.last_fold[t] = DualFold::kUnchanged;
    PLOS_SPAN("plos.device_solve", "device", static_cast<double>(t));
    Stopwatch device_watch;
    const int qp_iterations_before = s.devices[t].counts().qp_iterations;
    const std::vector<std::uint8_t> upload = s.devices[t].answer(broadcast);
    s.network.account_device_compute(t, device_watch.elapsed_seconds());
    PLOS_CHECK(same_bits(s.devices[t].held_dual(), s.u[t]),
               "dispatch: device " << t << " holds a dual other than u_t");
    if (fault.misses_deadline(step.round, t)) {
      // Straggler past the fault schedule's round deadline: the compute
      // happened (and was charged) but the server stopped waiting, so the
      // upload is never sent.
      step.status[t] = kDeadlineMissed;
      return;
    }
    const int qp_iteration_delta =
        s.devices[t].counts().qp_iterations - qp_iterations_before;
    auto uplink = s.network.transmit_to_server(t, upload);
    if (uplink.delivered) {
      trip.sol = solution_from_upload(decode_upload(upload, s.dim),
                                      prox_center(s.w0, s.u[t]), s.scales);
      s.held[t].w = trip.sol.w;
      s.held[t].v = trip.sol.v;
    } else {
      step.status[t] = kUplinkFailed;
    }
    trip.dispatched = true;
    trip.delivered = uplink.delivered;
    trip.completion = completion_seconds(
        s.options.latency, downlink.seconds + uplink.seconds,
        qp_iteration_delta, s.network.device_profile(t).cpu_slowdown,
        fault.time_multiplier(step.round, t), step.round, t);
    if (s.flight != nullptr) trip.attempts = std::move(uplink.attempt_log);
  });
}

// Event-ordered round cut. One event per dispatched device at
// min(completion, deadline); the round cuts at the quorum-th on-time
// upload, or — if the quorum is unreachable this step — at the last event
// (failed and straggling devices must not hang the server). The target
// counts FRESH uploads against the whole fleet: cheaper variants (relative
// to the dispatched subset, or crediting folded late arrivals) cut rounds
// faster but starve the aggregate of fresh updates, and the extra ADMM
// iterations cost more simulated time than the shorter rounds save. The
// queue's total order makes the cut independent of worker interleaving.
void cut(const Server& s, Step& step) {
  net::EventQueue queue;
  for (std::size_t t = 0; t < s.num_users; ++t) {
    Trip& trip = step.trips[t];
    if (!trip.dispatched) continue;
    trip.deadline = s.deadlines.deadline(t);
    trip.on_time = trip.delivered && trip.completion <= trip.deadline;
    queue.push(net::Event{std::min(trip.completion, trip.deadline),
                          step.round, static_cast<std::uint64_t>(t),
                          trip.on_time ? net::EventKind::kUpload
                                       : net::EventKind::kDeadline});
  }
  const std::size_t round_quorum = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(
             s.quorum_now * static_cast<double>(s.num_users))));
  std::size_t uploads_seen = 0;
  while (!queue.empty()) {
    const net::Event event = queue.pop();
    step.t_cut = event.time;
    if (event.kind == net::EventKind::kUpload) {
      ++uploads_seen;
      if (uploads_seen >= round_quorum) break;
    }
  }
  if (uploads_seen == 0 && step.t_cut == 0.0) {
    // Nothing was dispatched (everyone busy or offline): advance the clock
    // to the earliest in-flight arrival so the loop makes progress instead
    // of spinning at a frozen virtual time.
    double min_arrival = std::numeric_limits<double>::infinity();
    for (const PendingUpload& pending : s.pending) {
      if (pending.active) min_arrival = std::min(min_arrival, pending.arrival);
    }
    if (std::isfinite(min_arrival)) {
      step.t_cut = std::max(0.0, min_arrival - s.virtual_seconds);
    }
  }
}

// Classifies the dispatched devices against the cut: fresh blocks replace
// the server's cache, delivered late ones wait in flight, undelivered ones
// keep the failure status the worker set. Then feeds the deadline tracker
// in ascending device order (the EWMA moves the *next* dispatch's
// deadlines, never this cut's).
void classify(Server& s, Step& step) {
  for (std::size_t t = 0; t < s.num_users; ++t) {
    Trip& trip = step.trips[t];
    if (!trip.dispatched) continue;
    if (trip.on_time && trip.completion <= step.t_cut) {
      s.w[t] = std::move(trip.sol.w);
      s.v[t] = std::move(trip.sol.v);
      s.xi[t] = trip.sol.xi;
      step.fresh[t] = 1;
      ++step.fresh_count;
      step.status[t] = kParticipated;
      s.staleness.refresh(t, s.aggregation_step);
      s.refreshed[t] = 1;
    } else if (trip.delivered) {
      // Arrives after the cut (or past its deadline): stash it; the device
      // stays busy until the upload lands on the virtual clock.
      PendingUpload& pending = s.pending[t];
      pending.active = true;
      pending.arrival = s.virtual_seconds + trip.completion;
      pending.data_step = s.aggregation_step;
      pending.w0_sent = step.w0_old;
      pending.sol = std::move(trip.sol);
      pending.cause = trip.on_time ? static_cast<char>(kLateUpload)
                                   : static_cast<char>(kDeadlineMissed);
      step.status[t] = pending.cause;
    }
    if (trip.delivered) s.deadlines.observe(t, trip.completion);
  }
}

// Replays this step's device lifecycles into the flight recorder,
// ascending device order: attempt slices are laid back to back so the last
// one ends at the device's completion time on the virtual clock (start
// clamped to the round start — the completion jitter can undercut the raw
// attempt windows).
void replay_flight(const Server& s, const Step& step) {
  const double round_start = s.virtual_seconds;
  for (std::size_t t = 0; t < s.num_users; ++t) {
    const Trip& trip = step.trips[t];
    if (!trip.dispatched) continue;
    const auto& attempts = trip.attempts;
    std::vector<double> attempt_seconds;
    attempt_seconds.reserve(attempts.size());
    for (const auto& attempt : attempts) {
      attempt_seconds.push_back(attempt.seconds);
    }
    const double attempt_total = linalg::kernels::serial_sum(attempt_seconds);
    double slice_start =
        std::max(round_start, round_start + trip.completion - attempt_total);
    for (std::size_t k = 0; k < attempts.size(); ++k) {
      const double slice_end = slice_start + attempts[k].seconds;
      s.fly(t, obs::FlightEventKind::kUploadAttempt, attempts[k].result,
            slice_start, slice_end, 0, static_cast<std::uint32_t>(k + 1));
      slice_start = slice_end;
    }
    if (trip.delivered && trip.completion > trip.deadline &&
        std::isfinite(trip.deadline)) {
      s.fly(t, obs::FlightEventKind::kDeadlineMiss, kDeadlineMissed,
            round_start + trip.deadline, round_start + trip.completion);
    }
  }
  s.fly(obs::kFlightServerDevice, obs::FlightEventKind::kQuorumCut, 0,
        round_start, round_start + step.t_cut, step.fresh_count);
}

// Bounded staleness: evicts the blocks that aged past the bound. Runs
// before the server update, so no block older than S steps ever enters an
// aggregate.
void evict_stale(Server& s, Step& step) {
  for (std::size_t t = 0; t < s.num_users; ++t) {
    if (s.staleness.age(t, s.aggregation_step) > s.staleness_bound_now) {
      evict(s, step, t, s.last_miss_cause[t]);
    }
  }
}

// Degradation tallies and miss-cause tracking (fixed device order).
void tally(Server& s, Step& step) {
  QuorumAdmmDiagnostics& async = s.result.async;
  for (std::size_t t = 0; t < s.num_users; ++t) {
    step.causes.add(static_cast<std::size_t>(step.status[t]));
    const Trip& trip = step.trips[t];
    if (trip.downloaded) {
      ++(trip.fold == DualFold::kExplicit ? async.broadcasts_explicit
                                          : async.broadcasts_folded);
    }
    if (step.fresh[t] != 0) {
      s.last_miss_cause[t] = kParticipated;
    } else if (step.status[t] != kParticipated) {
      s.last_miss_cause[t] = step.status[t];
    }
  }
  const std::vector<std::uint64_t>& causes = step.causes.counts();
  DistributedPlosDiagnostics& diagnostics = s.result.diagnostics;
  diagnostics.devices_offline_total += causes[kOffline];
  diagnostics.downlink_failures_total += causes[kDownlinkFailed];
  diagnostics.deadline_misses_total += causes[kDeadlineMissed];
  diagnostics.uplink_failures_total += causes[kUplinkFailed];
  diagnostics.participation_trace.push_back(
      static_cast<double>(step.fresh_count) /
      static_cast<double>(s.num_users));
  async.quorum_trace.push_back(step.fresh_count);
  async.late_uploads_total += step.late_count;
  async.evictions_offline_total += step.ev_offline;
  async.evictions_late_total += step.ev_late;
  async.evictions_failed_total += step.ev_failed;
  async.max_staleness_seen = std::max(
      async.max_staleness_seen, s.staleness.max_age(s.aggregation_step));
}

// The server's closed-form update (Eq. 23), the step's objective and
// residuals, and the end of the network round.
void aggregate(Server& s, Step& step) {
  Stopwatch server_watch;
  std::vector<DualFold> folds;
  step.sums = admm_server_update(s.w, s.v, step.fresh, step.late_w0,
                                 s.base.rho, s.w0, s.u, &folds);
  for (std::size_t t = 0; t < s.num_users; ++t) {
    if (folds[t] != DualFold::kUnchanged) s.last_fold[t] = folds[t];
  }
  step.objective = linalg::squared_norm(s.w0);
  for (std::size_t t = 0; t < s.num_users; ++t) {
    step.objective += s.base.params.lambda /
                          static_cast<double>(s.num_users) *
                          linalg::squared_norm(s.v[t]) +
                      s.xi[t];
  }
  step.dual_residual =
      s.base.rho * std::sqrt(2.0 * static_cast<double>(s.num_users)) *
      std::sqrt(linalg::squared_distance(s.w0, step.w0_old));
  step.primal_residual = std::sqrt(step.sums.primal_sq);
  s.network.account_server_compute(server_watch.elapsed_seconds());
  s.network.end_round();
  s.fly(obs::kFlightServerDevice, obs::FlightEventKind::kAggregate, 0,
        s.virtual_seconds, s.virtual_seconds, step.fresh_count);
  DistributedPlosDiagnostics& diagnostics = s.result.diagnostics;
  diagnostics.objective_trace.push_back(step.objective);
  diagnostics.primal_residual_trace.push_back(step.primal_residual);
  diagnostics.dual_residual_trace.push_back(step.dual_residual);
}

// Builds the step's journal record, lets the auto-tuner read it, and hands
// it to the journal and the watchdog. Returns true when the watchdog
// aborts the run.
bool record_step(Server& s, const Step& step,
                 const AdmmDevice::Counts& before, int cccp, int admm) {
  const AdmmDevice::Counts after = fleet_counts(s.devices);
  obs::RoundRecord record;
  record.trainer = "distributed";
  record.cccp_round = cccp;
  record.admm_iteration = admm;
  record.objective = step.objective;
  record.objective_finite = std::isfinite(step.objective);
  record.primal_residual = step.primal_residual;
  record.dual_residual = step.dual_residual;
  record.eq24_rel = step.eq24_rel;
  record.constraints = after.planes;
  record.qp_solves = after.qp_solves - before.qp_solves;
  record.qp_iterations = after.qp_iterations - before.qp_iterations;
  record.qp_unconverged = after.qp_unconverged - before.qp_unconverged;
  record.participation_rate = s.result.diagnostics.participation_trace.back();
  record.quorum_size = step.fresh_count;
  record.late_uploads = step.late_count;
  record.evictions_offline = step.ev_offline;
  record.evictions_late = step.ev_late;
  record.evictions_failed = step.ev_failed;
  s.staleness.fill_record(record, s.aggregation_step);
  record.cause_counts = step.causes.counts();
  const auto traffic = s.network.traffic_snapshot();
  record.bytes_to_devices =
      traffic.bytes_to_devices - s.previous_traffic.bytes_to_devices;
  record.bytes_to_server =
      traffic.bytes_to_server - s.previous_traffic.bytes_to_server;
  record.messages_dropped =
      traffic.messages_dropped - s.previous_traffic.messages_dropped;
  record.retries = traffic.retries - s.previous_traffic.retries;
  s.previous_traffic = traffic;
  obs::QuantileSketch latency = s.network.latency_sketch();
  const obs::QuantileSketch step_latency = latency.diff(s.previous_latency);
  record.lat_count = step_latency.count();
  if (!step_latency.empty()) {
    record.lat_p50 = step_latency.quantile(0.50);
    record.lat_p90 = step_latency.quantile(0.90);
    record.lat_p99 = step_latency.quantile(0.99);
  }
  s.previous_latency = std::move(latency);
  if (s.options.autotune.enabled) {
    // Journal the knobs in force for THIS step, then let the controller
    // read the very record it will be journaled in — the decision and its
    // trigger land beside the evidence.
    record.tuned_quorum = s.quorum_now;
    record.tuned_staleness_bound = s.staleness_bound_now;
    const AutoTuneDecision decision = s.tuner.observe(record);
    record.tune_event = decision.event;
    record.tune_trigger = decision.trigger;
    if (record.tune_event[0] != '\0' && record.tune_event != "hold") {
      ++s.result.async.tune_actions;
    }
    s.quorum_now = s.tuner.quorum();
    s.staleness_bound_now = s.tuner.staleness_bound();
  }
  if (s.base.journal != nullptr) s.base.journal->append(record);
  return s.base.watchdog != nullptr &&
         s.base.watchdog->observe(record) == obs::WatchdogAction::kAbort;
}

// The paper's stop rule (Eq. 24) plus Boyd's relative terms, at the
// relative term step.eq24_rel.
bool eq24_converged(const Server& s, const Step& step) {
  const double sqrt_t = std::sqrt(static_cast<double>(s.num_users));
  const double primal_threshold =
      sqrt_t * s.base.eps_abs +
      step.eq24_rel * std::sqrt(std::max(step.sums.w_sq, step.sums.target_sq));
  const double dual_threshold =
      std::sqrt(2.0) * sqrt_t * s.base.eps_abs +
      step.eq24_rel * s.base.rho * std::sqrt(step.sums.u_sq);
  return step.dual_residual <= dual_threshold &&
         step.primal_residual <= primal_threshold;
}

// Whether this step ends its CCCP round's ADMM loop (inexact CCCP, DESIGN.md
// §3). The round's loose term is read only from an aggregate in which every
// block was refreshed since the round began; otherwise, and once `tight`
// is set, the term is kEpsRel. A loose stop whose objective would end CCCP
// on its tolerance (`previous` is run_cccp's) sets `tight` instead, so the
// round runs on to kEpsRel and CCCP never ends on a loose solve. Leaves the
// term the decision read in step.eq24_rel.
bool round_converged(const Server& s, Step& step, int cccp, double previous,
                     bool& tight) {
  const bool all_refreshed = std::all_of(
      s.refreshed.begin(), s.refreshed.end(), [](char r) { return r != 0; });
  step.eq24_rel = tight || !all_refreshed ? kEpsRel : eq24_relative_term(cccp);
  if (!eq24_converged(s, step)) return false;
  if (step.eq24_rel > kEpsRel &&
      cccp_tolerance_met(s.base.cccp, previous, step.objective)) {
    tight = true;
    step.eq24_rel = kEpsRel;
    return eq24_converged(s, step);
  }
  return true;
}

}  // namespace

double eq24_relative_term(int cccp_round) {
  return std::max(kEpsRel, std::ldexp(kEpsRelStart, -cccp_round));
}

ServerUpdateSums admm_server_update(const std::vector<linalg::Vector>& w,
                                    const std::vector<linalg::Vector>& v,
                                    const std::vector<char>& fresh,
                                    const std::vector<linalg::Vector>& late_w0,
                                    double rho, linalg::Vector& w0,
                                    std::vector<linalg::Vector>& u,
                                    std::vector<DualFold>* folds) {
  const std::size_t num_users = w.size();
  PLOS_CHECK(num_users > 0 && v.size() == num_users &&
                 fresh.size() == num_users && late_w0.size() == num_users &&
                 u.size() == num_users,
             "admm_server_update: block count mismatch");
  PLOS_SPAN("plos.server_update");
  // Over-relaxation only when every block is fresh. A step with a cached,
  // late or evicted block stays plain Eq. 23, statement for statement, so
  // quorum < 1 runs are bitwise those of plain ADMM (DESIGN.md §3).
  const bool relax = std::all_of(fresh.begin(), fresh.end(),
                                 [](char f) { return f != 0; });
  const linalg::Vector w0_old = w0;
  linalg::Vector acc = linalg::zeros(w0.size());
  for (std::size_t t = 0; t < num_users; ++t) {
    if (relax) {
      linalg::axpy(1.0, relaxed_point(w[t], v[t], w0_old), acc);
    } else {
      linalg::axpy(1.0, w[t], acc);
      linalg::axpy(-1.0, v[t], acc);
    }
    linalg::axpy(1.0, u[t], acc);
  }
  linalg::scale(acc, rho / (2.0 + static_cast<double>(num_users) * rho));
  w0 = std::move(acc);

  if (folds != nullptr) folds->assign(num_users, DualFold::kUnchanged);
  ServerUpdateSums sums;
  for (std::size_t t = 0; t < num_users; ++t) {
    linalg::Vector residual = linalg::sub(w[t], w0);
    linalg::axpy(-1.0, v[t], residual);
    // Fresh blocks refresh their dual in full against the new w0 (with x̂_t
    // in place of w_t − v_t when the step is relaxed). A late-folded block
    // refreshes its dual in full too, but against the w0 its device solved
    // on: (w_t, v_t) answered that consensus and the u_t still in force,
    // so this completes the device's own ADMM step. The dual moves only
    // here, after this step's dispatch, so a device re-dispatched in the
    // step its late upload folds still solves against the pre-fold u_t.
    // Every other block keeps its u.
    DualFold fold = DualFold::kUnchanged;
    if (relax) {
      fold = DualFold::kRelaxedFresh;
    } else if (fresh[t] != 0) {
      fold = DualFold::kPlainFresh;
    } else if (!late_w0[t].empty()) {
      fold = DualFold::kLateFold;
    }
    step_dual(fold, w[t], v[t],
              fold == DualFold::kLateFold ? late_w0[t] : w0_old, w0, u[t]);
    if (folds != nullptr) (*folds)[t] = fold;
    sums.primal_sq += linalg::squared_norm(residual);
    sums.w_sq += linalg::squared_norm(w[t]);
    linalg::Vector target = linalg::add(w0, v[t]);
    sums.target_sq += linalg::squared_norm(target);
    sums.u_sq += linalg::squared_norm(u[t]);
  }
  return sums;
}

QuorumAdmmResult train_quorum_admm(const data::MultiUserDataset& dataset,
                                   const QuorumAdmmOptions& options,
                                   net::SimNetwork& network) {
  dataset.check_invariants();
  const std::size_t num_users = dataset.num_users();
  const DistributedPlosOptions& base = options.base;
  PLOS_CHECK(num_users > 0, "train_quorum_admm: no users");
  PLOS_CHECK(dataset.dim() > 0, "train_quorum_admm: empty dataset");
  PLOS_CHECK(base.params.lambda > 0.0 && base.rho > 0.0,
             "train_quorum_admm: lambda and rho must be positive");
  PLOS_CHECK(network.num_devices() == num_users,
             "train_quorum_admm: network/device count mismatch");
  PLOS_CHECK(options.quorum > 0.0 && options.quorum <= 1.0,
             "train_quorum_admm: quorum outside (0, 1]");

  PLOS_SPAN("plos.distributed_train");
  const Stopwatch total_watch;
  Server s(dataset, options, network);
  bootstrap(s);

  const auto cccp_round = [&](int cccp,
                              double previous) -> std::optional<double> {
    {
      PLOS_SPAN("plos.sign_fit");
      s.pool.parallel_for(num_users, [&](std::size_t t) {
        Stopwatch device_watch;
        s.devices[t].begin_cccp_round(s.w[t], cccp == 0, base.seed + t);
        network.account_device_compute(t, device_watch.elapsed_seconds());
      });
    }
    // In-flight uploads were solved against the previous round's CCCP
    // linearization; folding them across the boundary would mix cutting
    // planes from two different sign patterns. Drop them — the devices
    // simply become free again, and their blocks keep aging toward the
    // staleness bound like any other miss.
    for (PendingUpload& pending : s.pending) pending.active = false;
    std::fill(s.refreshed.begin(), s.refreshed.end(), 0);

    double objective = 0.0;
    bool tight = false;
    for (int admm = 0; admm < base.max_admm_iterations; ++admm) {
      PLOS_SPAN("plos.admm_round", "iteration", admm);
      ++s.result.diagnostics.admm_iterations_total;
      const AdmmDevice::Counts before =
          s.tracked ? fleet_counts(s.devices) : AdmmDevice::Counts{};
      Step step(s);
      fold_late_uploads(s, step, /*at_cut=*/false);
      dispatch(s, step);
      cut(s, step);
      classify(s, step);
      if (s.flight != nullptr) replay_flight(s, step);
      s.virtual_seconds += step.t_cut;
      fold_late_uploads(s, step, /*at_cut=*/true);
      evict_stale(s, step);
      tally(s, step);
      aggregate(s, step);
      objective = step.objective;
      const bool converged = round_converged(s, step, cccp, previous, tight);
      if (s.tracked && record_step(s, step, before, cccp, admm)) {
        s.result.diagnostics.watchdog_aborted = true;
        return std::nullopt;
      }
      ++s.aggregation_step;
      if (options.on_aggregate) {
        options.on_aggregate(QuorumAggregateView{
            s.aggregation_step, s.virtual_seconds, s.w0, s.w});
      }
      if (converged) break;
    }
    return objective;
  };
  QuorumAdmmResult& result = s.result;
  result.diagnostics.cccp_iterations = run_cccp(base.cccp, cccp_round);
  const AdmmDevice::Counts totals = fleet_counts(s.devices);
  result.diagnostics.qp_solves = totals.qp_solves;
  result.diagnostics.qp_unconverged = totals.qp_unconverged;

  result.model.global_weights = s.w0;
  for (std::size_t t = 0; t < num_users; ++t) {
    // Report consensus-consistent personal deviations w_t − w0 rather than
    // the local v_t (they coincide at exact convergence).
    result.model.user_deviations[t] = linalg::sub(s.w[t], s.w0);
  }
  result.diagnostics.train_seconds = total_watch.elapsed_seconds();
  result.diagnostics.fault_counters = network.fault_counters();
  result.async.virtual_seconds = s.virtual_seconds;
  result.async.final_quorum = s.quorum_now;
  result.async.final_staleness_bound = s.staleness_bound_now;
  return std::move(result);
}

}  // namespace plos::core
