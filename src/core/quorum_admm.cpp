#include "core/quorum_admm.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
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

// A round trip that missed this step's cut or its deadline: the upload
// still arrives at `arrival` on the virtual clock and is folded into a
// later aggregate unless its data ages past the staleness bound first.
// While active, the device is busy and is not re-dispatched.
struct PendingUpload {
  bool active = false;
  double arrival = 0.0;         ///< absolute virtual seconds
  std::uint64_t data_step = 0;  ///< aggregation step the solve was based on
  linalg::Vector w0_sent;       ///< consensus the device solved against
  AdmmDevice::LocalSolution sol;
  char cause = kLateUpload;  ///< kLateUpload | kDeadlineMissed
};

}  // namespace

ServerUpdateSums admm_server_update(const std::vector<linalg::Vector>& w,
                                    const std::vector<linalg::Vector>& v,
                                    const std::vector<char>& fresh,
                                    const std::vector<linalg::Vector>& late_w0,
                                    double rho, linalg::Vector& w0,
                                    std::vector<linalg::Vector>& u) {
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
  std::vector<linalg::Vector> relaxed(relax ? num_users : 0);
  linalg::Vector acc = linalg::zeros(w0.size());
  for (std::size_t t = 0; t < num_users; ++t) {
    if (relax) {
      relaxed[t] = linalg::sub(w[t], v[t]);
      linalg::scale(relaxed[t], kAdmmRelaxation);
      linalg::axpy(1.0 - kAdmmRelaxation, w0, relaxed[t]);
      linalg::axpy(1.0, relaxed[t], acc);
    } else {
      linalg::axpy(1.0, w[t], acc);
      linalg::axpy(-1.0, v[t], acc);
    }
    linalg::axpy(1.0, u[t], acc);
  }
  linalg::scale(acc, rho / (2.0 + static_cast<double>(num_users) * rho));
  w0 = std::move(acc);

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
    if (relax) {
      u[t] = linalg::add(u[t], relaxed[t]);
      linalg::axpy(-1.0, w0, u[t]);
    } else if (fresh[t] != 0) {
      u[t] = linalg::add(u[t], residual);
    } else if (!late_w0[t].empty()) {
      linalg::Vector step = linalg::sub(w[t], late_w0[t]);
      linalg::axpy(-1.0, v[t], step);
      linalg::axpy(1.0, u[t], step);
      u[t] = std::move(step);
    }
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
  const std::size_t dim = dataset.dim();
  const DistributedPlosOptions& base = options.base;
  PLOS_CHECK(num_users > 0, "train_quorum_admm: no users");
  PLOS_CHECK(dim > 0, "train_quorum_admm: empty dataset");
  PLOS_CHECK(base.params.lambda > 0.0 && base.rho > 0.0,
             "train_quorum_admm: lambda and rho must be positive");
  PLOS_CHECK(network.num_devices() == num_users,
             "train_quorum_admm: network/device count mismatch");
  PLOS_CHECK(options.quorum > 0.0 && options.quorum <= 1.0,
             "train_quorum_admm: quorum outside (0, 1]");

  PLOS_SPAN("plos.distributed_train");

  // Devices are simulated concurrently: each worker owns a disjoint set of
  // device indices per round (static chunking), so all per-device state —
  // working sets, solution slots, SimNetwork per-device ledgers — is
  // written by exactly one thread per round and results match the serial
  // schedule bitwise. Cross-device work (the round cut, the w0 update, the
  // objective) stays on the calling thread, in fixed device order.
  parallel::ThreadPool pool(base.num_threads);
  const Stopwatch total_watch;
  QuorumAdmmResult result;
  result.model = PersonalizedModel::zeros(num_users, dim);

  // Fault injection rides on the network: its FaultModel drives churn,
  // stragglers, and the round deadline here, and framing and retries inside
  // transmit_*. A disabled model never fires and scales time by exactly
  // 1.0. All fault draws are pure functions of (seed, round, device, ...),
  // so workers can evaluate them concurrently without breaking the
  // determinism contract.
  const net::FaultModel& fault = network.fault_model();

  std::vector<AdmmDevice> devices;
  devices.reserve(num_users);
  for (std::size_t t = 0; t < num_users; ++t) {
    devices.emplace_back(dataset.users[t], num_users, base);
  }

  // --- bootstrap round: average of local SVMs as the initial w0 ----------
  linalg::Vector w0 = linalg::zeros(dim);
  {
    PLOS_SPAN("plos.bootstrap");
    // Local SVM fits run in parallel on the devices; the upload accounting
    // and the server-side average stay in ascending device order so the
    // floating-point sum matches the serial path bitwise.
    std::vector<linalg::Vector> locals(num_users);
    pool.parallel_for(num_users, [&](std::size_t t) {
      Stopwatch device_watch;
      locals[t] = devices[t].bootstrap_weights();
      network.account_device_compute(t, device_watch.elapsed_seconds());
    });
    std::size_t contributors = 0;
    const std::uint64_t bootstrap_round = network.current_round();
    for (std::size_t t = 0; t < num_users; ++t) {
      if (locals[t].empty()) continue;
      if (fault.offline(bootstrap_round, t)) {
        ++result.diagnostics.devices_offline_total;
        continue;
      }
      net::Serializer s;
      s.write_u32(/*message type*/ 0);
      s.write_vector(locals[t]);
      if (!network.transmit_to_server(t, s.buffer()).delivered) {
        ++result.diagnostics.uplink_failures_total;
        continue;  // bootstrap upload lost: average over the others
      }
      linalg::axpy(1.0, locals[t], w0);
      ++contributors;
      if (options.flight != nullptr) {
        obs::FlightEvent event;
        event.round = 0;
        event.device = static_cast<std::uint32_t>(t);
        event.kind = obs::FlightEventKind::kBootstrap;
        event.cause = static_cast<int>(kParticipated);
        options.flight->record(event);
      }
    }
    if (contributors > 0) {
      linalg::scale(w0, 1.0 / static_cast<double>(contributors));
    }
    network.end_round();
  }
  if (linalg::norm(w0) == 0.0) {
    // Nobody provided labels: random symmetry-breaking direction.
    w0 = random_unit_direction(dim, base.seed);
  }

  std::vector<linalg::Vector> u(num_users, linalg::zeros(dim));
  std::vector<linalg::Vector> w(num_users, w0);
  std::vector<linalg::Vector> v(num_users, linalg::zeros(dim));
  linalg::Vector xi(num_users, 0.0);

  const double sqrt_t = std::sqrt(static_cast<double>(num_users));
  double previous_cccp_objective = std::numeric_limits<double>::infinity();

  // One of the devices' counts (an AdmmDevice getter), summed over the
  // fleet.
  const auto fleet = [&devices](auto count) {
    decltype((devices.front().*count)()) total = 0;
    for (const AdmmDevice& device : devices) total += (device.*count)();
    return total;
  };

  // Telemetry baselines for per-iteration deltas. Snapshots are taken on
  // the aggregation thread at iteration boundaries (after the pool join),
  // so every journal field is deterministic at any thread count; the
  // link-latency sketch is journaled as per-step quantiles of the delta
  // between consecutive snapshots (DESIGN.md §15).
  const bool telemetry = base.journal != nullptr || base.watchdog != nullptr;
  net::SimNetwork::TrafficSnapshot previous_traffic =
      network.traffic_snapshot();
  obs::QuantileSketch previous_latency = network.latency_sketch();
  bool watchdog_aborted = false;

  // Observability loop closure: the controller walks the quorum and the
  // staleness bound from the journal's staleness sketch; when disabled the
  // configured values stay in force verbatim. The flight recorder needs the
  // network's per-attempt transmit logs.
  const bool tuning = options.autotune.enabled;
  AutoTuner tuner(options.quorum, options.staleness_bound);
  double quorum_now = tuning ? tuner.quorum() : options.quorum;
  std::uint64_t staleness_bound_now =
      tuning ? tuner.staleness_bound() : options.staleness_bound;
  obs::FlightRecorder* const flight = options.flight;
  if (flight != nullptr) network.set_attempt_log(true);

  // Scheduling state. The staleness ledger behind the journal's staleness
  // fields ticks once per ADMM iteration, spanning CCCP rounds.
  StalenessLedger staleness(num_users);
  std::uint64_t aggregation_step = 0;
  double virtual_seconds = 0.0;
  AdaptiveDeadlines deadlines(num_users, options.adaptive_deadline);
  std::vector<PendingUpload> pending(num_users);
  // Why each device last failed to deliver fresh — attributes a later
  // eviction of its block to a cause.
  std::vector<char> last_miss_cause(num_users, kParticipated);

  for (int cccp = 0; cccp < base.cccp.max_iterations; ++cccp) {
    PLOS_SPAN("plos.cccp_round", "round", cccp);
    result.diagnostics.cccp_iterations = cccp + 1;
    pool.parallel_for(num_users, [&](std::size_t t) {
      Stopwatch device_watch;
      devices[t].begin_cccp_round(w[t], cccp == 0, base.seed + t);
      network.account_device_compute(t, device_watch.elapsed_seconds());
    });
    // In-flight uploads were solved against the previous round's CCCP
    // linearization; folding them across the boundary would mix cutting
    // planes from two different sign patterns. Drop them — the devices
    // simply become free again, and their blocks keep aging toward the
    // staleness bound like any other miss.
    for (std::size_t t = 0; t < num_users; ++t) pending[t].active = false;

    double objective = 0.0;
    for (int admm = 0; admm < base.max_admm_iterations; ++admm) {
      PLOS_SPAN("plos.admm_round", "iteration", admm);
      ++result.diagnostics.admm_iterations_total;
      const int iteration_qp_solves_before =
          (telemetry || tuning) ? fleet(&AdmmDevice::qp_solves) : 0;
      const int iteration_qp_iterations_before =
          (telemetry || tuning) ? fleet(&AdmmDevice::qp_iterations) : 0;
      const int iteration_qp_unconverged_before =
          (telemetry || tuning) ? fleet(&AdmmDevice::qp_unconverged) : 0;
      const linalg::Vector w0_old = w0;
      const std::uint64_t round = network.current_round();
      std::vector<char> status(num_users, kParticipated);
      std::vector<char> fresh(num_users, 0);
      // Consensus each late-folded block was solved against; empty for
      // every other block.
      std::vector<linalg::Vector> late_w0(num_users);
      std::uint64_t late_count = 0;
      std::uint64_t ev_offline = 0, ev_late = 0, ev_failed = 0;

      // Resets a server block whose data aged past the staleness bound:
      // the device re-bootstraps from the current consensus (w_t = w0,
      // v_t = 0, ξ_t = 0) with a cleared dual.
      const auto evict = [&](std::size_t t, char cause) {
        if (flight != nullptr) {
          obs::FlightEvent event;
          event.round = aggregation_step;
          event.device = static_cast<std::uint32_t>(t);
          event.kind = obs::FlightEventKind::kEviction;
          event.cause = static_cast<int>(cause);
          event.t_start = virtual_seconds;
          event.t_end = virtual_seconds;
          event.staleness = staleness.age(t, aggregation_step);
          flight->record(event);
        }
        w[t] = w0_old;
        v[t] = linalg::zeros(dim);
        xi[t] = 0.0;
        u[t] = linalg::zeros(dim);
        staleness.refresh(t, aggregation_step);
        switch (cause) {
          case kOffline:
            ++ev_offline;
            break;
          case kDownlinkFailed:
          case kUplinkFailed:
            ++ev_failed;
            break;
          default:  // late, busy, deadline-missed
            ++ev_late;
            break;
        }
      };

      // -- fold late uploads that have arrived by now ----------------------
      for (std::size_t t = 0; t < num_users; ++t) {
        if (!pending[t].active) continue;
        if (pending[t].arrival > virtual_seconds) {
          status[t] = kBusy;  // still in flight; not re-dispatched
          continue;
        }
        pending[t].active = false;
        const std::uint64_t age = aggregation_step - pending[t].data_step;
        if (age > staleness_bound_now) {
          // The cached upload is older than the bound: discard it and
          // evict the block outright — applying it would let data older
          // than S steps into the aggregate.
          evict(t, pending[t].cause);
          status[t] = pending[t].cause;
          continue;
        }
        w[t] = std::move(pending[t].sol.w);
        v[t] = std::move(pending[t].sol.v);
        xi[t] = pending[t].sol.xi;
        late_w0[t] = std::move(pending[t].w0_sent);
        staleness.refresh(t, pending[t].data_step);
        ++late_count;
        status[t] = pending[t].cause;
        if (flight != nullptr) {
          obs::FlightEvent event;
          event.round = aggregation_step;
          event.device = static_cast<std::uint32_t>(t);
          event.kind = obs::FlightEventKind::kLateFold;
          event.cause = static_cast<int>(pending[t].cause);
          event.t_start = pending[t].arrival;
          event.t_end = virtual_seconds;
          event.staleness = age;
          flight->record(event);
        }
      }

      // -- dispatch: scatter, local solves, gather (buffered) --------------
      // The T independent per-device prox-QPs (Eq. 22), solved
      // concurrently. Solutions are buffered and applied on the
      // aggregation thread once the event order decides who made the cut;
      // churned-out devices, failed round trips, and deadline misses leave
      // the server's cached block in place even though the device's local
      // working set may have advanced.
      std::vector<AdmmDevice::LocalSolution> solutions(num_users);
      std::vector<char> dispatched(num_users, 0);
      std::vector<char> delivered(num_users, 0);
      std::vector<double> completion(num_users, 0.0);
      // Per-device uplink attempt logs for the flight recorder. Workers
      // fill their own slot; the aggregation thread replays them in
      // ascending device order, so the log order never depends on worker
      // interleaving.
      std::vector<std::vector<net::SimNetwork::TransmitAttempt>>
          uplink_attempts(flight != nullptr ? num_users : 0);
      pool.parallel_for(num_users, [&](std::size_t t) {
        if (pending[t].active) return;  // busy
        if (fault.offline(round, t)) {
          status[t] = kOffline;
          return;
        }
        const auto downlink =
            network.transmit_to_device(t, admm_broadcast_payload(w0, u[t]));
        if (!downlink.delivered) {
          status[t] = kDownlinkFailed;
          return;  // device never received (w0, u_t) this round
        }
        PLOS_SPAN("plos.device_solve", "device", static_cast<double>(t));
        Stopwatch device_watch;
        const int qp_iterations_before = devices[t].qp_iterations();
        auto sol = devices[t].solve(w0, u[t]);
        network.account_device_compute(t, device_watch.elapsed_seconds());
        if (fault.misses_deadline(round, t)) {
          // Straggler past the fault schedule's round deadline: the compute
          // happened (and was charged) but the server stopped waiting, so
          // the upload is never sent.
          status[t] = kDeadlineMissed;
          return;
        }
        const int qp_iteration_delta =
            devices[t].qp_iterations() - qp_iterations_before;
        auto uplink = network.transmit_to_server(
            t, admm_update_payload(sol.w, sol.v, sol.xi));
        if (!uplink.delivered) status[t] = kUplinkFailed;
        if (flight != nullptr) {
          uplink_attempts[t] = std::move(uplink.attempt_log);
        }
        completion[t] = completion_seconds(
            options.latency, downlink.seconds + uplink.seconds,
            qp_iteration_delta, network.device_profile(t).cpu_slowdown,
            fault.time_multiplier(round, t), round, t);
        solutions[t] = std::move(sol);
        dispatched[t] = 1;
        delivered[t] = uplink.delivered ? 1 : 0;
      });

      // -- event-ordered round cut ----------------------------------------
      // One event per dispatched device at min(completion, deadline); the
      // round cuts at the quorum-th on-time upload, or — if the quorum is
      // unreachable this step — at the last event (failed and straggling
      // devices must not hang the server). The target counts FRESH uploads
      // against the whole fleet: cheaper variants (relative to the
      // dispatched subset, or crediting folded late arrivals) cut rounds
      // faster but starve the aggregate of fresh updates, and the extra
      // ADMM iterations cost more simulated time than the shorter rounds
      // save. The queue's total order makes the cut independent of worker
      // interleaving.
      net::EventQueue queue;
      for (std::size_t t = 0; t < num_users; ++t) {
        if (dispatched[t] == 0) continue;
        const double device_deadline = deadlines.deadline(t);
        const bool on_time =
            delivered[t] != 0 && completion[t] <= device_deadline;
        net::Event event;
        event.time = std::min(completion[t], device_deadline);
        event.round = round;
        event.device = static_cast<std::uint64_t>(t);
        event.kind =
            on_time ? net::EventKind::kUpload : net::EventKind::kDeadline;
        queue.push(event);
      }
      const std::size_t round_quorum = std::max<std::size_t>(
          1, static_cast<std::size_t>(std::ceil(
                 quorum_now * static_cast<double>(num_users))));
      double t_cut = 0.0;
      std::size_t uploads_seen = 0;
      while (!queue.empty()) {
        const net::Event event = queue.pop();
        t_cut = event.time;
        if (event.kind == net::EventKind::kUpload) {
          ++uploads_seen;
          if (uploads_seen >= round_quorum) break;
        }
      }
      if (uploads_seen == 0 && t_cut == 0.0) {
        // Nothing was dispatched (everyone busy or offline): advance the
        // clock to the earliest in-flight arrival so the loop makes
        // progress instead of spinning at a frozen virtual time.
        double min_arrival = std::numeric_limits<double>::infinity();
        for (std::size_t t = 0; t < num_users; ++t) {
          if (pending[t].active) {
            min_arrival = std::min(min_arrival, pending[t].arrival);
          }
        }
        if (std::isfinite(min_arrival)) {
          t_cut = std::max(0.0, min_arrival - virtual_seconds);
        }
      }

      // -- classify dispatched devices against the cut ---------------------
      std::uint64_t fresh_count = 0;
      for (std::size_t t = 0; t < num_users; ++t) {
        if (dispatched[t] == 0) continue;
        const double device_deadline = deadlines.deadline(t);
        const bool on_time =
            delivered[t] != 0 && completion[t] <= device_deadline;
        if (on_time && completion[t] <= t_cut) {
          w[t] = std::move(solutions[t].w);
          v[t] = std::move(solutions[t].v);
          xi[t] = solutions[t].xi;
          fresh[t] = 1;
          ++fresh_count;
          status[t] = kParticipated;
          staleness.refresh(t, aggregation_step);
        } else if (delivered[t] != 0) {
          // Arrives after the cut (or past its deadline): stash it; the
          // device stays busy until the upload lands on the virtual clock.
          pending[t].active = true;
          pending[t].arrival = virtual_seconds + completion[t];
          pending[t].data_step = aggregation_step;
          pending[t].w0_sent = w0_old;
          pending[t].sol = std::move(solutions[t]);
          pending[t].cause = on_time ? static_cast<char>(kLateUpload)
                                     : static_cast<char>(
                                           kDeadlineMissed);
          status[t] = pending[t].cause;
        }
        // Undelivered uploads keep the failure status the worker set.
      }

      // -- flight recorder: replay this step's device lifecycles -----------
      // Aggregation thread only, ascending device order: attempt slices are
      // laid back to back so the last one ends at the device's completion
      // time on the virtual clock (start clamped to the round start — the
      // completion jitter can undercut the raw attempt windows).
      if (flight != nullptr) {
        const double round_start = virtual_seconds;
        for (std::size_t t = 0; t < num_users; ++t) {
          if (dispatched[t] == 0) continue;
          const auto& attempts = uplink_attempts[t];
          std::vector<double> attempt_seconds;
          attempt_seconds.reserve(attempts.size());
          for (const auto& attempt : attempts) {
            attempt_seconds.push_back(attempt.seconds);
          }
          const double attempt_total =
              linalg::kernels::serial_sum(attempt_seconds);
          double slice_start = std::max(
              round_start, round_start + completion[t] - attempt_total);
          for (std::size_t k = 0; k < attempts.size(); ++k) {
            obs::FlightEvent event;
            event.round = aggregation_step;
            event.device = static_cast<std::uint32_t>(t);
            event.attempt = static_cast<std::uint32_t>(k + 1);
            event.kind = obs::FlightEventKind::kUploadAttempt;
            event.cause = attempts[k].result;
            event.t_start = slice_start;
            event.t_end = slice_start + attempts[k].seconds;
            flight->record(event);
            slice_start = event.t_end;
          }
          const double device_deadline = deadlines.deadline(t);
          if (delivered[t] != 0 && completion[t] > device_deadline &&
              std::isfinite(device_deadline)) {
            obs::FlightEvent event;
            event.round = aggregation_step;
            event.device = static_cast<std::uint32_t>(t);
            event.kind = obs::FlightEventKind::kDeadlineMiss;
            event.cause = static_cast<int>(kDeadlineMissed);
            event.t_start = round_start + device_deadline;
            event.t_end = round_start + completion[t];
            flight->record(event);
          }
        }
        obs::FlightEvent cut;
        cut.round = aggregation_step;
        cut.device = obs::kFlightServerDevice;
        cut.kind = obs::FlightEventKind::kQuorumCut;
        cut.t_start = round_start;
        cut.t_end = round_start + t_cut;
        cut.staleness = fresh_count;
        flight->record(cut);
      }

      // Feed the deadline tracker after classification, ascending (the
      // EWMA influences the *next* dispatch, never the current cut).
      for (std::size_t t = 0; t < num_users; ++t) {
        if (dispatched[t] != 0 && delivered[t] != 0) {
          deadlines.observe(t, completion[t]);
        }
      }
      virtual_seconds += t_cut;

      // -- bounded staleness: evict blocks that aged past the bound --------
      // Runs before the server update, so no block older than S steps ever
      // enters an aggregate.
      for (std::size_t t = 0; t < num_users; ++t) {
        if (staleness.age(t, aggregation_step) > staleness_bound_now) {
          evict(t, last_miss_cause[t]);
        }
      }

      // Degradation tallies and miss-cause tracking (fixed device order).
      for (std::size_t t = 0; t < num_users; ++t) {
        switch (status[t]) {
          case kOffline:
            ++result.diagnostics.devices_offline_total;
            break;
          case kDownlinkFailed:
            ++result.diagnostics.downlink_failures_total;
            break;
          case kDeadlineMissed:
            ++result.diagnostics.deadline_misses_total;
            break;
          case kUplinkFailed:
            ++result.diagnostics.uplink_failures_total;
            break;
          default:
            break;
        }
        if (fresh[t] != 0) {
          last_miss_cause[t] = kParticipated;
        } else if (status[t] != kParticipated) {
          last_miss_cause[t] = status[t];
        }
      }
      const double participation_rate = static_cast<double>(fresh_count) /
                                        static_cast<double>(num_users);
      result.diagnostics.participation_trace.push_back(participation_rate);
      result.async.quorum_trace.push_back(fresh_count);
      result.async.late_uploads_total += late_count;
      result.async.evictions_offline_total += ev_offline;
      result.async.evictions_late_total += ev_late;
      result.async.evictions_failed_total += ev_failed;
      result.async.max_staleness_seen =
          std::max(result.async.max_staleness_seen,
                   staleness.max_age(aggregation_step));

      // -- server closed-form updates (Eq. 23) -----------------------------
      Stopwatch server_watch;
      const ServerUpdateSums sums =
          admm_server_update(w, v, fresh, late_w0, base.rho, w0, u);

      objective = linalg::squared_norm(w0);
      for (std::size_t t = 0; t < num_users; ++t) {
        objective += base.params.lambda / static_cast<double>(num_users) *
                         linalg::squared_norm(v[t]) +
                     xi[t];
      }
      const double dual_residual =
          base.rho * std::sqrt(2.0 * static_cast<double>(num_users)) *
          std::sqrt(linalg::squared_distance(w0, w0_old));
      const double primal_residual = std::sqrt(sums.primal_sq);
      network.account_server_compute(server_watch.elapsed_seconds());
      network.end_round();
      if (flight != nullptr) {
        obs::FlightEvent event;
        event.round = aggregation_step;
        event.device = obs::kFlightServerDevice;
        event.kind = obs::FlightEventKind::kAggregate;
        event.t_start = virtual_seconds;
        event.t_end = virtual_seconds;
        event.staleness = fresh_count;
        flight->record(event);
      }

      result.diagnostics.objective_trace.push_back(objective);
      result.diagnostics.primal_residual_trace.push_back(primal_residual);
      result.diagnostics.dual_residual_trace.push_back(dual_residual);

      if (telemetry || tuning) {
        obs::RoundRecord record;
        record.trainer = "distributed";
        record.cccp_round = cccp;
        record.admm_iteration = admm;
        record.objective = objective;
        record.objective_finite = std::isfinite(objective);
        record.primal_residual = primal_residual;
        record.dual_residual = dual_residual;
        record.constraints = fleet(&AdmmDevice::working_set_size);
        record.qp_solves =
            fleet(&AdmmDevice::qp_solves) - iteration_qp_solves_before;
        record.qp_iterations = fleet(&AdmmDevice::qp_iterations) -
                               iteration_qp_iterations_before;
        record.qp_unconverged = fleet(&AdmmDevice::qp_unconverged) -
                                iteration_qp_unconverged_before;
        record.participation_rate = participation_rate;
        record.quorum_size = fresh_count;
        record.late_uploads = late_count;
        record.evictions_offline = ev_offline;
        record.evictions_late = ev_late;
        record.evictions_failed = ev_failed;
        staleness.fill_record(record, aggregation_step);
        obs::CauseCounters causes(kDeviceRoundStatusCount);
        for (std::size_t t = 0; t < num_users; ++t) {
          causes.add(static_cast<std::size_t>(status[t]));
        }
        record.cause_counts = causes.counts();
        const auto traffic = network.traffic_snapshot();
        record.bytes_to_devices =
            traffic.bytes_to_devices - previous_traffic.bytes_to_devices;
        record.bytes_to_server =
            traffic.bytes_to_server - previous_traffic.bytes_to_server;
        record.messages_dropped =
            traffic.messages_dropped - previous_traffic.messages_dropped;
        record.retries = traffic.retries - previous_traffic.retries;
        previous_traffic = traffic;
        const obs::QuantileSketch latency = network.latency_sketch();
        const obs::QuantileSketch step_latency =
            latency.diff(previous_latency);
        record.lat_count = step_latency.count();
        if (!step_latency.empty()) {
          record.lat_p50 = step_latency.quantile(0.50);
          record.lat_p90 = step_latency.quantile(0.90);
          record.lat_p99 = step_latency.quantile(0.99);
        }
        previous_latency = latency;
        if (tuning) {
          // Journal the knobs in force for THIS step, then let the
          // controller read the very record it will be journaled in — the
          // decision and its trigger land beside the evidence.
          record.tuned_quorum = quorum_now;
          record.tuned_staleness_bound = staleness_bound_now;
          const AutoTuneDecision decision = tuner.observe(record);
          record.tune_event = decision.event;
          record.tune_trigger = decision.trigger;
          if (record.tune_event[0] != '\0' && record.tune_event != "hold") {
            ++result.async.tune_actions;
          }
          quorum_now = tuner.quorum();
          staleness_bound_now = tuner.staleness_bound();
        }
        if (base.journal != nullptr) base.journal->append(record);
        if (base.watchdog != nullptr &&
            base.watchdog->observe(record) == obs::WatchdogAction::kAbort) {
          watchdog_aborted = true;
          break;
        }
      }
      ++aggregation_step;

      if (options.on_aggregate) {
        options.on_aggregate(
            QuorumAggregateView{aggregation_step, virtual_seconds, w0, w});
      }

      // Paper thresholds (Eq. 24) plus Boyd's relative terms.
      const double primal_threshold =
          sqrt_t * base.eps_abs +
          kEpsRel * std::sqrt(std::max(sums.w_sq, sums.target_sq));
      const double dual_threshold =
          std::sqrt(2.0) * sqrt_t * base.eps_abs +
          kEpsRel * base.rho * std::sqrt(sums.u_sq);
      if (dual_residual <= dual_threshold &&
          primal_residual <= primal_threshold) {
        break;
      }
    }

    if (watchdog_aborted) {
      result.diagnostics.watchdog_aborted = true;
      break;
    }
    if (std::abs(previous_cccp_objective - objective) <=
        base.cccp.objective_tolerance * (1.0 + std::abs(objective))) {
      break;
    }
    previous_cccp_objective = objective;
  }
  result.diagnostics.qp_solves = fleet(&AdmmDevice::qp_solves);
  result.diagnostics.qp_unconverged = fleet(&AdmmDevice::qp_unconverged);

  result.model.global_weights = w0;
  for (std::size_t t = 0; t < num_users; ++t) {
    // Report consensus-consistent personal deviations w_t − w0 rather than
    // the local v_t (they coincide at exact convergence).
    result.model.user_deviations[t] = linalg::sub(w[t], w0);
  }
  result.diagnostics.train_seconds = total_watch.elapsed_seconds();
  result.diagnostics.fault_counters = network.fault_counters();
  result.async.virtual_seconds = virtual_seconds;
  result.async.final_quorum = quorum_now;
  result.async.final_staleness_bound = staleness_bound_now;

  return result;
}

}  // namespace plos::core
