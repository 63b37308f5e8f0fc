// End-to-end PLOS training benchmark.
//
//   e2ebench --workload NAME --seed N --seconds S --trace 0|1
//
// One run draws a fixed set of simulated user populations ("jobs") from
// --seed, then trains a personalized model on each job in turn, cycling
// through the set until --seconds have elapsed (at least one full pass).
// Every training run is checked: the model must be finite and bitwise
// identical to the first model trained on the same job, and the mean
// accuracy over the jobs must clear kMinAccuracy. The last line of stdout is
// one JSON object
//
//   {"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value","unit"}}}
//
// With --trace 0 the metrics are the end-to-end ones a fleet operator sees:
// wall time to a trained model (best of a population's repeats, averaged
// over the populations), the simulated fleet clock until every
// device holds its model, bytes on the air per user, accuracy, and the
// benchmark's set-up time. With --trace 1 the metrics registry and the
// phase profiler are switched on and the metrics attribute a model's cost
// to layers (data generation, trainer, QP, cutting planes, ADMM server,
// wire serialization, evaluation) and count their work.
//
// Populations and trainer settings are those of the repository's running-
// time and fleet benches (bench/fig12_dist_runtime.cpp,
// bench/abl08_fault_sweep.cpp, bench/abl09_async_quorum.cpp); see
// population() and the run_* functions. Workloads:
//   centralized   figure 12's centralized case. Devices upload raw data
//                 once; the server solves the joint dual (cutting planes +
//                 capped-simplex QP + plane Gram cache) and sends each
//                 device its personal model.
//   sync-admm     figure 12's distributed case: the synchronous ADMM
//                 trainer over a fault-free phone fleet, with device
//                 prox-QP solves, warm starts and a parameter exchange
//                 every round.
//   async-quorum  ablation 9's bounded-staleness quorum ADMM over chronic
//                 stragglers, with ablation 8's drops, corruption and
//                 offline devices: late folds, evictions and CRC-framed
//                 retries.
#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <numbers>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "async/async_admm.hpp"
#include "core/centralized_plos.hpp"
#include "core/distributed_plos.hpp"
#include "core/evaluation.hpp"
#include "data/dataset.hpp"
#include "data/labeling.hpp"
#include "data/synthetic.hpp"
#include "net/serialize.hpp"
#include "net/simnet.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "rng/engine.hpp"

namespace {

using namespace plos;
using Clock = std::chrono::steady_clock;

// Populations drawn per run. Training cost varies by 20-30% from one
// population to the next, so a run averages over many of them.
constexpr std::size_t kPopulations = 24;
// Floor on the mean overall accuracy over a run's populations.
constexpr double kMinAccuracy = 0.6;
// Trainers run serially: models are bitwise identical at any thread count
// (DESIGN.md §8), and one busy core keeps wall times comparable on shared
// machines.
constexpr int kThreads = 1;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (n == 0) return 0.0;
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (double v : values) sum += v;
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

// FNV-1a over raw double bits: equal hashes mean bitwise-equal sequences
// (up to collisions), which is what the determinism checks need.
constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;

void hash_doubles(std::uint64_t& hash, std::span<const double> values) {
  for (double v : values) {
    auto bits = std::bit_cast<std::uint64_t>(v);
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= bits & 0xffu;
      hash *= 0x100000001b3ull;
      bits >>= 8;
    }
  }
}

std::uint64_t model_hash(const core::PersonalizedModel& model) {
  std::uint64_t hash = kFnvOffset;
  hash_doubles(hash, model.global_weights);
  for (const auto& v : model.user_deviations) hash_doubles(hash, v);
  return hash;
}

bool model_finite(const core::PersonalizedModel& model) {
  const auto finite = [](const linalg::Vector& v) {
    return std::all_of(v.begin(), v.end(),
                       [](double x) { return std::isfinite(x); });
  };
  return finite(model.global_weights) &&
         std::all_of(model.user_deviations.begin(),
                     model.user_deviations.end(), finite);
}

// ---- workloads -------------------------------------------------------------

enum class Trainer { kCentralized, kSyncAdmm, kAsyncQuorum };

struct Workload {
  const char* name;
  Trainer trainer;
  std::size_t points_per_class;  ///< population size, see population()
};

// The rotated-Gaussian population of the distributed figure and ablation
// benches (bench/fig11-13, bench/abl07-09): 20 users, rotations up to pi/2,
// every other user a provider revealing 5% of its labels. Figures 11-13 use
// 50 points per class, ablations 7-9 use 60.
data::MultiUserDataset population(std::size_t points_per_class,
                                  rng::Engine& engine) {
  data::SyntheticSpec spec;
  spec.num_users = 20;
  spec.points_per_class = points_per_class;
  spec.max_rotation = std::numbers::pi / 2.0;
  auto dataset = data::generate_synthetic(spec, engine);
  std::vector<std::size_t> providers;
  for (std::size_t t = 0; t < spec.num_users; t += 2) providers.push_back(t);
  data::reveal_labels(dataset, providers, 0.05, engine);
  return dataset;
}

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"centralized", Trainer::kCentralized, 50},
      {"sync-admm", Trainer::kSyncAdmm, 50},
      {"async-quorum", Trainer::kAsyncQuorum, 60},
  };
  return all;
}

struct Job {
  data::MultiUserDataset dataset;
  std::uint64_t seed = 0;  ///< fault-schedule and latency-jitter seed
};

std::vector<Job> make_jobs(const Workload& workload, std::uint64_t seed) {
  PLOS_SPAN("bench.generate");
  rng::Engine root(seed);
  std::vector<Job> jobs;
  jobs.reserve(kPopulations);
  for (std::size_t j = 0; j < kPopulations; ++j) {
    rng::Engine engine = root.fork(j);
    Job job;
    job.dataset = population(workload.points_per_class, engine);
    job.seed = static_cast<std::uint64_t>(engine.uniform_int(1, 1 << 30));
    jobs.push_back(std::move(job));
  }
  return jobs;
}

// ---- one training run --------------------------------------------------------

struct Outcome {
  double train_seconds = 0.0;  ///< wall time until the model exists
  double fleet_seconds = 0.0;  ///< simulated fleet clock
  double wire_bytes = 0.0;     ///< bytes on the air, all devices, both ways
  double accuracy = 0.0;       ///< mean overall accuracy over users
  std::uint64_t hash = 0;
  bool finite = false;
  // Work counts the trainers report (per-layer metrics).
  double cccp_rounds = 0.0;
  double admm_rounds = 0.0;
  double late_uploads = 0.0;
  double evictions = 0.0;
};

// Raw-data upload of the centralized pipeline: every feature window plus
// its label state (0 hidden, 1/2 revealed +1/-1), CRC-framed.
std::size_t upload_frame_bytes(const data::UserData& user) {
  net::Serializer s;
  s.write_u64(user.num_samples());
  for (std::size_t i = 0; i < user.num_samples(); ++i) {
    s.write_vector(user.samples[i]);
    s.write_u32(user.revealed[i] ? (user.true_labels[i] > 0 ? 1u : 2u) : 0u);
  }
  return net::frame_message(s.buffer()).size();
}

std::size_t model_frame_bytes(const linalg::Vector& weights) {
  net::Serializer s;
  s.write_vector(weights);
  return net::frame_message(s.buffer()).size();
}

double total_wire_bytes(const net::SimNetwork& network) {
  const auto traffic = network.traffic_snapshot();
  return static_cast<double>(traffic.bytes_to_devices +
                             traffic.bytes_to_server);
}

// Figure 12's fleet: phone-class devices (12x slower than the server core)
// on a 20 ms, 5 Mbit/s uplink.
net::SimNetwork phone_fleet(std::size_t users) {
  net::DeviceProfile device;
  device.cpu_slowdown = 12.0;
  net::LinkProfile link;
  link.latency_s = 0.02;
  link.bandwidth_kbps = 5000.0;
  return net::SimNetwork(users, device, link);
}

// Figure 12's centralized case: devices upload their raw data once, the
// server solves the joint dual and sends each device its personal model.
core::PersonalizedModel run_centralized(const data::MultiUserDataset& dataset,
                                        Outcome& out) {
  const std::size_t users = dataset.num_users();
  const auto start = Clock::now();
  net::SimNetwork network = phone_fleet(users);
  {
    PLOS_SPAN("bench.upload");
    for (std::size_t t = 0; t < users; ++t) {
      network.send_to_server(t, upload_frame_bytes(dataset.users[t]));
    }
  }
  // bench_plos_options() with figure 12's looser cutting-plane tolerance
  // and CCCP cap.
  core::CentralizedPlosOptions options;
  options.params.lambda = 100.0;
  options.params.cl = 10.0;
  options.params.cu = 1.0;
  options.cutting_plane.epsilon = 5e-2;
  options.cccp.max_iterations = 3;
  options.num_threads = kThreads;
  const auto train_start = Clock::now();
  core::CentralizedPlosResult result;
  {
    PLOS_SPAN("bench.train");
    result = core::train_centralized_plos(dataset, options);
  }
  const double server_seconds = seconds_since(train_start);
  {
    PLOS_SPAN("bench.upload");
    for (std::size_t t = 0; t < users; ++t) {
      network.send_to_device(t,
                             model_frame_bytes(result.model.user_weights(t)));
    }
  }
  out.train_seconds = seconds_since(start);
  // One synchronous round: parallel uploads, the server solve, parallel
  // downloads.
  network.account_server_compute(server_seconds);
  network.end_round();
  out.fleet_seconds = network.total_simulated_seconds();
  out.wire_bytes = total_wire_bytes(network);
  out.cccp_rounds = result.diagnostics.cccp_iterations;
  return std::move(result.model);
}

// bench_distributed_options() with the looser cutting-plane tolerance and
// CCCP cap that figure 12 and ablations 8/9 use.
core::DistributedPlosOptions distributed_options() {
  core::DistributedPlosOptions options;
  options.params.lambda = 100.0;
  options.params.cl = 10.0;
  options.params.cu = 1.0;
  options.cutting_plane.epsilon = 5e-2;
  options.cccp.max_iterations = 3;
  options.rho = 1.0;
  options.eps_abs = 1e-3;
  options.max_admm_iterations = 150;
  options.num_threads = kThreads;
  return options;
}

// Figure 12's distributed case, the synchronous trainer that plos_run and
// the federated example run: every ADMM round waits for all devices of a
// fault-free fleet.
core::PersonalizedModel run_sync(const data::MultiUserDataset& dataset,
                                 Outcome& out) {
  net::SimNetwork network = phone_fleet(dataset.num_users());
  const auto options = distributed_options();
  const auto start = Clock::now();
  core::DistributedPlosResult result;
  {
    PLOS_SPAN("bench.train");
    result = core::train_distributed_plos(dataset, options, &network);
  }
  out.train_seconds = seconds_since(start);
  out.fleet_seconds = network.total_simulated_seconds();
  out.wire_bytes = total_wire_bytes(network);
  out.cccp_rounds = result.diagnostics.cccp_iterations;
  out.admm_rounds = result.diagnostics.admm_iterations_total;
  return std::move(result.model);
}

// Ablation 9's 60% quorum with staleness bound 12 over its chronic
// straggler fleet, under ablation 8's lightest fault setting: 10% of
// messages dropped, 1% corrupted, 10% of devices offline per round.
core::PersonalizedModel run_async(const Job& job, Outcome& out) {
  const std::size_t users = job.dataset.num_users();
  net::SimNetwork network(users, net::DeviceProfile{}, net::LinkProfile{});
  // Chronic stragglers: 30% of the fleet computes 6x slower on every
  // dispatch.
  for (std::size_t t = 0; t < users; ++t) {
    if (t % 10 >= 3) continue;
    net::DeviceProfile profile;
    profile.cpu_slowdown *= 6.0;
    network.set_device_profile(t, profile);
  }
  net::FaultSpec faults;
  faults.drop_probability = 0.1;
  faults.corrupt_probability = 0.01;
  faults.offline_probability = 0.1;
  faults.seed = job.seed;
  network.set_fault_model(net::FaultModel(faults));
  async::AsyncQuorumOptions options;
  options.base = distributed_options();
  options.quorum = 0.6;
  options.staleness_bound = 12;
  options.adaptive_deadline = false;
  // Compute-bound local solves, so a straggler paces a barrier.
  options.latency.compute_base_s = 5e-2;
  options.latency.seed = job.seed;
  const auto start = Clock::now();
  async::AsyncQuorumResult result;
  {
    PLOS_SPAN("bench.train");
    result = async::train_async_quorum_plos(job.dataset, options, &network);
  }
  out.train_seconds = seconds_since(start);
  out.fleet_seconds = result.async.virtual_seconds;
  out.wire_bytes = total_wire_bytes(network);
  out.cccp_rounds = result.diagnostics.cccp_iterations;
  out.admm_rounds = result.diagnostics.admm_iterations_total;
  out.late_uploads = static_cast<double>(result.async.late_uploads_total);
  out.evictions = static_cast<double>(result.async.evictions_offline_total +
                                      result.async.evictions_late_total +
                                      result.async.evictions_failed_total);
  return std::move(result.model);
}

Outcome run_job(const Workload& workload, const Job& job) {
  Outcome out;
  core::PersonalizedModel model;
  switch (workload.trainer) {
    case Trainer::kCentralized:
      model = run_centralized(job.dataset, out);
      break;
    case Trainer::kSyncAdmm:
      model = run_sync(job.dataset, out);
      break;
    case Trainer::kAsyncQuorum:
      model = run_async(job, out);
      break;
  }
  out.finite = model_finite(model);
  out.hash = model_hash(model);
  if (out.finite) {
    PLOS_SPAN("bench.evaluate");
    out.accuracy =
        core::evaluate(job.dataset, core::predict_all(job.dataset, model))
            .overall;
  }
  return out;
}

// ---- metrics ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double value =
        std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), value,
                metrics[i].unit);
  }
  std::printf("}}\n");
}

// Sum of inclusive milliseconds over every profile node named `name`.
double span_ms(const obs::Profiler::NodeSnapshot& node,
               const std::string& name) {
  double total = node.name == name ? node.inclusive_ms : 0.0;
  for (const auto& child : node.children) total += span_ms(child, name);
  return total;
}

double counter(const char* name) {
  return obs::metrics().counter(name).value();
}

double histogram_sum(const char* name) {
  return obs::metrics()
      .histogram(name, obs::default_iteration_buckets())
      .sum();
}

double ratio(double part, double whole) {
  return whole > 0.0 ? part / whole : 0.0;
}

// Per-model (or per-population) attribution from the profile tree, the
// registry counters and the trainers' own diagnostics.
std::vector<Metric> layer_metrics(double models, double populations,
                                  const std::vector<Outcome>& outcomes) {
  const auto tree = obs::Profiler::instance().snapshot();
  const auto per_model = [models](double total) { return total / models; };
  double cccp = 0.0, admm = 0.0, late = 0.0, evictions = 0.0;
  for (const Outcome& o : outcomes) {
    cccp += o.cccp_rounds;
    admm += o.admm_rounds;
    late += o.late_uploads;
    evictions += o.evictions;
  }
  const double qp_solves =
      counter("qp.capped_simplex.solves") + counter("qp.box.solves");
  const double warm_hits =
      counter("qp.capped_simplex.warm_hits") + counter("qp.box.warm_hits");
  const double dots_reused = counter("plos.gram_cache.dots_reused");
  const double dots_computed = counter("plos.gram_cache.dots_computed");
  return {
      {"data.generate_ms", span_ms(tree, "bench.generate") / populations,
       "ms"},
      {"trainer.train_ms", per_model(span_ms(tree, "bench.train")), "ms"},
      {"qp.solve_ms",
       per_model(span_ms(tree, "qp.capped_simplex_solve") +
                 span_ms(tree, "qp.box_solve")),
       "ms"},
      {"qp.solves", per_model(qp_solves), "count"},
      {"qp.iterations",
       per_model(histogram_sum("qp.capped_simplex.iterations") +
                 histogram_sum("qp.box.iterations")),
       "count"},
      {"qp.warm_hit_ratio", ratio(warm_hits, qp_solves), "ratio"},
      {"gram_cache.dot_reuse_ratio",
       ratio(dots_reused, dots_reused + dots_computed), "ratio"},
      {"cutting_plane.separations",
       per_model(counter("plos.cutting_plane.separations")), "count"},
      {"cutting_plane.separation_ms",
       per_model(1e3 * counter("plos.cutting_plane.separation_seconds")),
       "ms"},
      {"core.cccp_rounds", per_model(cccp), "count"},
      {"admm.rounds", per_model(admm), "count"},
      {"admm.device_solve_ms", per_model(span_ms(tree, "plos.device_solve")),
       "ms"},
      {"admm.server_update_ms",
       per_model(span_ms(tree, "plos.server_update")), "ms"},
      {"async.late_uploads", per_model(late), "count"},
      {"async.evictions", per_model(evictions), "count"},
      {"net.serialize_ms",
       per_model(1e3 * counter("net.serialize.seconds") +
                 span_ms(tree, "bench.upload")),
       "ms"},
      {"net.messages",
       per_model(counter("simnet.messages_to_device") +
                 counter("simnet.messages_to_server")),
       "count"},
      {"net.retries", per_model(counter("simnet.retries")), "count"},
      {"eval.predict_ms", per_model(span_ms(tree, "bench.evaluate")), "ms"},
  };
}

// ---- CLI --------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return std::nullopt;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return std::nullopt;
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' ||
          !(args.seconds > 0.0 && args.seconds <= 3600.0)) {
        return std::nullopt;
      }
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return std::nullopt;
      args.trace = value == "1";
    } else {
      return std::nullopt;
    }
  }
  if (!have_workload || !have_seed || !have_seconds) return std::nullopt;
  return args;
}

void print_usage() {
  std::fprintf(stderr,
               "usage: e2ebench --workload NAME --seed N --seconds S "
               "[--trace 0|1]\nworkloads:");
  for (const Workload& w : workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = parse_args(argc, argv);
  const Workload* workload = nullptr;
  if (args) {
    for (const Workload& w : workloads()) {
      if (args->workload == w.name) workload = &w;
    }
  }
  if (workload == nullptr) {
    print_usage();
    return 2;
  }
  if (args->trace) {
    obs::metrics().set_enabled(true);
    obs::Profiler::instance().reset();
    obs::Profiler::instance().set_enabled(true);
  }

  try {
    // Set-up: generate the job set. It is generated again before every
    // later training run, so that the set-up samples span the whole run
    // rather than one burst at its start; every set must be bitwise the
    // same as the first.
    std::vector<double> setup_seconds;
    std::vector<std::uint64_t> input_hashes;
    bool inputs_stable = true;
    const auto set_up = [&] {
      const auto start = Clock::now();
      std::vector<Job> fresh = make_jobs(*workload, args->seed);
      setup_seconds.push_back(seconds_since(start));
      std::vector<std::uint64_t> hashes;
      for (const Job& job : fresh) {
        hashes.push_back(
            data::fingerprint(job.dataset, workload->name).content_hash);
      }
      if (input_hashes.empty()) {
        input_hashes = std::move(hashes);
      } else if (hashes != input_hashes) {
        inputs_stable = false;
      }
      return fresh;
    };
    const std::vector<Job> jobs = set_up();

    // Measurement: cycle through the jobs until the time is up, finishing
    // at least one full pass.
    std::vector<std::vector<Outcome>> runs(jobs.size());
    std::size_t attempted = 0;
    std::size_t failed = 0;
    const auto deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(args->seconds));
    for (std::size_t k = 0;; ++k) {
      if (k >= jobs.size() && Clock::now() >= deadline) break;
      if (k > 0) set_up();
      const std::size_t j = k % jobs.size();
      ++attempted;
      try {
        Outcome outcome = run_job(*workload, jobs[j]);
        // Repeats of a job are the same computation: the model and the
        // byte ledger must come out identical.
        const bool reproducible =
            runs[j].empty() || (runs[j].front().hash == outcome.hash &&
                                runs[j].front().wire_bytes ==
                                    outcome.wire_bytes);
        if (!outcome.finite || !reproducible) {
          ++failed;
          continue;
        }
        runs[j].push_back(outcome);
      } catch (const std::exception& error) {
        std::fprintf(stderr, "job %zu failed: %s\n", j, error.what());
        ++failed;
      }
    }

    // Per job: the fastest of its repeats. The repeats are bitwise the
    // same computation, so the fastest one is the least disturbed by other
    // load on the machine; its fleet clock goes with it (the centralized
    // and synchronous clocks include measured solve time). Across jobs: the
    // mean.
    std::vector<double> time_ms, fleet_s, wire_kb, accuracy;
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      if (runs[j].empty()) continue;
      const Outcome& fastest = *std::min_element(
          runs[j].begin(), runs[j].end(),
          [](const Outcome& a, const Outcome& b) {
            return a.train_seconds < b.train_seconds;
          });
      time_ms.push_back(fastest.train_seconds * 1e3);
      fleet_s.push_back(fastest.fleet_seconds);
      wire_kb.push_back(runs[j].front().wire_bytes / 1024.0 /
                        static_cast<double>(jobs[j].dataset.num_users()));
      accuracy.push_back(runs[j].front().accuracy);
    }
    const double mean_accuracy = mean(accuracy);
    const bool correct = failed == 0 && inputs_stable &&
                         accuracy.size() == jobs.size() &&
                         mean_accuracy >= kMinAccuracy;
    std::fprintf(stderr,
                 "%s seed %llu: %zu runs over %zu jobs, accuracy %.4f, %s\n",
                 workload->name, static_cast<unsigned long long>(args->seed),
                 attempted, jobs.size(), mean_accuracy,
                 correct ? "correct" : "FAILED");

    if (args->trace) {
      std::vector<Outcome> all;
      for (const auto& job_runs : runs) {
        all.insert(all.end(), job_runs.begin(), job_runs.end());
      }
      print_result(correct, attempted, failed,
                   layer_metrics(static_cast<double>(all.size()),
                                 static_cast<double>(setup_seconds.size() *
                                                     jobs.size()),
                                 all));
    } else {
      print_result(correct, attempted, failed,
                   {{"time_to_model_ms", mean(time_ms), "ms"},
                    {"fleet_clock_s", mean(fleet_s), "s"},
                    {"wire_kb_per_user", mean(wire_kb), "KB"},
                    {"accuracy", mean_accuracy, "fraction"},
                    {"setup_s", median(setup_seconds), "s"}});
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "e2ebench: %s\n", error.what());
    return 1;
  }
  return 0;
}
