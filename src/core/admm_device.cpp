#include "core/admm_device.hpp"

#include <algorithm>
#include <utility>

#include "common/assert.hpp"
#include "common/stopwatch.hpp"
#include "net/serialize.hpp"
#include "obs/metrics.hpp"
#include "svm/linear_svm.hpp"

namespace plos::core {

namespace {

// Accumulates wire-format serialization wall time so bench snapshots can
// split solver time into QP vs separation vs serialization.
void count_serialize_seconds(const Stopwatch& watch) {
  static obs::Counter& seconds =
      obs::metrics().counter("net.serialize.seconds");
  seconds.add(watch.elapsed_seconds());
}

}  // namespace

std::vector<std::uint8_t> admm_broadcast_payload(std::span<const double> w0,
                                                 std::span<const double> u) {
  const Stopwatch watch;
  net::Serializer s;
  s.write_u32(/*message type*/ 1);
  s.write_vector(w0);
  s.write_vector(u);
  count_serialize_seconds(watch);
  return s.take();
}

std::vector<std::uint8_t> admm_update_payload(std::span<const double> w,
                                              std::span<const double> v,
                                              double xi) {
  const Stopwatch watch;
  net::Serializer s;
  s.write_u32(/*message type*/ 2);
  s.write_vector(w);
  s.write_vector(v);
  s.write_f64(xi);
  count_serialize_seconds(watch);
  return s.take();
}

AdmmDevice::AdmmDevice(const data::UserData& user, std::size_t num_users,
                       const DistributedPlosOptions& options)
    : ctx_(PlosUserContext::from_user(user)),
      options_(&options),
      num_users_(static_cast<double>(num_users)),
      kappa_(static_cast<double>(num_users) / (2.0 * options.params.lambda) +
             1.0 / options.rho),
      v_over_g_(static_cast<double>(num_users) /
                (2.0 * options.params.lambda)),
      working_set_(kappa_) {}

linalg::Vector AdmmDevice::bootstrap_weights() const {
  if (ctx_.labeled.empty()) return {};
  std::vector<linalg::Vector> xs;
  std::vector<int> ys;
  for (std::size_t i : ctx_.labeled) {
    xs.push_back(ctx_.user->samples[i]);
    ys.push_back(ctx_.user->true_labels[i]);
  }
  return svm::train_linear_svm(xs, ys).weights;
}

void AdmmDevice::begin_cccp_round(std::span<const double> current_weights,
                                  bool first_round, std::uint64_t seed) {
  signs_ = round_signs(ctx_, current_weights, first_round,
                       options_->params.lambda / num_users_,
                       options_->params.cl, options_->params.cu, seed);
  working_set_ = qp::SimplexBlock(kappa_);
}

AdmmDevice::LocalSolution AdmmDevice::solve(std::span<const double> w0,
                                            std::span<const double> u) {
  const std::size_t dim = w0.size();
  linalg::Vector d(dim);
  for (std::size_t j = 0; j < dim; ++j) d[j] = w0[j] - u[j];

  // The working set persists across ADMM iterations (the planes depend
  // only on the CCCP signs); the loop re-solves it at the new center d.
  ProxCuttingPlaneResult solved = solve_prox_cutting_planes(
      ctx_, signs_, options_->params.cl, options_->params.cu, d,
      working_set_, shifted_, options_->cutting_plane.epsilon,
      options_->cutting_plane.max_iterations);
  qp_solves_ += solved.qp_solves;
  qp_iterations_ += solved.qp_pivots;
  qp_unconverged_ += solved.qp_unconverged;

  LocalSolution sol;
  sol.w = std::move(solved.w);
  sol.v = linalg::scaled(working_set_.z, v_over_g_);
  sol.xi = solved.xi;
  return sol;
}

StalenessLedger::StalenessLedger(std::size_t num_users)
    : data_step_(num_users, 0) {}

void StalenessLedger::refresh(std::size_t t, std::uint64_t step) {
  PLOS_CHECK(t < data_step_.size(), "StalenessLedger: device out of range");
  data_step_[t] = step + 1;
}

std::uint64_t StalenessLedger::age(std::size_t t, std::uint64_t step) const {
  PLOS_CHECK(t < data_step_.size(), "StalenessLedger: device out of range");
  // data_step_ stores step + 1, so a block refreshed this step has age 0
  // and a bootstrap-era block (sentinel 0) has age step + 1.
  PLOS_CHECK(data_step_[t] <= step + 1,
             "StalenessLedger: block refreshed in the future");
  return step + 1 - data_step_[t];
}

std::uint64_t StalenessLedger::max_age(std::uint64_t step) const {
  std::uint64_t result = 0;
  for (std::size_t t = 0; t < data_step_.size(); ++t) {
    result = std::max(result, age(t, step));
  }
  return result;
}

void StalenessLedger::fill_record(obs::RoundRecord& record,
                                  std::uint64_t step) const {
  record.staleness_hist.assign(kHistogramBuckets, 0);
  record.max_staleness = 0;
  // Fleet staleness distribution as a bounded sketch (DESIGN.md §15): the
  // journal carries its p50/p90/p99 instead of any O(users) row, and the
  // async auto-tuner reads those percentiles back as its control signal.
  // Ages are integers, so the sketch is exact up to its relative bucket
  // width; one pass on the aggregation thread keeps it deterministic.
  obs::QuantileSketch ages(staleness_sketch_spec());
  for (std::size_t t = 0; t < data_step_.size(); ++t) {
    const std::uint64_t a = age(t, step);
    record.max_staleness = std::max(record.max_staleness, a);
    const std::size_t bucket = static_cast<std::size_t>(
        std::min<std::uint64_t>(a, kHistogramBuckets - 1));
    ++record.staleness_hist[bucket];
    ages.record(static_cast<double>(a));
  }
  record.stale_p50 = ages.quantile(0.50);
  record.stale_p90 = ages.quantile(0.90);
  record.stale_p99 = ages.quantile(0.99);
}

}  // namespace plos::core
