#include "core/admm_device.hpp"

#include <algorithm>
#include <utility>

#include "common/assert.hpp"
#include "common/stopwatch.hpp"
#include "linalg/kernels.hpp"
#include "net/serialize.hpp"
#include "obs/metrics.hpp"
#include "qp/simplex_qp.hpp"
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
                (2.0 * options.params.lambda)) {}

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
  // Keep the round's planes and converged duals before resetting: planes
  // the next round re-derives bitwise resume from them. A round that built
  // no working set leaves the older seeds in place.
  if (!working_set_.empty() &&
      previous_gamma_.size() == working_set_.size()) {
    std::vector<linalg::Vector> planes;
    planes.reserve(working_set_.size());
    for (CuttingPlane& plane : working_set_) {
      planes.push_back(std::move(plane.s));
    }
    seeds_.assign(std::move(planes), std::move(previous_gamma_));
  }
  if (first_round && ctx_.labeled.empty()) {
    signs_ = cluster_initial_signs(ctx_, current_weights,
                                   options_->params.lambda / num_users_,
                                   options_->params.cl, options_->params.cu,
                                   seed);
  } else {
    signs_ = cccp_signs(ctx_, current_weights);
  }
  working_set_.clear();
  hessian_ = linalg::Matrix();
  linear_.clear();
  previous_gamma_.clear();
}

AdmmDevice::LocalSolution AdmmDevice::solve(std::span<const double> w0,
                                            std::span<const double> u) {
  const std::size_t dim = w0.size();
  linalg::Vector d(dim);
  for (std::size_t j = 0; j < dim; ++j) d[j] = w0[j] - u[j];

  LocalSolution sol;
  sol.w = d;  // empty working set ⇒ g = 0 ⇒ w = d, v = 0
  sol.v = linalg::zeros(dim);

  if (ctx_.num_samples() == 0) return sol;

  // The prox center moved: refresh the d-dependent linear coefficients
  // once per ADMM iteration. They are loop-invariant across the plane
  // additions below (each addition appends only its own entry), where
  // the old code recomputed the full set on every dual solve.
  for (std::size_t i = 0; i < working_set_.size(); ++i) {
    linear_[i] =
        working_set_[i].offset - linalg::dot(working_set_[i].s, d);
  }

  // The working set persists across ADMM iterations (the planes depend
  // only on the CCCP signs), but the prox center d moved — re-solve over
  // the existing set before looking for new violations.
  if (!working_set_.empty()) solve_dual(d, sol);

  for (int it = 0; it < options_->cutting_plane.max_iterations; ++it) {
    sol.xi = optimal_slack(working_set_, sol.w);
    CuttingPlane plane = most_violated_constraint(
        ctx_, signs_, sol.w, options_->params.cl, options_->params.cu);
    if (constraint_violation(plane, sol.w, sol.xi) <=
        options_->cutting_plane.epsilon) {
      break;
    }
    add_plane(std::move(plane), d);
    solve_dual(d, sol);
  }
  sol.xi = optimal_slack(working_set_, sol.w);
  return sol;
}

void AdmmDevice::add_plane(CuttingPlane plane, const linalg::Vector& d) {
  const std::size_t a = working_set_.size();
  // Extend the prox-QP Hessian (already scaled by κ) by one border
  // row/column.
  linalg::Matrix h(a + 1, a + 1);
  for (std::size_t i = 0; i < a; ++i) {
    for (std::size_t j = 0; j < a; ++j) h(i, j) = hessian_(i, j);
    const double entry =
        kappa_ * linalg::kernels::blocked_dot(working_set_[i].s, plane.s);
    h(i, a) = entry;
    h(a, i) = entry;
  }
  h(a, a) = kappa_ * linalg::kernels::blocked_dot(plane.s, plane.s);
  hessian_ = std::move(h);
  linear_.push_back(plane.offset - linalg::dot(plane.s, d));
  // The new dual variable resumes from the γ this plane converged to in
  // the previous CCCP round (0 if it was never in the working set).
  previous_gamma_.push_back(seeds_.seed(plane.s));
  working_set_.push_back(std::move(plane));
  count_constraint_added();
}

void AdmmDevice::solve_dual(const linalg::Vector& d, LocalSolution& sol) {
  const std::size_t n = working_set_.size();
  const qp::QpResult result =
      qp::solve_simplex_qp(hessian_, linear_, /*cap=*/1.0, previous_gamma_);
  ++qp_solves_;
  qp_iterations_ += result.iterations;
  if (!result.converged) ++qp_unconverged_;
  previous_gamma_ = result.solution;

  linalg::Vector g = linalg::zeros(d.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (result.solution[i] != 0.0) {
      linalg::axpy(result.solution[i], working_set_[i].s, g);
    }
  }
  sol.w = d;
  linalg::axpy(kappa_, g, sol.w);
  sol.v = linalg::scaled(g, v_over_g_);
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
