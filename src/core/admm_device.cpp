#include "core/admm_device.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/assert.hpp"
#include "common/stopwatch.hpp"
#include "net/serialize.hpp"
#include "obs/metrics.hpp"

namespace plos::core {

namespace {

// Accumulates wire-format serialization wall time so bench snapshots can
// split solver time into QP vs separation vs serialization.
void count_serialize_seconds(const Stopwatch& watch) {
  static obs::Counter& seconds =
      obs::metrics().counter("net.serialize.seconds");
  seconds.add(watch.elapsed_seconds());
}

// Message types of the ADMM exchange (DESIGN.md §9). A broadcast's type is
// its DualFold code; 0 is the bootstrap upload (core/quorum_admm.cpp).
constexpr std::uint32_t kUploadSolved = 2;
constexpr std::uint32_t kUploadCenter = 3;

bool known_fold(std::uint32_t type) {
  switch (static_cast<DualFold>(type)) {
    case DualFold::kExplicit:
    case DualFold::kRelaxedFresh:
    case DualFold::kPlainFresh:
    case DualFold::kLateFold:
    case DualFold::kUnchanged:
    case DualFold::kZeroed:
      return true;
  }
  return false;
}

linalg::Vector read_dim_vector(net::Deserializer& in, std::size_t dim) {
  linalg::Vector v = in.read_vector();
  PLOS_CHECK(v.size() == dim, "ADMM message: vector of length "
                                  << v.size() << ", expected " << dim);
  return v;
}

}  // namespace

linalg::Vector relaxed_point(std::span<const double> w,
                             std::span<const double> v,
                             std::span<const double> w0_old) {
  linalg::Vector relaxed = linalg::sub(w, v);
  linalg::scale(relaxed, kAdmmRelaxation);
  linalg::axpy(1.0 - kAdmmRelaxation, w0_old, relaxed);
  return relaxed;
}

void step_dual(DualFold fold, std::span<const double> w,
               std::span<const double> v, std::span<const double> w0_solved,
               std::span<const double> w0_new, linalg::Vector& u) {
  switch (fold) {
    case DualFold::kRelaxedFresh:
      u = linalg::add(u, relaxed_point(w, v, w0_solved));
      linalg::axpy(-1.0, w0_new, u);
      return;
    case DualFold::kPlainFresh: {
      linalg::Vector residual = linalg::sub(w, w0_new);
      linalg::axpy(-1.0, v, residual);
      u = linalg::add(u, residual);
      return;
    }
    case DualFold::kLateFold: {
      linalg::Vector step = linalg::sub(w, w0_solved);
      linalg::axpy(-1.0, v, step);
      linalg::axpy(1.0, u, step);
      u = std::move(step);
      return;
    }
    case DualFold::kZeroed:
      u = linalg::zeros(u.size());
      return;
    case DualFold::kUnchanged:
      return;
    case DualFold::kExplicit:
      break;
  }
  PLOS_CHECK(false, "step_dual: kExplicit is not a dual step");
}

linalg::Vector prox_center(std::span<const double> w0,
                           std::span<const double> u) {
  PLOS_CHECK(w0.size() == u.size(), "prox_center: dimension mismatch");
  linalg::Vector d(w0.size());
  for (std::size_t j = 0; j < d.size(); ++j) d[j] = w0[j] - u[j];
  return d;
}

ProxScales::ProxScales(std::size_t num_users,
                       const DistributedPlosOptions& options)
    : kappa(static_cast<double>(num_users) / (2.0 * options.params.lambda) +
            1.0 / options.rho),
      v_over_g(static_cast<double>(num_users) /
               (2.0 * options.params.lambda)) {}

LocalSolution solution_from_upload(const DeviceUpload& upload,
                                   std::span<const double> center,
                                   const ProxScales& scales) {
  PLOS_CHECK(upload.z.size() == center.size(),
             "solution_from_upload: dimension mismatch");
  LocalSolution sol;
  sol.w = upload.solved
              ? prox_primal(center, scales.kappa, upload.z)
              : linalg::Vector(center.begin(), center.end());
  sol.v = linalg::scaled(upload.z, scales.v_over_g);
  sol.xi = upload.xi;
  return sol;
}

std::vector<std::uint8_t> encode_broadcast(DualFold fold,
                                           std::span<const double> w0,
                                           std::span<const double> u) {
  const Stopwatch watch;
  net::Serializer s;
  s.write_u32(static_cast<std::uint32_t>(fold));
  s.write_vector(w0);
  if (fold == DualFold::kExplicit) s.write_vector(u);
  count_serialize_seconds(watch);
  return s.take();
}

DeviceBroadcast decode_broadcast(std::span<const std::uint8_t> payload,
                                 std::size_t dim) {
  net::Deserializer in(payload);
  const std::uint32_t type = in.read_u32();
  PLOS_CHECK(known_fold(type), "ADMM broadcast: unknown type " << type);
  DeviceBroadcast broadcast;
  broadcast.fold = static_cast<DualFold>(type);
  broadcast.w0 = read_dim_vector(in, dim);
  if (broadcast.fold == DualFold::kExplicit) {
    broadcast.u = read_dim_vector(in, dim);
  }
  PLOS_CHECK(in.exhausted(), "ADMM broadcast: " << in.remaining()
                                                << " trailing bytes");
  return broadcast;
}

std::vector<std::uint8_t> encode_upload(const DeviceUpload& upload) {
  const Stopwatch watch;
  net::Serializer s;
  s.write_u32(upload.solved ? kUploadSolved : kUploadCenter);
  s.write_vector(upload.z);
  s.write_f64(upload.xi);
  count_serialize_seconds(watch);
  return s.take();
}

DeviceUpload decode_upload(std::span<const std::uint8_t> payload,
                           std::size_t dim) {
  net::Deserializer in(payload);
  const std::uint32_t type = in.read_u32();
  PLOS_CHECK(type == kUploadSolved || type == kUploadCenter,
             "ADMM upload: unknown type " << type);
  DeviceUpload upload;
  upload.solved = type == kUploadSolved;
  upload.z = read_dim_vector(in, dim);
  upload.xi = in.read_f64();
  PLOS_CHECK(in.exhausted(),
             "ADMM upload: " << in.remaining() << " trailing bytes");
  return upload;
}

std::optional<linalg::Vector> HeldDual::replay(
    DualFold fold, std::span<const double> w0_now) const {
  switch (fold) {
    case DualFold::kExplicit:
      return std::nullopt;
    case DualFold::kRelaxedFresh:
    case DualFold::kPlainFresh:
    case DualFold::kLateFold:
      if (w.empty()) return std::nullopt;
      break;
    case DualFold::kUnchanged:
    case DualFold::kZeroed:
      break;
  }
  linalg::Vector next = u;
  step_dual(fold, w, v, w0, w0_now, next);
  return next;
}

bool same_bits(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

AdmmDevice::AdmmDevice(const data::UserData& user, std::size_t num_users,
                       std::size_t dim, const DistributedPlosOptions& options)
    : ctx_(PlosUserContext::from_user(user)),
      options_(&options),
      num_users_(static_cast<double>(num_users)),
      dim_(dim),
      scales_(num_users, options),
      working_set_(scales_.kappa) {
  held_.u = linalg::zeros(dim);
}

linalg::Vector AdmmDevice::bootstrap_weights() {
  SvmFit fit = fit_svm(ctx_, /*c=*/1.0);
  qp_solves_ += fit.qp_solves;
  qp_iterations_ += fit.qp_pivots;
  qp_unconverged_ += fit.qp_unconverged;
  return std::move(fit.weights);
}

void AdmmDevice::begin_cccp_round(std::span<const double> current_weights,
                                  bool first_round, std::uint64_t seed) {
  signs_ = round_signs(ctx_, current_weights, first_round,
                       options_->params.lambda / num_users_,
                       options_->params.cl, options_->params.cu, seed);
  working_set_ = qp::SimplexBlock(scales_.kappa);
}

std::vector<std::uint8_t> AdmmDevice::answer(
    std::span<const std::uint8_t> broadcast) {
  DeviceBroadcast received = decode_broadcast(broadcast, dim_);
  if (received.fold == DualFold::kExplicit) {
    held_.u = std::move(received.u);
  } else {
    std::optional<linalg::Vector> u = held_.replay(received.fold, received.w0);
    PLOS_CHECK(u.has_value(), "AdmmDevice: cannot replay dual fold "
                                  << static_cast<std::uint32_t>(received.fold));
    held_.u = std::move(*u);
  }
  const linalg::Vector center = prox_center(received.w0, held_.u);

  // The working set persists across ADMM iterations (the planes depend
  // only on the CCCP signs); the loop re-solves it at the new center.
  const ProxCuttingPlaneResult solved = solve_prox_cutting_planes(
      ctx_, signs_, options_->params.cl, options_->params.cu, center,
      working_set_, shifted_, options_->cutting_plane.epsilon,
      options_->cutting_plane.max_iterations);
  qp_solves_ += solved.qp_solves;
  qp_iterations_ += solved.qp_pivots;
  qp_unconverged_ += solved.qp_unconverged;

  const DeviceUpload upload{solved.qp_solves > 0, working_set_.z, solved.xi};
  LocalSolution sol = solution_from_upload(upload, center, scales_);
  held_.w0 = std::move(received.w0);
  held_.w = std::move(sol.w);
  held_.v = std::move(sol.v);
  return encode_upload(upload);
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
