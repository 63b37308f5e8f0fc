#include "rng/engine.hpp"

#include <numeric>

#include "common/assert.hpp"

namespace plos::rng {

namespace {

// SplitMix64 finalizer: decorrelates fork seeds derived from (state, tag).
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

Engine Engine::fork(std::uint64_t tag) {
  const std::uint64_t base = gen_();
  return Engine(mix(base ^ mix(tag)));
}

double Engine::uniform(double lo, double hi) {
  PLOS_CHECK(lo <= hi, "uniform: lo > hi");
  return std::uniform_real_distribution<double>(lo, hi)(gen_);
}

std::int64_t Engine::uniform_int(std::int64_t lo, std::int64_t hi) {
  PLOS_CHECK(lo <= hi, "uniform_int: lo > hi");
  return std::uniform_int_distribution<std::int64_t>(lo, hi)(gen_);
}

double Engine::gaussian(double mean, double stddev) {
  PLOS_CHECK(stddev >= 0.0, "gaussian: negative stddev");
  // A standard draw scaled by hand: std::normal_distribution requires
  // stddev > 0, and libstdc++ computes exactly z·σ + μ from the same draws,
  // so stddev 0 returns `mean` and every other stddev is bit for bit the
  // library's result.
  return std::normal_distribution<double>(0.0, 1.0)(gen_) * stddev + mean;
}

bool Engine::bernoulli(double p) {
  PLOS_CHECK(p >= 0.0 && p <= 1.0, "bernoulli: p outside [0,1]");
  return std::bernoulli_distribution(p)(gen_);
}

linalg::Vector Engine::gaussian_vector(std::size_t n, double mean,
                                       double stddev) {
  linalg::Vector out(n);
  for (double& v : out) v = gaussian(mean, stddev);
  return out;
}

std::vector<std::size_t> Engine::sample_without_replacement(std::size_t n,
                                                            std::size_t k) {
  PLOS_CHECK(k <= n, "sample_without_replacement: k > n");
  std::vector<std::size_t> idx(n);
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  // Partial Fisher-Yates: only the first k positions need to be finalized.
  for (std::size_t i = 0; i < k; ++i) {
    const auto j = static_cast<std::size_t>(
        uniform_int(static_cast<std::int64_t>(i),
                    static_cast<std::int64_t>(n) - 1));
    std::swap(idx[i], idx[j]);
  }
  idx.resize(k);
  return idx;
}

}  // namespace plos::rng
