#include "core/gram_cache.hpp"

#include <bit>

#include "common/assert.hpp"
#include "obs/metrics.hpp"

namespace plos::core {

namespace {

// FNV-1a over the raw bit patterns: bitwise-identical vectors (and only
// those) share a hash. -0.0 vs +0.0 and NaN payloads hash differently,
// which is exactly right — "same plane" means same doubles.
std::uint64_t content_hash(const linalg::Vector& s) {
  std::uint64_t h = 14695981039346656037ull;
  const auto mix = [&h](std::uint64_t bits) {
    for (int shift = 0; shift < 64; shift += 8) {
      h ^= (bits >> shift) & 0xffull;
      h *= 1099511628211ull;
    }
  };
  mix(static_cast<std::uint64_t>(s.size()));
  for (double v : s) mix(std::bit_cast<std::uint64_t>(v));
  return h;
}

bool bitwise_equal(const linalg::Vector& a, const linalg::Vector& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(a[i]) !=
        std::bit_cast<std::uint64_t>(b[i])) {
      return false;
    }
  }
  return true;
}

}  // namespace

std::uint32_t PlaneGramCache::intern(const linalg::Vector& s) {
  static obs::Counter& interned =
      obs::metrics().counter("plos.gram_cache.planes_interned");
  static obs::Counter& reused =
      obs::metrics().counter("plos.gram_cache.planes_reused");
  const std::uint64_t hash = content_hash(s);
  auto& candidates = by_hash_[hash];
  for (std::uint32_t id : candidates) {
    if (bitwise_equal(planes_[id], s)) {
      reused.increment();
      return id;
    }
  }
  PLOS_CHECK(planes_.size() < UINT32_MAX, "PlaneGramCache: id overflow");
  const auto id = static_cast<std::uint32_t>(planes_.size());
  planes_.push_back(s);
  candidates.push_back(id);
  interned.increment();
  return id;
}

}  // namespace plos::core
