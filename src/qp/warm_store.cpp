#include "qp/warm_store.hpp"

#include <bit>
#include <cstdint>
#include <utility>

#include "common/assert.hpp"
#include "obs/metrics.hpp"

namespace plos::qp {

namespace {

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

void WarmSeeds::assign(std::vector<linalg::Vector> planes,
                       linalg::Vector gammas) {
  PLOS_CHECK(planes.size() == gammas.size(),
             "WarmSeeds: planes/gammas size mismatch");
  planes_ = std::move(planes);
  gammas_ = std::move(gammas);
}

double WarmSeeds::seed(const linalg::Vector& s) const {
  static obs::Counter& hits = obs::metrics().counter("qp.warm_store.hits");
  static obs::Counter& misses = obs::metrics().counter("qp.warm_store.misses");
  for (std::size_t k = planes_.size(); k-- > 0;) {
    if (bitwise_equal(planes_[k], s)) {
      hits.increment();
      return gammas_[k];
    }
  }
  misses.increment();
  return 0.0;
}

}  // namespace plos::qp
