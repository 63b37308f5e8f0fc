// Content interner for cutting planes.
//
// Both PLOS trainers rebuild their working sets every CCCP round, and
// because the CCCP signs converge after a round or two, most "new" planes
// are bitwise re-derivations of planes an earlier round already held. The
// PlaneGramCache gives every plane a stable id by content (exact bitwise
// equality, hash + full compare), and qp::WarmStore keys its cross-round
// dual seeds by that id, so a re-derived plane resumes from the γ it
// converged to last time.
//
// Contract (DESIGN.md §13):
//   * Interning is algorithm state: ids feed the WarmStore, which compares
//     them only for equality, so the numbering itself never reaches a
//     result.
//   * Entries are never invalidated — planes are immutable once interned.
//     The interner stores no wall-clock and no pointer-derived state
//     (cache-purity lint rule), so its contents are a pure function of the
//     planes fed to it.
//
// Instances are single-owner: one per distributed Device and one per
// centralized trainer, each touched by exactly one thread at a time under
// the pool's static chunking, so no locking is needed and thread count
// cannot reorder anything.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "linalg/vector.hpp"

namespace plos::core {

class PlaneGramCache {
 public:
  /// Interns `s` by content and returns its stable id. A bitwise-identical
  /// plane (same doubles in the same order) always maps to the same id.
  std::uint32_t intern(const linalg::Vector& s);

 private:
  std::vector<linalg::Vector> planes_;
  /// Content hash -> ids sharing it (collisions resolved by full compare).
  std::map<std::uint64_t, std::vector<std::uint32_t>> by_hash_;
};

}  // namespace plos::core
