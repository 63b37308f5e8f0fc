// Cross-round dual warm starts for the cutting-plane QP solvers.
//
// The trainers re-solve one small capped-simplex dual per user (centralized:
// one joint dual; distributed: one per device) thousands of times — across
// cutting-plane iterations, ADMM iterations, and CCCP rounds. Within a round
// the working set only grows, so the previous γ padded with zeros is a good
// warm start (the solvers already do that). ACROSS rounds the working set is
// rebuilt from scratch, but CCCP signs converge quickly, so later rounds
// re-derive mostly the *same* planes. WarmSeeds holds one user's previous
// working set with the γ it converged to, and seeds a re-appearing plane
// with that γ instead of zero.
//
// "The same plane" means bitwise-identical doubles of equal length, so a
// seed can never leak across genuinely different constraints (+0.0 and
// -0.0, or planes one ulp apart, are different planes). Seeds only
// initialize the solver's iterate (which is projected before use); they
// never alter the problem, so a bad seed can only cost iterations, never
// correctness. No wall-clock or pointer-derived state lives here:
// everything is a pure function of the solver trajectory (cache-purity
// lint rule).
#pragma once

#include <vector>

#include "linalg/vector.hpp"

namespace plos::qp {

class WarmSeeds {
 public:
  /// Replaces the stored working set with planes[k] ↦ gammas[k].
  void assign(std::vector<linalg::Vector> planes, linalg::Vector gammas);

  /// γ of the last-listed stored plane bitwise-equal to `s` (a plane that
  /// re-entered the working set within a round resolves to its last γ), or
  /// 0.0 when none is.
  double seed(const linalg::Vector& s) const;

 private:
  std::vector<linalg::Vector> planes_;
  linalg::Vector gammas_;
};

}  // namespace plos::qp
