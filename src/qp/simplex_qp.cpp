#include "qp/simplex_qp.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/stopwatch.hpp"
#include "linalg/kernels.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "qp/projection.hpp"

namespace plos::qp {

namespace {

// A Cholesky pivot at or below this fraction of max diag(H) marks its
// column as linearly dependent on the columns before it.
constexpr double kDependentPivot = 1e-11;
// Optimality tolerance, relative to a bound on ‖∇f‖∞ over the feasible set.
constexpr double kOptimalityTol = 1e-12;
// |Σγ − cap| up to this fraction of the cap is rounding: a slack that small
// counts as zero, and an excess that small is shaved, not projected.
constexpr double kCapRounding = 1e-12;

constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

// Buffers of one active-set solve. A solve sizes them for its own n, which
// touches the heap only while n exceeds every earlier n, so block sweeps
// that reuse one workspace allocate only in their first sweep.
struct Workspace {
  linalg::Vector x, hx, g, p, l, lt, r, y, u, sort;
  std::vector<std::size_t> free;
};

// The solver works on n + 1 coordinates: γ and a slack σ = cap − Σγ with a
// zero row in H and zero cost, so the feasible set is the simplex
// {x ≥ 0, Σx = cap}. Everything the pivot rule reads (support, gradient,
// multipliers) is a pure function of the real iterate γ, recomputed after
// every pivot; that is what makes re-solving from a converged result a
// bitwise no-op.
class ActiveSet {
 public:
  ActiveSet(const linalg::Matrix& h, std::span<const double> c, double cap,
            std::span<const double> warm_start, Workspace& ws)
      : h_(h),
        c_(c),
        cap_(cap),
        n_(c.size()),
        x_(ws.x),
        hx_(ws.hx),
        g_(ws.g),
        p_(ws.p),
        l_(ws.l),
        lt_(ws.lt),
        r_(ws.r),
        y_(ws.y),
        u_(ws.u),
        sort_scratch_(ws.sort),
        free_(ws.free) {
    x_.assign(n_ + 1, 0.0);
    hx_.assign(n_, 0.0);
    g_.assign(n_ + 1, 0.0);
    p_.assign(n_ + 1, 0.0);
    l_.assign(n_ * n_, 0.0);
    lt_.assign(n_ * n_, 0.0);
    r_.assign(n_, 0.0);
    y_.assign(n_, 0.0);
    u_.assign(n_, 0.0);
    sort_scratch_.reserve(n_);
    double max_diag = 0.0;
    double max_c = 0.0;
    for (std::size_t i = 0; i < n_; ++i) {
      max_diag = std::max(max_diag, h(i, i));
      max_c = std::max(max_c, std::abs(c[i]));
    }
    dependent_pivot_ = kDependentPivot * max_diag;
    // |(Hγ)_i| ≤ max diag(H)·Σγ for PSD H, so this bounds ‖∇f‖∞ on the
    // feasible set and keeps the tolerance a constant of the problem.
    tolerance_ = kOptimalityTol * std::max(1.0, max_c + max_diag * cap);
    free_.reserve(n_ + 1);
    std::copy(warm_start.begin(), warm_start.end(), x_.begin());
    settle();
  }

  struct Verdict {
    bool optimal = false;
    std::size_t entering = kNone;  ///< index to free at a face optimum
  };

  // Optimality test at the current iterate. The face is optimal when the
  // gradient is level (within tolerance) across the support; then the
  // multiplier of a zero coordinate j is g_j − μ, μ the level.
  Verdict examine() {
    Verdict verdict;
    // The feasible set of cap 0 is the single point 0.
    if (cap_ == 0.0) {
      verdict.optimal = true;
      return verdict;
    }
    anchor_ = anchor();
    const double mu = g_[anchor_];
    bool level = true;
    double most_negative = -tolerance_;
    for (std::size_t i = 0; i <= n_; ++i) {
      const double gap = g_[i] - mu;
      if (x_[i] > 0.0) {
        if (std::abs(gap) > tolerance_) level = false;
      } else if (gap < most_negative) {
        most_negative = gap;
        verdict.entering = i;
      }
    }
    if (!level) verdict.entering = kNone;  // finish the face first
    verdict.optimal = level && verdict.entering == kNone;
    return verdict;
  }

  // One pivot: a step on the face spanned by the support (plus `entering`
  // when it is not kNone), then a drop of whichever index blocks it.
  void pivot(std::size_t entering) {
    free_.clear();
    for (std::size_t i = 0; i <= n_; ++i) {
      if (i != anchor_ && x_[i] > 0.0) free_.push_back(i);
    }
    // Last, so a dependency it brings shows up as its own column.
    if (entering != kNone) free_.push_back(entering);
    const std::size_t m = free_.size();
    for (std::size_t k = 0; k < m; ++k) r_[k] = g_[anchor_] - g_[free_[k]];

    const std::size_t dependent = factor(m);
    std::fill(p_.begin(), p_.end(), 0.0);
    double limit = 1.0;  // a Newton step stops at the face optimum
    std::size_t len = m;
    double sign = 1.0;
    if (dependent == kNone) {
      newton_direction(m);
    } else {
      // Zero-curvature direction through the dependent column; move along
      // it until a coordinate hits zero, in whichever sense descends.
      len = dependent + 1;
      null_direction(dependent);
      const double slope =
          -linalg::kernels::blocked_dot(std::span<const double>(u_).first(len),
                                        std::span<const double>(r_).first(len));
      if (slope > 0.0) sign = -1.0;
      limit = std::numeric_limits<double>::infinity();
    }
    for (std::size_t k = 0; k < len; ++k) p_[free_[k]] = sign * u_[k];
    const std::span<const double> u = std::span<const double>(u_).first(len);
    p_[anchor_] = -sign * linalg::kernels::serial_sum(u);

    // Ratio test; ties go to the lowest index.
    double alpha = limit;
    std::size_t blocker = kNone;
    for (std::size_t i = 0; i <= n_; ++i) {
      if (p_[i] < 0.0 && x_[i] / -p_[i] < alpha) {
        alpha = x_[i] / -p_[i];
        blocker = i;
      }
    }
    PLOS_CHECK(std::isfinite(alpha),
               "SimplexQp: zero-curvature direction leaves the simplex");
    for (std::size_t i = 0; i <= n_; ++i) x_[i] += alpha * p_[i];
    if (blocker != kNone) x_[blocker] = 0.0;
    settle();
  }

  linalg::Vector solution() const {
    const std::span<const double> x = std::span<const double>(x_).first(n_);
    return linalg::Vector(x.begin(), x.end());
  }

  // Writes γ into `out` (which holds n values) and reports whether any of
  // them changed by a single bit.
  bool store(std::span<double> out) const {
    bool changed = false;
    for (std::size_t i = 0; i < n_; ++i) {
      if (std::bit_cast<std::uint64_t>(out[i]) !=
          std::bit_cast<std::uint64_t>(x_[i])) {
        out[i] = x_[i];
        changed = true;
      }
    }
    return changed;
  }

  double objective() const {
    const std::span<const double> x = std::span<const double>(x_).first(n_);
    return 0.5 * linalg::kernels::blocked_dot(x, hx_) -
           linalg::kernels::blocked_dot(c_, x);
  }

 private:
  // Snaps γ onto the feasible set (a no-op on feasible points), derives
  // the slack, and refreshes H·γ and the gradient. A pivot leaves Σγ at
  // most a few ulps over the cap; that excess is shaved off the largest
  // coordinate, because the projection's threshold shift would lift every
  // zero coordinate by a rounding-size amount and bloat the support.
  void settle() {
    const std::span<double> x = std::span<double>(x_).first(n_);
    for (double& v : x) v = std::max(v, 0.0);
    const double sum = linalg::kernels::serial_sum(x);
    if (sum > cap_ * (1.0 + kCapRounding)) {
      project_capped_simplex(x, cap_, sort_scratch_);
    } else if (sum > cap_) {
      shave_to_cap(x, cap_);
    }
    const double slack = cap_ - linalg::kernels::serial_sum(x);
    x_[n_] = slack > kCapRounding * cap_ ? slack : 0.0;
    h_.matvec_into(x, hx_);
    for (std::size_t i = 0; i < n_; ++i) g_[i] = hx_[i] - c_[i];
    g_[n_] = 0.0;
  }

  // The support index the face basis e_k − e_anchor is built on: the slack
  // when it is positive (so μ = 0 exactly), else the largest γ (lowest
  // index on ties).
  std::size_t anchor() const {
    if (x_[n_] > 0.0) return n_;
    std::size_t best = 0;
    for (std::size_t i = 1; i < n_; ++i) {
      if (x_[i] > x_[best]) best = i;
    }
    return best;
  }

  // H extended by the slack's zero row and column.
  double hessian(std::size_t i, std::size_t j) const {
    return i < n_ && j < n_ ? h_(i, j) : 0.0;
  }

  // Reduced Hessian Zᵀ H Z entry for the face basis columns e_fk − e_a.
  double reduced(std::size_t k, std::size_t l) const {
    const std::size_t a = anchor_;
    return hessian(free_[k], free_[l]) - hessian(free_[k], a) -
           hessian(a, free_[l]) + hessian(a, a);
  }

  // Row k of an n x n row-major factor buffer.
  std::span<double> row(linalg::Vector& factor, std::size_t k) const {
    return std::span<double>(factor).subspan(k * n_, n_);
  }

  // Cholesky L Lᵀ of the m x m reduced Hessian, row by row, into l_ (and
  // its transpose into lt_, so both substitutions read contiguous rows).
  // Returns the first column whose pivot falls to the dependence
  // threshold, or kNone.
  std::size_t factor(std::size_t m) {
    for (std::size_t k = 0; k < m; ++k) {
      const std::span<double> row_k = row(l_, k);
      for (std::size_t j = 0; j < k; ++j) {
        const std::span<double> row_j = row(l_, j);
        const double dot =
            linalg::kernels::blocked_dot(row_k.first(j), row_j.first(j));
        row_k[j] = (reduced(k, j) - dot) / row_j[j];
        row(lt_, j)[k] = row_k[j];
      }
      const double pivot =
          reduced(k, k) - linalg::kernels::blocked_squared_norm(row_k.first(k));
      if (!(pivot > dependent_pivot_)) return k;
      row_k[k] = std::sqrt(pivot);
      row(lt_, k)[k] = row_k[k];
    }
    return kNone;
  }

  // Solves Lᵀ w = b for the leading m x m factor, writing w into u_.
  void back_substitute(std::size_t m, std::span<const double> b) {
    for (std::size_t k = m; k-- > 0;) {
      const std::size_t tail = m - k - 1;
      const std::span<double> row_k = row(lt_, k);
      const double dot = linalg::kernels::blocked_dot(
          row_k.subspan(k + 1, tail),
          std::span<const double>(u_).subspan(k + 1, tail));
      u_[k] = (b[k] - dot) / row_k[k];
    }
  }

  // Newton step on the face: u = (Zᵀ H Z)⁻¹ (−Zᵀ g).
  void newton_direction(std::size_t m) {
    for (std::size_t k = 0; k < m; ++k) {
      const std::span<double> row_k = row(l_, k);
      const double dot = linalg::kernels::blocked_dot(
          row_k.first(k), std::span<const double>(y_).first(k));
      y_[k] = (r_[k] - dot) / row_k[k];
    }
    back_substitute(m, y_);
  }

  // Column d of the reduced Hessian is (numerically) a combination of the
  // d columns before it: u = (−M_d⁻¹ m_d, 1), with M_d the leading block
  // and m_d the column above the diagonal, has M u ≈ 0. Row d of the
  // partial factor already holds L_d⁻¹ m_d.
  void null_direction(std::size_t d) {
    back_substitute(d, row(l_, d).first(d));
    for (std::size_t k = 0; k < d; ++k) u_[k] = -u_[k];
    u_[d] = 1.0;
  }

  const linalg::Matrix& h_;
  std::span<const double> c_;
  double cap_;
  std::size_t n_;
  double dependent_pivot_ = 0.0;
  double tolerance_ = 0.0;
  std::size_t anchor_ = 0;
  // Views of the caller's Workspace.
  linalg::Vector& x_;   ///< γ, then the slack
  linalg::Vector& hx_;  ///< H·γ
  linalg::Vector& g_;   ///< ∇f, then the slack's 0
  linalg::Vector& p_;   ///< step direction over the n + 1 coordinates
  linalg::Vector& l_;   ///< Cholesky factor L, row-major n x n
  linalg::Vector& lt_;  ///< Lᵀ, row-major n x n
  linalg::Vector& r_;   ///< −Zᵀ g
  linalg::Vector& y_;
  linalg::Vector& u_;  ///< face-coordinate direction
  linalg::Vector& sort_scratch_;
  std::vector<std::size_t>& free_;  ///< face basis columns, in factor order
};

struct Outcome {
  int pivots = 0;
  bool converged = false;
};

// The active-set iteration, uninstrumented: pivots until the optimality
// test passes or the pivot budget is spent.
Outcome run(ActiveSet& set) {
  Outcome outcome;
  for (;;) {
    const ActiveSet::Verdict verdict = set.examine();
    if (verdict.optimal) {
      outcome.converged = true;
      return outcome;
    }
    if (outcome.pivots == kSimplexQpMaxPivots) return outcome;
    set.pivot(verdict.entering);
    ++outcome.pivots;
  }
}

// One solve's worth of the qp.capped_simplex.* instruments, shared by both
// entry points so per-layer attribution does not depend on which ran.
// Instrument handles are resolved once; the registry is a process-lifetime
// singleton, so the cached references never dangle across reset_values().
void record_solve(double seconds_spent, int pivots, bool converged,
                  bool warm_hit) {
  static obs::Counter& solves =
      obs::metrics().counter("qp.capped_simplex.solves");
  static obs::Counter& seconds =
      obs::metrics().counter("qp.capped_simplex.seconds");
  static obs::Histogram& iterations = obs::metrics().histogram(
      "qp.capped_simplex.iterations", obs::default_iteration_buckets());
  static obs::Counter& unconverged =
      obs::metrics().counter("qp.capped_simplex.unconverged");
  static obs::Counter& warm_hits =
      obs::metrics().counter("qp.capped_simplex.warm_hits");
  solves.increment();
  seconds.add(seconds_spent);
  iterations.record(static_cast<double>(pivots));
  if (!converged) unconverged.increment();
  if (warm_hit) warm_hits.increment();
}

// z = S_tᵀ γ_t over the block's planes, into a buffer of `dim` values.
void combine_planes(const SimplexBlock& block, linalg::Vector& z,
                   std::size_t dim) {
  z.assign(dim, 0.0);
  for (std::size_t a = 0; a < block.planes.size(); ++a) {
    if (block.gamma[a] != 0.0) {
      linalg::kernels::blocked_axpy(block.gamma[a], block.planes[a], z);
    }
  }
}

// total = Σ_t z_t, added in block order.
void sum_blocks(std::span<const SimplexBlock> blocks, linalg::Vector& total) {
  std::fill(total.begin(), total.end(), 0.0);
  for (const SimplexBlock& block : blocks) {
    linalg::kernels::blocked_axpy(1.0, block.z, total);
  }
}

}  // namespace

QpResult solve_simplex_qp(const linalg::Matrix& h, std::span<const double> c,
                          double cap, std::span<const double> warm_start) {
  PLOS_SPAN("qp.capped_simplex_solve");
  const Stopwatch watch;
  const std::size_t n = c.size();
  PLOS_CHECK(h.rows() == n && h.cols() == n,
             "SimplexQp: hessian/linear size mismatch");
  PLOS_CHECK(cap >= 0.0, "SimplexQp: negative cap");
  PLOS_CHECK(warm_start.empty() || warm_start.size() == n,
             "SimplexQp: warm start size mismatch");

  QpResult result;
  if (n == 0) {
    result.converged = true;
    return result;
  }
  Workspace ws;
  ActiveSet set(h, c, cap, warm_start, ws);
  const Outcome outcome = run(set);
  result.iterations = outcome.pivots;
  result.converged = outcome.converged;
  result.solution = set.solution();
  result.objective = PLOS_CHECK_FINITE(set.objective());
  record_solve(watch.elapsed_seconds(), result.iterations, result.converged,
               result.converged && result.iterations == 0 &&
                   !warm_start.empty());
  return result;
}

void SimplexBlock::append(linalg::Vector s, double c, double gamma0,
                          double coupling) {
  const std::size_t a = planes.size();
  const double scale = coupling + 1.0;
  const double diagonal = scale * linalg::kernels::blocked_dot(s, s);
  PLOS_CHECK(std::isfinite(c) && std::isfinite(diagonal),
             "SimplexBlock: non-finite plane or linear term");
  // The bordered Gram stays positive semidefinite only if the new diagonal
  // entry (a scaled self-product) is non-negative.
  PLOS_DCHECK(diagonal >= 0.0,
              "SimplexBlock: bad Gram border diagonal " << diagonal);
  linalg::Matrix next(a + 1, a + 1);
  for (std::size_t i = 0; i < a; ++i) {
    for (std::size_t j = 0; j < a; ++j) next(i, j) = gram(i, j);
    const double entry = scale * linalg::kernels::blocked_dot(planes[i], s);
    next(i, a) = entry;
    next(a, i) = entry;
  }
  next(a, a) = diagonal;
  gram = std::move(next);
  planes.push_back(std::move(s));
  linear.push_back(c);
  gamma.push_back(gamma0);
}

BlockSweepResult solve_block_sweeps(std::span<SimplexBlock> blocks,
                                    double coupling, double cap) {
  PLOS_SPAN("qp.capped_simplex_solve");
  const Stopwatch watch;
  PLOS_CHECK(coupling >= 0.0, "BlockSweeps: negative coupling");
  PLOS_CHECK(cap >= 0.0, "BlockSweeps: negative cap");
  std::size_t dim = 0;
  bool have_dim = false;
  for (const SimplexBlock& block : blocks) {
    const std::size_t n = block.planes.size();
    PLOS_CHECK(block.linear.size() == n && block.gram.rows() == n &&
                   block.gram.cols() == n,
               "BlockSweeps: block shape mismatch");
    PLOS_CHECK(block.gamma.size() == n, "BlockSweeps: warm start size mismatch");
    for (const linalg::Vector& s : block.planes) {
      if (!have_dim) dim = s.size();
      have_dim = true;
      PLOS_CHECK(s.size() == dim, "BlockSweeps: plane dimension mismatch");
    }
  }

  // Buffers outlive the sweeps, so only the first sweep allocates.
  Workspace ws;
  linalg::Vector linear;
  linalg::Vector total(dim);
  linalg::Vector u(dim);
  linalg::Vector fresh(dim);
  for (SimplexBlock& block : blocks) combine_planes(block, block.z, dim);

  BlockSweepResult result;
  while (!result.converged && result.sweeps < kMaxBlockSweeps) {
    // Summed afresh every sweep, so the sweep that certifies convergence
    // reads the same u as a re-solve's first sweep.
    sum_blocks(blocks, total);
    int pivots = 0;
    bool moved = false;
    for (SimplexBlock& block : blocks) {
      const std::size_t n = block.planes.size();
      if (n == 0) continue;
      for (std::size_t j = 0; j < dim; ++j) {
        u[j] = coupling * (total[j] - block.z[j]);
      }
      linear.resize(n);
      for (std::size_t a = 0; a < n; ++a) {
        linear[a] = block.linear[a] -
                    linalg::kernels::blocked_dot(block.planes[a], u);
      }
      ActiveSet set(block.gram, linear, cap, block.gamma, ws);
      // A block that spends its pivot budget has pivoted, so the sweep
      // cannot pass as converged.
      pivots += run(set).pivots;
      if (set.store(block.gamma)) {
        moved = true;
        combine_planes(block, fresh, dim);
        for (std::size_t j = 0; j < dim; ++j) total[j] += fresh[j] - block.z[j];
        std::swap(block.z, fresh);
      }
    }
    result.pivots += pivots;
    ++result.sweeps;
    result.converged = pivots == 0 && !moved;
  }

  // f(γ) = ½ (κ‖Σ_t z_t‖² + Σ_t ‖z_t‖²) − Σ_t c_tᵀ γ_t.
  sum_blocks(blocks, total);
  double quadratic = coupling * linalg::kernels::blocked_squared_norm(total);
  double linear_term = 0.0;
  for (const SimplexBlock& block : blocks) {
    quadratic += linalg::kernels::blocked_squared_norm(block.z);
    linear_term += linalg::kernels::blocked_dot(block.linear, block.gamma);
  }
  result.objective = PLOS_CHECK_FINITE(0.5 * quadratic - linear_term);

  static obs::Histogram& sweeps = obs::metrics().histogram(
      "qp.capped_simplex.sweeps", obs::default_iteration_buckets());
  sweeps.record(static_cast<double>(result.sweeps));
  record_solve(watch.elapsed_seconds(), result.pivots, result.converged,
               result.converged && result.sweeps == 1);
  return result;
}

}  // namespace plos::qp
