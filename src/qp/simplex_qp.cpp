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
  // `scale` > 0 is the factor by which the caller divided both H and c:
  // the optimality tolerance stays that of the undivided problem.
  ActiveSet(const linalg::Matrix& h, std::span<const double> c, double cap,
            std::span<const double> warm_start, Workspace& ws,
            double scale = 1.0)
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
    tolerance_ = kOptimalityTol *
                 std::max(1.0, scale * (max_c + max_diag * cap)) / scale;
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

  // Whether the cap binds, i.e. the slack is zero.
  bool capped() const { return x_[n_] == 0.0; }

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

// total = Σ_t z_t, added in block order.
void sum_blocks(std::span<const SimplexBlock> blocks, linalg::Vector& total) {
  std::fill(total.begin(), total.end(), 0.0);
  for (const SimplexBlock& block : blocks) {
    linalg::kernels::blocked_axpy(1.0, block.z, total);
  }
}

// Gauss–Seidel over the blocks: each block solved exactly against the
// others held fixed (DESIGN.md §13.4). Construction derives every z_t
// from its γ_t.
class Sweeper {
 public:
  Sweeper(std::span<SimplexBlock> blocks, double coupling, double cap,
          std::size_t dim, Workspace& ws)
      : blocks_(blocks),
        coupling_(coupling),
        cap_(cap),
        dim_(dim),
        ws_(ws),
        total_(dim),
        u_(dim),
        stale_(dim) {
    for (SimplexBlock& block : blocks) {
      block.refresh_z(dim);
      const auto n = static_cast<double>(block.planes.size());
      flops_ += n * (static_cast<double>(dim) + n);
    }
  }

  // Multiply-adds of one sweep: the linear terms and the block gradients.
  double flops() const { return flops_; }

  // One sweep over the blocks in order, counted into `result`. Returns
  // whether it passed: no pivot and no γ changed by a single bit.
  bool sweep(BlockSweepResult& result) {
    // Summed afresh every sweep, so the sweep that certifies convergence
    // reads the same u as a re-solve's first sweep.
    sum_blocks(blocks_, total_);
    int pivots = 0;
    bool moved = false;
    for (SimplexBlock& block : blocks_) {
      const std::size_t n = block.planes.size();
      if (n == 0) continue;
      for (std::size_t j = 0; j < dim_; ++j) {
        u_[j] = coupling_ * (total_[j] - block.z[j]);
      }
      // The block's Hessian is (κ + 1)·G_t; dividing the linear term by
      // κ + 1 instead leaves the minimizer unchanged, and passing κ + 1 as
      // the scale keeps the optimality test that of the undivided block.
      linear_.resize(n);
      for (std::size_t a = 0; a < n; ++a) {
        linear_[a] = (block.linear[a] -
                      linalg::kernels::blocked_dot(block.planes[a], u_)) /
                     (coupling_ + 1.0);
      }
      ActiveSet set(block.gram, linear_, cap_, block.gamma, ws_,
                    coupling_ + 1.0);
      // A block that spends its pivot budget has pivoted, so the sweep
      // cannot pass as converged.
      pivots += run(set).pivots;
      if (set.store(block.gamma)) {
        moved = true;
        std::swap(block.z, stale_);
        block.refresh_z(dim_);
        for (std::size_t j = 0; j < dim_; ++j) {
          total_[j] += block.z[j] - stale_[j];
        }
      }
    }
    result.pivots += pivots;
    ++result.sweeps;
    return pivots == 0 && !moved;
  }

  // f(γ) = ½ (κ‖Σ_t z_t‖² + Σ_t ‖z_t‖²) − Σ_t c_tᵀ γ_t.
  double objective() {
    sum_blocks(blocks_, total_);
    double quadratic =
        coupling_ * linalg::kernels::blocked_squared_norm(total_);
    double linear_term = 0.0;
    for (const SimplexBlock& block : blocks_) {
      quadratic += linalg::kernels::blocked_squared_norm(block.z);
      linear_term += linalg::kernels::blocked_dot(block.linear, block.gamma);
    }
    return 0.5 * quadratic - linear_term;
  }

 private:
  std::span<SimplexBlock> blocks_;
  double coupling_;
  double cap_;
  std::size_t dim_;
  Workspace& ws_;
  double flops_ = 0.0;
  linalg::Vector linear_, total_, u_, stale_;
};

// Armijo's sufficient-decrease fraction of the directional derivative.
constexpr double kArmijo = 1e-4;
// Step halvings before a Newton direction counts as failing to descend.
constexpr int kMaxHalvings = 20;
// ‖∇F‖ at or below this fraction of ‖w0‖/κ is optimal to rounding.
constexpr double kNewtonGradientTol = 1e-11;

// Solves A x = b for the n x n SPD matrix whose lower triangle fills the
// first n² entries of `a` (row-major), by Cholesky L Lᵀ in place; `x`
// holds b on entry. Both substitutions run along rows of L. False if a
// pivot is not positive.
bool solve_spd_in_place(std::span<double> a, std::size_t n,
                        std::span<double> x) {
  const auto row = [a, n](std::size_t i) { return a.subspan(i * n, n); };
  for (std::size_t i = 0; i < n; ++i) {
    const std::span<double> row_i = row(i);
    for (std::size_t j = 0; j < i; ++j) {
      const std::span<double> row_j = row(j);
      row_i[j] = (row_i[j] - linalg::kernels::blocked_dot(row_i.first(j),
                                                          row_j.first(j))) /
                 row_j[j];
    }
    const double pivot =
        row_i[i] - linalg::kernels::blocked_squared_norm(row_i.first(i));
    if (!(pivot > 0.0)) return false;
    row_i[i] = std::sqrt(pivot);
  }
  for (std::size_t i = 0; i < n; ++i) {
    const std::span<double> row_i = row(i);
    x[i] = (x[i] - linalg::kernels::blocked_dot(row_i.first(i), x.first(i))) /
           row_i[i];
  }
  for (std::size_t i = n; i-- > 0;) {
    const std::span<double> row_i = row(i);
    x[i] /= row_i[i];
    linalg::kernels::blocked_axpy(-x[i], row_i.first(i), x.first(i));
  }
  return true;
}

// One evaluation of F at w0: every block's minimizer γ_t and whether its
// cap binds, F(w0) and ∇F(w0).
struct NewtonPoint {
  linalg::Vector w;
  std::vector<linalg::Vector> gamma;
  std::vector<char> capped;
  linalg::Vector gradient;
  double value = 0.0;
  double gradient_norm = 0.0;  ///< ‖∇F‖²
};

// Damped Newton on the global weights w0 (DESIGN.md §13.4). With w0 fixed
// the blocks decouple: block t solves
//   min ½ γᵀ G_t γ − (c_t − S_t·w0)ᵀ γ  on its capped simplex,
// with optimal value f_t*(w0) and z_t = S_tᵀγ_t. The dual's optimum is the
// minimizer of F(w0) = ‖w0‖²/(2κ) − Σ_t f_t*(w0), which is (1/κ)-strongly
// convex and piecewise quadratic, with ∇F = w0/κ − Σ_t z_t and generalized
// Hessian I/κ + Σ_t P_t: P_t projects onto the span of block t's planes
// with γ > 0, or of their differences when the cap binds.
class DualNewton {
 public:
  DualNewton(std::span<SimplexBlock> blocks, double coupling, double cap,
             std::size_t dim, Workspace& ws)
      : blocks_(blocks),
        coupling_(coupling),
        cap_(cap),
        dim_(dim),
        ws_(ws),
        sum_z_(dim),
        step_(dim) {
    std::size_t widest = 0;
    std::size_t rank_bound = 0;
    for (const SimplexBlock& block : blocks) {
      rank_bound += std::min(block.planes.size(), dim);
    }
    // Reserved, not filled: Q and the factor grow within these capacities
    // as a direction needs them, and a solve that never enters the Newton
    // phase never touches them. Q holds one row past the rank bound for
    // the candidate append_face_basis tests before keeping it.
    basis_.reserve((rank_bound + 1) * dim);
    factor_.reserve(dim * dim);
    for (NewtonPoint* point : {&current_, &trial_}) {
      point->w.assign(dim, 0.0);
      point->gradient.assign(dim, 0.0);
      point->capped.assign(blocks.size(), 0);
      point->gamma.resize(blocks.size());
      for (std::size_t t = 0; t < blocks.size(); ++t) {
        point->gamma[t].assign(blocks[t].planes.size(), 0.0);
        widest = std::max(widest, blocks[t].planes.size());
      }
    }
    linear_.assign(widest, 0.0);
  }

  // Multiply-adds of one Newton direction from the blocks' current γ:
  // R·d²/2 to assemble the d x d Hessian and d³/6 to factor it. The face
  // rank R is at most the planes with γ > 0, one fewer in a block whose
  // cap binds.
  double direction_flops() const {
    std::size_t rank = 0;
    for (const SimplexBlock& block : blocks_) {
      const std::size_t support = static_cast<std::size_t>(
          std::count_if(block.gamma.begin(), block.gamma.end(),
                        [](double g) { return g > 0.0; }));
      const double slack = cap_ - linalg::kernels::serial_sum(block.gamma);
      rank += support > 0 && slack <= kCapRounding * cap_ ? support - 1
                                                           : support;
    }
    const auto d = static_cast<double>(dim_);
    return static_cast<double>(rank) * d * d / 2.0 + d * d * d / 6.0;
  }

  // Newton from w0 = κ·Σ_t z_t of the blocks' current γ, for up to
  // kMaxNewtonIterations accepted steps. Backtracking halves a step until F
  // drops by Armijo's fraction of the predicted decrease or ‖∇F‖² drops by
  // the same fraction of itself; near the optimum, F's own change is lost
  // to rounding while ‖∇F‖ still measures progress. It stops early when an
  // accepted full step leaves every block's face unchanged (the step then
  // solved F's quadratic piece exactly), when ∇F is at rounding level, or
  // when a direction fails to descend. If any step was accepted, the blocks
  // get the last accepted point's γ_t and z_t; otherwise they keep their
  // own. Counts into `result`.
  void minimize(BlockSweepResult& result) {
    for (std::size_t t = 0; t < blocks_.size(); ++t) {
      std::copy(blocks_[t].gamma.begin(), blocks_[t].gamma.end(),
                current_.gamma[t].begin());
    }
    sum_blocks(blocks_, trial_.w);
    for (double& v : trial_.w) v *= coupling_;
    if (!evaluate(current_, trial_, result)) return;
    std::swap(current_, trial_);

    bool accepted = false;
    while (result.newton_iterations < kMaxNewtonIterations &&
           !at_rounding_level(current_) && direction(current_)) {
      const double slope = linalg::kernels::blocked_dot(current_.gradient, step_);
      if (!(slope < 0.0)) break;
      double alpha = 1.0;
      int halvings = 0;
      bool decreased = false;
      for (; halvings <= kMaxHalvings; ++halvings, alpha *= 0.5) {
        for (std::size_t j = 0; j < dim_; ++j) {
          trial_.w[j] = current_.w[j] + alpha * step_[j];
        }
        if (!evaluate(current_, trial_, result)) break;
        if (trial_.value <= current_.value + kArmijo * alpha * slope ||
            trial_.gradient_norm <=
                (1.0 - 2.0 * kArmijo * alpha) * current_.gradient_norm) {
          decreased = true;
          break;
        }
      }
      if (!decreased) break;
      ++result.newton_iterations;
      accepted = true;
      const bool same_faces = halvings == 0 && faces_match();
      std::swap(current_, trial_);
      if (same_faces) break;
    }
    if (!accepted) return;
    for (std::size_t t = 0; t < blocks_.size(); ++t) {
      std::copy(current_.gamma[t].begin(), current_.gamma[t].end(),
                blocks_[t].gamma.begin());
      blocks_[t].refresh_z(dim_);
    }
  }

 private:
  // Solves every block at to.w, warm-started from from.gamma, and fills in
  // the rest of `to`. False if a block solve spent its pivot budget.
  bool evaluate(const NewtonPoint& from, NewtonPoint& to,
                BlockSweepResult& result) {
    ++result.newton_evaluations;
    std::fill(sum_z_.begin(), sum_z_.end(), 0.0);
    double value =
        linalg::kernels::blocked_squared_norm(to.w) / (2.0 * coupling_);
    for (std::size_t t = 0; t < blocks_.size(); ++t) {
      const SimplexBlock& block = blocks_[t];
      const std::size_t n = block.planes.size();
      if (n == 0) continue;
      const std::span<double> linear = std::span<double>(linear_).first(n);
      for (std::size_t a = 0; a < n; ++a) {
        linear[a] = block.linear[a] -
                    linalg::kernels::blocked_dot(block.planes[a], to.w);
      }
      ActiveSet set(block.gram, linear, cap_, from.gamma[t], ws_);
      const Outcome outcome = run(set);
      result.pivots += outcome.pivots;
      if (!outcome.converged) return false;
      set.store(to.gamma[t]);
      to.capped[t] = set.capped() ? 1 : 0;
      value -= set.objective();
      for (std::size_t a = 0; a < n; ++a) {
        if (to.gamma[t][a] != 0.0) {
          linalg::kernels::blocked_axpy(to.gamma[t][a], block.planes[a],
                                        sum_z_);
        }
      }
    }
    to.value = value;
    for (std::size_t j = 0; j < dim_; ++j) {
      to.gradient[j] = to.w[j] / coupling_ - sum_z_[j];
    }
    to.gradient_norm = linalg::kernels::blocked_squared_norm(to.gradient);
    return true;
  }

  bool at_rounding_level(const NewtonPoint& point) const {
    return point.gradient_norm <=
           kNewtonGradientTol * kNewtonGradientTol *
               linalg::kernels::blocked_squared_norm(point.w) /
               (coupling_ * coupling_);
  }

  // Whether every block has the same support and cap state at trial_ as at
  // current_.
  bool faces_match() const {
    if (trial_.capped != current_.capped) return false;
    for (std::size_t t = 0; t < blocks_.size(); ++t) {
      const linalg::Vector& before = current_.gamma[t];
      const linalg::Vector& after = trial_.gamma[t];
      for (std::size_t a = 0; a < before.size(); ++a) {
        if ((before[a] > 0.0) != (after[a] > 0.0)) return false;
      }
    }
    return true;
  }

  // The Newton direction −(I/κ + Σ_t P_t)⁻¹ ∇F at `point`, into step_.
  // With the face bases stacked as the rows of Q, the Hessian is
  // I/κ + QᵀQ, assembled by rank-one updates of its lower triangle. False
  // if a pivot is not positive, which only a non-finite input can cause.
  bool direction(const NewtonPoint& point) {
    std::size_t rank = 0;
    for (std::size_t t = 0; t < blocks_.size(); ++t) {
      rank = append_face_basis(blocks_[t], point.gamma[t],
                               point.capped[t] != 0, rank);
    }
    factor_.assign(dim_ * dim_, 0.0);
    for (std::size_t i = 0; i < dim_; ++i) {
      factor_[i * dim_ + i] = 1.0 / coupling_;
    }
    for (std::size_t r = 0; r < rank; ++r) {
      const std::span<const double> q = basis_row(r);
      for (std::size_t i = 0; i < dim_; ++i) {
        if (q[i] == 0.0) continue;
        linalg::kernels::blocked_axpy(
            q[i], q.first(i + 1),
            std::span<double>(factor_).subspan(i * dim_, i + 1));
      }
    }
    for (std::size_t i = 0; i < dim_; ++i) step_[i] = -point.gradient[i];
    return solve_spd_in_place(factor_, dim_, step_);
  }

  std::span<double> basis_row(std::size_t r) {
    return std::span<double>(basis_).subspan(r * dim_, dim_);
  }

  // Appends an orthonormal basis of the block's face directions to the
  // rows of Q from row `rank` on and returns the new row count. The face
  // directions are the planes with γ > 0 or, when the cap binds, their
  // differences from the first of them. Modified Gram–Schmidt builds the
  // basis; a direction that keeps no more than a kDependentPivot share of
  // its squared norm depends on the ones before it and adds nothing.
  std::size_t append_face_basis(const SimplexBlock& block,
                                std::span<const double> gamma, bool capped,
                                std::size_t rank) {
    const std::size_t first = rank;
    const linalg::Vector* anchor = nullptr;
    for (std::size_t a = 0; a < gamma.size(); ++a) {
      if (!(gamma[a] > 0.0)) continue;
      if (capped && anchor == nullptr) {
        anchor = &block.planes[a];
        continue;
      }
      if (basis_.size() < (rank + 1) * dim_) basis_.resize((rank + 1) * dim_);
      const std::span<double> q = basis_row(rank);
      std::copy(block.planes[a].begin(), block.planes[a].end(), q.begin());
      if (anchor != nullptr) linalg::kernels::blocked_axpy(-1.0, *anchor, q);
      const double norm = linalg::kernels::blocked_squared_norm(q);
      for (std::size_t k = first; k < rank; ++k) {
        const std::span<const double> previous = basis_row(k);
        linalg::kernels::blocked_axpy(
            -linalg::kernels::blocked_dot(previous, q), previous, q);
      }
      const double residual = linalg::kernels::blocked_squared_norm(q);
      if (!(residual > kDependentPivot * norm)) continue;
      const double inverse = 1.0 / std::sqrt(residual);
      for (double& v : q) v *= inverse;
      ++rank;
    }
    return rank;
  }

  std::span<SimplexBlock> blocks_;
  double coupling_;
  double cap_;
  std::size_t dim_;
  Workspace& ws_;
  NewtonPoint current_, trial_;
  linalg::Vector linear_;   ///< one block's linear term c_t − S_t·w0
  linalg::Vector sum_z_;    ///< Σ_t z_t at the point being evaluated
  linalg::Vector step_;     ///< Newton direction
  linalg::Vector basis_;    ///< Q: every block's face basis, by rows
  linalg::Vector factor_;   ///< the Hessian I/κ + QᵀQ, row-major
};

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

SimplexBlock::SimplexBlock(double scale) : scale_(scale) {
  PLOS_CHECK(std::isfinite(scale) && scale > 0.0,
             "SimplexBlock: scale must be positive and finite");
}

void SimplexBlock::append(linalg::Vector s, double c) {
  const std::size_t a = planes.size();
  const double scale = this->scale();
  const double diagonal = scale * linalg::kernels::blocked_dot(s, s);
  PLOS_CHECK(std::isfinite(c) && std::isfinite(diagonal),
             "SimplexBlock: non-finite plane or linear term");
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
  gamma.push_back(0.0);
}

void SimplexBlock::refresh_z(std::size_t dim) {
  z.assign(dim, 0.0);
  for (std::size_t a = 0; a < planes.size(); ++a) {
    if (gamma[a] != 0.0) linalg::kernels::blocked_axpy(gamma[a], planes[a], z);
  }
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
    PLOS_CHECK(!block.scaled(), "BlockSweeps: block has a scaled Gram");
    for (const linalg::Vector& s : block.planes) {
      if (!have_dim) dim = s.size();
      have_dim = true;
      PLOS_CHECK(s.size() == dim, "BlockSweeps: plane dimension mismatch");
    }
  }

  // Every buffer is sized here or in the first sweep, so neither later
  // sweeps nor the Newton phase allocate.
  Workspace ws;
  Sweeper sweeper(blocks, coupling, cap, dim, ws);
  DualNewton newton(blocks, coupling, cap, dim, ws);

  // The Newton phase runs once, after the first sweep that fails to pass
  // once the sweeps so far have cost as much as one Newton direction. A
  // dual the first sweep certifies is never touched again, which keeps a
  // converged re-solve bitwise; with κ = 0 the blocks do not couple, and
  // the sweeps alone are exact.
  BlockSweepResult result;
  bool polishing = false;
  while (!result.converged && result.sweeps < kMaxBlockSweeps) {
    result.converged = sweeper.sweep(result);
    if (polishing) {
      ++result.polish_sweeps;
    } else if (!result.converged && coupling > 0.0 &&
               static_cast<double>(result.sweeps) * sweeper.flops() >=
                   newton.direction_flops()) {
      newton.minimize(result);
      polishing = true;
    }
  }
  result.objective = PLOS_CHECK_FINITE(sweeper.objective());

  static obs::Histogram& sweeps = obs::metrics().histogram(
      "qp.capped_simplex.sweeps", obs::default_iteration_buckets());
  static obs::Histogram& newton_steps = obs::metrics().histogram(
      "qp.capped_simplex.newton_iterations", obs::default_iteration_buckets());
  static obs::Histogram& newton_evaluations = obs::metrics().histogram(
      "qp.capped_simplex.newton_evaluations",
      obs::default_iteration_buckets());
  static obs::Histogram& polish_sweeps = obs::metrics().histogram(
      "qp.capped_simplex.polish_sweeps", obs::default_iteration_buckets());
  sweeps.record(static_cast<double>(result.sweeps));
  newton_steps.record(static_cast<double>(result.newton_iterations));
  newton_evaluations.record(static_cast<double>(result.newton_evaluations));
  polish_sweeps.record(static_cast<double>(result.polish_sweeps));
  record_solve(watch.elapsed_seconds(), result.pivots, result.converged,
               result.converged && result.sweeps == 1);
  return result;
}

}  // namespace plos::qp
