// Exact primal active-set solver for the single capped-simplex QP
//
//   minimize    f(γ) = ½ γᵀ H γ − cᵀ γ
//   subject to  γ ≥ 0,  Σ γ ≤ cap
//
// with H symmetric PSD (rank-deficient is fine). This is the dual of the
// distributed per-device problem (paper Eq. 22, cap 1) and of the local
// deviation fit behind the first-round CCCP signs. Those duals are tiny
// (a handful to a few dozen planes) and their H = κ·S Sᵀ is low-rank with
// near-collinear planes; a few pivots of an active-set method solve them to
// rounding (DESIGN.md §13.5).
//
// The same solver runs the centralized dual (paper Eq. 16), a product of
// capped simplices, one block per user: a damped Newton method on the
// global weights w0 whose every step solves each block exactly, finished
// by Gauss–Seidel sweeps over the blocks (solve_block_sweeps, DESIGN.md
// §13.4).
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"

namespace plos::qp {

struct QpResult {
  linalg::Vector solution;
  double objective = 0.0;  ///< f at the solution (minimization form)
  /// Active-set pivots; 0 = the (projected) warm start already passed.
  int iterations = 0;
  bool converged = false;
};

/// Pivot budget of solve_simplex_qp. A solve that spends it returns its
/// current feasible iterate with converged == false.
inline constexpr int kSimplexQpMaxPivots = 500;

/// Solves the QP above. `warm_start` is empty (start from γ = 0) or holds
/// c.size() values; it is projected onto the feasible set before use. A warm
/// start that already passes the optimality test comes back unchanged, bit
/// for bit, after zero pivots. QpResult::iterations counts pivots.
QpResult solve_simplex_qp(const linalg::Matrix& h, std::span<const double> c,
                          double cap,
                          std::span<const double> warm_start = {});

/// One user's cutting-plane working set: the planes s_a (the rows of S_t),
/// their linear terms c_t, the scaled block Gram and γ_t. Unscaled, it is
/// block t of the dual solve_block_sweeps solves; scaled by κ, it is a
/// device's or a local fit's prox-QP, solved over `gram` by
/// solve_simplex_qp (core/cutting_plane).
struct SimplexBlock {
  SimplexBlock() = default;
  /// An empty block whose Gram holds `scale`·S_t S_tᵀ; `scale` is positive
  /// and finite.
  explicit SimplexBlock(double scale);

  std::vector<linalg::Vector> planes;
  linalg::Vector linear;  ///< c_t, one entry per plane
  linalg::Matrix gram;    ///< scale()·S_t S_tᵀ
  linalg::Vector gamma;   ///< γ_t: the warm start going in, the solution out
  linalg::Vector z;       ///< S_tᵀ γ_t, as of the last refresh_z

  /// The Gram scale: 1 unless the block was constructed with one.
  double scale() const { return scale_.value_or(1.0); }
  /// Whether the block was constructed with a scale.
  bool scaled() const { return scale_.has_value(); }

  /// Appends plane `s` with linear term `c` and starting dual 0, bordering
  /// the Gram by one row and column. Rejects a non-finite plane or linear
  /// term.
  void append(linalg::Vector s, double c);

  /// z = Σ_a γ_a s_a over `dim` values, added in plane order.
  void refresh_z(std::size_t dim);

 private:
  std::optional<double> scale_;
};

/// Sweep budget of solve_block_sweeps. Sweeps alone have needed up to
/// about 1.7k; with the Newton phase the measured maximum is under a
/// hundred (DESIGN.md §13.4). A solve that spends the budget returns its current
/// feasible iterate with converged == false.
inline constexpr int kMaxBlockSweeps = 5000;

/// Accepted-step budget of the Newton phase of solve_block_sweeps.
inline constexpr int kMaxNewtonIterations = 50;

struct BlockSweepResult {
  double objective = 0.0;  ///< f at the returned γ
  int sweeps = 0;          ///< every sweep, the first one included
  /// Active-set pivots over every block solve, the Newton phase's included.
  int pivots = 0;
  int newton_iterations = 0;   ///< accepted Newton steps on w0
  int newton_evaluations = 0;  ///< F(w0) evaluations (one block pass each)
  int polish_sweeps = 0;       ///< sweeps after the Newton phase
  bool converged = false;
};

/// Solves the product-of-capped-simplices QP
///
///   minimize    f(γ) = ½ γᵀ H γ − cᵀ γ,  H = κ·S Sᵀ + blockdiag_t(S_t S_tᵀ)
///   subject to  γ ≥ 0,  Σ_{a ∈ t} γ_a ≤ cap  for every block t
///
/// with κ = `coupling`, in place on `blocks`, none of them scaled. Each
/// sweep visits the blocks in order and solves block t exactly against the
/// others held fixed:
/// min over γ_t of ½ (κ + 1)·γ_tᵀ S_t S_tᵀ γ_t − (c_t − S_t·u)ᵀ γ_t with
/// u = κ·Σ_{t' ≠ t} z_t'. When κ > 0 and sweeps do not pass, once they
/// have cost as much as a Newton direction, up to kMaxNewtonIterations
/// damped Newton steps on w0 (DESIGN.md §13.4) move every γ_t close to the
/// optimum, and further sweeps finish the solve.
/// The dual has converged when a whole sweep makes no pivot and changes no
/// γ by a single bit, so re-solving a converged dual takes one such sweep
/// and returns it unchanged. Every z_t (zeros for an empty block) holds
/// S_tᵀγ_t on return, which is the primal recovery: v_t = z_t and
/// w0 = κ·Σ_t z_t.
BlockSweepResult solve_block_sweeps(std::span<SimplexBlock> blocks,
                                    double coupling, double cap);

}  // namespace plos::qp
