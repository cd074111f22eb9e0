// Restarted GMRES with optional left preconditioning (Saad & Schultz [37];
// preconditioned variant per Saad [35] and the paper's Appendix B). The
// Arnoldi process is combined with Givens rotations so the residual norm is
// available at every step without forming the solution.
//
// One call solves k >= 1 independent systems A x_j = b_j against one
// operator. Each column owns its right-hand side, initial iterate,
// tolerance, cancel token, Krylov basis, Hessenberg matrix, Givens
// rotations and stagnation window, and does its own restart-cycle boundary
// when its cycle ends; nothing is shared numerically. What the columns
// share is the operator stream: every step applies A once to all columns
// that are mid-cycle — LinearOperator::ApplyMulti (an SpMM panel) at two
// or more, Apply (or the fused ApplyAndDot) at one. Both keep each column
// bitwise equal to Apply on it alone, and the dense work (MGS, Givens,
// norms, the triangular solve) runs on the column's own vectors in one
// fixed order, so every column of a width-k call is bitwise equal to the
// one-column solve of that system.
#ifndef BEPI_SOLVER_GMRES_HPP_
#define BEPI_SOLVER_GMRES_HPP_

#include <span>
#include <vector>

#include "common/cancel.hpp"
#include "common/status.hpp"
#include "solver/operator.hpp"
#include "solver/outcome.hpp"
#include "sparse/dense.hpp"

namespace bepi {

/// Reusable scratch buffers for Gmres, one set per column. A workspace
/// passed across solves keeps the Krylov bases, Hessenberg matrices and
/// rotation vectors allocated, so a steady-state query loop (bepi_cli
/// query --stats, a serve slot) performs no per-solve heap allocation
/// beyond the returned solutions. Every buffer
/// is (re)sized and overwritten before use — reusing a workspace never
/// changes results, whatever width the previous call had. Not
/// thread-safe: use one workspace per concurrent solve.
struct GmresWorkspace {
  struct Column {
    std::vector<Vector> basis;            // orthonormal Krylov vectors
    std::vector<std::vector<real_t>> h;   // Hessenberg columns
    Vector cs, sn, g;                     // Givens rotations + rotated rhs
    Vector tmp, raw, y;                   // operator output, residual, LS sol.
    Vector mb;                            // preconditioned rhs
    std::vector<real_t> best_rel;         // stagnation window
  };
  std::vector<Column> columns;
  Vector panel_x, panel_y;  // ApplyMulti operands (row-major, width k)
};

/// Settings shared by every column of one Gmres call.
struct GmresSettings {
  /// Total matrix-vector product budget across restarts, per column.
  index_t max_iters = 1000;
  /// Krylov subspace dimension per restart cycle.
  index_t restart = 100;
  /// Record per-iteration residuals into SolveStats::residual_history.
  bool track_history = false;
  /// Stagnation detection: give up (outcome kStagnated) when the best
  /// residual improved by less than stagnation_rtol relatively over the
  /// last stagnation_window iterations. 0 disables the check.
  index_t stagnation_window = 50;
  real_t stagnation_rtol = 1e-3;
};

/// The one-column call's settings: the shared ones plus that column's
/// tolerance (a GmresColumn carries its own).
struct GmresOptions : GmresSettings {
  /// Relative residual tolerance: stop when ||M^-1(Ax - b)|| / ||M^-1 b||
  /// drops below tol (plain residual when no preconditioner is given).
  real_t tol = 1e-9;
};

/// One right-hand side of a width-k Gmres call: its system and stopping
/// rule (in) and its verdict (out). `b` and `x0` are not owned and must
/// outlive the call.
struct GmresColumn {
  const Vector* b = nullptr;
  /// Initial iterate; null starts from zero.
  const Vector* x0 = nullptr;
  /// Relative residual tolerance, as GmresOptions::tol.
  real_t tol = 1e-9;
  /// Cooperative cancellation, polled at this column's restart-cycle
  /// boundaries (never mid-cycle, so numerics are unaffected until the
  /// token fires). On expiry the column keeps its best iterate with
  /// outcome kCancelled and a freshly computed residual. May be null.
  const CancelToken* cancel = nullptr;
  /// The solution (the best iterate when not converged) and how the
  /// column ended, as the one-column call returns them.
  Vector x;
  SolveStats stats;
};

/// Solves A x_j = b_j for every column. `m` (may be null) applies left
/// preconditioning: M^{-1} A x = M^{-1} b. Each column ends converged,
/// stagnated, diverged (non-finite values: the last finite iterate is
/// kept), budget-exhausted or cancelled; see its stats. Only shape errors
/// produce a non-ok Status. `workspace` (may be null) supplies reusable
/// scratch buffers; a null workspace allocates them for this call.
Status Gmres(const LinearOperator& a, std::span<GmresColumn> columns,
             const GmresSettings& settings, const Preconditioner* m = nullptr,
             GmresWorkspace* workspace = nullptr);

/// The one-column call: a width-1 Gmres over (b, x0 (may be null),
/// options.tol). Returns the best iterate even when the column did not
/// converge; check stats->converged and stats->outcome.
Result<Vector> Gmres(const LinearOperator& a, const Vector& b,
                     const GmresOptions& options, SolveStats* stats,
                     const Preconditioner* m = nullptr,
                     const Vector* x0 = nullptr,
                     GmresWorkspace* workspace = nullptr);

}  // namespace bepi

#endif  // BEPI_SOLVER_GMRES_HPP_
