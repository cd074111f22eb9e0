// Solver resilience layer for the BePI query path.
//
// The paper's query phase (Algorithm 4) hinges on one iterative solve over
// the Schur complement S. In a serving system that solve must never abort
// or silently hand back an unconverged vector: ILU(0) can break down on
// degenerate graphs, GMRES can stagnate, and NaN/Inf can propagate from
// corrupted inputs. ResilientSchurSolver runs the solve as an ordered
// degradation chain — each stage trades speed for robustness, and the
// power stage is unconditionally convergent for RWR because the iteration
// matrix (1-c) Ã^T has spectral radius < 1:
//
//   1. ILU(0)+GMRES        (the paper's method; fastest)
//   2. Jacobi+GMRES        (survives ILU breakdown)
//   3. BiCGSTAB, no precond (different Krylov recurrence; survives GMRES
//                            stagnation)
//   4. power iteration     (always converges; slowest)
//   5. Monte-Carlo walks   (engine/mc, armed via BepiSolver::
//                           AttachMcFallback: failure-INDEPENDENT — walks
//                           the raw graph, sharing none of the
//                           preprocessed factors stages 1-4 all consume,
//                           and answers with an explicit confidence bound
//                           instead of a residual)
//
// Two configurations reshape the chain instead of branching around it:
// the BiCGSTAB ablation (BepiInnerSolver::kBicgstab) runs
// ilu0+bicgstab -> power -> mc, and enable_fallbacks = false keeps only
// the first stage. Every attempt is recorded in a QueryReport so callers
// can observe which stages ran and why — no recoverable solver failure
// reaches std::abort.
//
// One solve runs k >= 1 columns (a single query is k = 1). Each GMRES
// stage is one GMRES call over the columns still unanswered; a column
// that fails a stage moves on to the next stage alone, so every column's
// report and answer are the ones it gets when solved by itself.
#ifndef BEPI_CORE_RESILIENT_HPP_
#define BEPI_CORE_RESILIENT_HPP_

#include <cstdint>
#include <span>
#include <vector>

#include "core/decomposition.hpp"
#include "core/rwr.hpp"
#include "solver/gmres.hpp"
#include "solver/ilu0.hpp"

namespace bepi {

class McWalkEngine;

/// Krylov method of the chain's first stage. The paper uses GMRES;
/// BiCGSTAB is a short-recurrence alternative with constant per-iteration
/// cost (see bench_ablation_solvers).
enum class BepiInnerSolver { kGmres, kBicgstab };

/// Walk budget of the Monte-Carlo stage (see BepiSolver::AttachMcFallback).
/// Per-query parameters (restart probability, cancellation, partial-result
/// policy) come from the query itself.
struct McFallbackOptions {
  std::uint64_t walks = 200'000;
  double delta = 0.01;
  std::uint64_t seed = 20170514;
};

/// Chain-wide settings; what varies per request travels in SchurColumn.
struct ResilientSolveOptions {
  index_t max_iters = 10000;
  index_t gmres_restart = 100;
  /// When false the chain is only its first stage (the pre-resilience
  /// behavior, kept for ablations).
  bool enable_fallbacks = true;
  BepiInnerSolver inner_solver = BepiInnerSolver::kGmres;
};

/// One right-hand side of ResilientSchurSolver::Solve: the request's own
/// inputs (not owned; they must outlive the call) and, after the call, its
/// answer.
struct SchurColumn {
  /// The Schur right-hand side q2~.
  const Vector* b = nullptr;
  /// Relative residual tolerance of every stage.
  real_t tol = 1e-9;
  /// Initial iterate of the GMRES stages (null = start from zero). The MC
  /// warm start (QueryControl::warm_start_mc) lands here; a nonzero guess
  /// changes the iterate sequence, so the default path never sets it.
  const Vector* x0 = nullptr;
  /// Cooperative cancellation, forwarded into every stage (GMRES restart
  /// cycles, BiCGSTAB/power iterations, walk batches). When the token
  /// expires this column stops degrading: the interrupted stage's best
  /// iterate is its answer, with the attempt recorded as kCancelled.
  const CancelToken* cancel = nullptr;
  /// Whether the Monte-Carlo stage may answer from the walks completed
  /// before `cancel` expired (QueryControl::allow_partial).
  bool allow_partial = false;
  /// Request id of the serve request (server/protocol.hpp), attached to
  /// flight-recorder stage-hop events and stage trace spans. May be null.
  const char* request_id = nullptr;
  /// The restart c*q sliced along [n1 | n2 | n3], one column. The
  /// terminal stages (power, mc) answer the whole system H r = c q from
  /// it; without it they are skipped.
  const SlicedVector* cq = nullptr;

  /// ok, or why every stage failed (kNotConverged; the power stage's or
  /// walk engine's own error when that ended the chain).
  Status status = Status::Ok();
  /// The answer: x = r2 from a Krylov stage, or — `full` set — the whole
  /// reordered r from a terminal stage. When `report.final_outcome` is
  /// kCancelled it is the interrupted stage's best iterate, the residual
  /// in the last attempt.
  Vector x;
  bool full = false;
  /// The GMRES stage that answered solved two or more columns together.
  bool coalesced = false;
  /// Every attempt, in chain order.
  QueryReport report;
};

/// The terminal stages' inputs. `kern` feeds the power stage (skipped
/// when it lacks H11/H22); `mc` (may be null: no walk stage) walks the raw
/// graph, reached through `inverse_perm` and `restart_prob`. Not owned.
struct TerminalStages {
  const DecompositionKernels* kern = nullptr;
  const Permutation* inverse_perm = nullptr;
  real_t restart_prob = 0.05;
  const McWalkEngine* mc = nullptr;
  McFallbackOptions mc_options;
};

/// Solves S x = b through the degradation chain. Stateless per call: safe
/// to construct on the stack per query. The referenced matrix,
/// preconditioner and terminal-stage inputs must outlive the call.
class ResilientSchurSolver {
 public:
  /// `ilu` may be null (BePI-B/S modes, or after an ILU(0) breakdown at
  /// preprocessing time); the chain then starts at the Jacobi stage. The
  /// Krylov stages run the view's compact/fused kernels. Without
  /// `terminal` the chain ends after its Krylov stages.
  ResilientSchurSolver(const KernelCsr& schur, const Ilu0* ilu,
                       ResilientSolveOptions options,
                       const TerminalStages* terminal = nullptr);

  /// Runs every column through the stages in order. Each GMRES stage is one
  /// Gmres call (solver/gmres.hpp) over the columns still unanswered, so S
  /// streams once per step for all of them; BiCGSTAB, power and MC run per
  /// column. A column that fails a stage moves on to the next one, so its
  /// report equals that of the same column solved alone, and each column's
  /// answer is bitwise the one it gets alone. Every attempt is recorded
  /// into the column's report; a stage run over two or more columns has one
  /// schur.hop span and records the call's wall time as each column's
  /// seconds. A non-ok Status is a shape error; solver failures land in
  /// each column's status. `workspace` (may be null) is the GMRES scratch.
  Status Solve(std::span<SchurColumn> columns,
               GmresWorkspace* workspace = nullptr) const;

 private:
  KernelCsr schur_;
  const Ilu0* ilu_;
  ResilientSolveOptions options_;
  const TerminalStages* terminal_;
};

/// Whether `kern` holds the blocks needed by GlobalPowerFallback (H11 and
/// H22 shaped by the partition; preprocessing and every model load provide
/// them, views assembled by hand may not).
bool SupportsGlobalPowerFallback(const DecompositionKernels& kern);

/// The power stage: power iteration r <- (I - H) r + cq on the full
/// reordered system, assembled blockwise from the views (partition sizes
/// n1 = L1^{-1} rows, n2 = S rows, n3 = H31 rows). `cq` is the scaled
/// start vector c*q in reordered ids (length n1 + n2 + n3); the result is
/// the full reordered RWR vector. Reads the tolerance, cancel token and
/// request id of `column` and appends its SolveAttempt to column->report.
/// Fails only on budget exhaustion (kNotConverged).
Result<Vector> GlobalPowerFallback(const DecompositionKernels& kern,
                                   const Vector& cq,
                                   const ResilientSolveOptions& options,
                                   SchurColumn* column);

/// Sup-norm per-score bound of a power-stage answer `r` (full, reordered)
/// for the one-column restart `cq`: the true full-system residual
/// rho = c q - H r through FullSystemScoreBound (core/topk.hpp). The
/// stage's own scalar residual is not a per-score bound.
real_t PowerScoreBound(const DecompositionKernels& kern,
                       const SlicedVector& cq, const Vector& r,
                       real_t restart_prob);

}  // namespace bepi

#endif  // BEPI_CORE_RESILIENT_HPP_
