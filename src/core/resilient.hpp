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
#ifndef BEPI_CORE_RESILIENT_HPP_
#define BEPI_CORE_RESILIENT_HPP_

#include <cstdint>
#include <vector>

#include "core/decomposition.hpp"
#include "core/rwr.hpp"
#include "solver/block_gmres.hpp"
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

struct ResilientSolveOptions {
  real_t tol = 1e-9;
  index_t max_iters = 10000;
  index_t gmres_restart = 100;
  /// When false the chain is only its first stage (the pre-resilience
  /// behavior, kept for ablations).
  bool enable_fallbacks = true;
  BepiInnerSolver inner_solver = BepiInnerSolver::kGmres;
  /// Optional reusable GMRES scratch (see solver/gmres.hpp); not owned,
  /// may be null. One workspace per concurrent solve.
  GmresWorkspace* gmres_workspace = nullptr;
  /// Cooperative cancellation, forwarded into every stage (GMRES restart
  /// cycles, BiCGSTAB/power iterations, walk batches). When the token
  /// expires the chain stops degrading: the interrupted stage's best
  /// iterate is returned with the attempt recorded as kCancelled (see
  /// Solve). May be null.
  const CancelToken* cancel = nullptr;
  /// Whether the Monte-Carlo stage may answer from the walks completed
  /// before `cancel` expired (QueryControl::allow_partial).
  bool allow_partial = false;
  /// Request id of the serve request driving this solve (see
  /// server/protocol.hpp); attached to flight-recorder stage-hop events
  /// and stage trace spans. May be null outside the serve path.
  const char* request_id = nullptr;
  /// Initial iterate for the GMRES stages (may be null = start from zero).
  /// The MC warm start (QueryControl::warm_start_mc) lands here; a
  /// nonzero guess changes the iterate sequence, so the default path
  /// never sets it. Not owned; must outlive the solve.
  const Vector* x0 = nullptr;
};

/// The terminal stages' inputs. `dec` feeds the power stage (skipped when
/// it lacks H11/H22); `mc` (may be null: no walk stage) walks the raw
/// graph, reached through `inverse_perm` and `restart_prob`. Not owned.
struct TerminalStages {
  const HubSpokeDecomposition* dec = nullptr;
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
  /// preprocessing time); the chain then starts at the Jacobi stage. `op`,
  /// when non-null, is the operator the Krylov stages apply instead of a
  /// plain CsrOperator over `schur` — BepiSolver passes the bound
  /// KernelCsrOperator so they run the compact/fused kernels. It must
  /// represent exactly S (the Jacobi stage still reads `schur` directly).
  /// Without `terminal` the chain ends after its Krylov stages.
  ResilientSchurSolver(const CsrMatrix& schur, const Ilu0* ilu,
                       ResilientSolveOptions options,
                       const LinearOperator* op = nullptr,
                       const TerminalStages* terminal = nullptr);

  /// Runs the stages in order, appending one SolveAttempt per stage to
  /// `report`, and returns the first answer. A Krylov answer is x = r2; a
  /// terminal stage (power, mc) answers the whole system H r = c q for the
  /// restart `cq` (c*q sliced, k == 1; required when terminal stages are
  /// armed) and returns the full reordered r with `*full` set. A non-ok
  /// Status means every stage failed. When options.cancel expires mid-stage
  /// the chain stops immediately and returns that stage's best iterate as
  /// an ok Result with report->final_outcome == kCancelled — the caller
  /// decides whether the partial vector (residual in the last attempt) is
  /// usable.
  Result<Vector> Solve(const Vector& b, QueryReport* report,
                       const SlicedVector* cq = nullptr,
                       bool* full = nullptr) const;

  /// The first stage over k >= 2 right-hand sides at once (solver/
  /// block_gmres.hpp): the Schur matrix streams once per step for all of
  /// them, and each column's arithmetic matches a solo first-stage solve
  /// exactly. One schur.hop span covers the block; every converged column
  /// gets its attempt recorded into reports[j]. A column that did not
  /// converge records nothing — the caller re-solves it through Solve.
  /// FailedPrecondition when the first stage cannot run in lockstep (the
  /// BiCGSTAB ablation): every column then solves through Solve.
  Status SolveBlock(const std::vector<BlockGmresRhs>& rhs,
                    const std::vector<const char*>& request_ids,
                    std::vector<BlockGmresColumn>* columns,
                    std::vector<QueryReport>* reports) const;

 private:
  const CsrMatrix& schur_;
  const Ilu0* ilu_;
  ResilientSolveOptions options_;
  const LinearOperator* op_;
  const TerminalStages* terminal_;
};

/// Whether `dec` retains the blocks needed by GlobalPowerFallback (H11 and
/// H22; preprocessing and every model load provide them, a decomposition
/// assembled by hand may not).
bool SupportsGlobalPowerFallback(const HubSpokeDecomposition& dec);

/// The power stage: power iteration r <- (I - H) r + cq on the full
/// reordered system, assembled blockwise from the decomposition. `cq` is
/// the scaled start vector c*q in reordered ids (length dec.n); the result
/// is the full reordered RWR vector. Appends its SolveAttempt to `report`.
/// Fails only on budget exhaustion (kNotConverged).
Result<Vector> GlobalPowerFallback(const HubSpokeDecomposition& dec,
                                   const Vector& cq,
                                   const ResilientSolveOptions& options,
                                   QueryReport* report);

/// Sup-norm per-score bound of a power-stage answer `r` (full, reordered)
/// for the restart `cq`: the true full-system residual rho = c q - H r
/// through FullSystemScoreBound (core/topk.hpp). The stage's own scalar
/// residual is not a per-score bound.
real_t PowerScoreBound(const HubSpokeDecomposition& dec,
                       const SlicedVector& cq, const Vector& r,
                       real_t restart_prob);

}  // namespace bepi

#endif  // BEPI_CORE_RESILIENT_HPP_
