// Solver resilience layer for the BePI query path.
//
// The paper's query phase (Algorithm 4) hinges on one iterative solve over
// the Schur complement S. In a serving system that solve must never abort
// or silently hand back an unconverged vector: ILU(0) can break down on
// degenerate graphs, GMRES can stagnate, and NaN/Inf can propagate from
// corrupted inputs. ResilientSchurSolver runs the solve as a three-stage
// degradation chain, each stage trading speed for robustness:
//
//   1. the model's Krylov stage (the paper's method; fastest):
//        ilu0+gmres      by default;
//        jacobi+gmres    when the model has no ILU(0) factors (BePI-B,
//                        BePI-S, or an ILU(0) breakdown at preprocess);
//        ilu0+bicgstab   for the BiCGSTAB ablation (BepiInnerSolver::
//                        kBicgstab; unpreconditioned `bicgstab` when that
//                        ablation runs without factors)
//   2. power iteration     (x <- q2~ + (I - S) x on S itself; always
//                           converges, slower than a Krylov stage)
//   3. Monte-Carlo walks   (engine/mc, armed via BepiSolver::
//                           AttachMcFallback: failure-INDEPENDENT — walks
//                           the raw graph, sharing none of the
//                           preprocessed factors stages 1-2 consume,
//                           and answers with an explicit confidence bound
//                           instead of a residual)
//
// Why stage 2 converges: S = I - T with T >= 0 and ||T||_1 <= 1 - c. T is
// the hub block of (1-c) A~^T once the spokes are eliminated — a censored
// substochastic chain whose columns sum to at most 1 - c — so the
// iteration matrix I - S = T contracts the 1-norm by 1 - c per step, and
// the Neumann series sum_t T^t = S^{-1} is the same one behind
// core/topk.hpp's ||S^{-1}||_1 <= 1/c. Its iterate is a Schur iterate like
// any Krylov stage's and goes through the same back-substitution. So power
// answers every well-formed query its Krylov stage fails, and only a
// broken S (injected faults, NaN) reaches the walks. Every attempt
// is recorded in a QueryReport so callers can observe which stages ran
// and why — no recoverable solver failure reaches std::abort.
//
// One solve runs k >= 1 columns (a single query is k = 1). A GMRES stage
// is one GMRES call over every column, each starting from zero; a column
// that fails it moves on to the next stage alone, so every column's
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
  /// The restart c*q sliced along [n1 | n2 | n3], one column. The MC
  /// stage answers the whole system H r = c q from it; without it that
  /// stage is skipped.
  const SlicedVector* cq = nullptr;

  /// ok, or why every stage failed (kNotConverged; the walk engine's own
  /// error when that ended the chain).
  Status status = Status::Ok();
  /// The answer: x = r2 from a Schur stage (Krylov or power), or — `full`
  /// set — the whole reordered r from the MC stage. When
  /// `report.final_outcome` is kCancelled it is the interrupted stage's
  /// best iterate, the residual in the last attempt.
  Vector x;
  bool full = false;
  /// The GMRES stage that answered solved two or more columns together.
  bool coalesced = false;
  /// Every attempt, in chain order.
  QueryReport report;
};

/// The MC stage's inputs: `mc` (may be null: no walk stage) walks the raw
/// graph, reached through `inverse_perm` and `restart_prob`. Not owned.
struct TerminalStages {
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
  /// preprocessing time); the Krylov stage is then Jacobi-preconditioned.
  /// The Schur stages run the view's compact/fused kernels. Without
  /// `terminal` the chain ends after the power stage.
  ResilientSchurSolver(const KernelCsr& schur, const Ilu0* ilu,
                       ResilientSolveOptions options,
                       const TerminalStages* terminal = nullptr);

  /// Runs every column through the stages in order. A GMRES stage is one
  /// Gmres call (solver/gmres.hpp) over all the columns, so S streams once
  /// per step for all of them; BiCGSTAB, power and MC run per column. A
  /// column that fails a stage moves on to the next one, so its
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

}  // namespace bepi

#endif  // BEPI_CORE_RESILIENT_HPP_
