#include "core/resilient.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

#include "common/flightrec.hpp"
#include "common/metrics.hpp"
#include "common/timer.hpp"
#include "common/trace.hpp"
#include "core/topk.hpp"
#include "engine/mc/mc.hpp"
#include "solver/bicgstab.hpp"
#include "solver/gmres.hpp"
#include "solver/power.hpp"

namespace bepi {
namespace {

/// The chain's stages, in degradation order, and their report names.
enum class Stage {
  kIluGmres, kJacobiGmres, kBicgstab, kIluBicgstab, kPower, kMc
};
constexpr const char* kStageNames[] = {
    "ilu0+gmres", "jacobi+gmres", "bicgstab", "ilu0+bicgstab", "power", "mc"};

const char* StageName(Stage stage) {
  return kStageNames[static_cast<int>(stage)];
}

SolveAttempt MakeAttempt(const char* stage, const SolveStats& stats,
                         double seconds) {
  SolveAttempt attempt;
  attempt.stage = stage;
  attempt.outcome = stats.outcome;
  attempt.iterations = stats.iterations;
  attempt.residual = stats.relative_residual;
  attempt.seconds = seconds;
  return attempt;
}

/// Records one stage attempt everywhere it is observed: the stage's trace
/// span (when given) gets the verdict, the solver.attempts.<stage> counter
/// and the flight recorder's stage-hop ring count it, and `report` (may be
/// null) appends it.
void Record(TraceSpan* span, const SolveAttempt& attempt,
            const char* request_id, QueryReport* report) {
  if (span != nullptr && span->active()) {
    span->Arg("stage", attempt.stage);
    span->Arg("outcome", SolveOutcomeName(attempt.outcome));
    span->Arg("iterations", attempt.iterations);
    span->Arg("residual", attempt.residual);
    if (request_id != nullptr) span->Arg("request_id", std::string(request_id));
  }
  if (MetricsEnabled()) {
    // Dynamic name lookup is fine here: one registry probe per solver
    // attempt, orders of magnitude colder than the inner iterations.
    MetricsRegistry::Global()
        .GetCounter("solver.attempts." + attempt.stage)
        ->Increment();
  }
  FlightRecord(FlightEventType::kStageHop, request_id, attempt.stage.c_str(),
               static_cast<std::int64_t>(attempt.seconds * 1e9));
  if (report == nullptr) return;
  report->attempts.push_back(attempt);
  report->final_outcome = attempt.outcome;
}

/// The ordered stage list for this configuration.
std::vector<Stage> Chain(bool has_ilu, const ResilientSolveOptions& options) {
  std::vector<Stage> stages;
  if (options.inner_solver == BepiInnerSolver::kBicgstab) {
    stages = {has_ilu ? Stage::kIluBicgstab : Stage::kBicgstab, Stage::kPower,
              Stage::kMc};
  } else {
    if (has_ilu) stages.push_back(Stage::kIluGmres);
    stages.insert(stages.end(), {Stage::kJacobiGmres, Stage::kBicgstab,
                                 Stage::kPower, Stage::kMc});
  }
  if (!options.enable_fallbacks) stages.resize(1);
  return stages;
}

/// The one-column `s` as one full reordered vector.
Vector Concat(const SlicedVector& s) {
  Vector v;
  v.reserve(s.v1.size() + s.v2.size() + s.v3.size());
  for (const Vector* slice : {&s.v1, &s.v2, &s.v3}) {
    v.insert(v.end(), slice->begin(), slice->end());
  }
  return v;
}

/// Why `stage` left a column unanswered.
Status StageFailed(Stage stage, SolveOutcome outcome, bool enable_fallbacks) {
  return Status::NotConverged(
      std::string("Schur solve (") + StageName(stage) + ") ended with " +
      SolveOutcomeName(outcome) +
      (enable_fallbacks ? "" : " and fallbacks are disabled"));
}

/// The walk stage: q in original ids recovered from the column's reordered
/// scaled slices (q[old] = cq[perm[old]] / c), estimated on the raw graph,
/// and returned in reordered ids with the confidence half-width as the
/// attempt's residual.
Result<Vector> McStage(const TerminalStages& terminal, SchurColumn* column) {
  TraceSpan hop_span("query.mc_fallback");
  Timer hop_timer;
  const Permutation& inverse_perm = *terminal.inverse_perm;
  const real_t inv_c = static_cast<real_t>(1.0) / terminal.restart_prob;
  Vector q = Unslice(*column->cq, inverse_perm);
  for (real_t& v : q) v *= inv_c;
  McOptions mo;
  mo.restart_prob = terminal.restart_prob;
  mo.walks = terminal.mc_options.walks;
  mo.delta = terminal.mc_options.delta;
  mo.seed = terminal.mc_options.seed;
  mo.cancel = column->cancel;
  mo.allow_partial = column->allow_partial;
  Result<McEstimate> est = terminal.mc->EstimateVector(q, mo);
  SolveAttempt attempt;
  attempt.stage = StageName(Stage::kMc);
  if (est.ok()) {
    attempt.outcome = est.value().outcome;
    attempt.iterations = static_cast<index_t>(est.value().walks_completed);
    attempt.residual = est.value().uniform_eps;
  } else {
    const bool token_expired =
        est.status().code() == StatusCode::kCancelled ||
        est.status().code() == StatusCode::kDeadlineExceeded;
    attempt.outcome =
        token_expired ? SolveOutcome::kCancelled : SolveOutcome::kBreakdown;
    attempt.iterations = 0;
    attempt.residual = 1.0;  // an estimate that never ran bounds nothing
  }
  attempt.seconds = hop_timer.Seconds();
  Record(&hop_span, attempt, column->request_id, &column->report);
  if (!est.ok()) return est.status();
  const Vector& scores = est.value().scores;
  Vector r(inverse_perm.size());
  for (std::size_t p = 0; p < r.size(); ++p) {
    r[p] = scores[static_cast<std::size_t>(inverse_perm[p])];
  }
  return r;
}

}  // namespace

ResilientSchurSolver::ResilientSchurSolver(const KernelCsr& schur,
                                           const Ilu0* ilu,
                                           ResilientSolveOptions options,
                                           const TerminalStages* terminal)
    : schur_(schur), ilu_(ilu), options_(options), terminal_(terminal) {}

Status ResilientSchurSolver::Solve(std::span<SchurColumn> columns,
                                   GmresWorkspace* workspace) const {
  std::vector<SchurColumn*> pending;
  for (SchurColumn& c : columns) {
    if (c.b == nullptr || static_cast<index_t>(c.b->size()) != schur_.rows()) {
      return Status::InvalidArgument("Schur rhs size mismatch");
    }
    c.status = Status::NotConverged(
        "every stage of the Schur degradation chain failed");
    pending.push_back(&c);
  }
  const KernelCsrOperator op(schur_);
  for (const Stage stage : Chain(ilu_ != nullptr, options_)) {
    if (pending.empty()) break;
    std::vector<SchurColumn*> unanswered;
    // A Krylov stage answers a column when it converged, and also when it
    // was cancelled: degrading further would only burn more time past the
    // deadline, so the interrupted stage's best iterate (its residual in
    // the recorded attempt) is the answer.
    const auto settle = [&](SchurColumn* c, const SolveStats& stats,
                            Vector* x) {
      if (stats.converged || stats.outcome == SolveOutcome::kCancelled) {
        c->status = Status::Ok();
        c->x = std::move(*x);
        return true;
      }
      c->status = StageFailed(stage, stats.outcome, options_.enable_fallbacks);
      unanswered.push_back(c);
      return false;
    };
    if (stage == Stage::kIluGmres || stage == Stage::kJacobiGmres) {
      // One Gmres call over every column still unanswered.
      TraceSpan hop_span("schur.hop");
      Timer hop_timer;
      // Jacobi: the Schur complement of an RWR system is a nonsingular
      // M-matrix, so its diagonal is safe to invert; this stage survives
      // any ILU(0) breakdown or ILU-induced NaN.
      std::optional<JacobiPreconditioner> jacobi;
      if (stage == Stage::kJacobiGmres) jacobi.emplace(schur_);
      const Preconditioner* m =
          jacobi.has_value() ? static_cast<const Preconditioner*>(&*jacobi)
                             : ilu_;
      GmresSettings gm;
      gm.max_iters = options_.max_iters;
      gm.restart = options_.gmres_restart;
      std::vector<GmresColumn> solves(pending.size());
      for (std::size_t j = 0; j < pending.size(); ++j) {
        solves[j].b = pending[j]->b;
        solves[j].x0 = pending[j]->x0;
        solves[j].tol = pending[j]->tol;
        solves[j].cancel = pending[j]->cancel;
      }
      BEPI_RETURN_IF_ERROR(Gmres(op, solves, gm, m, workspace));
      // Every column waited on the whole call: that wall time is the
      // latency each observed, not a per-column slice of the work. A
      // width-1 span carries its column's verdict.
      const double seconds = hop_timer.Seconds();
      const bool coalesced = solves.size() >= 2;
      if (coalesced) {
        hop_span.Arg("stage", std::string(StageName(stage)));
        hop_span.Arg("width", static_cast<std::int64_t>(solves.size()));
      }
      for (std::size_t j = 0; j < pending.size(); ++j) {
        SchurColumn* c = pending[j];
        Record(coalesced ? nullptr : &hop_span,
               MakeAttempt(StageName(stage), solves[j].stats, seconds),
               c->request_id, &c->report);
        if (settle(c, solves[j].stats, &solves[j].x)) c->coalesced = coalesced;
      }
    } else if (stage == Stage::kBicgstab || stage == Stage::kIluBicgstab) {
      // BiCGSTAB: a different Krylov recurrence that does not share
      // GMRES's restart-stagnation failure mode (preconditioned only as
      // the ablation's first stage).
      for (SchurColumn* c : pending) {
        TraceSpan hop_span("schur.hop");
        Timer hop_timer;
        BicgstabOptions bi;
        bi.tol = c->tol;
        bi.max_iters = options_.max_iters;
        bi.cancel = c->cancel;
        SolveStats stats;
        BEPI_ASSIGN_OR_RETURN(
            Vector x, Bicgstab(op, *c->b, bi, &stats,
                               stage == Stage::kIluBicgstab ? ilu_ : nullptr));
        Record(&hop_span,
               MakeAttempt(StageName(stage), stats, hop_timer.Seconds()),
               c->request_id, &c->report);
        settle(c, stats, &x);
      }
    } else {
      // The terminal stages answer the whole system H r = c q from the
      // column's restart; a column without one skips them.
      for (SchurColumn* c : pending) {
        if (terminal_ == nullptr || c->cq == nullptr ||
            (stage == Stage::kPower && terminal_->kern == nullptr) ||
            (stage == Stage::kMc && terminal_->mc == nullptr)) {
          unanswered.push_back(c);
          continue;
        }
        Result<Vector> r =
            stage == Stage::kPower
                ? GlobalPowerFallback(*terminal_->kern, Concat(*c->cq),
                                      options_, c)
                : McStage(*terminal_, c);
        c->status = r.status();
        if (r.ok()) {
          c->x = std::move(*r);
          c->full = true;
        } else if (stage == Stage::kPower &&
                   r.status().code() == StatusCode::kNotConverged) {
          // Only an exhausted power budget degrades further; any other
          // error ends the chain for this column.
          unanswered.push_back(c);
        }
      }
    }
    pending = std::move(unanswered);
  }
  return Status::Ok();
}

bool SupportsGlobalPowerFallback(const DecompositionKernels& kern) {
  const index_t n1 = kern.l1_inv.rows(), n2 = kern.schur.rows();
  return kern.h11.rows() == n1 && kern.h11.cols() == n1 &&
         kern.h22.rows() == n2 && kern.h22.cols() == n2 &&
         kern.h12.rows() == n1 && kern.h12.cols() == n2 &&
         kern.h21.rows() == n2 && kern.h21.cols() == n1 &&
         kern.h31.cols() == n1 && kern.h32.rows() == kern.h31.rows() &&
         kern.h32.cols() == n2;
}

namespace {

/// y = (I - H) x assembled blockwise from the stored partitions of the
/// reordered H (Equation (5); H13 = H23 = 0 and H33 = I, so the deadend
/// rows of I - H are exactly -[H31 H32 0]).
class BlockComplementOperator final : public LinearOperator {
 public:
  explicit BlockComplementOperator(const DecompositionKernels& kern)
      : kern_(kern) {}

  index_t size() const override {
    return kern_.l1_inv.rows() + kern_.schur.rows() + kern_.h31.rows();
  }

  void Apply(const Vector& x, Vector* y) const override {
    const std::size_t n1 = static_cast<std::size_t>(kern_.l1_inv.rows());
    const std::size_t n2 = static_cast<std::size_t>(kern_.schur.rows());
    const std::size_t n3 = static_cast<std::size_t>(kern_.h31.rows());
    const Vector x1(x.begin(), x.begin() + static_cast<std::ptrdiff_t>(n1));
    const Vector x2(x.begin() + static_cast<std::ptrdiff_t>(n1),
                    x.begin() + static_cast<std::ptrdiff_t>(n1 + n2));
    y->assign(x.size(), 0.0);
    // y1 = x1 - H11 x1 - H12 x2
    if (n1 > 0) {
      Vector y1 = x1;
      kern_.h11.MultiplyAdd(-1.0, x1, &y1);
      if (n2 > 0) kern_.h12.MultiplyAdd(-1.0, x2, &y1);
      std::copy(y1.begin(), y1.end(), y->begin());
    }
    // y2 = x2 - H21 x1 - H22 x2
    if (n2 > 0) {
      Vector y2 = x2;
      if (n1 > 0) kern_.h21.MultiplyAdd(-1.0, x1, &y2);
      kern_.h22.MultiplyAdd(-1.0, x2, &y2);
      std::copy(y2.begin(), y2.end(),
                y->begin() + static_cast<std::ptrdiff_t>(n1));
    }
    // y3 = -(H31 x1 + H32 x2)
    if (n3 > 0) {
      Vector y3(n3, 0.0);
      if (n1 > 0) kern_.h31.MultiplyAdd(-1.0, x1, &y3);
      if (n2 > 0) kern_.h32.MultiplyAdd(-1.0, x2, &y3);
      std::copy(y3.begin(), y3.end(),
                y->begin() + static_cast<std::ptrdiff_t>(n1 + n2));
    }
  }

 private:
  const DecompositionKernels& kern_;
};

}  // namespace

Result<Vector> GlobalPowerFallback(const DecompositionKernels& kern,
                                   const Vector& cq,
                                   const ResilientSolveOptions& options,
                                   SchurColumn* column) {
  const BlockComplementOperator g_op(kern);
  if (static_cast<index_t>(cq.size()) != g_op.size()) {
    return Status::InvalidArgument("power fallback rhs size mismatch");
  }
  if (!SupportsGlobalPowerFallback(kern)) {
    return Status::FailedPrecondition(
        "decomposition lacks H11/H22; global power fallback unavailable");
  }
  TraceSpan fallback_span("query.power_fallback");
  Timer hop_timer;
  FixedPointOptions fp;
  fp.tol = column->tol;
  fp.max_iters = options.max_iters;
  fp.cancel = column->cancel;
  SolveStats stats;
  BEPI_ASSIGN_OR_RETURN(Vector r, FixedPointIteration(g_op, cq, fp, &stats));
  Record(&fallback_span,
         MakeAttempt(StageName(Stage::kPower), stats, hop_timer.Seconds()),
         column->request_id, &column->report);
  // Mirror the Krylov stages' cancellation contract: ok Result, partial
  // iterate, report->final_outcome == kCancelled.
  if (stats.outcome == SolveOutcome::kCancelled) return r;
  if (!stats.converged) {
    return Status::NotConverged(
        "global power-iteration fallback exhausted its budget at residual " +
        std::to_string(stats.relative_residual));
  }
  return r;
}

real_t PowerScoreBound(const DecompositionKernels& kern,
                       const SlicedVector& cq, const Vector& r,
                       real_t restart_prob) {
  // rho = c q - H r = c q - r + (I - H) r, through the stage's own operator.
  Vector y;
  BlockComplementOperator(kern).Apply(r, &y);
  const Vector c_q = Concat(cq);
  real_t norm1 = 0.0;
  for (std::size_t i = 0; i < r.size(); ++i) {
    norm1 += std::abs(c_q[i] - r[i] + y[i]);
  }
  return FullSystemScoreBound(norm1, restart_prob);
}

}  // namespace bepi
