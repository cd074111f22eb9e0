#include "core/resilient.hpp"

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

#include "common/flightrec.hpp"
#include "common/metrics.hpp"
#include "common/timer.hpp"
#include "common/trace.hpp"
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

/// The chain for this configuration: the model's Krylov stage, then power
/// on S, then the walks.
std::vector<Stage> Chain(bool has_ilu, const ResilientSolveOptions& options) {
  Stage krylov = has_ilu ? Stage::kIluGmres : Stage::kJacobiGmres;
  if (options.inner_solver == BepiInnerSolver::kBicgstab) {
    krylov = has_ilu ? Stage::kIluBicgstab : Stage::kBicgstab;
  }
  return {krylov, Stage::kPower, Stage::kMc};
}

/// Why `stage` left a column unanswered.
Status StageFailed(Stage stage, SolveOutcome outcome) {
  return Status::NotConverged(std::string("Schur solve (") + StageName(stage) +
                              ") ended with " + SolveOutcomeName(outcome));
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

/// y = (I - S) x = x - S x: the power stage's iteration matrix, through
/// the view's fused residual kernel.
class IdentityMinusOperator final : public LinearOperator {
 public:
  explicit IdentityMinusOperator(const KernelCsr& s) : s_(s) {}
  index_t size() const override { return s_.rows(); }
  void Apply(const Vector& x, Vector* y) const override {
    s_.ResidualInto(x, x, y);
  }

 private:
  const KernelCsr& s_;
};

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
      c->status = StageFailed(stage, stats.outcome);
      unanswered.push_back(c);
      return false;
    };
    if (stage == Stage::kIluGmres || stage == Stage::kJacobiGmres) {
      // One Gmres call over every column, each from a zero initial iterate.
      TraceSpan hop_span("schur.hop");
      Timer hop_timer;
      // Jacobi when the model has no ILU(0) factors: the Schur complement
      // of an RWR system is a nonsingular M-matrix, so its diagonal is
      // safe to invert.
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
    } else if (stage != Stage::kMc) {
      // The ablation's BiCGSTAB stage (ILU(0)-preconditioned when the
      // model has factors) or power iteration x <- q2~ + (I - S) x, which
      // needs no preconditioner and no Krylov recurrence at all.
      const auto solve = [&](const SchurColumn& c,
                             SolveStats* stats) -> Result<Vector> {
        if (stage == Stage::kPower) {
          FixedPointOptions fp;
          fp.tol = c.tol;
          fp.max_iters = options_.max_iters;
          fp.cancel = c.cancel;
          return FixedPointIteration(IdentityMinusOperator(schur_), *c.b, fp,
                                     stats);
        }
        BicgstabOptions bi;
        bi.tol = c.tol;
        bi.max_iters = options_.max_iters;
        bi.cancel = c.cancel;
        return Bicgstab(op, *c.b, bi, stats, ilu_);
      };
      for (SchurColumn* c : pending) {
        TraceSpan hop_span("schur.hop");
        Timer hop_timer;
        SolveStats stats;
        BEPI_ASSIGN_OR_RETURN(Vector x, solve(*c, &stats));
        Record(&hop_span,
               MakeAttempt(StageName(stage), stats, hop_timer.Seconds()),
               c->request_id, &c->report);
        settle(c, stats, &x);
      }
    } else {
      // The MC stage answers the whole system H r = c q from the column's
      // restart; a column without one skips it.
      for (SchurColumn* c : pending) {
        if (terminal_ == nullptr || terminal_->mc == nullptr ||
            c->cq == nullptr) {
          unanswered.push_back(c);
          continue;
        }
        Result<Vector> r = McStage(*terminal_, c);
        c->status = r.status();
        if (r.ok()) {
          c->x = std::move(*r);
          c->full = true;
        }
      }
    }
    pending = std::move(unanswered);
  }
  return Status::Ok();
}

}  // namespace bepi
