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

/// The full reordered vector of a k == 1 SlicedVector.
Vector Concat(const SlicedVector& s) {
  Vector v;
  v.reserve(s.v1.size() + s.v2.size() + s.v3.size());
  for (const Vector* slice : {&s.v1, &s.v2, &s.v3}) {
    v.insert(v.end(), slice->begin(), slice->end());
  }
  return v;
}

/// The walk stage: q in original ids recovered from the reordered scaled
/// slices (q[old] = cq[perm[old]] / c), estimated on the raw graph, and
/// returned in reordered ids with the confidence half-width as the
/// attempt's residual.
Result<Vector> McStage(const TerminalStages& terminal, const SlicedVector& cq,
                       const ResilientSolveOptions& options,
                       QueryReport* report) {
  TraceSpan hop_span("query.mc_fallback");
  Timer hop_timer;
  const Permutation& inverse_perm = *terminal.inverse_perm;
  const real_t inv_c = static_cast<real_t>(1.0) / terminal.restart_prob;
  Vector q = Unslice(cq, 0, inverse_perm);
  for (real_t& v : q) v *= inv_c;
  McOptions mo;
  mo.restart_prob = terminal.restart_prob;
  mo.walks = terminal.mc_options.walks;
  mo.delta = terminal.mc_options.delta;
  mo.seed = terminal.mc_options.seed;
  mo.cancel = options.cancel;
  mo.allow_partial = options.allow_partial;
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
  Record(&hop_span, attempt, options.request_id, report);
  if (!est.ok()) return est.status();
  const Vector& scores = est.value().scores;
  Vector r(inverse_perm.size());
  for (std::size_t p = 0; p < r.size(); ++p) {
    r[p] = scores[static_cast<std::size_t>(inverse_perm[p])];
  }
  return r;
}

}  // namespace

ResilientSchurSolver::ResilientSchurSolver(const CsrMatrix& schur,
                                           const Ilu0* ilu,
                                           ResilientSolveOptions options,
                                           const LinearOperator* op,
                                           const TerminalStages* terminal)
    : schur_(schur), ilu_(ilu), options_(options), op_(op),
      terminal_(terminal) {}

Result<Vector> ResilientSchurSolver::Solve(const Vector& b,
                                           QueryReport* report,
                                           const SlicedVector* cq,
                                           bool* full) const {
  if (static_cast<index_t>(b.size()) != schur_.rows()) {
    return Status::InvalidArgument("Schur rhs size mismatch");
  }
  CsrOperator fallback_op(schur_);
  const LinearOperator& op = op_ != nullptr ? *op_ : fallback_op;
  const bool terminal = terminal_ != nullptr && cq != nullptr;
  Status failure = Status::NotConverged(
      "every stage of the Schur degradation chain failed");
  for (const Stage stage : Chain(ilu_ != nullptr, options_)) {
    if (stage == Stage::kPower || stage == Stage::kMc) {
      if (!terminal || (stage == Stage::kMc && terminal_->mc == nullptr)) {
        continue;
      }
      Result<Vector> r =
          stage == Stage::kPower
              ? GlobalPowerFallback(*terminal_->dec, Concat(*cq), options_,
                                    report)
              : McStage(*terminal_, *cq, options_, report);
      if (stage == Stage::kPower && !r.ok() &&
          r.status().code() == StatusCode::kNotConverged) {
        failure = r.status();
        continue;
      }
      if (r.ok() && full != nullptr) *full = true;
      return r;
    }

    TraceSpan hop_span("schur.hop");
    Timer hop_timer;
    SolveStats stats;
    const bool gmres =
        stage == Stage::kIluGmres || stage == Stage::kJacobiGmres;
    // Jacobi: the Schur complement of an RWR system is a nonsingular
    // M-matrix, so its diagonal is safe to invert; this stage survives any
    // ILU(0) breakdown or ILU-induced NaN.
    std::optional<JacobiPreconditioner> jacobi;
    if (stage == Stage::kJacobiGmres) jacobi.emplace(schur_);
    GmresOptions gm;
    gm.tol = options_.tol;
    gm.max_iters = options_.max_iters;
    gm.restart = options_.gmres_restart;
    gm.cancel = options_.cancel;
    // BiCGSTAB: a different Krylov recurrence that does not share GMRES's
    // restart-stagnation failure mode (preconditioned only as the
    // ablation's first stage).
    BicgstabOptions bi;
    bi.tol = options_.tol;
    bi.max_iters = options_.max_iters;
    bi.cancel = options_.cancel;
    Result<Vector> x =
        gmres ? Gmres(op, b, gm, &stats,
                      jacobi.has_value()
                          ? static_cast<const Preconditioner*>(&*jacobi)
                          : ilu_,
                      options_.x0, options_.gmres_workspace)
              : Bicgstab(op, b, bi, &stats,
                         stage == Stage::kIluBicgstab ? ilu_ : nullptr);
    if (!x.ok()) return x.status();
    Record(&hop_span,
           MakeAttempt(StageName(stage), stats, hop_timer.Seconds()),
           options_.request_id, report);
    // A cancelled stage ends the chain: degrading further would only burn
    // more time past the deadline. Hand back the best iterate; the
    // recorded attempt carries its residual.
    if (stats.converged || stats.outcome == SolveOutcome::kCancelled) {
      return x;
    }
    failure = Status::NotConverged(
        std::string("Schur solve (") + StageName(stage) + ") ended with " +
        SolveOutcomeName(stats.outcome) +
        (options_.enable_fallbacks ? "" : " and fallbacks are disabled"));
  }
  return failure;
}

Status ResilientSchurSolver::SolveBlock(
    const std::vector<BlockGmresRhs>& rhs,
    const std::vector<const char*>& request_ids,
    std::vector<BlockGmresColumn>* columns,
    std::vector<QueryReport>* reports) const {
  const Stage stage = Chain(ilu_ != nullptr, options_).front();
  if (stage != Stage::kIluGmres && stage != Stage::kJacobiGmres) {
    return Status::FailedPrecondition(
        "the chain's first stage cannot solve in lockstep");
  }
  CsrOperator fallback_op(schur_);
  const LinearOperator& op = op_ != nullptr ? *op_ : fallback_op;
  std::optional<JacobiPreconditioner> jacobi;
  if (stage == Stage::kJacobiGmres) jacobi.emplace(schur_);
  const Preconditioner* m = stage == Stage::kIluGmres
                                ? static_cast<const Preconditioner*>(ilu_)
                                : &*jacobi;
  BlockGmresOptions bopts;
  bopts.tol = options_.tol;
  bopts.max_iters = options_.max_iters;
  bopts.restart = options_.gmres_restart;
  TraceSpan hop_span("schur.hop");
  hop_span.Arg("stage", std::string(StageName(stage)));
  hop_span.Arg("width", static_cast<std::int64_t>(rhs.size()));
  Timer hop_timer;
  BEPI_RETURN_IF_ERROR(BlockGmres(op, rhs, bopts, m, columns));
  // Every column waited on the whole blocked solve: that wall time is the
  // latency each observed, not a per-column slice of the work.
  const double seconds = hop_timer.Seconds();
  reports->assign(rhs.size(), QueryReport());
  for (std::size_t j = 0; j < rhs.size(); ++j) {
    const SolveStats& stats = (*columns)[j].stats;
    if (!stats.converged || stats.outcome != SolveOutcome::kConverged) {
      continue;
    }
    Record(nullptr, MakeAttempt(StageName(stage), stats, seconds),
           request_ids[j], &(*reports)[j]);
  }
  return Status::Ok();
}

bool SupportsGlobalPowerFallback(const HubSpokeDecomposition& dec) {
  return dec.h11.rows() == dec.n1 && dec.h11.cols() == dec.n1 &&
         dec.h22.rows() == dec.n2 && dec.h22.cols() == dec.n2;
}

namespace {

/// y = (I - H) x assembled blockwise from the stored partitions of the
/// reordered H (Equation (5); H13 = H23 = 0 and H33 = I, so the deadend
/// rows of I - H are exactly -[H31 H32 0]).
class BlockComplementOperator final : public LinearOperator {
 public:
  explicit BlockComplementOperator(const HubSpokeDecomposition& dec)
      : dec_(dec) {}

  index_t size() const override { return dec_.n; }

  void Apply(const Vector& x, Vector* y) const override {
    const std::size_t n1 = static_cast<std::size_t>(dec_.n1);
    const std::size_t n2 = static_cast<std::size_t>(dec_.n2);
    const std::size_t n3 = static_cast<std::size_t>(dec_.n3);
    const Vector x1(x.begin(), x.begin() + static_cast<std::ptrdiff_t>(n1));
    const Vector x2(x.begin() + static_cast<std::ptrdiff_t>(n1),
                    x.begin() + static_cast<std::ptrdiff_t>(n1 + n2));
    y->assign(x.size(), 0.0);
    // y1 = x1 - H11 x1 - H12 x2
    if (n1 > 0) {
      Vector y1 = x1;
      dec_.h11.MultiplyAdd(-1.0, x1, &y1);
      if (n2 > 0) dec_.h12.MultiplyAdd(-1.0, x2, &y1);
      std::copy(y1.begin(), y1.end(), y->begin());
    }
    // y2 = x2 - H21 x1 - H22 x2
    if (n2 > 0) {
      Vector y2 = x2;
      if (n1 > 0) dec_.h21.MultiplyAdd(-1.0, x1, &y2);
      dec_.h22.MultiplyAdd(-1.0, x2, &y2);
      std::copy(y2.begin(), y2.end(),
                y->begin() + static_cast<std::ptrdiff_t>(n1));
    }
    // y3 = -(H31 x1 + H32 x2)
    if (n3 > 0) {
      Vector y3(n3, 0.0);
      if (n1 > 0) dec_.h31.MultiplyAdd(-1.0, x1, &y3);
      if (n2 > 0) dec_.h32.MultiplyAdd(-1.0, x2, &y3);
      std::copy(y3.begin(), y3.end(),
                y->begin() + static_cast<std::ptrdiff_t>(n1 + n2));
    }
  }

 private:
  const HubSpokeDecomposition& dec_;
};

}  // namespace

Result<Vector> GlobalPowerFallback(const HubSpokeDecomposition& dec,
                                   const Vector& cq,
                                   const ResilientSolveOptions& options,
                                   QueryReport* report) {
  if (static_cast<index_t>(cq.size()) != dec.n) {
    return Status::InvalidArgument("power fallback rhs size mismatch");
  }
  if (!SupportsGlobalPowerFallback(dec)) {
    return Status::FailedPrecondition(
        "decomposition lacks H11/H22; global power fallback unavailable");
  }
  TraceSpan fallback_span("query.power_fallback");
  Timer hop_timer;
  BlockComplementOperator g_op(dec);
  FixedPointOptions fp;
  fp.tol = options.tol;
  fp.max_iters = options.max_iters;
  fp.cancel = options.cancel;
  SolveStats stats;
  BEPI_ASSIGN_OR_RETURN(Vector r, FixedPointIteration(g_op, cq, fp, &stats));
  Record(&fallback_span,
         MakeAttempt(StageName(Stage::kPower), stats, hop_timer.Seconds()),
         options.request_id, report);
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

real_t PowerScoreBound(const HubSpokeDecomposition& dec,
                       const SlicedVector& cq, const Vector& r,
                       real_t restart_prob) {
  // rho = c q - H r = c q - r + (I - H) r, through the stage's own operator.
  Vector y;
  BlockComplementOperator(dec).Apply(r, &y);
  const Vector c_q = Concat(cq);
  real_t norm1 = 0.0;
  for (std::size_t i = 0; i < r.size(); ++i) {
    norm1 += std::abs(c_q[i] - r[i] + y[i]);
  }
  return FullSystemScoreBound(norm1, restart_prob);
}

}  // namespace bepi
