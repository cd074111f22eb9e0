#include "core/bepi.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>

#include "common/check.hpp"
#include "common/fileio.hpp"
#include "common/flightrec.hpp"
#include "common/log.hpp"
#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "common/sections.hpp"
#include "common/timer.hpp"
#include "common/trace.hpp"
#include "core/checkpoint.hpp"
#include "core/resilient.hpp"
#include "core/topk.hpp"
#include "engine/mc/mc.hpp"
#include "solver/gmres.hpp"
#include "sparse/io.hpp"

namespace bepi {

const char* BepiModeName(BepiMode mode) {
  switch (mode) {
    case BepiMode::kBasic:
      return "BePI-B";
    case BepiMode::kSparsified:
      return "BePI-S";
    case BepiMode::kPreconditioned:
      return "BePI";
  }
  return "BePI-?";
}

BepiSolver::BepiSolver(BepiOptions options) : options_(options) {
  effective_hub_ratio_ = options_.hub_ratio > 0.0
                             ? options_.hub_ratio
                             : (options_.mode == BepiMode::kBasic ? 0.001
                                                                  : 0.2);
}

std::string BepiSolver::name() const { return BepiModeName(options_.mode); }

Status BepiSolver::Preprocess(const Graph& g) {
  return Preprocess(g, /*checkpoints=*/nullptr);
}

Status BepiSolver::Preprocess(const Graph& g, CheckpointManager* checkpoints) {
  Timer total_timer;
  TraceSpan preprocess_span("preprocess");
  preprocess_span.Arg("nodes", g.num_nodes());
  preprocess_span.Arg("edges", g.num_edges());
  preprocessed_ = false;

  MemoryBudget budget(options_.memory_budget_bytes);
  DecompositionOptions dopts;
  dopts.restart_prob = options_.restart_prob;
  dopts.hub_ratio = effective_hub_ratio_;
  dopts.hub_selection = options_.hub_selection;
  dopts.cancel = options_.cancel;
  if (checkpoints != nullptr) {
    // Every option that shapes the decomposition goes into the fingerprint
    // tag, so checkpoints from a run with different parameters read as
    // stale and are recomputed instead of resumed.
    std::ostringstream tag;
    tag.precision(17);
    tag << "mode=" << static_cast<int>(options_.mode)
        << " c=" << dopts.restart_prob << " k=" << dopts.hub_ratio
        << " sel=" << static_cast<int>(dopts.hub_selection)
        << " sbmax=" << dopts.slashburn_max_iterations;
    checkpoints->Bind(PreprocessFingerprint(g, tag.str()));
  }
  BEPI_ASSIGN_OR_RETURN(dec_,
                        BuildDecomposition(g, dopts, &budget, checkpoints));

  info_ = BepiPreprocessInfo();
  info_.n1 = dec_.n1;
  info_.n2 = dec_.n2;
  info_.n3 = dec_.n3;
  info_.num_blocks = static_cast<index_t>(dec_.block_sizes.size());
  info_.slashburn_iterations = dec_.slashburn_iterations;
  info_.schur_nnz = dec_.schur.nnz();
  info_.h22_nnz = dec_.h22.nnz();
  info_.product_nnz = dec_.product_nnz;
  info_.reorder_seconds = dec_.reorder_seconds;
  info_.build_seconds = dec_.build_seconds;
  info_.factor_seconds = dec_.factor_seconds;
  info_.schur_seconds = dec_.schur_seconds;
  if (checkpoints != nullptr) {
    info_.checkpoint_seconds = dec_.checkpoint_seconds;
    info_.checkpoints_written = checkpoints->checkpoints_written();
    info_.checkpoints_resumed = checkpoints->checkpoints_resumed();
  }

  // The builder's matrices become the query phase's views, once: each is
  // converted to its final index width and released.
  const std::uint64_t schur_builder_bytes = dec_.schur.ByteSize();
  kernels_ = std::make_unique<DecompositionKernels>(
      TakeDecompositionKernels(&dec_, GlobalKernelPath()));
  ilu_.reset();
  // The decomposition's checkpoints are durable past this point; honour a
  // pending cancellation before the (unresumable) ILU factorization.
  if (options_.cancel != nullptr && options_.cancel->Expired()) {
    return options_.cancel->ToStatus("preprocess (ilu)");
  }
  if (options_.mode == BepiMode::kPreconditioned && dec_.n2 > 0) {
    Timer ilu_timer;
    TraceSpan ilu_span("preprocess.ilu0");
    ilu_span.Arg("schur_nnz", kernels_->schur.nnz());
    // Factoring holds an f64 copy of S's values beside the f32 factors:
    // within S's own footprint (paper Section 3.5).
    BEPI_RETURN_IF_ERROR(
        budget.Charge(schur_builder_bytes, "ILU(0) factors of S"));
    // The factors share S's pattern, on S's kernel path; only their values
    // are new.
    Result<Ilu0> ilu = Ilu0::Factor(kernels_->schur);
    if (ilu.ok()) {
      ilu_ = std::move(ilu).value();
    } else if (ilu.status().code() == StatusCode::kFailedPrecondition) {
      // Breakdown (zero/tiny pivot): continue without the ILU(0) factors
      // rather than failing preprocessing; the query-phase chain then
      // starts at jacobi+gmres.
      BEPI_LOG(Warning) << "ILU(0) breakdown, continuing unpreconditioned: "
                        << ilu.status().ToString();
      info_.ilu_skipped = true;
    } else {
      return ilu.status();
    }
    info_.ilu_seconds = ilu_timer.Seconds();
  }
  Publish();
  preprocess_seconds_ = total_timer.Seconds();
  return Status::Ok();
}

void BepiSolver::Publish() {
  inverse_perm_ = InversePermutation(dec_.perm);
  BEPI_LOG(Info) << "kernel path " << KernelPathName(kernels_->path) << " ("
                 << kernels_->reason << ")";
  if (MetricsEnabled()) {
    // 1 = compact, 0 = wide; alongside the log line this makes the chosen
    // path observable in scraped metrics.
    MetricsRegistry::Global()
        .GetGauge("model.kernel_path")
        ->Set(kernels_->path == KernelPath::kCompact ? 1.0 : 0.0);
  }
  preprocessed_ = true;
}

namespace {

/// y += alpha * A x over k row-major columns: the scalar kernel at k == 1
/// (so a width-1 solve runs exactly the scalar path, counters included),
/// the SpMM panel kernel otherwise — bit-identical per column either way.
void MultiplyAdd(const KernelCsr& a, real_t alpha, const Vector& x, index_t k,
                 Vector* y) {
  if (k == 1) {
    a.MultiplyAdd(alpha, x, y);
  } else {
    a.MultiplyAddMulti(alpha, x.data(), k, y->data());
  }
}

/// U1^{-1} (L1^{-1} x) over k row-major columns, same contract.
Vector ApplyH11Inverse(const DecompositionKernels& kern, const Vector& x,
                       index_t k) {
  if (k == 1) return kern.ApplyH11Inverse(x);
  Vector out(x.size()), tmp;
  kern.ApplyH11InverseMulti(x.data(), k, out.data(), &tmp);
  return out;
}

/// The vectors `cols`, all of one length, as the columns of a row-major
/// panel, releasing each; a single column is moved, not copied.
Vector PanelOf(const std::vector<Vector*>& cols) {
  if (cols.size() == 1) return std::move(*cols.front());
  const std::size_t kz = cols.size(), rows = cols.front()->size();
  Vector panel(rows * kz);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t q = 0; q < kz; ++q) panel[i * kz + q] = (*cols[q])[i];
  }
  for (Vector* col : cols) Vector().swap(*col);
  return panel;
}

/// Answers `request` without solving it when its token has already
/// expired and it takes no partial result: the token's Status, outcome
/// kCancelled. False (and `out` untouched) otherwise.
bool AnswerExpired(const QueryRequest& request, QueryResult* out) {
  const QueryControl& control = request.control;
  if (control.cancel == nullptr || control.allow_partial ||
      !control.cancel->Expired()) {
    return false;
  }
  out->status = control.cancel->ToStatus("query");
  out->stats.outcome = SolveOutcome::kCancelled;
  return true;
}

/// The Schur tolerance a request asks for: its eps (top-k eps mode, or
/// QueryControl::eps), 0 for the model's own.
real_t RequestEps(const QueryRequest& request) {
  return request.topk.k > 0 && request.topk.mode == TopKMode::kEps
             ? request.topk.eps
             : request.control.eps;
}

/// A width-1 Solve, unpacked: the request's stats land in `stats` (even
/// on failure — a cancelled query still reports its chain) and the
/// requested deliverable is returned.
template <typename T>
Result<T> SolveOne(const BepiSolver& solver, const QueryRequest& request,
                   GmresWorkspace* workspace, QueryStats* stats,
                   T QueryResult::*deliverable) {
  BEPI_ASSIGN_OR_RETURN(std::vector<QueryResult> results,
                        solver.Solve({&request, 1}, workspace));
  QueryResult& result = results.front();
  if (stats != nullptr) *stats = std::move(result.stats);
  if (!result.status.ok()) return result.status;
  return std::move(result.*deliverable);
}

}  // namespace

Result<Vector> BepiSolver::Query(index_t seed, QueryStats* stats) const {
  return Query(seed, stats, /*workspace=*/nullptr);
}

Result<Vector> BepiSolver::Query(index_t seed, QueryStats* stats,
                                 GmresWorkspace* workspace,
                                 const QueryControl& control) const {
  return SolveOne(*this, {seed, nullptr, {}, control}, workspace, stats,
                  &QueryResult::scores);
}

Result<Vector> BepiSolver::QueryVector(const Vector& q,
                                       QueryStats* stats) const {
  return SolveOne(*this, {0, &q, {}, {}}, /*workspace=*/nullptr, stats,
                  &QueryResult::scores);
}

Result<TopKResult> BepiSolver::QueryTopK(index_t seed, const TopKOptions& opts,
                                         QueryStats* stats,
                                         GmresWorkspace* workspace,
                                         const QueryControl& control) const {
  // k == 0 would ask Solve for the dense shape instead.
  return opts.k < 1
             ? Result<TopKResult>(Status::InvalidArgument(
                   "top_k must be >= 1, got " + std::to_string(opts.k)))
             : SolveOne(*this, {seed, nullptr, opts, control}, workspace, stats,
                        &QueryResult::topk);
}

Status BepiSolver::Validate(const QueryRequest& request) const {
  if (request.personalization != nullptr) {
    if (static_cast<index_t>(request.personalization->size()) != dec_.n) {
      return Status::InvalidArgument("personalization vector length mismatch");
    }
  } else if (request.seed < 0 || request.seed >= dec_.n) {
    return Status::OutOfRange("seed out of range");
  }
  const TopKOptions& topk = request.topk;
  if (topk.k != 0 && (topk.k < 1 || topk.k > dec_.n)) {
    return Status::InvalidArgument("top_k must be in [1, " +
                                   std::to_string(dec_.n) + "], got " +
                                   std::to_string(topk.k));
  }
  if (topk.k > 0 && topk.mode == TopKMode::kEps &&
      (!std::isfinite(topk.eps) || !(topk.eps > 0.0))) {
    return Status::InvalidArgument("eps must be finite and > 0");
  }
  return Status::Ok();
}

Vector BepiSolver::SchurRhs(const SlicedVector& cq) const {
  Vector q2_tilde = cq.v2;
  TraceSpan rhs_span("query.rhs_build");
  if (dec_.n1 > 0) {
    kernels_->h21.MultiplyAdd(-1.0, kernels_->ApplyH11Inverse(cq.v1),
                              &q2_tilde);
  }
  return q2_tilde;
}

void BepiSolver::BackSubstitute(std::vector<SlicedVector> cq,
                                std::vector<Vector> r2,
                                const std::vector<QueryResult*>& outs) const {
  const DecompositionKernels& kern = *kernels_;
  const index_t n1 = dec_.n1, n2 = dec_.n2, n3 = dec_.n3;
  // r1 = U1^{-1} (L1^{-1} (c q1 - H12 r2)),  r3 = c q3 - H31 r1 - H32 r2
  // (lines 5-6) over every column as one panel, top-k ones included; the
  // restart slices become r1's right-hand side and r3 in place.
  const index_t kd = static_cast<index_t>(outs.size());
  std::vector<Vector*> r2s, v1s, v3s;
  for (std::size_t j = 0; j < outs.size(); ++j) {
    r2s.push_back(&r2[j]);
    v1s.push_back(&cq[j].v1);
    v3s.push_back(&cq[j].v3);
  }
  SlicedVector r{kd, {}, PanelOf(r2s), PanelOf(v3s)};
  {
    TraceSpan backsub_span("query.back_substitution");
    if (n1 > 0) {
      Vector rhs1 = PanelOf(v1s);
      MultiplyAdd(kern.h12, -1.0, r.v2, kd, &rhs1);
      r.v1 = ApplyH11Inverse(kern, rhs1, kd);
    }
    if (n3 > 0) {
      if (n1 > 0) MultiplyAdd(kern.h31, -1.0, r.v1, kd, &r.v3);
      if (n2 > 0) MultiplyAdd(kern.h32, -1.0, r.v2, kd, &r.v3);
    }
  }
  if (kd == 1) {
    outs.front()->scores = Unslice(r, inverse_perm_);
    return;
  }
  std::vector<Vector> scores = UnsliceAll(r, dec_.perm);
  for (std::size_t q = 0; q < scores.size(); ++q) {
    outs[q]->scores = std::move(scores[q]);
  }
}

void BepiSolver::Finish(const QueryRequest& request, QueryReport report,
                        double seconds, real_t error_bound,
                        QueryResult* out) const {
  if (MetricsEnabled() && out->status.ok()) {
    BEPI_METRIC_COUNTER(queries, "query.count");
    BEPI_METRIC_COUNTER(hops, "query.fallback_hops");
    BEPI_METRIC_HISTOGRAM(latency, "query.latency_seconds");
    // Registered outside the conditionals so the keys exist in every
    // instrumented snapshot (the docs glossary cross-check relies on a
    // deterministic key set).
    BEPI_METRIC_COUNTER(cancelled, "query.cancelled");
    BEPI_METRIC_COUNTER(topk_queries, "topk.queries");
    queries->Increment();
    hops->Increment(static_cast<std::uint64_t>(report.fallback_hops()));
    latency->RecordAlways(seconds);
    if (report.final_outcome == SolveOutcome::kCancelled) {
      cancelled->Increment();
    }
    if (request.topk.k > 0) topk_queries->Increment();
  }
  QueryStats& stats = out->stats;
  stats.seconds = seconds;
  // `iterations` belongs to the attempt that produced the result;
  // `total_iterations` is derived from the full chain.
  stats.total_iterations = report.total_iterations();
  if (!report.attempts.empty()) {
    const SolveAttempt& producing = report.attempts.back();
    stats.iterations = producing.iterations;
    stats.residual = producing.residual;
    stats.outcome = producing.outcome;
    stats.error_bound = error_bound;
  }
  stats.report = std::move(report);
}

Result<std::vector<QueryResult>> BepiSolver::Solve(
    std::span<const QueryRequest> requests, GmresWorkspace* workspace) const {
  if (!preprocessed_) return Status::FailedPrecondition("Preprocess not called");
  // Everything below runs on the bound kernel views (compact or wide —
  // same results either way; see sparse/kernel.hpp).
  BEPI_CHECK(kernels_ != nullptr);
  const std::size_t k = requests.size();
  if (k <= kPanelWidth) return SolvePanel(requests, workspace);
  // Balanced panels, widths differing by at most one. Where the call can
  // fork, the panel count is a multiple of the pool width so the last
  // round leaves no worker idle, and each worker answers one contiguous
  // run of panels on one workspace.
  std::size_t panels = (k + kPanelWidth - 1) / kPanelWidth;
  std::size_t workers = 1;
  const ThreadPool* pool = ParallelContext::Global().pool();
  if (pool != nullptr && !ThreadPool::OnWorkerThread()) {
    workers = static_cast<std::size_t>(pool->size());
    panels = std::min(k, (panels + workers - 1) / workers * workers);
  }
  const index_t run =
      static_cast<index_t>(std::max<std::size_t>(1, panels / workers));
  std::vector<QueryResult> results(k);
  std::vector<Status> errors(panels);
  ParallelFor(0, static_cast<index_t>(panels), run,
              [&](index_t first, index_t last) {
    GmresWorkspace run_workspace;
    for (index_t p = first; p < last; ++p) {
      const std::size_t panel = static_cast<std::size_t>(p);
      const std::size_t begin = panel * k / panels;
      const std::size_t end = (panel + 1) * k / panels;
      Result<std::vector<QueryResult>> solved =
          SolvePanel(requests.subspan(begin, end - begin), &run_workspace);
      if (!solved.ok()) {
        errors[panel] = solved.status();
        continue;
      }
      std::move(solved->begin(), solved->end(), results.begin() + begin);
    }
  });
  for (const Status& error : errors) BEPI_RETURN_IF_ERROR(error);
  return results;
}

Result<std::vector<QueryResult>> BepiSolver::SolvePanel(
    std::span<const QueryRequest> requests, GmresWorkspace* workspace) const {
  std::vector<QueryResult> results(requests.size());
  std::vector<const QueryRequest*> valid;
  std::vector<QueryResult*> outs;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    // A request whose token has already expired is answered before any of
    // its work, so the rest of a span costs nothing once its deadline
    // passes or ^C arrives.
    if (AnswerExpired(requests[i], &results[i])) continue;
    results[i].status = Validate(requests[i]);
    if (!results[i].status.ok()) continue;
    valid.push_back(&requests[i]);
    outs.push_back(&results[i]);
  }
  if (valid.empty()) return results;
  Timer timer;
  TraceSpan query_span("query");
  const std::size_t k = valid.size();
  // Each request's restart and Schur right-hand side are built on their
  // own: a seed's restart holds one nonzero, so as a panel they would only
  // stream zeros. Columns share passes over the matrices in the Schur
  // solve and the dense back-substitution.
  std::vector<SlicedVector> cq(k);
  std::vector<Vector> b(k);
  std::vector<SchurColumn> columns(k);
  for (std::size_t j = 0; j < k; ++j) {
    cq[j] = dec_.SliceRestart(valid[j]->seed, valid[j]->personalization,
                              options_.restart_prob);
    b[j] = SchurRhs(cq[j]);
  }

  // Solve S r2 = q2~ for every column through the degradation chain
  // (line 4). An eps request truncates its column at its own tolerance;
  // the honest sup-norm consequence is computed from the true residual
  // below.
  for (std::size_t j = 0; j < k; ++j) {
    const QueryControl& control = valid[j]->control;
    const real_t eps = RequestEps(*valid[j]);
    SchurColumn& c = columns[j];
    c.b = &b[j];
    c.tol = eps > 0.0 ? eps : options_.tolerance;
    c.cancel = control.cancel;
    c.allow_partial = control.allow_partial;
    c.request_id = control.request_id;
    c.cq = &cq[j];
  }
  if (dec_.n2 > 0) {
    const TerminalStages terminal{&inverse_perm_, options_.restart_prob, mc_,
                                  mc_fallback_options_};
    const ResilientSolveOptions chain{options_.max_iterations,
                                      options_.gmres_restart,
                                      options_.inner_solver};
    BEPI_RETURN_IF_ERROR(ResilientSchurSolver(kernels_->schur,
                                              preconditioner(), chain,
                                              &terminal)
                             .Solve(columns, workspace));
  }

  // Each column's verdict. Those holding a Schur iterate back-substitute
  // together; the MC stage's full vector needs no back-substitution.
  std::vector<real_t> error_bounds(k, 0.0);
  std::vector<QueryResult*> solved_outs;
  std::vector<SlicedVector> solved_cq;
  std::vector<Vector> r2;
  for (std::size_t j = 0; j < k; ++j) {
    const QueryRequest& request = *valid[j];
    const QueryControl& control = request.control;
    SchurColumn& c = columns[j];
    QueryResult& out = *outs[j];
    out.coalesced = c.coalesced;
    const real_t eps = RequestEps(request);
    const bool ranked = request.topk.k > 0;
    const bool expired = c.status.code() == StatusCode::kCancelled ||
                         c.status.code() == StatusCode::kDeadlineExceeded;
    const bool cancelled = c.report.final_outcome == SolveOutcome::kCancelled;
    if (control.cancel != nullptr &&
        (expired || (c.status.ok() && cancelled && !control.allow_partial))) {
      // The deadline/cancellation fired and the caller did not opt into
      // partial results: surface the token's Status instead of a vector,
      // with honest stats — the cancelled attempt's residual is the error
      // bound of the iterate being discarded.
      out.status = control.cancel->ToStatus("query");
    } else if (!c.status.ok()) {
      out.status = c.status;
    } else if (c.full) {
      // The MC stage built the full reordered vector. Its walk half-width
      // is already a per-coordinate bound, owed when one was asked for.
      if (eps > 0.0 || ranked) {
        error_bounds[j] = c.report.attempts.back().residual;
      }
      if (ranked) out.topk.error_bound = error_bounds[j];
      out.scores =
          Unslice(SlicedVector{1, std::move(c.x), {}, {}}, inverse_perm_);
    } else {
      // A Schur iterate from any stage, Krylov or power. The honest eps-mode
      // bound is computed from the iterate the chain actually hands to
      // back-substitution, partial iterates included; an exact-mode partial
      // top-k reports the same residual-derived bound.
      if (eps > 0.0) error_bounds[j] = EpsErrorBound(*c.b, c.x);
      if (ranked) {
        out.topk.error_bound = error_bounds[j] == 0.0 && cancelled
                                   ? EpsErrorBound(*c.b, c.x)
                                   : error_bounds[j];
      }
      solved_outs.push_back(&out);
      solved_cq.push_back(std::move(cq[j]));
      r2.push_back(std::move(c.x));
    }
  }
  if (!solved_outs.empty()) {
    // Lines 5-7 over the columns a Schur stage answered.
    BackSubstitute(std::move(solved_cq), std::move(r2), solved_outs);
  }
  // A top-k request ranks its full vector and keeps only the ranking.
  for (std::size_t j = 0; j < k; ++j) {
    const TopKOptions& topk = valid[j]->topk;
    QueryResult& out = *outs[j];
    if (topk.k == 0 || !out.status.ok()) continue;
    TraceSpan topk_span("query.topk");
    out.topk.entries = TopK(out.scores, topk.k, topk.exclude);
    Vector().swap(out.scores);
  }
  if (k == 1) {
    // A single query's span carries its own trace context and chain.
    const QueryRequest& request = *valid.front();
    if (request.control.request_id != nullptr) {
      query_span.Arg("request_id", std::string(request.control.request_id));
    }
    query_span.Arg("fallback_hops", columns.front().report.fallback_hops());
    query_span.Arg("iterations", columns.front().report.total_iterations());
  } else {
    query_span.Arg("width", static_cast<index_t>(k));
  }
  const double seconds = timer.Seconds();
  for (std::size_t j = 0; j < k; ++j) {
    Finish(*valid[j], std::move(columns[j].report), seconds, error_bounds[j],
           outs[j]);
  }
  return results;
}

real_t BepiSolver::EpsErrorBound(const Vector& q2_tilde,
                                 const Vector& r2) const {
  if (dec_.n2 == 0) return 0.0;
  // One extra SpMV: the TRUE residual of the returned iterate (GMRES only
  // tracks the preconditioned recurrence residual), so the reported bound
  // never depends on the preconditioner being well-behaved.
  Vector rho(static_cast<std::size_t>(dec_.n2));
  kernels_->schur.ResidualInto(r2, q2_tilde, &rho);
  real_t norm1 = 0.0;
  for (real_t v : rho) norm1 += std::abs(v);
  return ScoreErrorBound(norm1, options_.restart_prob);
}

Status BepiSolver::AttachMcFallback(const McWalkEngine* engine,
                                    McFallbackOptions options) {
  if (engine != nullptr && preprocessed_ && engine->num_nodes() != dec_.n) {
    return Status::InvalidArgument(
        "mc fallback engine covers " + std::to_string(engine->num_nodes()) +
        " nodes but the model has " + std::to_string(dec_.n));
  }
  if (engine != nullptr && options.walks == 0) {
    return Status::InvalidArgument("mc fallback walk budget must be positive");
  }
  mc_ = engine;
  mc_fallback_options_ = options;
  return Status::Ok();
}

std::uint64_t BepiSolver::PreprocessedBytes() const {
  if (kernels_ == nullptr) return 0;
  // The query-phase views at their index widths — the same arrays whether
  // preprocessing built them or a load borrowed them from the file — plus
  // the permutation and its inverse, which a solver always owns.
  std::uint64_t bytes = kernels_->ByteSize();
  // The ILU(0) factors share S's pattern: only their values and lower
  // offsets are extra.
  if (ilu_.has_value()) bytes += ilu_->ByteSize();
  bytes += static_cast<std::uint64_t>(dec_.perm.size() + inverse_perm_.size()) *
           sizeof(index_t);
  return bytes;
}

namespace {

// Model format v8 (DESIGN.md §9): the checksummed framing of
// common/sections.hpp around raw little-endian arrays, each on a 64-byte
// file offset (its PayloadWriter, sparse/io.hpp's CSR codec, and
// core/decomposition.hpp's perm codec), so a load uses the matrices and
// the persisted ILU(0) factors in place instead of decoding or refactoring
// them. It holds what Algorithm 4 reads and nothing else.

/// The seven stored matrices in serialization order with their shapes in
/// terms of the partition sizes.
struct MatrixSpec {
  const char* name;
  KernelCsr DecompositionKernels::*member;
  index_t HubSpokeDecomposition::*rows;
  index_t HubSpokeDecomposition::*cols;
};

constexpr MatrixSpec kMatrixSpecs[] = {
    {"l1_inv", &DecompositionKernels::l1_inv, &HubSpokeDecomposition::n1,
     &HubSpokeDecomposition::n1},
    {"u1_inv", &DecompositionKernels::u1_inv, &HubSpokeDecomposition::n1,
     &HubSpokeDecomposition::n1},
    {"h12", &DecompositionKernels::h12, &HubSpokeDecomposition::n1,
     &HubSpokeDecomposition::n2},
    {"h21", &DecompositionKernels::h21, &HubSpokeDecomposition::n2,
     &HubSpokeDecomposition::n1},
    {"h31", &DecompositionKernels::h31, &HubSpokeDecomposition::n3,
     &HubSpokeDecomposition::n1},
    {"h32", &DecompositionKernels::h32, &HubSpokeDecomposition::n3,
     &HubSpokeDecomposition::n2},
    {"schur", &DecompositionKernels::schur, &HubSpokeDecomposition::n2,
     &HubSpokeDecomposition::n2},
};

/// Whether a v8 writer produces a section called `name`.
bool IsModelSection(std::string_view name) {
  for (const MatrixSpec& spec : kMatrixSpecs) {
    if (name == spec.name) return true;
  }
  for (std::string_view other : {"options", "perm", "ilu0", "kernel"}) {
    if (name == other) return true;
  }
  return false;
}

/// Where a non-v8 header came from, for the rejection message.
Status UnsupportedHeader(std::string_view header) {
  constexpr std::string_view kVersionPrefix = "BEPI-MODEL v";
  if (header.substr(0, kVersionPrefix.size()) == kVersionPrefix) {
    return Status::IoError(
        "BePI model format v" +
        std::string(header.substr(kVersionPrefix.size(), 16)) +
        " is not supported (this build reads v8): re-run `bepi_cli "
        "preprocess` on the graph to write a v8 model");
  }
  return Status::IoError("not a BePI model stream (bad header)");
}

/// The stages of a load, in order (BepiSolver::Load).
enum class LoadStep { kMap, kVerify, kValidate, kBind };

/// One stage of a load: a child span of `model.load` and, with metrics on,
/// the stage's model.load_seconds gauge.
class LoadStage {
 public:
  explicit LoadStage(LoadStep step)
      : step_(step), span_(kSpans[static_cast<int>(step)]) {}
  ~LoadStage() {
    if (!MetricsEnabled()) return;
    BEPI_METRIC_GAUGE(map, "model.load_seconds.map");
    BEPI_METRIC_GAUGE(verify, "model.load_seconds.verify");
    BEPI_METRIC_GAUGE(validate, "model.load_seconds.validate");
    BEPI_METRIC_GAUGE(bind, "model.load_seconds.bind");
    Gauge* const gauges[] = {map, verify, validate, bind};
    gauges[static_cast<int>(step_)]->Set(timer_.Seconds());
  }
  LoadStage(const LoadStage&) = delete;
  LoadStage& operator=(const LoadStage&) = delete;

 private:
  static constexpr const char* kSpans[] = {
      "model.load.map", "model.load.verify", "model.load.validate",
      "model.load.bind"};

  LoadStep step_;
  TraceSpan span_;
  Timer timer_;
};

}  // namespace

Status BepiSolver::Save(std::ostream& out) const {
  if (!preprocessed_) {
    return Status::FailedPrecondition("nothing to save: Preprocess not called");
  }
  SectionWriter writer(out, kModelMagic);
  {
    PayloadWriter options;
    options.U64(static_cast<std::uint64_t>(options_.mode));
    options.F64(options_.restart_prob);
    options.F64(options_.tolerance);
    options.U64(static_cast<std::uint64_t>(options_.max_iterations));
    options.U64(static_cast<std::uint64_t>(options_.gmres_restart));
    options.F64(effective_hub_ratio_);
    BEPI_RETURN_IF_ERROR(writer.Add("options", options.bytes()));
  }
  BEPI_RETURN_IF_ERROR(writer.Add("perm", EncodePerm(dec_)));
  for (const MatrixSpec& spec : kMatrixSpecs) {
    BEPI_RETURN_IF_ERROR(
        writer.Add(spec.name, EncodeMatrix(*kernels_.*spec.member)));
  }
  if (ilu_.has_value()) {
    // Only the values: the factors have exactly S's pattern (Section 3.5).
    // The f32 triangles (nnz(S) - n2), then the f64 pivots (n2).
    PayloadWriter ilu;
    ilu.Floats(ilu_->triangles().data(), ilu_->triangles().size());
    ilu.Reals(ilu_->pivots().data(), ilu_->pivots().size());
    BEPI_RETURN_IF_ERROR(writer.Add("ilu0", ilu.bytes()));
  }
  {
    // The resolved kernel path: 0 wide, 1 compact.
    PayloadWriter kernel;
    kernel.U64(kernels_->path == KernelPath::kCompact ? 1 : 0);
    BEPI_RETURN_IF_ERROR(writer.Add("kernel", kernel.bytes()));
  }
  BEPI_RETURN_IF_ERROR(writer.Finish());
  if (!out) return Status::IoError("failed writing BePI model stream");
  return Status::Ok();
}

Status BepiSolver::SaveFile(const std::string& path) const {
  AtomicFileWriter writer(path);
  BEPI_RETURN_IF_ERROR(writer.status());
  BEPI_RETURN_IF_ERROR(Save(writer.stream()));
  // Commit flushes, closes and checks the stream (the old plain-ofstream
  // path silently swallowed close-time errors), fsyncs, and renames into
  // place so a crash never leaves a torn model at `path` — and a solver
  // that mapped the old file keeps reading the old inode.
  return writer.Commit();
}

Result<BepiSolver> BepiSolver::Load(std::shared_ptr<const AlignedBytes> bytes) {
  const std::string_view model = bytes->view();
  if (model.empty()) return Status::IoError("empty BePI model stream");
  const std::string_view header = model.substr(0, model.find('\n'));
  if (header != kModelMagic) return UnsupportedHeader(header);

  // Verify: every section's checksum and the manifest, before any payload
  // is looked at.
  std::map<std::string, std::string_view> sections;
  {
    LoadStage stage(LoadStep::kVerify);
    BEPI_ASSIGN_OR_RETURN(SectionReader reader,
                          SectionReader::Open(model, kModelMagic));
    for (;;) {
      BEPI_ASSIGN_OR_RETURN(std::optional<Section> next, reader.Next());
      if (!next.has_value()) break;
      if (!IsModelSection(next->name)) {
        return Status::IoError("BePI model holds an unknown section '" +
                               next->name + "'");
      }
      if (!sections.emplace(next->name, next->payload).second) {
        return Status::DataLoss("BePI model holds section '" + next->name +
                                "' twice");
      }
    }
  }

  // Validate: every structural check, on the arrays in place.
  std::optional<LoadStage> stage;
  stage.emplace(LoadStep::kValidate);
  BepiOptions options;
  {
    BEPI_ASSIGN_OR_RETURN(const Section section,
                          FindSection(sections, "options"));
    PayloadReader in(section);
    const std::uint64_t mode = in.U64();
    options.restart_prob = in.F64();
    options.tolerance = in.F64();
    options.max_iterations = static_cast<index_t>(in.U64());
    options.gmres_restart = static_cast<index_t>(in.U64());
    options.hub_ratio = in.F64();
    BEPI_RETURN_IF_ERROR(in.Finish());
    if (mode > static_cast<std::uint64_t>(BepiMode::kPreconditioned)) {
      return in.Malformed("unknown mode " + std::to_string(mode));
    }
    // The query path trusts these: a negative iteration budget or restart
    // length would size GMRES scratch from garbage.
    if (!(options.restart_prob > 0.0 && options.restart_prob < 1.0) ||
        !(std::isfinite(options.tolerance) && options.tolerance > 0.0) ||
        options.max_iterations < 1 || options.gmres_restart < 1 ||
        !std::isfinite(options.hub_ratio)) {
      return in.Malformed("solver options out of range");
    }
    options.mode = static_cast<BepiMode>(mode);
  }
  BepiSolver solver(options);
  HubSpokeDecomposition& dec = solver.dec_;
  {
    BEPI_ASSIGN_OR_RETURN(const Section section,
                          FindSection(sections, "perm"));
    BEPI_RETURN_IF_ERROR(DecodePerm(section, &dec));
  }
  DecompositionKernels views;
  for (const MatrixSpec& spec : kMatrixSpecs) {
    BEPI_ASSIGN_OR_RETURN(const Section section,
                          FindSection(sections, spec.name));
    BEPI_ASSIGN_OR_RETURN(
        views.*spec.member,
        DecodeMatrixView(section, dec.*spec.rows, dec.*spec.cols, bytes));
  }
  // The factor values stay in the file; a preconditioned model without
  // them had ILU(0) break down at preprocess and loads unpreconditioned.
  const float* ilu_triangles = nullptr;
  const real_t* ilu_pivots = nullptr;
  if (sections.count("ilu0") != 0) {
    BEPI_ASSIGN_OR_RETURN(const Section section,
                          FindSection(sections, "ilu0"));
    PayloadReader in(section);
    if (options.mode != BepiMode::kPreconditioned || dec.n2 == 0) {
      return in.Malformed("ILU(0) factors, but section 'options' declares "
                          "no preconditioned Schur system");
    }
    const auto n2 = static_cast<std::uint64_t>(dec.n2);
    const auto nnz = static_cast<std::uint64_t>(views.schur.nnz());
    // Fewer nonzeros than rows: some row of S lacks its diagonal.
    if (nnz < n2) return in.Malformed("S lacks a diagonal entry");
    ilu_triangles = static_cast<const float*>(
        in.BorrowArray(nnz - n2, sizeof(float)));
    ilu_pivots = static_cast<const real_t*>(
        in.BorrowArray(n2, sizeof(real_t)));
    BEPI_RETURN_IF_ERROR(in.Finish());
    Result<Ilu0> ilu =
        Ilu0::FromFactors(views.schur, ilu_triangles, ilu_pivots, bytes);
    if (!ilu.ok()) return in.Malformed(ilu.status().message());
    solver.ilu_ = std::move(ilu).value();
  }
  KernelPath stored_path = KernelPath::kWide;
  {
    BEPI_ASSIGN_OR_RETURN(const Section section,
                          FindSection(sections, "kernel"));
    PayloadReader in(section);
    const std::uint64_t path = in.U64();
    BEPI_RETURN_IF_ERROR(in.Finish());
    if (path > 1) return in.Malformed("unknown kernel path");
    stored_path = path == 1 ? KernelPath::kCompact : KernelPath::kWide;
  }

  // Bind: the kernel path (the model's own unless --kernel/BEPI_KERNEL
  // forces one) and the inverse permutation.
  stage.emplace(LoadStep::kBind);
  const KernelPath forced = GlobalKernelPath();
  solver.kernels_ =
      std::make_unique<DecompositionKernels>(BindDecompositionKernels(
          std::move(views),
          forced == KernelPath::kAuto ? stored_path : forced));
  if (forced == KernelPath::kAuto && solver.kernels_->path == stored_path) {
    solver.kernels_->reason = "model records ";
    solver.kernels_->reason += KernelPathName(stored_path);
  }
  if (solver.ilu_.has_value() &&
      solver.ilu_->compact() != solver.kernels_->schur.compact()) {
    // A forced path converted S: the factors follow onto the converted
    // pattern.
    Result<Ilu0> rebound = Ilu0::FromFactors(
        solver.kernels_->schur, ilu_triangles, ilu_pivots, bytes);
    BEPI_RETURN_IF_ERROR(rebound.status());
    solver.ilu_ = std::move(rebound).value();
  }
  // Only the structural fields survive a round-trip; the timing breakdown
  // and H22/product counts belong to the original preprocessing run.
  solver.info_.n1 = dec.n1;
  solver.info_.n2 = dec.n2;
  solver.info_.n3 = dec.n3;
  solver.info_.schur_nnz = solver.kernels_->schur.nnz();
  solver.info_.ilu_skipped = options.mode == BepiMode::kPreconditioned &&
                             dec.n2 > 0 && !solver.ilu_.has_value();
  solver.Publish();
  return solver;
}

Result<BepiSolver> BepiSolver::Load(std::string_view model) {
  TraceSpan load_span("model.load");
  std::shared_ptr<const AlignedBytes> bytes;
  {
    LoadStage stage(LoadStep::kMap);
    bytes = CopyAligned(model);
  }
  return Load(std::move(bytes));
}

Result<BepiSolver> BepiSolver::Load(std::istream& in) {
  TraceSpan load_span("model.load");
  std::shared_ptr<const AlignedBytes> bytes;
  {
    LoadStage stage(LoadStep::kMap);
    BEPI_ASSIGN_OR_RETURN(bytes, ReadStreamAligned(in));
  }
  return Load(std::move(bytes));
}

Result<BepiSolver> BepiSolver::LoadFile(const std::string& path) {
  TraceSpan load_span("model.load");
  std::shared_ptr<const AlignedBytes> bytes;
  {
    // The mapping goes through the fileio.bit_flip fault site, exercising
    // checksum detection end to end.
    LoadStage stage(LoadStep::kMap);
    BEPI_ASSIGN_OR_RETURN(bytes, MapFile(path));
  }
  return Load(std::move(bytes));
}

}  // namespace bepi
