#include "solver/gmres.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.hpp"
#include "common/faultinject.hpp"
#include "common/metrics.hpp"

namespace bepi {
namespace {

/// Applies M^{-1} (identity when m is null).
void ApplyPrecond(const Preconditioner* m, const Vector& r, Vector* z) {
  if (m == nullptr) {
    *z = r;
  } else {
    m->Apply(r, z);
  }
}

/// The iteration state of one column; its buffers live in `ws`.
struct ColumnState {
  GmresColumn* col = nullptr;
  GmresWorkspace::Column* ws = nullptr;
  real_t b_norm = 0.0;
  real_t best_so_far = std::numeric_limits<real_t>::infinity();
  index_t total_iters = 0;
  index_t cycles = 0;
  index_t k = 0;        // Arnoldi step within the current cycle
  bool active = false;  // still iterating
  bool in_cycle = false;

  Vector& Basis(std::size_t i) {
    if (ws->basis.size() <= i) ws->basis.resize(i + 1);
    return ws->basis[i];
  }
  void Retire(SolveOutcome outcome) {
    col->stats.outcome = outcome;
    col->stats.iterations = total_iters;
    active = false;
    in_cycle = false;
  }
};

/// What one Gmres call shares across its columns.
struct Call {
  const LinearOperator& a;
  const GmresSettings& settings;
  const Preconditioner* m;
  index_t n;
  index_t restart;

  /// The reference norm ||M^{-1} b||, the trivial-solve and injected-fault
  /// exits, and fresh buffers for the first cycle.
  void Start(ColumnState* s) const {
    GmresColumn& c = *s->col;
    GmresWorkspace::Column& ws = *s->ws;
    c.x = c.x0 != nullptr ? *c.x0 : Vector(static_cast<std::size_t>(n), 0.0);
    c.stats = SolveStats();
    ApplyPrecond(m, *c.b, &ws.mb);
    s->b_norm = Norm2(ws.mb);
    if (s->b_norm == 0.0) {
      // A x = 0 has solution x = 0 (A is nonsingular in our usage).
      c.x.assign(static_cast<std::size_t>(n), 0.0);
      c.stats.converged = true;
      s->Retire(SolveOutcome::kConverged);
      return;
    }
    if (!std::isfinite(s->b_norm)) {
      s->Retire(SolveOutcome::kDiverged);
      return;
    }
    // Deterministic stagnation for resilience tests: pretend the residual
    // plateaued immediately, exactly as the detector below would report.
    if (BEPI_FAULT_INJECTED(fault_sites::kGmresStagnate)) {
      c.stats.relative_residual = std::numeric_limits<real_t>::infinity();
      s->Retire(SolveOutcome::kStagnated);
      return;
    }
    ws.best_rel.clear();
    if (settings.stagnation_window > 0) {
      ws.best_rel.reserve(static_cast<std::size_t>(
          std::min<index_t>(settings.max_iters, 100000)));
    }
    // Hessenberg matrix (column-major per Arnoldi step), Givens rotations
    // and the rotated rhs g: assign/resize reuse the capacity a previous
    // call left.
    const std::size_t mdim = static_cast<std::size_t>(restart);
    if (ws.h.size() < mdim + 1) ws.h.resize(mdim + 1);
    for (std::size_t i = 0; i < mdim + 1; ++i) ws.h[i].assign(mdim, 0.0);
    ws.cs.assign(mdim, 0.0);
    ws.sn.assign(mdim, 0.0);
    ws.g.assign(mdim + 1, 0.0);
    ws.tmp.resize(static_cast<std::size_t>(n));
    s->active = true;
  }

  /// The restart-cycle boundary: the budget and cancellation verdicts,
  /// then r = M^{-1}(b - A x) as the first basis vector of a new cycle.
  void BeginCycle(ColumnState* s) const {
    GmresColumn& c = *s->col;
    GmresWorkspace::Column& ws = *s->ws;
    if (s->total_iters >= settings.max_iters) {
      c.stats.converged = c.stats.relative_residual <= c.tol;
      s->Retire(c.stats.converged ? SolveOutcome::kConverged
                                  : SolveOutcome::kBudgetExhausted);
      return;
    }
    // Cancellation is honoured only here: the iterate is in a consistent
    // state. The handed-back iterate owes the caller an honest error
    // bound, and the stored residual is stale (it predates this cycle's
    // updates, and is 0 before the first cycle), so recompute it.
    if (c.cancel != nullptr && c.cancel->Expired()) {
      a.ApplyResidual(c.x, *c.b, &ws.raw);
      Vector& r0 = s->Basis(0);
      ApplyPrecond(m, ws.raw, &r0);
      c.stats.relative_residual = Norm2(r0) / s->b_norm;
      s->Retire(SolveOutcome::kCancelled);
      return;
    }
    ++s->cycles;
    Vector& r = s->Basis(0);
    if (s->cycles == 1 && c.x0 == nullptr) {
      // x = 0: every row of A·0 sums signed zeros to +0, so b - A·0 is b
      // bit for bit for any finite A, and r is the M^{-1} b Start holds.
      // (A non-finite A then diverges at the first Arnoldi step.)
      r.swap(ws.mb);
    } else {
      // ApplyResidual is the fused SpMV+axpy kernel for operators that
      // provide one; its contract (solver/operator.hpp) keeps the result
      // bitwise equal to the unfused Apply-then-subtract.
      a.ApplyResidual(c.x, *c.b, &ws.raw);
      ApplyPrecond(m, ws.raw, &r);
    }
    const real_t beta = Norm2(r);
    c.stats.relative_residual = beta / s->b_norm;
    if (!std::isfinite(beta)) {
      // The iterate itself is corrupted; report divergence rather than
      // handing back NaN as if it were a solution.
      s->Retire(SolveOutcome::kDiverged);
      return;
    }
    if (MetricsEnabled()) {
      // Registry-side residual history: the distribution of cycle-start
      // residuals across all solves.
      BEPI_METRIC_HISTOGRAM(cycle_residual, "gmres.cycle_start_residual");
      cycle_residual->RecordAlways(c.stats.relative_residual);
    }
    if (c.stats.relative_residual <= c.tol) {
      c.stats.converged = true;
      s->Retire(SolveOutcome::kConverged);
      return;
    }
    Scale(1.0 / beta, &r);  // r *is* basis slot 0
    std::fill(ws.g.begin(), ws.g.end(), 0.0);
    ws.g[0] = beta;
    s->k = 0;
    s->in_cycle = true;
  }

  /// The rest of Arnoldi step k once w = M^{-1} A v_k sits in basis slot
  /// k+1: orthogonalization (`h0k` is <w, v_1> when the operator already
  /// fused it), the Givens update, and at the cycle's end the update of x.
  void Step(ColumnState* s, const real_t* h0k) const {
    GmresColumn& c = *s->col;
    GmresWorkspace::Column& ws = *s->ws;
    const std::size_t k = static_cast<std::size_t>(s->k);
    std::vector<std::vector<real_t>>& h = ws.h;
    Vector& cs = ws.cs;
    Vector& sn = ws.sn;
    Vector& g = ws.g;
    const std::vector<Vector>& basis = ws.basis;
    Vector& w = ws.basis[k + 1];
    if (n > 0 && BEPI_FAULT_INJECTED(fault_sites::kGmresNan)) {
      w[0] = std::numeric_limits<real_t>::quiet_NaN();
      h0k = nullptr;  // the fused dot predates the NaN; recompute
    }
    for (std::size_t i = 0; i <= k; ++i) {
      const real_t hik = i == 0 && h0k != nullptr ? *h0k : Dot(w, basis[i]);
      h[i][k] = hik;
      Axpy(-hik, basis[i], &w);
    }
    const real_t hk1k = Norm2(w);
    if (!std::isfinite(hk1k)) {
      // A NaN/Inf entered the Krylov basis (degenerate operator or
      // preconditioner). x was last updated from a finite basis, so it
      // stays as the best available iterate.
      s->Retire(SolveOutcome::kDiverged);
      return;
    }
    h[k + 1][k] = hk1k;

    // Apply previous Givens rotations to the new Hessenberg column, then a
    // new rotation to annihilate h[k+1][k].
    for (std::size_t i = 0; i < k; ++i) {
      const real_t hi = h[i][k];
      const real_t hi1 = h[i + 1][k];
      h[i][k] = cs[i] * hi + sn[i] * hi1;
      h[i + 1][k] = -sn[i] * hi + cs[i] * hi1;
    }
    const real_t hkk = h[k][k];
    const real_t denom = std::hypot(hkk, hk1k);
    if (denom == 0.0) {
      cs[k] = 1.0;
      sn[k] = 0.0;
    } else {
      cs[k] = hkk / denom;
      sn[k] = hk1k / denom;
    }
    h[k][k] = cs[k] * hkk + sn[k] * hk1k;
    h[k + 1][k] = 0.0;
    const real_t gk = g[k];
    g[k] = cs[k] * gk;
    g[k + 1] = -sn[k] * gk;

    const real_t rel = std::fabs(g[k + 1]) / s->b_norm;
    if (settings.track_history) c.stats.residual_history.push_back(rel);
    if (!std::isfinite(rel)) {
      s->Retire(SolveOutcome::kDiverged);
      return;
    }
    const bool stagnation = Stagnated(s, rel);
    // An exact Arnoldi breakdown (hk1k == 0) zeroes the sine, hence g[k+1]
    // and rel, so the column converges here; w is never scaled by 1/0.
    const bool breakdown = hk1k == 0.0;
    if (rel <= c.tol || breakdown || stagnation || s->k + 1 == restart) {
      // Solve the (k+1)-dimensional upper triangular system H y = g and
      // update x = x + V y.
      const std::size_t dim = k + 1;
      ws.y.resize(dim);
      Vector& y = ws.y;
      for (std::size_t i = dim; i-- > 0;) {
        real_t sum = g[i];
        for (std::size_t j = i + 1; j < dim; ++j) sum -= h[i][j] * y[j];
        y[i] = h[i][i] != 0.0 ? sum / h[i][i] : 0.0;
      }
      for (std::size_t i = 0; i < dim; ++i) Axpy(y[i], basis[i], &c.x);
      ++s->total_iters;
      c.stats.relative_residual = rel;
      if (rel <= c.tol) {
        c.stats.converged = true;
        s->Retire(SolveOutcome::kConverged);
      } else if (stagnation) {
        s->Retire(SolveOutcome::kStagnated);
      } else {
        s->in_cycle = false;  // restart (or give up on the budget)
      }
      return;
    }
    Scale(1.0 / hk1k, &w);  // w *is* basis slot k+1
    ++s->k;
    ++s->total_iters;
    // Out of budget mid-cycle: the verdict is rendered at the boundary.
    if (s->total_iters >= settings.max_iters) s->in_cycle = false;
  }

  /// Whether the best residual improved by less than stagnation_rtol over
  /// the last stagnation_window steps.
  bool Stagnated(ColumnState* s, real_t rel) const {
    if (settings.stagnation_window <= 0) return false;
    std::vector<real_t>& best_rel = s->ws->best_rel;
    s->best_so_far = std::min(s->best_so_far, rel);
    best_rel.push_back(s->best_so_far);
    const std::size_t w = static_cast<std::size_t>(settings.stagnation_window);
    if (best_rel.size() <= w) return false;
    const real_t before = best_rel[best_rel.size() - 1 - w];
    return s->best_so_far > (1.0 - settings.stagnation_rtol) * before;
  }
};

}  // namespace

Status Gmres(const LinearOperator& a, std::span<GmresColumn> columns,
             const GmresSettings& settings, const Preconditioner* m,
             GmresWorkspace* workspace) {
  const index_t n = a.size();
  for (const GmresColumn& c : columns) {
    if (c.b == nullptr || static_cast<index_t>(c.b->size()) != n) {
      return Status::InvalidArgument("GMRES rhs size mismatch");
    }
    if (c.x0 != nullptr && static_cast<index_t>(c.x0->size()) != n) {
      return Status::InvalidArgument("GMRES initial guess size mismatch");
    }
  }
  if (m != nullptr && m->size() != n) {
    return Status::InvalidArgument("GMRES preconditioner size mismatch");
  }
  if (settings.restart < 1) {
    return Status::InvalidArgument("GMRES restart must be >= 1");
  }
  GmresWorkspace local_workspace;
  GmresWorkspace& ws = workspace != nullptr ? *workspace : local_workspace;
  if (ws.columns.size() < columns.size()) ws.columns.resize(columns.size());
  const Call call{a, settings, m, n, std::min<index_t>(settings.restart, n)};
  std::vector<ColumnState> states(columns.size());
  for (std::size_t j = 0; j < columns.size(); ++j) {
    states[j].col = &columns[j];
    states[j].ws = &ws.columns[j];
    call.Start(&states[j]);
  }

  // Each pass runs the boundary of every column whose cycle ended, then
  // one Arnoldi step of every column mid-cycle, until all have retired.
  std::vector<ColumnState*> stepping;
  std::uint64_t panel_steps = 0;
  for (;;) {
    stepping.clear();
    for (ColumnState& s : states) {
      if (s.active && !s.in_cycle) call.BeginCycle(&s);
      if (s.in_cycle) stepping.push_back(&s);
    }
    if (stepping.empty()) break;
    if (stepping.size() == 1) {
      // One column: the operator's own vector kernels. Unpreconditioned,
      // w is A v_k itself, so the first orthogonalization coefficient
      // <w, v_1> rides along with the SpMV (fused SpMV+dot); the
      // ApplyAndDot contract keeps it bitwise equal to the separate Dot.
      ColumnState& s = *stepping.front();
      const std::size_t k = static_cast<std::size_t>(s.k);
      Vector& w = s.Basis(k + 1);
      if (m == nullptr) {
        const real_t h0k = a.ApplyAndDot(s.ws->basis[k], s.ws->basis[0], &w);
        call.Step(&s, &h0k);
      } else {
        a.Apply(s.ws->basis[k], &s.ws->tmp);
        m->Apply(s.ws->tmp, &w);
        call.Step(&s, nullptr);
      }
      continue;
    }
    // One panel apply for every stepping column's newest basis vector.
    // Pack/unpack is pure data movement; the preconditioner applies per
    // column (triangular solves have no useful panel form).
    ++panel_steps;
    const std::size_t kw = stepping.size();
    const std::size_t nz = static_cast<std::size_t>(n);
    ws.panel_x.resize(nz * kw);
    ws.panel_y.resize(nz * kw);
    for (std::size_t j = 0; j < kw; ++j) {
      const ColumnState& s = *stepping[j];
      const Vector& v = s.ws->basis[static_cast<std::size_t>(s.k)];
      for (std::size_t i = 0; i < nz; ++i) ws.panel_x[i * kw + j] = v[i];
    }
    a.ApplyMulti(ws.panel_x.data(), static_cast<index_t>(kw),
                 ws.panel_y.data());
    for (std::size_t j = 0; j < kw; ++j) {
      ColumnState& s = *stepping[j];
      Vector& tmp = s.ws->tmp;
      for (std::size_t i = 0; i < nz; ++i) tmp[i] = ws.panel_y[i * kw + j];
      ApplyPrecond(m, tmp, &s.Basis(static_cast<std::size_t>(s.k) + 1));
      call.Step(&s, nullptr);
    }
  }

  if (MetricsEnabled()) {
    BEPI_METRIC_COUNTER(gmres_solves, "gmres.solves");
    BEPI_METRIC_COUNTER(gmres_iters, "gmres.iterations");
    BEPI_METRIC_COUNTER(gmres_cycles, "gmres.restart_cycles");
    BEPI_METRIC_COUNTER(block_steps, "block_gmres.panel_steps");
    std::uint64_t iters = 0, cycles = 0;
    for (const ColumnState& s : states) {
      iters += static_cast<std::uint64_t>(s.total_iters);
      cycles += static_cast<std::uint64_t>(s.cycles);
    }
    gmres_solves->Increment(static_cast<std::uint64_t>(states.size()));
    gmres_iters->Increment(iters);
    gmres_cycles->Increment(cycles);
    block_steps->Increment(panel_steps);
  }
  return Status::Ok();
}

Result<Vector> Gmres(const LinearOperator& a, const Vector& b,
                     const GmresOptions& options, SolveStats* stats,
                     const Preconditioner* m, const Vector* x0,
                     GmresWorkspace* workspace) {
  GmresColumn column;
  column.b = &b;
  column.x0 = x0;
  column.tol = options.tol;
  BEPI_RETURN_IF_ERROR(Gmres(a, {&column, 1}, options, m, workspace));
  if (stats != nullptr) *stats = std::move(column.stats);
  return std::move(column.x);
}

}  // namespace bepi
