#include "solver/power.hpp"

#include <cmath>

#include "common/faultinject.hpp"
#include "common/metrics.hpp"

namespace bepi {
namespace {

/// Flushes per-solve totals to the registry on every exit path.
struct PowerMetricsFlush {
  const SolveStats* stats;
  ~PowerMetricsFlush() {
    if (!MetricsEnabled()) return;
    BEPI_METRIC_COUNTER(solves, "power.solves");
    BEPI_METRIC_COUNTER(iters, "power.iterations");
    solves->Increment();
    iters->Increment(static_cast<std::uint64_t>(stats->iterations));
  }
};

}  // namespace

Result<Vector> FixedPointIteration(const LinearOperator& g, const Vector& f,
                                   const FixedPointOptions& options,
                                   SolveStats* stats) {
  if (static_cast<index_t>(f.size()) != g.size()) {
    return Status::InvalidArgument("fixed-point rhs size mismatch");
  }
  SolveStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  *stats = SolveStats();
  PowerMetricsFlush metrics_flush{stats};

  Vector x = f;
  Vector next(f.size());
  if (BEPI_FAULT_INJECTED(fault_sites::kPowerStall)) {
    // Behaves exactly like a run whose budget expired before reaching tol:
    // callers see kBudgetExhausted and degrade to the walk stage.
    stats->relative_residual = 1.0;
    stats->outcome = SolveOutcome::kBudgetExhausted;
    return x;
  }
  for (index_t iter = 0; iter < options.max_iters; ++iter) {
    if (options.cancel != nullptr && options.cancel->Expired()) {
      stats->outcome = SolveOutcome::kCancelled;
      if (iter == 0) {
        // No iteration has run, so the stored residual (0) would claim a
        // converged iterate. Pay one apply for the honest bound of x = f.
        g.Apply(x, &next);
        for (std::size_t i = 0; i < f.size(); ++i) next[i] += f[i];
        stats->relative_residual = DistL2(next, x);
      }
      return x;
    }
    g.Apply(x, &next);
    for (std::size_t i = 0; i < f.size(); ++i) next[i] += f[i];
    const real_t delta = DistL2(next, x);
    stats->iterations = iter + 1;
    stats->relative_residual = delta;
    if (options.track_history) stats->residual_history.push_back(delta);
    if (!std::isfinite(delta)) {
      // Keep the pre-update iterate: `next` carries the non-finite values.
      stats->outcome = SolveOutcome::kDiverged;
      return x;
    }
    x.swap(next);
    if (delta <= options.tol) {
      stats->converged = true;
      stats->outcome = SolveOutcome::kConverged;
      return x;
    }
  }
  stats->converged = false;
  stats->outcome = SolveOutcome::kBudgetExhausted;
  return x;
}

}  // namespace bepi
