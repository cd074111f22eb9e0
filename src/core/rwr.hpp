// Public RWR solver interface shared by BePI and all baselines.
//
// Usage (see examples/quickstart.cpp):
//   bepi::BepiSolver solver(options);
//   solver.Preprocess(graph);                  // once per graph
//   bepi::Vector r = solver.Query(seed).value();  // once per seed
#ifndef BEPI_CORE_RWR_HPP_
#define BEPI_CORE_RWR_HPP_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.hpp"
#include "graph/graph.hpp"
#include "solver/outcome.hpp"
#include "sparse/csr.hpp"

namespace bepi {

/// Options common to every RWR method.
struct RwrOptions {
  /// Restart probability c. The paper (and this library's defaults
  /// throughout) uses 0.05.
  real_t restart_prob = 0.05;
  /// Error tolerance epsilon for iterative inner solvers.
  real_t tolerance = 1e-9;
  /// Iteration budget for iterative inner solvers.
  index_t max_iterations = 10000;
  /// Memory budget in bytes for preprocessed data (0 = unlimited).
  /// Preprocessing fails with ResourceExhausted when exceeded, mirroring
  /// the paper's out-of-memory runs.
  std::uint64_t memory_budget_bytes = 0;
};

/// How a resilient query ended: every solver stage that ran (in order)
/// and the verdict of the one that produced the returned vector. A
/// healthy query has exactly one attempt; each additional attempt is one
/// hop down the degradation chain (see core/resilient.hpp).
struct QueryReport {
  std::vector<SolveAttempt> attempts;
  SolveOutcome final_outcome = SolveOutcome::kConverged;

  /// Fallback hops taken (0 when the primary configuration succeeded).
  index_t fallback_hops() const {
    return attempts.empty() ? 0 : static_cast<index_t>(attempts.size()) - 1;
  }
  /// Inner iterations summed over every attempt in the chain. Derived on
  /// demand from `attempts` — never accumulated separately — so it cannot
  /// drift from (or double-count) the per-attempt records.
  index_t total_iterations() const;
  /// One line, e.g. "ilu0+gmres -> Stagnated (0 iters); power -> Converged
  /// (43 iters)".
  std::string Summary() const;
};

/// Per-query measurements.
struct QueryStats {
  double seconds = 0.0;
  /// Inner iterative-solver iterations of the attempt that produced the
  /// result (0 for direct methods).
  index_t iterations = 0;
  /// Inner iterations summed across every degradation-chain attempt;
  /// equals `iterations` when the primary configuration succeeded and is
  /// always >= it. Derived from `report` where one exists.
  index_t total_iterations = 0;
  /// Final relative residual of the inner solver (0 for direct methods).
  real_t residual = 0.0;
  /// Verdict of the solve that produced the result (direct methods and
  /// solvers without structured reporting leave kConverged).
  SolveOutcome outcome = SolveOutcome::kConverged;
  /// Sup-norm bound on the per-score error of the returned vector vs the
  /// true RWR solution, derived from the true Schur residual (see
  /// core/topk.hpp ScoreErrorBound). Only eps-mode queries
  /// (QueryControl::eps > 0 or TopKMode::kEps) fill it; 0 otherwise.
  real_t error_bound = 0.0;
  /// Degradation-chain trace (empty for solvers that do not report one).
  QueryReport report;
};

/// An RWR method: preprocess once, then answer per-seed queries. Seeds and
/// result vectors are in the graph's original node ids.
class RwrSolver {
 public:
  virtual ~RwrSolver() = default;

  virtual std::string name() const = 0;

  /// Builds the preprocessed data for `g`. Must be called before Query.
  virtual Status Preprocess(const Graph& g) = 0;

  /// RWR score vector w.r.t. `seed` (length = number of nodes).
  virtual Result<Vector> Query(index_t seed,
                               QueryStats* stats = nullptr) const = 0;

  /// Personalized PageRank: solves H r = c q for an arbitrary starting
  /// distribution q (length = number of nodes; typically non-negative and
  /// summing to 1). RWR is the special case q = e_seed [33].
  virtual Result<Vector> QueryVector(const Vector& q,
                                     QueryStats* stats = nullptr) const = 0;

  /// Bytes of preprocessed data this solver keeps for the query phase.
  virtual std::uint64_t PreprocessedBytes() const = 0;

  /// Wall-clock seconds spent in the last successful Preprocess call.
  double preprocess_seconds() const { return preprocess_seconds_; }

 protected:
  double preprocess_seconds_ = 0.0;
};

/// H = I - (1-c) * Ã^T for a graph (Equation (2) of the paper).
CsrMatrix BuildH(const Graph& g, real_t restart_prob);

/// H from an already-row-normalized adjacency matrix.
CsrMatrix BuildHFromNormalized(const CsrMatrix& normalized_adjacency,
                               real_t restart_prob);

/// Indicator vector of `seed` scaled by c (the RWR right-hand side).
Vector StartingVector(index_t num_nodes, index_t seed, real_t scale = 1.0);

/// Builds a normalized personalization vector from weighted seed nodes
/// (for Personalized PageRank). Weights must be positive; they are
/// normalized to sum to 1. Duplicate seeds accumulate.
Result<Vector> PersonalizationVector(
    index_t num_nodes,
    const std::vector<std::pair<index_t, real_t>>& weighted_seeds);

/// The k highest-scoring (node, score) pairs, descending by score
/// (ties by node id). Excludes `exclude` when >= 0 (typically the seed).
std::vector<std::pair<index_t, real_t>> TopK(const Vector& scores, index_t k,
                                             index_t exclude = -1);

/// ||H r - c q||_2 for a solved query: the exactness check used in tests.
real_t RwrResidual(const Graph& g, real_t restart_prob, index_t seed,
                   const Vector& r);

}  // namespace bepi

#endif  // BEPI_CORE_RWR_HPP_
