// Top-k query machinery for BePI (ROADMAP item 2): exact top-k with
// pruned back-substitution, and the bound tables both the pruning and the
// eps-mode error reporting are built on.
//
// After the Schur solve converges, the hub scores r2 are known exactly
// (they ARE the values the dense path returns verbatim), while the spoke
// and deadend scores still cost a full back-substitution:
//
//   r1 = U1^{-1} L1^{-1} (c q1 - H12 r2),   r3 = c q3 - H31 r1 - H32 r2.
//
// H11 is block diagonal, so row i of r1 (in diagonal block b) depends only
// on block b's rows of H12/L1^{-1}/U1^{-1} — and its magnitude is bounded
// by per-row/per-block absolute row sums times ||r2||_inf, all computed
// once per model. Nodes whose upper bound falls below the k-th largest
// lower bound provably cannot enter the top k and their rows are never
// touched; the surviving candidate rows are computed with the *same
// per-row dot-product loops* (sparse/kernel.hpp RowDot order) the dense
// SpMV kernels use, so every returned score is byte-identical to the full
// solve at any kernel path and thread count.
#ifndef BEPI_CORE_TOPK_HPP_
#define BEPI_CORE_TOPK_HPP_

#include <cstdint>
#include <utility>
#include <vector>

#include "core/decomposition.hpp"
#include "sparse/permute.hpp"

namespace bepi {

/// How a top-k query trades accuracy for work.
///   kExact: the Schur solve runs at the model's tolerance and the
///           returned scores are byte-identical (%.17g) to sorting the
///           full dense solve.
///   kEps:   the Schur solve stops at a user-supplied residual tolerance
///           and the reply carries an explicit residual-derived sup-norm
///           error bound on every score.
enum class TopKMode { kExact, kEps };

const char* TopKModeName(TopKMode mode);

/// Per-query top-k request. `k` must be in [1, n]; `eps` must be finite
/// and > 0 when mode is kEps (ignored otherwise). `exclude`, when >= 0,
/// drops that node (typically the seed, matching the serve path's
/// TopK(scores, k, seed) rendering) from the ranking.
struct TopKOptions {
  index_t k = 0;
  TopKMode mode = TopKMode::kExact;
  real_t eps = 0.0;
  index_t exclude = -1;
};

/// A ranked answer: the k highest-scoring (node, score) pairs in original
/// node ids, descending by score with ties broken by node id — the exact
/// comparator of core/rwr.hpp TopK, so exact-mode results compare equal to
/// TopK(full solve).
struct TopKResult {
  std::vector<std::pair<index_t, real_t>> entries;
  /// Sup-norm bound on |returned - true| per score. 0 in exact mode (the
  /// scores are the full solve's scores); in eps mode the honest
  /// residual-derived bound crosscheck verifies against the MC oracle.
  real_t error_bound = 0.0;
  /// True when the pruned back-substitution answered the query; false when
  /// it degraded to a full solve + sort (fallback hops, cancellation, the
  /// BiCGSTAB ablation solver, or a power/MC stage that produced the full
  /// vector anyway).
  bool pruned = false;
  /// Rows whose exact score the pruned path computed (block-2 rows are
  /// free and not counted) vs rows it proved could not enter the top k.
  index_t candidates = 0;
  index_t pruned_rows = 0;
  /// Matrix bytes streamed by the pruned back-substitution under the same
  /// traffic model as spmv.bytes (indices + values of touched rows, the
  /// operand reads, the output writes). The dense equivalent is
  /// DenseBackSubstitutionBytes below; bench_topk plots the ratio.
  std::uint64_t bytes_touched = 0;
};

/// Absolute-row-sum tables used by both the pruning bounds and the eps
/// error propagation. Built once per model (O(nnz) pass over the
/// back-substitution matrices); all entries are nonnegative.
struct TopKBoundTables {
  /// Per block-1 row: sum_j |U1^{-1}[i,j]| and sum_j |H12[i,j]|.
  std::vector<real_t> au, a12;
  /// Per diagonal block b of H11: max over the block's rows of
  /// sum_j |L1^{-1}[i,j]| and of a12 (the within-block sup amplification).
  std::vector<real_t> block_al_max, block_a12_max;
  /// Per block-3 row: sum_j |H31[i,j]| and sum_j |H32[i,j]|.
  std::vector<real_t> a31, a32;
  /// Block-1 row -> diagonal block id, and block id -> first row.
  std::vector<index_t> row_block;
  std::vector<index_t> block_start;
  /// max_b (max_{i in b} au[i]) * block_al_max[b] * block_a12_max[b]:
  /// ||r1 correction||_inf <= r1_coeff_max * ||r2||_inf.
  real_t r1_coeff_max = 0.0;
  real_t a31_max = 0.0, a32_max = 0.0;

  /// Upper bound (with rounding slack) on |r1_i| for any row i of block b
  /// given ||r2||_inf, excluding the c*q1 seed contribution.
  real_t R1RowBound(index_t row, real_t r2_max) const;
};

/// The tables of the views in `kern`, with dec's spoke block layout.
TopKBoundTables BuildTopKBoundTables(const HubSpokeDecomposition& dec,
                                     const DecompositionKernels& kern);

/// Sup-norm bound on the full score vector's error given the 1-norm of the
/// true Schur residual rho = q2~ - S r2: ||S^{-1}||_1 <= 1/c for RWR
/// (S^{-1} is a submatrix of H^{-1} whose Neumann series sums to 1/c), so
/// ||dr2||_inf <= ||rho||_1 / c, amplified through the back-substitution
/// rows by the table coefficients. Includes rounding slack.
real_t ScoreErrorBound(const TopKBoundTables& tables, real_t residual_norm1,
                       real_t restart_prob);

/// Sup-norm per-score bound from the 1-norm of the true FULL-system
/// residual rho = c q - H r (all n rows, reordered): err = H^{-1} rho and
/// ||H^{-1}||_1 <= 1/c by the same Neumann argument, so every score is
/// within ||rho||_1 / c of the truth. Used for terminal-stage (power)
/// answers, whose scalar solver residual is not a per-score bound.
/// Includes rounding slack.
real_t FullSystemScoreBound(real_t residual_norm1, real_t restart_prob);

/// Pruned back-substitution over a converged (or eps-truncated) Schur
/// iterate `r2`, on the views in `kern` (dec supplies the partition sizes
/// and the permutation). `cq1`/`cq3` are the scaled start-vector slices in
/// reordered ids (the same vectors the dense path back-substitutes). The
/// views' index width sets the 4- vs 8-byte index cost in the bytes
/// accounting only — the arithmetic is identical on both kernel paths.
/// `opts.k` must be >= 1; `opts.exclude` is an ORIGINAL node id.
/// `score_bound` is carried into TopKResult::error_bound (0 for exact).
/// Registers and bumps the topk.* metric counters.
TopKResult PrunedTopK(const HubSpokeDecomposition& dec,
                      const DecompositionKernels& kern,
                      const TopKBoundTables& tables,
                      const Permutation& inverse_perm, const Vector& cq1,
                      const Vector& cq3, const Vector& r2, real_t score_bound,
                      const TopKOptions& opts);

/// Bytes the dense back-substitution streams under the spmv.bytes traffic
/// model (every row of H12, L1^{-1}, U1^{-1}, H31, H32 plus the dense
/// operands): the baseline bench_topk compares bytes_touched against.
std::uint64_t DenseBackSubstitutionBytes(const DecompositionKernels& kern,
                                         bool compact_path);

/// Records a top-k query answered through the dense full-solve path
/// (degradation chain engaged, ablation solver, partial results):
/// registers the full topk.* counter set and bumps topk.queries and
/// topk.dense_fallbacks.
void CountTopKDenseFallback();

}  // namespace bepi

#endif  // BEPI_CORE_TOPK_HPP_
