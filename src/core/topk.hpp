// Top-k query options and the sup-norm score bounds of approximate answers.
//
// A top-k request runs the same Algorithm 4 as a dense one — the Schur
// solve, then the dense back-substitution
//
//   r1 = U1^{-1} L1^{-1} (c q1 - H12 r2),   r3 = c q3 - H31 r1 - H32 r2
//
// — and ranks the full vector with core/rwr.hpp TopK, so exact-mode
// answers are the sorted dense solve by construction. What this header
// adds is the bound math: when the Schur solve stops early (eps mode, a
// cancelled partial answer), the error of the hub scores r2 propagates
// through those two lines, and ScoreBoundCoefficients holds the
// amplification factors that bound every score's error from the Schur
// residual.
#ifndef BEPI_CORE_TOPK_HPP_
#define BEPI_CORE_TOPK_HPP_

#include <utility>
#include <vector>

#include "core/decomposition.hpp"

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
/// node ids, descending by score with ties broken by node id — core/rwr.hpp
/// TopK of the full solve.
struct TopKResult {
  std::vector<std::pair<index_t, real_t>> entries;
  /// Sup-norm bound on |returned - true| per score. 0 in exact mode (the
  /// scores are the full solve's scores); in eps mode the honest
  /// residual-derived bound crosscheck verifies against the MC oracle.
  real_t error_bound = 0.0;
};

/// How far back-substitution can amplify an error in the hub scores r2,
/// from absolute row sums of the back-substitution matrices. Built once
/// per model (one O(nnz) pass); all nonnegative.
struct ScoreBoundCoefficients {
  /// max over the diagonal blocks b of H11 of the product of the largest
  /// absolute row sums of U1^{-1}, L1^{-1} and H12 over b's rows (L1^{-1}
  /// and U1^{-1} are block diagonal, so a row of r1 reads only its own
  /// block): ||dr1||_inf <= r1_coeff_max * ||dr2||_inf.
  real_t r1_coeff_max = 0.0;
  /// The largest absolute row sums of H31 and H32.
  real_t a31_max = 0.0, a32_max = 0.0;
};

/// The coefficients of the views in `kern`, with dec's spoke block layout.
ScoreBoundCoefficients BuildScoreBoundCoefficients(
    const HubSpokeDecomposition& dec, const DecompositionKernels& kern);

/// Sup-norm bound on the full score vector's error given the 1-norm of the
/// true Schur residual rho = q2~ - S r2: ||S^{-1}||_1 <= 1/c for RWR
/// (S^{-1} is a submatrix of H^{-1} whose Neumann series sums to 1/c), so
/// ||dr2||_inf <= ||rho||_1 / c, amplified through the back-substitution
/// rows by the coefficients. Includes rounding slack.
real_t ScoreErrorBound(const ScoreBoundCoefficients& coefficients,
                       real_t residual_norm1, real_t restart_prob);

/// Sup-norm per-score bound from the 1-norm of the true FULL-system
/// residual rho = c q - H r (all n rows, reordered): err = H^{-1} rho and
/// ||H^{-1}||_1 <= 1/c by the same Neumann argument, so every score is
/// within ||rho||_1 / c of the truth. Used for terminal-stage (power)
/// answers, whose scalar solver residual is not a per-score bound.
/// Includes rounding slack.
real_t FullSystemScoreBound(real_t residual_norm1, real_t restart_prob);

}  // namespace bepi

#endif  // BEPI_CORE_TOPK_HPP_
