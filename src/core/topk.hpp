// Top-k query options and the sup-norm score bound of approximate answers.
//
// A top-k request runs the same Algorithm 4 as a dense one — the Schur
// solve, then the dense back-substitution
//
//   r1 = U1^{-1} L1^{-1} (c q1 - H12 r2),   r3 = c q3 - H31 r1 - H32 r2
//
// — and ranks the full vector with core/rwr.hpp TopK, so exact-mode
// answers are the sorted dense solve by construction. What this header
// adds is the bound math: when the Schur solve stops early (eps mode, a
// cancelled partial answer), ScoreErrorBound turns the true Schur
// residual of the iterate into a bound on every score's error.
#ifndef BEPI_CORE_TOPK_HPP_
#define BEPI_CORE_TOPK_HPP_

#include <utility>
#include <vector>

#include "common/types.hpp"

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

/// Sup-norm bound on every score's error of an answer back-substituted
/// from a Schur iterate x, given the 1-norm of its true Schur residual
/// rho = q2~ - S x. Back-substitution solves the spoke and deadend rows
/// exactly, so the full residual c q - H r of the answer r is [0; rho; 0]
/// and its error is H^{-1} [0; rho; 0]. ||H^{-1}||_1 <= sum_t (1-c)^t =
/// 1/c because the columns of (1-c) A~^T sum to at most 1 - c (the
/// Neumann argument that also gives ||S^{-1}||_1 <= 1/c), so every score
/// is within ||rho||_1 / c of the truth. Includes rounding slack.
real_t ScoreErrorBound(real_t residual_norm1, real_t restart_prob);

}  // namespace bepi

#endif  // BEPI_CORE_TOPK_HPP_
