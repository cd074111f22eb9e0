#include "core/topk.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/check.hpp"

namespace bepi {
namespace {

/// Rounding slack on every derived bound: the bound arithmetic itself and
/// the kernel dot products it must dominate each round over a handful of
/// operations, so a relative pad of 1e-6 (plus a denormal-proof absolute
/// pad) keeps the bounds honest — true scores live many orders of
/// magnitude above 1e-280.
constexpr real_t kRelSlack = 1e-6;
constexpr real_t kAbsSlack = 1e-280;

inline real_t Pad(real_t v) { return v * (1.0 + kRelSlack) + kAbsSlack; }

/// The largest absolute row sum of `m` over each run of consecutive rows,
/// `sizes[b]` rows for run b (the sup-norm amplification of each run's
/// output coordinates).
std::vector<real_t> MaxAbsRowSums(const KernelCsr& m,
                                  const std::vector<index_t>& sizes) {
  std::vector<real_t> maxima(sizes.size(), 0.0);
  const real_t* values = m.values();
  m.Visit([&](const auto* row_ptr, const auto*) {
    index_t r = 0;
    for (std::size_t b = 0; b < sizes.size(); ++b) {
      for (const index_t end = r + sizes[b]; r < end; ++r) {
        real_t s = 0.0;
        for (auto p = row_ptr[r]; p < row_ptr[r + 1]; ++p) {
          s += std::abs(values[p]);
        }
        maxima[b] = std::max(maxima[b], s);
      }
    }
  });
  return maxima;
}

}  // namespace

const char* TopKModeName(TopKMode mode) {
  return mode == TopKMode::kEps ? "eps" : "exact";
}

ScoreBoundCoefficients BuildScoreBoundCoefficients(
    const HubSpokeDecomposition& dec, const DecompositionKernels& kern) {
  // Preprocessing and every model load provide blocks that tile the
  // spokes.
  const std::vector<index_t>& blocks = dec.block_sizes;
  BEPI_CHECK(std::accumulate(blocks.begin(), blocks.end(), index_t{0}) ==
             dec.n1);
  const std::vector<real_t> au = MaxAbsRowSums(kern.u1_inv, blocks);
  const std::vector<real_t> al = MaxAbsRowSums(kern.l1_inv, blocks);
  const std::vector<real_t> a12 = MaxAbsRowSums(kern.h12, blocks);
  ScoreBoundCoefficients c;
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    c.r1_coeff_max = std::max(c.r1_coeff_max, au[b] * al[b] * a12[b]);
  }
  c.a31_max = MaxAbsRowSums(kern.h31, {kern.h31.rows()}).front();
  c.a32_max = MaxAbsRowSums(kern.h32, {kern.h32.rows()}).front();
  return c;
}

real_t ScoreErrorBound(const ScoreBoundCoefficients& coefficients,
                       real_t residual_norm1, real_t restart_prob) {
  // ||dr2||_inf <= ||S^{-1}||_1 ||rho||_1 <= ||rho||_1 / c: S^{-1} is the
  // hub-hub block of H^{-1}, and ||H^{-1}||_1 <= sum_t (1-c)^t = 1/c
  // because the columns of (1-c) A~^T sum to at most 1-c.
  const real_t err2 = residual_norm1 / restart_prob;
  // Propagated through back-substitution: dr1 = U1^{-1} L1^{-1} H12 dr2,
  // dr3 = H31 dr1 + H32 dr2, each bounded by the absolute row sums.
  const real_t err1 = coefficients.r1_coeff_max * err2;
  const real_t err3 =
      coefficients.a31_max * err1 + coefficients.a32_max * err2;
  return Pad(std::max(err2, std::max(err1, err3)));
}

real_t FullSystemScoreBound(real_t residual_norm1, real_t restart_prob) {
  return Pad(residual_norm1 / restart_prob);
}

}  // namespace bepi
