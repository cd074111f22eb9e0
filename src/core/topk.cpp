#include "core/topk.hpp"

namespace bepi {
namespace {

/// Rounding slack on the derived bound: the bound arithmetic itself and
/// the kernel dot products it must dominate each round over a handful of
/// operations, so a relative pad of 1e-6 (plus a denormal-proof absolute
/// pad) keeps the bounds honest — true scores live many orders of
/// magnitude above 1e-280.
constexpr real_t kRelSlack = 1e-6;
constexpr real_t kAbsSlack = 1e-280;

inline real_t Pad(real_t v) { return v * (1.0 + kRelSlack) + kAbsSlack; }

}  // namespace

const char* TopKModeName(TopKMode mode) {
  return mode == TopKMode::kEps ? "eps" : "exact";
}

real_t ScoreErrorBound(real_t residual_norm1, real_t restart_prob) {
  return Pad(residual_norm1 / restart_prob);
}

}  // namespace bepi
