// Incomplete LU factorization with zero fill-in, ILU(0): the factors keep
// exactly the sparsity pattern of the input (L strictly lower + unit diag,
// U upper). This is BePI's preconditioner for the Schur-complement system
// (Section 3.5 of the paper).
//
// Mixed precision, grouped by triangle. The elimination runs in f64; the
// stored factors are its values rounded once to f32, L's strictly-lower
// values of every row in row order followed by U's strictly-upper values
// of every row, with U's diagonal (the pivots) kept in f64. Apply
// accumulates in f64 and divides by the f64 pivots. The preconditioner
// only steers GMRES: the residual GMRES stops on is S's, in f64, so the
// answers keep their accuracy. Both sweeps are bound by the bytes they
// pull through the cache, so each reads only its own triangle's values,
// one contiguous run per row (interleaved L\U rows would make each sweep
// pull the other triangle's values as well).
//
// The factors read the pattern of the matrix they were built over, at its
// index width: Factor over S's compact view gives compact factors.
#ifndef BEPI_SOLVER_ILU0_HPP_
#define BEPI_SOLVER_ILU0_HPP_

#include <cstdint>
#include <memory>
#include <span>
#include <variant>
#include <vector>

#include "common/status.hpp"
#include "solver/operator.hpp"
#include "sparse/csr.hpp"
#include "sparse/kernel.hpp"

namespace bepi {

class Ilu0 final : public Preconditioner {
 public:
  /// Computes the ILU(0) factors of `a`. Requires a structurally non-zero
  /// diagonal (guaranteed for the Schur complements arising from H, which
  /// are strictly diagonally dominant). The factors share a's pattern (no
  /// copy) at its index width; only the values are new.
  static Result<Ilu0> Factor(const KernelCsr& a);
  /// The same over an owned 64-bit copy of a's pattern.
  static Result<Ilu0> Factor(const CsrMatrix& a);

  /// The f64 elimination that Factor rounds: a's values overwritten by
  /// the combined factors (L's strictly-lower values left of each row's
  /// diagonal, U's values from it on), in a's pattern order.
  /// FailedPrecondition on a structurally missing diagonal or a zero/tiny
  /// pivot.
  static Result<std::vector<real_t>> Eliminate(const KernelCsr& a);

  /// Adopts factors that Factor(a) computed earlier (a model's persisted
  /// "ilu0" section): `triangles` holds the a.nnz() - a.rows() f32 values
  /// and `pivots` U's a.rows() diagonal entries, laid out as triangles()
  /// and pivots() return them and kept alive by `owner`. Locates the
  /// diagonal and checks every pivot as Factor does; no elimination runs.
  static Result<Ilu0> FromFactors(const KernelCsr& a, const float* triangles,
                                  const real_t* pivots,
                                  std::shared_ptr<const void> owner);

  index_t size() const override { return pattern_.rows(); }

  /// z = U^{-1} (L^{-1} r) by one forward and one backward substitution
  /// over the stored triangles (no inversion; paper Appendix B), serially
  /// on the calling thread at any thread count (DESIGN.md §11).
  void Apply(const Vector& r, Vector* z) const override;

  /// The unit-lower factor L (diagonal stored explicitly as 1), the
  /// stored values widened to f64.
  CsrMatrix ExtractLower() const;
  /// The upper factor U, likewise.
  CsrMatrix ExtractUpper() const;

  /// The stored f32 values: every row's strictly-lower values in row
  /// order, then every row's strictly-upper values in row order.
  std::span<const float> triangles() const {
    return {triangles_,
            static_cast<std::size_t>(pattern_.nnz() - pattern_.rows())};
  }
  /// U's diagonal, in f64.
  std::span<const real_t> pivots() const {
    return {pivots_, static_cast<std::size_t>(pattern_.rows())};
  }
  /// The pattern the factors share with their matrix (its values are the
  /// matrix's, not the factors').
  const KernelCsr& pattern() const { return pattern_; }

  /// Whether the pattern (and so Apply) uses 32-bit indices.
  bool compact() const { return pattern_.compact(); }

  /// Bytes one Apply streams under spmv.bytes' traffic model (the
  /// ilu0.bytes counter): the off-diagonal column indices at the
  /// pattern's width and the f32 values once, row_ptr and the lower
  /// offsets once per sweep, the f64 pivots, and r and z once each.
  std::uint64_t ApplyBytes() const;

  /// What the factors hold beside the shared pattern: the f32 triangles,
  /// the f64 pivots and the per-row lower offsets.
  std::uint64_t ByteSize() const;

 private:
  Ilu0() = default;

  /// Factors over `pattern` with the given values (alive through
  /// `owner`), every row's diagonal located (FailedPrecondition when one
  /// is structurally missing).
  static Result<Ilu0> OverPattern(const KernelCsr& pattern,
                                  const float* triangles,
                                  const real_t* pivots,
                                  std::shared_ptr<const void> owner);

  KernelCsr pattern_;
  /// Row i's lower values are triangles_[lower_begin[i], lower_begin[i+1]);
  /// its upper values start at lower_begin[n] + row_ptr[i] - i -
  /// lower_begin[i], and its diagonal sits at row_ptr[i] + lower_begin[i+1]
  /// - lower_begin[i] in the pattern. n + 1 prefix sums at the pattern's
  /// index width.
  std::variant<std::vector<std::uint32_t>, std::vector<index_t>> lower_begin_;
  const float* triangles_ = nullptr;
  const real_t* pivots_ = nullptr;
  std::shared_ptr<const void> values_owner_;
};

}  // namespace bepi

#endif  // BEPI_SOLVER_ILU0_HPP_
