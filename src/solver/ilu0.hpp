// Incomplete LU factorization with zero fill-in, ILU(0): the factors keep
// exactly the sparsity pattern of the input (L strictly lower + unit diag,
// U upper). This is BePI's preconditioner for the Schur-complement system
// (Section 3.5 of the paper).
#ifndef BEPI_SOLVER_ILU0_HPP_
#define BEPI_SOLVER_ILU0_HPP_

#include <cstdint>
#include <vector>

#include "common/status.hpp"
#include "solver/operator.hpp"
#include "solver/trisolve.hpp"
#include "sparse/csr.hpp"
#include "sparse/kernel.hpp"

namespace bepi {

class Ilu0 final : public Preconditioner {
 public:
  /// Computes the ILU(0) factors of `a`. Requires a structurally non-zero
  /// diagonal (guaranteed for the Schur complements arising from H, which
  /// are strictly diagonally dominant).
  static Result<Ilu0> Factor(const CsrMatrix& a);

  /// Adopts factors that Factor(a) computed earlier (a model's persisted
  /// "ilu0" section): `values` is the combined factor storage over a's
  /// pattern. Locates the diagonal and checks every pivot as Factor does;
  /// no elimination runs.
  static Result<Ilu0> FromFactors(const CsrMatrix& a,
                                  std::vector<real_t> values);

  index_t size() const override { return factors_.rows(); }

  /// z = U^{-1} (L^{-1} r) by forward + backward substitution on the
  /// combined factor storage (no inversion; paper Appendix B).
  void Apply(const Vector& r, Vector* z) const override;

  /// The unit-lower factor L (diagonal stored explicitly as 1).
  CsrMatrix ExtractLower() const;
  /// The upper factor U.
  CsrMatrix ExtractUpper() const;

  /// Combined storage (same pattern as the input matrix).
  const CsrMatrix& factors() const { return factors_; }

  /// Prepares the bandwidth-optimized Apply: builds topological level
  /// schedules for the forward and backward substitutions (see
  /// solver/trisolve.hpp) and, when `requested` resolves to the compact
  /// path and the factors fit, uint32 copies of the index arrays. Called
  /// once after Factor; Apply stays valid (serial, wide) without it.
  void EnableKernels(KernelPath requested);

  /// Like EnableKernels but adopts schedules restored from a model instead
  /// of rebuilding them. Schedules that fail validation against the factor
  /// pattern are discarded and rebuilt; returns whether both were adopted.
  bool AdoptSchedules(LevelSchedule lower, LevelSchedule upper,
                      KernelPath requested);

  bool has_schedules() const {
    return lower_levels_.num_rows() == factors_.rows() && factors_.rows() > 0;
  }
  const LevelSchedule* lower_levels() const {
    return has_schedules() ? &lower_levels_ : nullptr;
  }
  const LevelSchedule* upper_levels() const {
    return has_schedules() ? &upper_levels_ : nullptr;
  }
  /// Whether Apply streams the 32-bit index sidecar.
  bool compact() const { return compact_; }

  /// Factor storage plus any kernel state owned on top of it (uint32 index
  /// sidecar, level schedules).
  std::uint64_t ByteSize() const;

 private:
  Ilu0() = default;

  /// Sets factors_ to a's pattern with `values` (only the pattern is
  /// copied) and locates the diagonal of every row (FailedPrecondition
  /// when one is structurally missing).
  static Result<Ilu0> WithPattern(const CsrMatrix& a,
                                  std::vector<real_t> values);

  void BindCompactSidecar(KernelPath requested);

  CsrMatrix factors_;              // L below diagonal, U on/above
  std::vector<index_t> diag_pos_;  // position of a_ii within row i

  // Kernel state (empty until EnableKernels / AdoptSchedules).
  LevelSchedule lower_levels_;
  LevelSchedule upper_levels_;
  bool compact_ = false;
  std::vector<std::uint32_t> row_ptr32_;
  std::vector<std::uint32_t> col_idx32_;
  std::vector<std::uint32_t> diag_pos32_;
};

}  // namespace bepi

#endif  // BEPI_SOLVER_ILU0_HPP_
