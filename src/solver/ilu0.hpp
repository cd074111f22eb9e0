// Incomplete LU factorization with zero fill-in, ILU(0): the factors keep
// exactly the sparsity pattern of the input (L strictly lower + unit diag,
// U upper). This is BePI's preconditioner for the Schur-complement system
// (Section 3.5 of the paper).
#ifndef BEPI_SOLVER_ILU0_HPP_
#define BEPI_SOLVER_ILU0_HPP_

#include <cstdint>
#include <memory>
#include <variant>
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
  /// are strictly diagonally dominant). The factors share a's pattern (no
  /// copy); only the values are new.
  static Result<Ilu0> Factor(const KernelCsr& a);
  /// The same over an owned 64-bit copy of a's pattern.
  static Result<Ilu0> Factor(const CsrMatrix& a);

  /// Adopts factors that Factor(a) computed earlier (a model's persisted
  /// "ilu0" section): `values` holds a.nnz() entries of combined factor
  /// storage over a's pattern, kept alive by `owner`. Locates the diagonal
  /// and checks every pivot as Factor does; no elimination runs.
  static Result<Ilu0> FromFactors(const KernelCsr& a, const real_t* values,
                                  std::shared_ptr<const void> owner);

  index_t size() const override { return factors_.rows(); }

  /// z = U^{-1} (L^{-1} r) by forward + backward substitution on the
  /// combined factor storage (no inversion; paper Appendix B).
  void Apply(const Vector& r, Vector* z) const override;

  /// The unit-lower factor L (diagonal stored explicitly as 1).
  CsrMatrix ExtractLower() const;
  /// The upper factor U.
  CsrMatrix ExtractUpper() const;

  /// Combined storage (the input matrix's pattern, the factor values).
  const KernelCsr& factors() const { return factors_; }

  /// Prepares the bandwidth-optimized Apply: puts the pattern on
  /// `requested`'s path (a converted copy only when its index width
  /// differs) and builds topological level schedules for the forward and
  /// backward substitutions (see solver/trisolve.hpp). Apply stays valid
  /// (serial) without it.
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
  /// Whether the pattern (and so Apply) uses 32-bit indices.
  bool compact() const { return factors_.compact(); }

  /// Factor storage (pattern and values), diagonal positions and level
  /// schedules.
  std::uint64_t ByteSize() const;

 private:
  Ilu0() = default;

  /// Factors over `pattern` with `values` (alive through `owner`), the
  /// diagonal of every row located (FailedPrecondition when one is
  /// structurally missing).
  static Result<Ilu0> OverPattern(const KernelCsr& pattern,
                                  const real_t* values,
                                  std::shared_ptr<const void> owner);
  /// Puts the pattern on `requested`'s path; diagonal positions follow.
  void SetPath(KernelPath requested);

  KernelCsr factors_;  // L below diagonal, U on/above
  /// Position of a_ii within row i, at the pattern's index width.
  std::variant<std::vector<std::uint32_t>, std::vector<index_t>> diag_pos_;

  // Kernel state (empty until EnableKernels / AdoptSchedules).
  LevelSchedule lower_levels_;
  LevelSchedule upper_levels_;
};

}  // namespace bepi

#endif  // BEPI_SOLVER_ILU0_HPP_
