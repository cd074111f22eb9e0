// Sparse triangular solves (forward/backward substitution) on CSR factors.
// These implement the paper's `L\F` / `U\B` operations (Appendix B): the
// preconditioner M^{-1} v = U2 \ (L2 \ v) is applied without ever inverting
// the ILU factors.
//
// Triangular solves are the serial bottleneck of the preconditioned query
// phase, so they also come in a level-scheduled parallel form: a
// LevelSchedule partitions the rows into topological levels (a row's level
// is one past the deepest level among the rows it depends on), rows within
// a level are mutually independent and execute in parallel via ParallelFor.
// Each row's accumulation order is unchanged, so the level-scheduled solve
// is bit-identical to the serial one at any thread count.
#ifndef BEPI_SOLVER_TRISOLVE_HPP_
#define BEPI_SOLVER_TRISOLVE_HPP_

#include <cstdint>
#include <vector>

#include "common/status.hpp"
#include "sparse/csr.hpp"
#include "sparse/kernel.hpp"

namespace bepi {

/// Topological level sets of a triangular dependency pattern. Rows are
/// grouped by level (CSR-like level_ptr/rows arrays) and stored ascending
/// within each level. Built once per factor at preprocessing time and
/// persisted in the model (core/bepi.cpp, "kernel" section).
class LevelSchedule {
 public:
  LevelSchedule() = default;

  /// Levels for a forward solve: row i depends on rows j < i present in
  /// its pattern (entries on or above the diagonal are ignored). Works on
  /// a standalone L or on combined ILU(0) factor storage.
  static LevelSchedule BuildLower(const KernelCsr& m);
  static LevelSchedule BuildLower(const CsrMatrix& m);
  /// Levels for a backward solve: row i depends on rows j > i.
  static LevelSchedule BuildUpper(const KernelCsr& m);
  static LevelSchedule BuildUpper(const CsrMatrix& m);

  /// Reassembles a schedule restored from a model. Validates the CSR-like
  /// invariants (monotone level_ptr covering rows, rows a permutation of
  /// 0..n-1); pattern consistency is checked separately via ValidFor.
  static Result<LevelSchedule> FromParts(std::vector<index_t> level_ptr,
                                         std::vector<index_t> rows);

  index_t num_rows() const { return static_cast<index_t>(rows_.size()); }
  index_t num_levels() const {
    return static_cast<index_t>(level_ptr_.size()) - 1;
  }
  const std::vector<index_t>& level_ptr() const { return level_ptr_; }
  const std::vector<index_t>& rows() const { return rows_; }

  /// True iff executing the levels in order respects every dependency of
  /// `m`'s pattern (`lower`: deps are cols < row; otherwise cols > row).
  /// Used to vet schedules loaded from a model before adopting them.
  bool ValidFor(const KernelCsr& m, bool lower) const;
  bool ValidFor(const CsrMatrix& m, bool lower) const;

  std::uint64_t ByteSize() const {
    return static_cast<std::uint64_t>(level_ptr_.size() + rows_.size()) *
           sizeof(index_t);
  }

 private:
  static LevelSchedule Build(const KernelCsr& m, bool lower);

  std::vector<index_t> level_ptr_{0};  // num_levels + 1 entries
  std::vector<index_t> rows_;          // grouped by level, ascending within
};

/// Solves L x = b where L is lower triangular in CSR. If `unit_diagonal`,
/// the diagonal is taken as 1 whether or not it is stored. With a non-null
/// `levels` (which must have been built for `l`), rows execute level by
/// level in parallel on the global ParallelContext; results are
/// bit-identical to the serial form.
Result<Vector> SolveLowerCsr(const CsrMatrix& l, const Vector& b,
                             bool unit_diagonal,
                             const LevelSchedule* levels = nullptr);

/// Solves U x = b where U is upper triangular in CSR.
Result<Vector> SolveUpperCsr(const CsrMatrix& u, const Vector& b,
                             const LevelSchedule* levels = nullptr);

/// True iff all stored entries are on or below (resp. above) the diagonal.
bool IsLowerTriangular(const CsrMatrix& m);
bool IsUpperTriangular(const CsrMatrix& m);

}  // namespace bepi

#endif  // BEPI_SOLVER_TRISOLVE_HPP_
