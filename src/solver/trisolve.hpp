// Sparse triangular solves (forward/backward substitution) on CSR factors:
// the paper's `L\F` / `U\B` operations (Appendix B), which apply a factor's
// inverse without forming it. SparseLu solves with them; the ILU(0)
// preconditioner has its own row loops over its f32 triangles
// (solver/ilu0.cpp).
//
// Both solves run serially, one row after another: each row reads rows
// solved before it, and on every graph measured that dependency chain
// leaves too little independent work per step for a thread pool to pay
// for its fork/join (DESIGN.md §11).
#ifndef BEPI_SOLVER_TRISOLVE_HPP_
#define BEPI_SOLVER_TRISOLVE_HPP_

#include "common/status.hpp"
#include "sparse/csr.hpp"

namespace bepi {

/// Solves L x = b where L is lower triangular in CSR. If `unit_diagonal`,
/// the diagonal is taken as 1 whether or not it is stored.
/// FailedPrecondition names the first row with a zero diagonal.
Result<Vector> SolveLowerCsr(const CsrMatrix& l, const Vector& b,
                             bool unit_diagonal);

/// Solves U x = b where U is upper triangular in CSR. FailedPrecondition
/// names the last row with a zero diagonal (the backward scan's first).
Result<Vector> SolveUpperCsr(const CsrMatrix& u, const Vector& b);

/// True iff all stored entries are on or below (resp. above) the diagonal.
bool IsLowerTriangular(const CsrMatrix& m);
bool IsUpperTriangular(const CsrMatrix& m);

}  // namespace bepi

#endif  // BEPI_SOLVER_TRISOLVE_HPP_
