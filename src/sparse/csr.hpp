// Compressed sparse row matrix: the workhorse format for SpMV, SpGEMM and
// the RWR solvers.
#ifndef BEPI_SPARSE_CSR_HPP_
#define BEPI_SPARSE_CSR_HPP_

#include <cstdint>
#include <vector>

#include "common/status.hpp"
#include "common/types.hpp"
#include "sparse/dense.hpp"

namespace bepi {

class CscMatrix;

class CsrMatrix {
 public:
  CsrMatrix() : rows_(0), cols_(0), row_ptr_(1, 0) {}

  /// Builds from raw CSR arrays. row_ptr must have rows+1 entries; column
  /// indices within each row must be sorted and unique.
  static Result<CsrMatrix> FromParts(index_t rows, index_t cols,
                                     std::vector<index_t> row_ptr,
                                     std::vector<index_t> col_idx,
                                     std::vector<real_t> values);

  /// n x n identity.
  static CsrMatrix Identity(index_t n);

  /// Square matrix with the given diagonal.
  static CsrMatrix Diagonal(const Vector& diag);

  /// Empty (all-zero) matrix of the given shape.
  static CsrMatrix Zero(index_t rows, index_t cols);

  /// Dense -> sparse, dropping entries with |v| <= tol.
  static CsrMatrix FromDense(const DenseMatrix& dense, real_t tol = 0.0);

  DenseMatrix ToDense() const;

  index_t rows() const { return rows_; }
  index_t cols() const { return cols_; }
  index_t nnz() const { return static_cast<index_t>(values_.size()); }

  const std::vector<index_t>& row_ptr() const { return row_ptr_; }
  const std::vector<index_t>& col_idx() const { return col_idx_; }
  const std::vector<real_t>& values() const { return values_; }
  std::vector<real_t>& mutable_values() { return values_; }

  /// y = A x.
  Vector Multiply(const Vector& x) const;

  /// y = A x into a caller-owned vector (resized to rows()); the
  /// allocation-free form iterative solvers call per iteration.
  void MultiplyInto(const Vector& x, Vector* y) const;

  /// y += alpha * A x.
  void MultiplyAdd(real_t alpha, const Vector& x, Vector* y) const;

  /// Fused residual y = b - A x in one pass over the matrix; bitwise equal
  /// to MultiplyInto followed by the subtraction (see sparse/kernel.hpp).
  void ResidualInto(const Vector& x, const Vector& b, Vector* y) const;

  /// Fused y = A x returning dot(y, d); bitwise equal to MultiplyInto
  /// followed by Dot, at any thread count (see sparse/kernel.hpp).
  real_t MultiplyDot(const Vector& x, const Vector& d, Vector* y) const;

  /// y = A^T x (computed row-wise without forming the transpose).
  Vector MultiplyTranspose(const Vector& x) const;

  /// A^T as a new CSR matrix.
  CsrMatrix Transpose() const;

  CscMatrix ToCsc() const;

  /// Scales all values in place.
  void ScaleValues(real_t alpha);

  /// Row sums (out-degree totals for adjacency matrices).
  Vector RowSums() const;

  /// Entry lookup by binary search within the row; zero if absent.
  real_t At(index_t row, index_t col) const;

  /// Number of structural non-zeros in a given row.
  index_t RowNnz(index_t row) const { return row_ptr_[static_cast<std::size_t>(row) + 1] - row_ptr_[static_cast<std::size_t>(row)]; }

  /// Removes stored entries with |v| <= tol (explicit zeros by default).
  CsrMatrix Pruned(real_t tol = 0.0) const;

  /// Max absolute entry-wise difference; matrices must have equal shape.
  static real_t MaxAbsDiff(const CsrMatrix& a, const CsrMatrix& b);

  /// Approximate in-memory footprint of the CSR arrays in bytes.
  std::uint64_t ByteSize() const;

  /// Internal-consistency check (monotone row_ptr within nnz, sorted
  /// unique columns, in-range indices). Safe on arbitrary arrays: used by
  /// tests and after deserialization.
  Status Validate() const;

 private:
  friend class CooMatrix;
  friend class CscMatrix;

  index_t rows_, cols_;
  std::vector<index_t> row_ptr_;
  std::vector<index_t> col_idx_;
  std::vector<real_t> values_;
};

}  // namespace bepi

#endif  // BEPI_SPARSE_CSR_HPP_
