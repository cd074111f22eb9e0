#include "sparse/csc.hpp"

#include "common/check.hpp"
#include "sparse/csr.hpp"

namespace bepi {

Result<CscMatrix> CscMatrix::FromParts(index_t rows, index_t cols,
                                       std::vector<index_t> col_ptr,
                                       std::vector<index_t> row_idx,
                                       std::vector<real_t> values) {
  CscMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.col_ptr_ = std::move(col_ptr);
  m.row_idx_ = std::move(row_idx);
  m.values_ = std::move(values);
  BEPI_RETURN_IF_ERROR(m.Validate());
  return m;
}

Vector CscMatrix::Multiply(const Vector& x) const {
  BEPI_CHECK(static_cast<index_t>(x.size()) == cols_);
  Vector y(static_cast<std::size_t>(rows_), 0.0);
  for (index_t c = 0; c < cols_; ++c) {
    const real_t xc = x[static_cast<std::size_t>(c)];
    if (xc == 0.0) continue;
    for (index_t p = col_ptr_[static_cast<std::size_t>(c)];
         p < col_ptr_[static_cast<std::size_t>(c) + 1]; ++p) {
      y[static_cast<std::size_t>(row_idx_[static_cast<std::size_t>(p)])] +=
          values_[static_cast<std::size_t>(p)] * xc;
    }
  }
  return y;
}

CsrMatrix CscMatrix::ToCsr() const {
  // A in CSC has the same arrays as A^T in CSR; transpose it back.
  CsrMatrix transposed;
  transposed.rows_ = cols_;
  transposed.cols_ = rows_;
  transposed.row_ptr_ = col_ptr_;
  transposed.col_idx_ = row_idx_;
  transposed.values_ = values_;
  return transposed.Transpose();
}

std::uint64_t CscMatrix::ByteSize() const {
  return static_cast<std::uint64_t>(col_ptr_.size()) * sizeof(index_t) +
         static_cast<std::uint64_t>(row_idx_.size()) * sizeof(index_t) +
         static_cast<std::uint64_t>(values_.size()) * sizeof(real_t);
}

Status CscMatrix::Validate() const {
  if (rows_ < 0 || cols_ < 0) {
    return Status::InvalidArgument("negative matrix dimension");
  }
  if (static_cast<index_t>(col_ptr_.size()) != cols_ + 1) {
    return Status::InvalidArgument("col_ptr has wrong length");
  }
  if (col_ptr_.front() != 0) {
    return Status::InvalidArgument("col_ptr must start at 0");
  }
  if (col_ptr_.back() != static_cast<index_t>(row_idx_.size()) ||
      row_idx_.size() != values_.size()) {
    return Status::InvalidArgument("nnz arrays inconsistent with col_ptr");
  }
  // Each column's range is checked before row_idx is read through it, as
  // in CsrMatrix::Validate.
  const auto nnz = static_cast<index_t>(row_idx_.size());
  for (index_t c = 0; c < cols_; ++c) {
    const index_t begin = col_ptr_[static_cast<std::size_t>(c)];
    const index_t end = col_ptr_[static_cast<std::size_t>(c) + 1];
    if (begin > end) return Status::InvalidArgument("col_ptr not monotone");
    if (end > nnz) return Status::InvalidArgument("col_ptr exceeds nnz");
    for (index_t p = begin; p < end; ++p) {
      const index_t r = row_idx_[static_cast<std::size_t>(p)];
      if (r < 0 || r >= rows_) {
        return Status::OutOfRange("row index out of range");
      }
      if (p > begin && row_idx_[static_cast<std::size_t>(p) - 1] >= r) {
        return Status::InvalidArgument(
            "row indices not sorted/unique within a column");
      }
    }
  }
  return Status::Ok();
}

}  // namespace bepi
