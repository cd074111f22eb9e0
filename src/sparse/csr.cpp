#include "sparse/csr.hpp"

#include <algorithm>
#include <cmath>

#include <functional>

#include "common/check.hpp"
#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "sparse/csc.hpp"
#include "sparse/kernel.hpp"

namespace bepi {
namespace {

/// One relaxed-atomic bump per SpMV call (never per non-zero): calls and
/// useful FLOPs (one multiply + one add per stored entry). With metrics
/// disabled this is a single predictable branch inside Increment.
inline void CountSpmv(index_t nnz) {
  if (!MetricsEnabled()) return;  // the whole disabled-path cost
  BEPI_METRIC_COUNTER(spmv_calls, "spmv.calls");
  BEPI_METRIC_COUNTER(spmv_flops, "spmv.flops");
  spmv_calls->Increment();
  spmv_flops->Increment(2 * static_cast<std::uint64_t>(nnz));
}

/// Matrices below this many non-zeros are not worth farming out.
constexpr index_t kSpmvGrainNnz = 16384;

/// Runs rows_fn over row ranges with nnz-balanced static chunking: chunk
/// boundaries are the rows closest to equal shares of the non-zeros
/// (binary search on row_ptr), so one hub row with a million entries does
/// not serialize the whole product. Row-partitioned SpMV is bit-identical
/// at any thread count — each output row keeps its in-row accumulation
/// order — so this needs no determinism machinery beyond row ownership.
/// Serial when the pool is off, we are already on a pool worker (nested),
/// or the matrix is small.
void ParallelOverRows(const std::vector<index_t>& row_ptr, index_t rows,
                      index_t nnz,
                      const std::function<void(index_t, index_t)>& rows_fn) {
  ThreadPool* pool = ParallelContext::Global().pool();
  if (pool == nullptr || ThreadPool::OnWorkerThread() || rows < 2 ||
      nnz < 2 * kSpmvGrainNnz) {
    rows_fn(0, rows);
    return;
  }
  const index_t chunks =
      std::min<index_t>(static_cast<index_t>(4 * pool->size()),
                        std::max<index_t>(1, nnz / kSpmvGrainNnz));
  TaskGroup group(pool);
  index_t row = 0;
  for (index_t c = 1; c <= chunks && row < rows; ++c) {
    index_t row_end = rows;
    if (c < chunks) {
      const index_t target = nnz / chunks * c;
      row_end = static_cast<index_t>(
          std::lower_bound(row_ptr.begin() + row, row_ptr.end(), target) -
          row_ptr.begin());
      row_end = std::min(std::max(row_end, row + 1), rows);
    }
    const index_t b = row, e = row_end;
    group.Run([&rows_fn, b, e] { rows_fn(b, e); });
    row = row_end;
  }
  group.Wait();
}

}  // namespace

Result<CsrMatrix> CsrMatrix::FromParts(index_t rows, index_t cols,
                                       std::vector<index_t> row_ptr,
                                       std::vector<index_t> col_idx,
                                       std::vector<real_t> values) {
  CsrMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.row_ptr_ = std::move(row_ptr);
  m.col_idx_ = std::move(col_idx);
  m.values_ = std::move(values);
  BEPI_RETURN_IF_ERROR(m.Validate());
  return m;
}

CsrMatrix CsrMatrix::Identity(index_t n) {
  CsrMatrix m;
  m.rows_ = m.cols_ = n;
  m.row_ptr_.resize(static_cast<std::size_t>(n) + 1);
  m.col_idx_.resize(static_cast<std::size_t>(n));
  m.values_.assign(static_cast<std::size_t>(n), 1.0);
  for (index_t i = 0; i <= n; ++i) m.row_ptr_[static_cast<std::size_t>(i)] = i;
  for (index_t i = 0; i < n; ++i) m.col_idx_[static_cast<std::size_t>(i)] = i;
  return m;
}

CsrMatrix CsrMatrix::Diagonal(const Vector& diag) {
  const index_t n = static_cast<index_t>(diag.size());
  CsrMatrix m = Identity(n);
  m.values_.assign(diag.begin(), diag.end());
  return m;
}

CsrMatrix CsrMatrix::Zero(index_t rows, index_t cols) {
  CsrMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.row_ptr_.assign(static_cast<std::size_t>(rows) + 1, 0);
  return m;
}

CsrMatrix CsrMatrix::FromDense(const DenseMatrix& dense, real_t tol) {
  CsrMatrix m;
  m.rows_ = dense.rows();
  m.cols_ = dense.cols();
  m.row_ptr_.assign(static_cast<std::size_t>(m.rows_) + 1, 0);
  for (index_t r = 0; r < m.rows_; ++r) {
    for (index_t c = 0; c < m.cols_; ++c) {
      real_t v = dense.At(r, c);
      if (std::fabs(v) > tol) {
        m.col_idx_.push_back(c);
        m.values_.push_back(v);
      }
    }
    m.row_ptr_[static_cast<std::size_t>(r) + 1] =
        static_cast<index_t>(m.col_idx_.size());
  }
  return m;
}

DenseMatrix CsrMatrix::ToDense() const {
  DenseMatrix out(rows_, cols_);
  for (index_t r = 0; r < rows_; ++r) {
    for (index_t p = row_ptr_[static_cast<std::size_t>(r)];
         p < row_ptr_[static_cast<std::size_t>(r) + 1]; ++p) {
      out.At(r, col_idx_[static_cast<std::size_t>(p)]) =
          values_[static_cast<std::size_t>(p)];
    }
  }
  return out;
}

Vector CsrMatrix::Multiply(const Vector& x) const {
  Vector y;
  MultiplyInto(x, &y);
  return y;
}

void CsrMatrix::MultiplyInto(const Vector& x, Vector* out) const {
  BEPI_CHECK(static_cast<index_t>(x.size()) == cols_);
  CountSpmv(nnz());
  out->resize(static_cast<std::size_t>(rows_));
  Vector& y = *out;
  ParallelOverRows(row_ptr_, rows_, nnz(), [&](index_t rb, index_t re) {
    for (index_t r = rb; r < re; ++r) {
      real_t sum = 0.0;
      for (index_t p = row_ptr_[static_cast<std::size_t>(r)];
           p < row_ptr_[static_cast<std::size_t>(r) + 1]; ++p) {
        sum += values_[static_cast<std::size_t>(p)] *
               x[static_cast<std::size_t>(col_idx_[static_cast<std::size_t>(p)])];
      }
      y[static_cast<std::size_t>(r)] = sum;
    }
  });
}

void CsrMatrix::MultiplyAdd(real_t alpha, const Vector& x, Vector* y) const {
  BEPI_CHECK(static_cast<index_t>(x.size()) == cols_);
  BEPI_CHECK(static_cast<index_t>(y->size()) == rows_);
  CountSpmv(nnz());
  ParallelOverRows(row_ptr_, rows_, nnz(), [&](index_t rb, index_t re) {
    for (index_t r = rb; r < re; ++r) {
      real_t sum = 0.0;
      for (index_t p = row_ptr_[static_cast<std::size_t>(r)];
           p < row_ptr_[static_cast<std::size_t>(r) + 1]; ++p) {
        sum += values_[static_cast<std::size_t>(p)] *
               x[static_cast<std::size_t>(col_idx_[static_cast<std::size_t>(p)])];
      }
      (*y)[static_cast<std::size_t>(r)] += alpha * sum;
    }
  });
}

void CsrMatrix::ResidualInto(const Vector& x, const Vector& b,
                             Vector* y) const {
  // A wide KernelCsr bind is a handful of pointer stores; delegating keeps
  // this fused kernel in exactly one place (sparse/kernel.cpp), so the
  // CsrOperator and KernelCsrOperator paths cannot drift apart.
  KernelCsr::Bind(*this, KernelPath::kWide).ResidualInto(x, b, y);
}

real_t CsrMatrix::MultiplyDot(const Vector& x, const Vector& d,
                              Vector* y) const {
  return KernelCsr::Bind(*this, KernelPath::kWide).MultiplyDot(x, d, y);
}

Vector CsrMatrix::MultiplyTranspose(const Vector& x) const {
  BEPI_CHECK(static_cast<index_t>(x.size()) == rows_);
  CountSpmv(nnz());
  Vector y(static_cast<std::size_t>(cols_), 0.0);
  for (index_t r = 0; r < rows_; ++r) {
    const real_t xr = x[static_cast<std::size_t>(r)];
    if (xr == 0.0) continue;
    for (index_t p = row_ptr_[static_cast<std::size_t>(r)];
         p < row_ptr_[static_cast<std::size_t>(r) + 1]; ++p) {
      y[static_cast<std::size_t>(col_idx_[static_cast<std::size_t>(p)])] +=
          values_[static_cast<std::size_t>(p)] * xr;
    }
  }
  return y;
}

CsrMatrix CsrMatrix::Transpose() const {
  CsrMatrix out;
  out.rows_ = cols_;
  out.cols_ = rows_;
  out.row_ptr_.assign(static_cast<std::size_t>(cols_) + 1, 0);
  out.col_idx_.resize(values_.size());
  out.values_.resize(values_.size());
  // Count entries per column of this == per row of transpose.
  for (index_t c : col_idx_) out.row_ptr_[static_cast<std::size_t>(c) + 1]++;
  for (index_t c = 0; c < cols_; ++c) {
    out.row_ptr_[static_cast<std::size_t>(c) + 1] +=
        out.row_ptr_[static_cast<std::size_t>(c)];
  }
  std::vector<index_t> cursor(out.row_ptr_.begin(), out.row_ptr_.end() - 1);
  for (index_t r = 0; r < rows_; ++r) {
    for (index_t p = row_ptr_[static_cast<std::size_t>(r)];
         p < row_ptr_[static_cast<std::size_t>(r) + 1]; ++p) {
      const index_t c = col_idx_[static_cast<std::size_t>(p)];
      const index_t dst = cursor[static_cast<std::size_t>(c)]++;
      out.col_idx_[static_cast<std::size_t>(dst)] = r;
      out.values_[static_cast<std::size_t>(dst)] =
          values_[static_cast<std::size_t>(p)];
    }
  }
  return out;
}

CscMatrix CsrMatrix::ToCsc() const {
  // The CSC of A has the same arrays as the CSR of A^T.
  CsrMatrix t = Transpose();
  CscMatrix out;
  out.rows_ = rows_;
  out.cols_ = cols_;
  out.col_ptr_ = std::move(t.row_ptr_);
  out.row_idx_ = std::move(t.col_idx_);
  out.values_ = std::move(t.values_);
  return out;
}

void CsrMatrix::ScaleValues(real_t alpha) {
  for (real_t& v : values_) v *= alpha;
}

Vector CsrMatrix::RowSums() const {
  Vector sums(static_cast<std::size_t>(rows_), 0.0);
  for (index_t r = 0; r < rows_; ++r) {
    real_t sum = 0.0;
    for (index_t p = row_ptr_[static_cast<std::size_t>(r)];
         p < row_ptr_[static_cast<std::size_t>(r) + 1]; ++p) {
      sum += values_[static_cast<std::size_t>(p)];
    }
    sums[static_cast<std::size_t>(r)] = sum;
  }
  return sums;
}

real_t CsrMatrix::At(index_t row, index_t col) const {
  BEPI_CHECK(row >= 0 && row < rows_ && col >= 0 && col < cols_);
  const index_t begin = row_ptr_[static_cast<std::size_t>(row)];
  const index_t end = row_ptr_[static_cast<std::size_t>(row) + 1];
  auto first = col_idx_.begin() + begin;
  auto last = col_idx_.begin() + end;
  auto it = std::lower_bound(first, last, col);
  if (it != last && *it == col) {
    return values_[static_cast<std::size_t>(it - col_idx_.begin())];
  }
  return 0.0;
}

CsrMatrix CsrMatrix::Pruned(real_t tol) const {
  CsrMatrix out;
  out.rows_ = rows_;
  out.cols_ = cols_;
  out.row_ptr_.assign(static_cast<std::size_t>(rows_) + 1, 0);
  for (index_t r = 0; r < rows_; ++r) {
    for (index_t p = row_ptr_[static_cast<std::size_t>(r)];
         p < row_ptr_[static_cast<std::size_t>(r) + 1]; ++p) {
      if (std::fabs(values_[static_cast<std::size_t>(p)]) > tol) {
        out.col_idx_.push_back(col_idx_[static_cast<std::size_t>(p)]);
        out.values_.push_back(values_[static_cast<std::size_t>(p)]);
      }
    }
    out.row_ptr_[static_cast<std::size_t>(r) + 1] =
        static_cast<index_t>(out.col_idx_.size());
  }
  return out;
}

real_t CsrMatrix::MaxAbsDiff(const CsrMatrix& a, const CsrMatrix& b) {
  BEPI_CHECK(a.rows_ == b.rows_ && a.cols_ == b.cols_);
  real_t best = 0.0;
  for (index_t r = 0; r < a.rows_; ++r) {
    index_t pa = a.row_ptr_[static_cast<std::size_t>(r)];
    index_t pb = b.row_ptr_[static_cast<std::size_t>(r)];
    const index_t ea = a.row_ptr_[static_cast<std::size_t>(r) + 1];
    const index_t eb = b.row_ptr_[static_cast<std::size_t>(r) + 1];
    while (pa < ea || pb < eb) {
      const index_t ca = pa < ea ? a.col_idx_[static_cast<std::size_t>(pa)]
                                 : a.cols_;
      const index_t cb = pb < eb ? b.col_idx_[static_cast<std::size_t>(pb)]
                                 : b.cols_;
      if (ca == cb) {
        best = std::max(best,
                        std::fabs(a.values_[static_cast<std::size_t>(pa)] -
                                  b.values_[static_cast<std::size_t>(pb)]));
        ++pa;
        ++pb;
      } else if (ca < cb) {
        best = std::max(best, std::fabs(a.values_[static_cast<std::size_t>(pa)]));
        ++pa;
      } else {
        best = std::max(best, std::fabs(b.values_[static_cast<std::size_t>(pb)]));
        ++pb;
      }
    }
  }
  return best;
}

std::uint64_t CsrMatrix::ByteSize() const {
  return static_cast<std::uint64_t>(row_ptr_.size()) * sizeof(index_t) +
         static_cast<std::uint64_t>(col_idx_.size()) * sizeof(index_t) +
         static_cast<std::uint64_t>(values_.size()) * sizeof(real_t);
}

Status CsrMatrix::Validate() const {
  if (rows_ < 0 || cols_ < 0) {
    return Status::InvalidArgument("negative matrix dimension");
  }
  if (static_cast<index_t>(row_ptr_.size()) != rows_ + 1) {
    return Status::InvalidArgument("row_ptr has wrong length");
  }
  if (col_idx_.size() != values_.size()) {
    return Status::InvalidArgument("nnz arrays inconsistent with row_ptr");
  }
  // The one CSR structure check, shared with views of a mapped model.
  return KernelCsr::FromArrays(rows_, cols_,
                               static_cast<index_t>(col_idx_.size()),
                               sizeof(index_t), row_ptr_.data(),
                               col_idx_.data(), values_.data(), nullptr)
      .status();
}

}  // namespace bepi
