#include "solver/trisolve.hpp"

#include <cstdint>
#include <string>

#include "common/metrics.hpp"

namespace bepi {
namespace {

/// Per-call tallies (never per element); one branch when disabled.
inline void CountTrisolve(index_t nnz) {
  if (!MetricsEnabled()) return;
  BEPI_METRIC_COUNTER(calls, "trisolve.calls");
  BEPI_METRIC_COUNTER(flops, "trisolve.flops");
  calls->Increment();
  flops->Increment(2 * static_cast<std::uint64_t>(nnz));
}

}  // namespace

Result<Vector> SolveLowerCsr(const CsrMatrix& l, const Vector& b,
                             bool unit_diagonal) {
  if (l.rows() != l.cols()) {
    return Status::InvalidArgument("triangular solve needs a square matrix");
  }
  if (static_cast<index_t>(b.size()) != l.rows()) {
    return Status::InvalidArgument("rhs size mismatch in SolveLowerCsr");
  }
  CountTrisolve(l.nnz());
  Vector x(b);
  for (index_t i = 0; i < l.rows(); ++i) {
    real_t diag = unit_diagonal ? 1.0 : 0.0;
    real_t sum = x[static_cast<std::size_t>(i)];
    for (index_t p = l.row_ptr()[static_cast<std::size_t>(i)];
         p < l.row_ptr()[static_cast<std::size_t>(i) + 1]; ++p) {
      const index_t j = l.col_idx()[static_cast<std::size_t>(p)];
      const real_t v = l.values()[static_cast<std::size_t>(p)];
      if (j < i) {
        sum -= v * x[static_cast<std::size_t>(j)];
      } else if (j == i && !unit_diagonal) {
        diag = v;
      }
    }
    if (diag == 0.0) {
      return Status::FailedPrecondition("zero diagonal in lower solve at row " +
                                        std::to_string(i));
    }
    x[static_cast<std::size_t>(i)] = sum / diag;
  }
  return x;
}

Result<Vector> SolveUpperCsr(const CsrMatrix& u, const Vector& b) {
  if (u.rows() != u.cols()) {
    return Status::InvalidArgument("triangular solve needs a square matrix");
  }
  if (static_cast<index_t>(b.size()) != u.rows()) {
    return Status::InvalidArgument("rhs size mismatch in SolveUpperCsr");
  }
  CountTrisolve(u.nnz());
  Vector x(b);
  for (index_t i = u.rows() - 1; i >= 0; --i) {
    real_t diag = 0.0;
    real_t sum = x[static_cast<std::size_t>(i)];
    for (index_t p = u.row_ptr()[static_cast<std::size_t>(i)];
         p < u.row_ptr()[static_cast<std::size_t>(i) + 1]; ++p) {
      const index_t j = u.col_idx()[static_cast<std::size_t>(p)];
      const real_t v = u.values()[static_cast<std::size_t>(p)];
      if (j > i) {
        sum -= v * x[static_cast<std::size_t>(j)];
      } else if (j == i) {
        diag = v;
      }
    }
    if (diag == 0.0) {
      return Status::FailedPrecondition("zero diagonal in upper solve at row " +
                                        std::to_string(i));
    }
    x[static_cast<std::size_t>(i)] = sum / diag;
  }
  return x;
}

bool IsLowerTriangular(const CsrMatrix& m) {
  for (index_t r = 0; r < m.rows(); ++r) {
    const index_t end = m.row_ptr()[static_cast<std::size_t>(r) + 1];
    if (end > m.row_ptr()[static_cast<std::size_t>(r)] &&
        m.col_idx()[static_cast<std::size_t>(end) - 1] > r) {
      return false;
    }
  }
  return true;
}

bool IsUpperTriangular(const CsrMatrix& m) {
  for (index_t r = 0; r < m.rows(); ++r) {
    const index_t begin = m.row_ptr()[static_cast<std::size_t>(r)];
    if (begin < m.row_ptr()[static_cast<std::size_t>(r) + 1] &&
        m.col_idx()[static_cast<std::size_t>(begin)] < r) {
      return false;
    }
  }
  return true;
}

}  // namespace bepi
