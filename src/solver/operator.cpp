#include "solver/operator.hpp"

#include "common/check.hpp"
#include "sparse/dense.hpp"

namespace bepi {

void LinearOperator::ApplyResidual(const Vector& x, const Vector& b,
                                   Vector* y) const {
  Apply(x, y);
  BEPI_CHECK(y->size() == b.size());
  for (std::size_t i = 0; i < y->size(); ++i) (*y)[i] = b[i] - (*y)[i];
}

real_t LinearOperator::ApplyAndDot(const Vector& x, const Vector& d,
                                   Vector* y) const {
  Apply(x, y);
  return Dot(*y, d);
}

void LinearOperator::ApplyMulti(const real_t* x, index_t k, real_t* y) const {
  BEPI_CHECK(k >= 1);
  const std::size_t n = static_cast<std::size_t>(size());
  const std::size_t kk = static_cast<std::size_t>(k);
  Vector xj(n), yj;
  for (std::size_t j = 0; j < kk; ++j) {
    for (std::size_t i = 0; i < n; ++i) xj[i] = x[i * kk + j];
    Apply(xj, &yj);
    for (std::size_t i = 0; i < n; ++i) y[i * kk + j] = yj[i];
  }
}

JacobiPreconditioner::JacobiPreconditioner(const KernelCsr& a) {
  BEPI_CHECK(a.rows() == a.cols());
  inv_diag_.assign(static_cast<std::size_t>(a.rows()), 1.0);
  a.Visit([&](const auto* row_ptr, const auto* col_idx) {
    for (index_t i = 0; i < a.rows(); ++i) {
      for (auto p = row_ptr[i]; p < row_ptr[i + 1]; ++p) {
        if (static_cast<index_t>(col_idx[p]) != i) continue;
        const real_t d = a.values()[p];
        if (d != 0.0) inv_diag_[static_cast<std::size_t>(i)] = 1.0 / d;
        break;
      }
    }
  });
}

JacobiPreconditioner::JacobiPreconditioner(const CsrMatrix& a)
    : JacobiPreconditioner(KernelCsr::Bind(a, KernelPath::kWide)) {}

void JacobiPreconditioner::Apply(const Vector& r, Vector* z) const {
  BEPI_CHECK(r.size() == inv_diag_.size());
  z->resize(r.size());
  for (std::size_t i = 0; i < r.size(); ++i) (*z)[i] = r[i] * inv_diag_[i];
}

}  // namespace bepi
