// Abstract linear operator and preconditioner interfaces shared by the
// iterative solvers (GMRES, fixed-point iteration, Arnoldi).
#ifndef BEPI_SOLVER_OPERATOR_HPP_
#define BEPI_SOLVER_OPERATOR_HPP_

#include "sparse/csr.hpp"
#include "sparse/kernel.hpp"

namespace bepi {

/// y = A x for a square operator of dimension size().
class LinearOperator {
 public:
  virtual ~LinearOperator() = default;
  virtual index_t size() const = 0;
  virtual void Apply(const Vector& x, Vector* y) const = 0;

  /// Fused residual y = b - A x. The default unfuses (Apply, then
  /// subtract); concrete operators may override with a single-pass kernel,
  /// but any override must stay bit-identical to the default.
  virtual void ApplyResidual(const Vector& x, const Vector& b,
                             Vector* y) const;

  /// Fused y = A x returning dot(y, d). Default unfuses (Apply, then Dot);
  /// overrides must return the bitwise-same value as Dot(*y, d).
  virtual real_t ApplyAndDot(const Vector& x, const Vector& d,
                             Vector* y) const;

  /// Panel apply: Y = A X over k right-hand sides stored row-major
  /// (x[i*k + j] is element i of column j; y likewise). The default
  /// gathers each column, calls Apply, and scatters the result back —
  /// bit-identical to k single applies by construction. Operators with a
  /// real SpMM (KernelCsrOperator) override it to stream the matrix once
  /// for all k columns; any override must keep each panel column
  /// bit-identical to Apply on that column alone.
  virtual void ApplyMulti(const real_t* x, index_t k, real_t* y) const;
};

/// Wraps an explicit CSR matrix as an operator (no copy; the matrix must
/// outlive the operator).
class CsrOperator final : public LinearOperator {
 public:
  explicit CsrOperator(const CsrMatrix& m) : m_(m) {}
  index_t size() const override { return m_.rows(); }
  void Apply(const Vector& x, Vector* y) const override {
    m_.MultiplyInto(x, y);
  }
  void ApplyResidual(const Vector& x, const Vector& b,
                     Vector* y) const override {
    m_.ResidualInto(x, b, y);
  }
  real_t ApplyAndDot(const Vector& x, const Vector& d,
                     Vector* y) const override {
    return m_.MultiplyDot(x, d, y);
  }
  const CsrMatrix& matrix() const { return m_; }

 private:
  const CsrMatrix& m_;
};

/// Wraps a KernelCsr view (sparse/kernel.hpp) as an operator, giving the
/// iterative solvers the compact-index and fused kernels. The view must
/// outlive the operator.
class KernelCsrOperator final : public LinearOperator {
 public:
  explicit KernelCsrOperator(const KernelCsr& k) : k_(k) {}
  index_t size() const override { return k_.rows(); }
  void Apply(const Vector& x, Vector* y) const override {
    k_.MultiplyInto(x, y);
  }
  void ApplyResidual(const Vector& x, const Vector& b,
                     Vector* y) const override {
    k_.ResidualInto(x, b, y);
  }
  real_t ApplyAndDot(const Vector& x, const Vector& d,
                     Vector* y) const override {
    return k_.MultiplyDot(x, d, y);
  }
  void ApplyMulti(const real_t* x, index_t k, real_t* y) const override {
    k_.MultiplyMulti(x, k, y);
  }

 private:
  const KernelCsr& k_;
};

/// z = M^{-1} r for a preconditioner M.
class Preconditioner {
 public:
  virtual ~Preconditioner() = default;
  virtual index_t size() const = 0;
  virtual void Apply(const Vector& r, Vector* z) const = 0;
};

/// M = I (no preconditioning).
class IdentityPreconditioner final : public Preconditioner {
 public:
  explicit IdentityPreconditioner(index_t n) : n_(n) {}
  index_t size() const override { return n_; }
  void Apply(const Vector& r, Vector* z) const override { *z = r; }

 private:
  index_t n_;
};

/// M = diag(A): the classic Jacobi preconditioner. Zero diagonals are
/// treated as 1 so the operator stays well-defined.
class JacobiPreconditioner final : public Preconditioner {
 public:
  explicit JacobiPreconditioner(const KernelCsr& a);
  explicit JacobiPreconditioner(const CsrMatrix& a);
  index_t size() const override { return static_cast<index_t>(inv_diag_.size()); }
  void Apply(const Vector& r, Vector* z) const override;

 private:
  Vector inv_diag_;
};

}  // namespace bepi

#endif  // BEPI_SOLVER_OPERATOR_HPP_
