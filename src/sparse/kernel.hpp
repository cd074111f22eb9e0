// The query phase's one matrix type: KernelCsr, a read-only CSR view with
// 4- or 8-byte indices, plus the fused SpMV/SpMM kernels of the GMRES
// restart cycle.
//
// A view spans row_ptr, col_idx and values and holds shared handles to
// whatever owns those bytes: the mapped model file (a load borrows its
// arrays in place), owned vectors (the end of preprocessing converts each
// CsrMatrix once), or nothing (Bind's wide view of a caller's CsrMatrix).
// The indices and the values have a handle each, so a view that converts
// its indices releases only the indices it replaced.
// The blanket `index_t = int64_t` (common/types.hpp) keeps the builder
// layers simple, but every query-phase SpMV would then stream twice the
// index bytes it needs on any graph whose dimensions and nnz fit in 31
// bits — which is every benchmark dataset this repo runs. The *compact*
// path stores uint32 row pointers and column indices (12 bytes per
// nonzero instead of 16); the *wide* path keeps 64-bit ones, for matrices
// that exceed the 31-bit limits.
//
// Contract: the wide and compact paths execute the same per-row loops in
// the same order, so their outputs are bit-identical — the selection is a
// pure bandwidth optimization and never changes results. The fused
// ResidualInto / MultiplyDot kernels replicate the chunking of the unfused
// sequences they replace (see kReduceGrain in sparse/dense.hpp), so fusing
// is equally invisible to results, at any thread count.
//
// Path selection: resolved once per model against BEPI_KERNEL / --kernel
// (kAuto picks compact whenever the matrices fit); see
// BindDecompositionKernels (core/decomposition.hpp).
#ifndef BEPI_SPARSE_KERNEL_HPP_
#define BEPI_SPARSE_KERNEL_HPP_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "common/types.hpp"
#include "sparse/csr.hpp"

namespace bepi {

/// Which index representation the query-phase kernels run on.
enum class KernelPath {
  kAuto,     // compact when the matrices fit, wide otherwise (default)
  kWide,     // 64-bit row pointers and column indices
  kCompact,  // 32-bit row pointers and column indices
};

const char* KernelPathName(KernelPath path);

/// Parses "auto" | "wide" | "compact" (the --kernel / BEPI_KERNEL values).
Result<KernelPath> ParseKernelPath(const std::string& name);

/// Process-global requested path: initialized from BEPI_KERNEL at first
/// use (unset/invalid -> kAuto), overridden by SetGlobalKernelPath (the
/// --kernel flag). Read at model bind time, not per kernel call.
KernelPath GlobalKernelPath();
void SetGlobalKernelPath(KernelPath path);

/// Whether a matrix of these dimensions is representable on the compact
/// path: rows, cols and nnz must all be <= INT32_MAX so every stored
/// row pointer and column index fits in 32 bits. Pure arithmetic — never
/// allocates — so selection can be unit-tested at boundary sizes that
/// could not be materialized.
bool FitsCompactDims(index_t rows, index_t cols, index_t nnz);

/// A read-only CSR view (see the file comment). Copies share the arrays.
class KernelCsr {
 public:
  KernelCsr() = default;

  /// A view of `m` on `requested`'s path: compact when `requested` is
  /// kCompact or kAuto and FitsCompactDims holds, wide otherwise. Wide, it
  /// borrows all of m's arrays; compact, it is the wide view's WithPath
  /// (owned uint32 indices, values borrowed). Either way `m` must outlive
  /// the view and must not be modified.
  static KernelCsr Bind(const CsrMatrix& m, KernelPath requested);
  /// A view that owns `m`'s arrays: m's values move in, and so do its
  /// indices on the wide path; compact, they are Bind's narrowed copies
  /// and m's are released.
  static KernelCsr Own(CsrMatrix m, KernelPath requested);
  /// A view of arrays owned by `owner` (the mapped model file), validated
  /// in place like CsrMatrix::FromParts — shape, row_ptr monotone and
  /// bounded by nnz before any column is read, columns sorted, unique and
  /// in range. `width` is the index width, 4 or 8; every pointer must be
  /// 8-byte aligned.
  static Result<KernelCsr> FromArrays(index_t rows, index_t cols, index_t nnz,
                                      std::uint64_t width, const void* row_ptr,
                                      const void* col_idx,
                                      const real_t* values,
                                      std::shared_ptr<const void> owner);

  /// This view on `requested`'s path: itself when its index width already
  /// matches, else a view owning converted index arrays (values shared).
  KernelCsr WithPath(KernelPath requested) const;

  bool compact() const { return width_ == sizeof(std::uint32_t); }
  index_t rows() const { return rows_; }
  index_t cols() const { return cols_; }
  index_t nnz() const { return nnz_; }
  const real_t* values() const { return values_; }

  /// Calls fn(row_ptr, col_idx) with the arrays at their stored type
  /// (const uint32_t* or const index_t*), so loops over the view compile
  /// once per width.
  template <typename Fn>
  decltype(auto) Visit(Fn&& fn) const {
    if (compact()) {
      return fn(static_cast<const std::uint32_t*>(row_ptr_),
                static_cast<const std::uint32_t*>(col_idx_));
    }
    return fn(static_cast<const index_t*>(row_ptr_),
              static_cast<const index_t*>(col_idx_));
  }

  /// The view as a builder matrix (64-bit copies).
  CsrMatrix ToCsr() const;

  /// Bytes of the arrays the view spans: indices at their width plus the
  /// f64 values. PatternBytes() is the index part alone.
  std::uint64_t ByteSize() const;
  std::uint64_t PatternBytes() const;

  /// y = A x.
  Vector Multiply(const Vector& x) const;
  void MultiplyInto(const Vector& x, Vector* y) const;

  /// y += alpha * A x.
  void MultiplyAdd(real_t alpha, const Vector& x, Vector* y) const;

  /// Fused SpMV+axpy: y = b - A x in one pass over the matrix (the GMRES
  /// restart-cycle residual). Arithmetic per element is identical to
  /// MultiplyInto followed by the subtraction, so results are bitwise
  /// equal to the unfused sequence.
  void ResidualInto(const Vector& x, const Vector& b, Vector* y) const;

  /// Fused SpMV+dot: y = A x, returns dot(y, d) — the first Arnoldi
  /// orthogonalization coefficient without re-reading y. The embedded
  /// reduction chunks rows by kReduceGrain and combines partials exactly
  /// like Dot (sparse/dense.hpp), so the returned value is bitwise equal
  /// to MultiplyInto followed by Dot, at any thread count.
  real_t MultiplyDot(const Vector& x, const Vector& d, Vector* y) const;

  /// SpMM over a row-major k-RHS panel: Y = A X, where `x` holds cols()
  /// rows of k contiguous values (x[i*k + j] is column j of right-hand
  /// side i) and `y` likewise holds rows() rows of k values. The matrix
  /// is streamed ONCE for all k columns — the whole point: amortizing the
  /// bandwidth-bound index/value traffic that a per-column SpMV loop pays
  /// k times. Each output column accumulates its per-row sum in exactly
  /// the order MultiplyInto uses for that row, so column j of the panel is
  /// bit-identical to MultiplyInto run on column j alone, at any k and any
  /// thread count.
  void MultiplyMulti(const real_t* x, index_t k, real_t* y) const;

  /// Panel form of MultiplyAdd: Y += alpha * A X. Per-column arithmetic
  /// (row sum accumulated first, then one fused y += alpha*sum) matches
  /// MultiplyAdd exactly, so each panel column stays bit-identical to the
  /// single-vector kernel.
  void MultiplyAddMulti(real_t alpha, const real_t* x, index_t k,
                        real_t* y) const;

 private:
  // A default view (0 x 0) points here: row_ptr = {0}.
  static constexpr index_t kEmptyRowPtr[1] = {0};

  index_t rows_ = 0, cols_ = 0, nnz_ = 0;
  std::uint64_t width_ = sizeof(index_t);
  const void* row_ptr_ = kEmptyRowPtr;
  const void* col_idx_ = nullptr;
  const real_t* values_ = nullptr;
  // What keeps the index arrays and the values alive (the same mapping
  // after a load; null where the view borrows).
  std::shared_ptr<const void> index_owner_, values_owner_;
};

}  // namespace bepi

#endif  // BEPI_SPARSE_KERNEL_HPP_
