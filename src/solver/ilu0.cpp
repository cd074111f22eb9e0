#include "solver/ilu0.hpp"

#include <cmath>
#include <type_traits>
#include <utility>
#include <variant>

#include "common/check.hpp"
#include "common/faultinject.hpp"
#include "common/metrics.hpp"

namespace bepi {
namespace {

/// Pivots at or below this magnitude would scale elimination factors (and
/// later triangular solves) into overflow; treat them as a breakdown and
/// report via Status instead of producing Inf/NaN factors.
constexpr real_t kPivotFloor = 1e-30;

bool UsablePivot(real_t pivot) {
  return std::isfinite(pivot) && std::fabs(pivot) > kPivotFloor;
}

Status PivotError(index_t row, real_t pivot) {
  return Status::FailedPrecondition("zero/tiny pivot in ILU(0) at row " +
                                    std::to_string(row) + " (value " +
                                    std::to_string(pivot) + ")");
}

/// The index type a pattern view's Visit hands out.
template <typename P>
using IndexOf = std::remove_cv_t<std::remove_pointer_t<P>>;

/// Every row's diagonal position in the pattern; FailedPrecondition
/// naming the first row without one.
template <typename I>
Result<std::vector<I>> DiagonalPositions(const I* row_ptr, const I* col_idx,
                                         index_t n) {
  std::vector<I> diag(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) {
    I p = row_ptr[i];
    while (p < row_ptr[i + 1] && static_cast<index_t>(col_idx[p]) != i) ++p;
    if (p == row_ptr[i + 1]) {
      return Status::FailedPrecondition(
          "ILU(0) requires a structurally non-zero diagonal (row " +
          std::to_string(i) + ")");
    }
    diag[static_cast<std::size_t>(i)] = p;
  }
  return diag;
}

/// IKJ-variant ILU(0) (Saad, "Iterative Methods", Alg. 10.4) on `values`
/// in place, in f64.
template <typename I>
Status EliminateRows(const I* row_ptr, const I* col_idx, const I* diag_pos,
                     index_t n, real_t* values) {
  // `pos` maps a column index to its position within the current row, -1
  // if absent.
  std::vector<index_t> pos(static_cast<std::size_t>(n), -1);
  for (index_t i = 0; i < n; ++i) {
    const auto begin = static_cast<index_t>(row_ptr[i]);
    const auto end = static_cast<index_t>(row_ptr[i + 1]);
    for (index_t p = begin; p < end; ++p) {
      pos[static_cast<std::size_t>(col_idx[p])] = p;
    }
    for (index_t p = begin; p < end; ++p) {
      const auto k = static_cast<index_t>(col_idx[p]);
      if (k >= i) break;  // columns sorted; only k < i eliminates
      const real_t diag_k = values[diag_pos[k]];
      if (!UsablePivot(diag_k)) return PivotError(k, diag_k);
      const real_t factor = values[p] / diag_k;
      values[p] = factor;
      if (factor == 0.0) continue;
      // Subtract factor * U(k, j) for j > k, only where (i, j) exists.
      for (auto q = static_cast<index_t>(diag_pos[k]) + 1;
           q < static_cast<index_t>(row_ptr[k + 1]); ++q) {
        const index_t pij = pos[static_cast<std::size_t>(col_idx[q])];
        if (pij >= 0) values[pij] -= factor * values[q];
      }
    }
    const real_t diag_i = values[diag_pos[i]];
    if (!UsablePivot(diag_i)) return PivotError(i, diag_i);
    for (index_t p = begin; p < end; ++p) {
      pos[static_cast<std::size_t>(col_idx[p])] = -1;
    }
  }
  return Status::Ok();
}

/// The factors at one index width, as the row functions read them.
template <typename I>
struct FactorRows {
  const I* row_ptr;
  const I* col_idx;
  const I* lower_begin;
  const float* lower;  // every row's L values, rows in order
  const float* upper;  // every row's U values right of the diagonal
  const real_t* pivots;
};

// One row of the forward solve L y = r (unit diagonal): row i's L values,
// one contiguous run, against the pattern's columns left of its diagonal.
// At either index width the arithmetic is the same: f32 values widened,
// accumulated in f64 in column order.
template <typename I>
inline void ForwardRow(const FactorRows<I>& f, index_t i, real_t* z) {
  const I* col = f.col_idx + f.row_ptr[i];
  const float* v = f.lower + f.lower_begin[i];
  const I count = f.lower_begin[i + 1] - f.lower_begin[i];
  real_t sum = z[i];
  for (I q = 0; q < count; ++q) {
    sum -= static_cast<real_t>(v[q]) * z[col[q]];
  }
  z[i] = sum;
}

// One row of the backward solve U z = y: row i's U values against the
// columns right of its diagonal, then the f64 pivot.
template <typename I>
inline void BackwardRow(const FactorRows<I>& f, index_t i, real_t* z) {
  const I first = f.row_ptr[i] + (f.lower_begin[i + 1] - f.lower_begin[i]) + 1;
  const I* col = f.col_idx + first;
  const float* v =
      f.upper + (f.row_ptr[i] - static_cast<I>(i) - f.lower_begin[i]);
  const I count = f.row_ptr[i + 1] - first;
  real_t sum = z[i];
  for (I q = 0; q < count; ++q) {
    sum -= static_cast<real_t>(v[q]) * z[col[q]];
  }
  z[i] = sum / f.pivots[i];
}

/// The values Factor computes, owned.
struct FactorValues {
  std::vector<float> triangles;
  std::vector<real_t> pivots;
};

}  // namespace

Result<Ilu0> Ilu0::OverPattern(const KernelCsr& pattern,
                               const float* triangles, const real_t* pivots,
                               std::shared_ptr<const void> owner) {
  if (pattern.rows() != pattern.cols()) {
    return Status::InvalidArgument("ILU(0) requires a square matrix");
  }
  const index_t n = pattern.rows();
  Ilu0 ilu;
  ilu.pattern_ = pattern;
  ilu.triangles_ = triangles;
  ilu.pivots_ = pivots;
  ilu.values_owner_ = std::move(owner);
  Status status = Status::Ok();
  pattern.Visit([&](const auto* row_ptr, const auto* col_idx) {
    using I = IndexOf<decltype(row_ptr)>;
    Result<std::vector<I>> diag = DiagonalPositions(row_ptr, col_idx, n);
    if (!diag.ok()) {
      status = diag.status();
      return;
    }
    std::vector<I> lower_begin(static_cast<std::size_t>(n) + 1, 0);
    for (index_t i = 0; i < n; ++i) {
      lower_begin[static_cast<std::size_t>(i) + 1] =
          lower_begin[static_cast<std::size_t>(i)] +
          ((*diag)[static_cast<std::size_t>(i)] - row_ptr[i]);
    }
    ilu.lower_begin_ = std::move(lower_begin);
  });
  BEPI_RETURN_IF_ERROR(status);
  return ilu;
}

Result<Ilu0> Ilu0::FromFactors(const KernelCsr& a, const float* triangles,
                               const real_t* pivots,
                               std::shared_ptr<const void> owner) {
  BEPI_ASSIGN_OR_RETURN(Ilu0 ilu,
                        OverPattern(a, triangles, pivots, std::move(owner)));
  for (index_t i = 0; i < a.rows(); ++i) {
    if (!UsablePivot(pivots[i])) return PivotError(i, pivots[i]);
  }
  return ilu;
}

Result<Ilu0> Ilu0::Factor(const CsrMatrix& a) {
  return Factor(KernelCsr::Own(a, KernelPath::kWide));
}

Result<std::vector<real_t>> Ilu0::Eliminate(const KernelCsr& a) {
  if (a.rows() != a.cols()) {
    return Status::InvalidArgument("ILU(0) requires a square matrix");
  }
  std::vector<real_t> values(a.values(), a.values() + a.nnz());
  Status status = Status::Ok();
  a.Visit([&](const auto* row_ptr, const auto* col_idx) {
    auto diag = DiagonalPositions(row_ptr, col_idx, a.rows());
    status = diag.ok() ? EliminateRows(row_ptr, col_idx, diag->data(),
                                       a.rows(), values.data())
                       : diag.status();
  });
  BEPI_RETURN_IF_ERROR(status);
  return values;
}

Result<Ilu0> Ilu0::Factor(const KernelCsr& a) {
  if (a.rows() != a.cols()) {
    return Status::InvalidArgument("ILU(0) requires a square matrix");
  }
  if (BEPI_FAULT_INJECTED(fault_sites::kIluFactor)) {
    return Status::FailedPrecondition(
        "zero pivot in ILU(0) at row 0 (injected fault)");
  }
  BEPI_ASSIGN_OR_RETURN(const std::vector<real_t> combined, Eliminate(a));
  const index_t n = a.rows();
  auto values = std::make_shared<FactorValues>();
  values->triangles.resize(static_cast<std::size_t>(a.nnz() - n));
  values->pivots.resize(static_cast<std::size_t>(n));
  BEPI_ASSIGN_OR_RETURN(
      Ilu0 ilu, OverPattern(a, values->triangles.data(),
                            values->pivots.data(), values));
  // Round once to f32, grouped by triangle; the pivots stay f64.
  a.Visit([&](const auto* row_ptr, const auto*) {
    using I = IndexOf<decltype(row_ptr)>;
    const I* lower_begin = std::get<std::vector<I>>(ilu.lower_begin_).data();
    float* lower = values->triangles.data();
    float* upper = lower + lower_begin[n];
    for (index_t i = 0; i < n; ++i) {
      const I diag = row_ptr[i] + (lower_begin[i + 1] - lower_begin[i]);
      for (I p = row_ptr[i]; p < diag; ++p) {
        *lower++ = static_cast<float>(combined[p]);
      }
      values->pivots[static_cast<std::size_t>(i)] = combined[diag];
      for (I p = diag + 1; p < row_ptr[i + 1]; ++p) {
        *upper++ = static_cast<float>(combined[p]);
      }
    }
  });
  return ilu;
}

void Ilu0::Apply(const Vector& r, Vector* z) const {
  const index_t n = pattern_.rows();
  BEPI_CHECK(static_cast<index_t>(r.size()) == n);
  if (MetricsEnabled()) {
    // One forward + one backward substitution over the factor pattern:
    // ~2 FLOPs per stored entry plus the diagonal divides.
    BEPI_METRIC_COUNTER(applies, "ilu0.applies");
    BEPI_METRIC_COUNTER(flops, "ilu0.flops");
    BEPI_METRIC_COUNTER(bytes, "ilu0.bytes");
    applies->Increment();
    flops->Increment(2 * static_cast<std::uint64_t>(pattern_.nnz()) +
                     static_cast<std::uint64_t>(n));
    bytes->Increment(ApplyBytes());
  }
  z->assign(r.begin(), r.end());
  real_t* out = z->data();
  pattern_.Visit([&](const auto* row_ptr, const auto* col_idx) {
    using I = IndexOf<decltype(row_ptr)>;
    const I* lower_begin = std::get<std::vector<I>>(lower_begin_).data();
    const FactorRows<I> f{row_ptr,    col_idx,
                          lower_begin, triangles_,
                          triangles_ + lower_begin[n], pivots_};
    for (index_t i = 0; i < n; ++i) ForwardRow(f, i, out);
    for (index_t i = n - 1; i >= 0; --i) BackwardRow(f, i, out);
  });
}

std::uint64_t Ilu0::ApplyBytes() const {
  const auto rows = static_cast<std::uint64_t>(pattern_.rows());
  const std::uint64_t idx = compact() ? 4 : 8;
  return triangles().size() * (idx + sizeof(float)) + 4 * (rows + 1) * idx +
         pivots().size_bytes() + 2 * rows * sizeof(real_t);
}

std::uint64_t Ilu0::ByteSize() const {
  const std::uint64_t lower_begin =
      std::visit([](const auto& b) -> std::uint64_t {
        return static_cast<std::uint64_t>(b.size()) * sizeof(b[0]);
      }, lower_begin_);
  return triangles().size_bytes() + pivots().size_bytes() + lower_begin;
}

CsrMatrix Ilu0::ExtractLower() const {
  const index_t n = pattern_.rows();
  std::vector<index_t> row_ptr(static_cast<std::size_t>(n) + 1, 0);
  std::vector<index_t> col_idx;
  std::vector<real_t> values;
  pattern_.Visit([&](const auto* rp, const auto* ci) {
    using I = IndexOf<decltype(rp)>;
    const I* lower_begin = std::get<std::vector<I>>(lower_begin_).data();
    for (index_t i = 0; i < n; ++i) {
      for (I q = 0; q < lower_begin[i + 1] - lower_begin[i]; ++q) {
        col_idx.push_back(static_cast<index_t>(ci[rp[i] + q]));
        values.push_back(triangles_[lower_begin[i] + q]);
      }
      col_idx.push_back(i);
      values.push_back(1.0);
      row_ptr[static_cast<std::size_t>(i) + 1] =
          static_cast<index_t>(col_idx.size());
    }
  });
  auto result = CsrMatrix::FromParts(n, n, std::move(row_ptr),
                                     std::move(col_idx), std::move(values));
  BEPI_CHECK(result.ok());
  return std::move(result).value();
}

CsrMatrix Ilu0::ExtractUpper() const {
  const index_t n = pattern_.rows();
  std::vector<index_t> row_ptr(static_cast<std::size_t>(n) + 1, 0);
  std::vector<index_t> col_idx;
  std::vector<real_t> values;
  pattern_.Visit([&](const auto* rp, const auto* ci) {
    using I = IndexOf<decltype(rp)>;
    const I* lower_begin = std::get<std::vector<I>>(lower_begin_).data();
    const float* upper = triangles_ + lower_begin[n];
    for (index_t i = 0; i < n; ++i) {
      col_idx.push_back(i);
      values.push_back(pivots_[i]);
      const I diag = rp[i] + (lower_begin[i + 1] - lower_begin[i]);
      for (I p = diag + 1; p < rp[i + 1]; ++p) {
        col_idx.push_back(static_cast<index_t>(ci[p]));
        values.push_back(*upper++);
      }
      row_ptr[static_cast<std::size_t>(i) + 1] =
          static_cast<index_t>(col_idx.size());
    }
  });
  auto result = CsrMatrix::FromParts(n, n, std::move(row_ptr),
                                     std::move(col_idx), std::move(values));
  BEPI_CHECK(result.ok());
  return std::move(result).value();
}

}  // namespace bepi
