#include "solver/ilu0.hpp"

#include <cmath>
#include <utility>

#include "common/check.hpp"
#include "common/faultinject.hpp"
#include "common/metrics.hpp"
#include "common/parallel.hpp"

namespace bepi {
namespace {

/// Pivots at or below this magnitude would scale elimination factors (and
/// later triangular solves) into overflow; treat them as a breakdown and
/// report via Status instead of producing Inf/NaN factors.
constexpr real_t kPivotFloor = 1e-30;

bool UsablePivot(real_t pivot) {
  return std::isfinite(pivot) && std::fabs(pivot) > kPivotFloor;
}

// Rows per chunk inside one level (fixed, thread-count-independent — same
// rationale as kLevelGrain in solver/trisolve.cpp).
constexpr index_t kLevelGrain = 256;

// One row of the forward solve L y = r on the combined factor storage
// (unit diagonal; L entries are those left of the diagonal position).
// Templated over the index type so the compact uint32 sidecar and the wide
// int64 arrays run the same code — and therefore the same arithmetic.
template <typename I>
inline void ForwardRow(const real_t* values, const I* row_ptr,
                       const I* col_idx, const I* diag_pos, index_t i,
                       Vector* z) {
  real_t sum = (*z)[static_cast<std::size_t>(i)];
  for (I p = row_ptr[i]; p < diag_pos[i]; ++p) {
    sum -= values[p] * (*z)[static_cast<std::size_t>(col_idx[p])];
  }
  (*z)[static_cast<std::size_t>(i)] = sum;
}

// One row of the backward solve U z = y.
template <typename I>
inline void BackwardRow(const real_t* values, const I* row_ptr,
                        const I* col_idx, const I* diag_pos, index_t i,
                        Vector* z) {
  real_t sum = (*z)[static_cast<std::size_t>(i)];
  const I dp = diag_pos[i];
  for (I p = dp + 1; p < row_ptr[i + 1]; ++p) {
    sum -= values[p] * (*z)[static_cast<std::size_t>(col_idx[p])];
  }
  (*z)[static_cast<std::size_t>(i)] = sum / values[dp];
}

// Full two-solve Apply body. With schedules, each level's rows run in
// parallel; per-row arithmetic is unchanged, so the result is bit-identical
// to the serial loops at any thread count.
template <typename I>
void SolveFactors(const real_t* values, const I* row_ptr, const I* col_idx,
                  const I* diag_pos, index_t n, const LevelSchedule* lower,
                  const LevelSchedule* upper, Vector* z) {
  if (lower != nullptr && upper != nullptr) {
    const std::vector<index_t>& llp = lower->level_ptr();
    const std::vector<index_t>& lrows = lower->rows();
    for (index_t lv = 0; lv < lower->num_levels(); ++lv) {
      ParallelFor(llp[static_cast<std::size_t>(lv)],
                  llp[static_cast<std::size_t>(lv) + 1], kLevelGrain,
                  [&](index_t pb, index_t pe) {
                    for (index_t p = pb; p < pe; ++p) {
                      ForwardRow(values, row_ptr, col_idx, diag_pos,
                                 lrows[static_cast<std::size_t>(p)], z);
                    }
                  });
    }
    const std::vector<index_t>& ulp = upper->level_ptr();
    const std::vector<index_t>& urows = upper->rows();
    for (index_t lv = 0; lv < upper->num_levels(); ++lv) {
      ParallelFor(ulp[static_cast<std::size_t>(lv)],
                  ulp[static_cast<std::size_t>(lv) + 1], kLevelGrain,
                  [&](index_t pb, index_t pe) {
                    for (index_t p = pb; p < pe; ++p) {
                      BackwardRow(values, row_ptr, col_idx, diag_pos,
                                  urows[static_cast<std::size_t>(p)], z);
                    }
                  });
    }
    return;
  }
  for (index_t i = 0; i < n; ++i) {
    ForwardRow(values, row_ptr, col_idx, diag_pos, i, z);
  }
  for (index_t i = n - 1; i >= 0; --i) {
    BackwardRow(values, row_ptr, col_idx, diag_pos, i, z);
  }
}

}  // namespace

Result<Ilu0> Ilu0::WithPattern(const CsrMatrix& a,
                               std::vector<real_t> values) {
  if (a.rows() != a.cols()) {
    return Status::InvalidArgument("ILU(0) requires a square matrix");
  }
  const index_t n = a.rows();
  Ilu0 ilu;
  BEPI_ASSIGN_OR_RETURN(ilu.factors_,
                        CsrMatrix::FromParts(n, n, a.row_ptr(), a.col_idx(),
                                             std::move(values)));
  ilu.diag_pos_.assign(static_cast<std::size_t>(n), -1);
  const auto& row_ptr = a.row_ptr();
  const auto& col_idx = a.col_idx();
  for (index_t i = 0; i < n; ++i) {
    for (index_t p = row_ptr[static_cast<std::size_t>(i)];
         p < row_ptr[static_cast<std::size_t>(i) + 1]; ++p) {
      if (col_idx[static_cast<std::size_t>(p)] == i) {
        ilu.diag_pos_[static_cast<std::size_t>(i)] = p;
        break;
      }
    }
    if (ilu.diag_pos_[static_cast<std::size_t>(i)] < 0) {
      return Status::FailedPrecondition(
          "ILU(0) requires a structurally non-zero diagonal (row " +
          std::to_string(i) + ")");
    }
  }
  return ilu;
}

Result<Ilu0> Ilu0::FromFactors(const CsrMatrix& a,
                               std::vector<real_t> values) {
  if (static_cast<index_t>(values.size()) != a.nnz()) {
    return Status::InvalidArgument(
        "ILU(0) factors hold " + std::to_string(values.size()) +
        " values for a pattern of " + std::to_string(a.nnz()));
  }
  BEPI_ASSIGN_OR_RETURN(Ilu0 ilu, WithPattern(a, std::move(values)));
  const auto& factor_values = ilu.factors_.values();
  for (std::size_t i = 0; i < ilu.diag_pos_.size(); ++i) {
    const real_t pivot =
        factor_values[static_cast<std::size_t>(ilu.diag_pos_[i])];
    if (!UsablePivot(pivot)) {
      return Status::FailedPrecondition(
          "zero/tiny pivot in ILU(0) at row " + std::to_string(i) +
          " (value " + std::to_string(pivot) + ")");
    }
  }
  return ilu;
}

Result<Ilu0> Ilu0::Factor(const CsrMatrix& a) {
  if (a.rows() != a.cols()) {
    return Status::InvalidArgument("ILU(0) requires a square matrix");
  }
  if (BEPI_FAULT_INJECTED(fault_sites::kIluFactor)) {
    return Status::FailedPrecondition(
        "zero pivot in ILU(0) at row 0 (injected fault)");
  }
  const index_t n = a.rows();
  BEPI_ASSIGN_OR_RETURN(Ilu0 ilu, WithPattern(a, a.values()));
  const auto& row_ptr = ilu.factors_.row_ptr();
  const auto& col_idx = ilu.factors_.col_idx();
  auto& values = ilu.factors_.mutable_values();

  // IKJ-variant ILU(0) (Saad, "Iterative Methods", Alg. 10.4). `pos` maps a
  // column index to its position within the current row, -1 if absent.
  std::vector<index_t> pos(static_cast<std::size_t>(n), -1);
  for (index_t i = 0; i < n; ++i) {
    const index_t begin = row_ptr[static_cast<std::size_t>(i)];
    const index_t end = row_ptr[static_cast<std::size_t>(i) + 1];
    for (index_t p = begin; p < end; ++p) {
      pos[static_cast<std::size_t>(col_idx[static_cast<std::size_t>(p)])] = p;
    }
    for (index_t p = begin; p < end; ++p) {
      const index_t k = col_idx[static_cast<std::size_t>(p)];
      if (k >= i) break;  // columns sorted; only k < i eliminates
      const real_t diag_k =
          values[static_cast<std::size_t>(ilu.diag_pos_[static_cast<std::size_t>(k)])];
      if (!UsablePivot(diag_k)) {
        return Status::FailedPrecondition(
            "zero/tiny pivot in ILU(0) at row " + std::to_string(k) +
            " (value " + std::to_string(diag_k) + ")");
      }
      const real_t factor = values[static_cast<std::size_t>(p)] / diag_k;
      values[static_cast<std::size_t>(p)] = factor;
      if (factor == 0.0) continue;
      // Subtract factor * U(k, j) for j > k, only where (i, j) exists.
      for (index_t q = ilu.diag_pos_[static_cast<std::size_t>(k)] + 1;
           q < row_ptr[static_cast<std::size_t>(k) + 1]; ++q) {
        const index_t j = col_idx[static_cast<std::size_t>(q)];
        const index_t pij = pos[static_cast<std::size_t>(j)];
        if (pij >= 0) {
          values[static_cast<std::size_t>(pij)] -=
              factor * values[static_cast<std::size_t>(q)];
        }
      }
    }
    const real_t diag_i = values[static_cast<std::size_t>(
        ilu.diag_pos_[static_cast<std::size_t>(i)])];
    if (!UsablePivot(diag_i)) {
      return Status::FailedPrecondition(
          "zero/tiny pivot in ILU(0) at row " + std::to_string(i) +
          " (value " + std::to_string(diag_i) + ")");
    }
    for (index_t p = begin; p < end; ++p) {
      pos[static_cast<std::size_t>(col_idx[static_cast<std::size_t>(p)])] = -1;
    }
  }
  return ilu;
}

void Ilu0::Apply(const Vector& r, Vector* z) const {
  const index_t n = factors_.rows();
  BEPI_CHECK(static_cast<index_t>(r.size()) == n);
  if (MetricsEnabled()) {
    // One forward + one backward substitution over the factor pattern:
    // ~2 FLOPs per stored entry plus the diagonal divides.
    BEPI_METRIC_COUNTER(applies, "ilu0.applies");
    BEPI_METRIC_COUNTER(flops, "ilu0.flops");
    applies->Increment();
    flops->Increment(2 * static_cast<std::uint64_t>(factors_.nnz()) +
                     static_cast<std::uint64_t>(n));
  }
  z->assign(r.begin(), r.end());
  // Level schedules are only worth the row indirection when there is a
  // thread pool to spread the levels over; nested calls (already on a
  // worker thread) run the plain serial loops. Either way the output is
  // bit-identical — only the traversal order across independent rows moves.
  const bool parallel = has_schedules() &&
                        ParallelContext::Global().pool() != nullptr &&
                        !ThreadPool::OnWorkerThread();
  const LevelSchedule* lower = parallel ? &lower_levels_ : nullptr;
  const LevelSchedule* upper = parallel ? &upper_levels_ : nullptr;
  if (compact_) {
    SolveFactors<std::uint32_t>(factors_.values().data(), row_ptr32_.data(),
                                col_idx32_.data(), diag_pos32_.data(), n,
                                lower, upper, z);
  } else {
    SolveFactors<index_t>(factors_.values().data(), factors_.row_ptr().data(),
                          factors_.col_idx().data(), diag_pos_.data(), n,
                          lower, upper, z);
  }
}

void Ilu0::BindCompactSidecar(KernelPath requested) {
  compact_ = requested != KernelPath::kWide && FitsCompact(factors_);
  if (compact_) {
    row_ptr32_.assign(factors_.row_ptr().begin(), factors_.row_ptr().end());
    col_idx32_.assign(factors_.col_idx().begin(), factors_.col_idx().end());
    diag_pos32_.assign(diag_pos_.begin(), diag_pos_.end());
  } else {
    row_ptr32_.clear();
    col_idx32_.clear();
    diag_pos32_.clear();
  }
}

void Ilu0::EnableKernels(KernelPath requested) {
  lower_levels_ = LevelSchedule::BuildLower(factors_);
  upper_levels_ = LevelSchedule::BuildUpper(factors_);
  BindCompactSidecar(requested);
}

bool Ilu0::AdoptSchedules(LevelSchedule lower, LevelSchedule upper,
                          KernelPath requested) {
  const bool usable = lower.ValidFor(factors_, /*lower=*/true) &&
                      upper.ValidFor(factors_, /*lower=*/false);
  if (usable) {
    lower_levels_ = std::move(lower);
    upper_levels_ = std::move(upper);
    BindCompactSidecar(requested);
  } else {
    EnableKernels(requested);  // discard: rebuild schedules from the pattern
  }
  return usable;
}

std::uint64_t Ilu0::ByteSize() const {
  std::uint64_t bytes = factors_.ByteSize() +
                        static_cast<std::uint64_t>(diag_pos_.size()) *
                            sizeof(index_t);
  bytes += lower_levels_.ByteSize() + upper_levels_.ByteSize();
  bytes += static_cast<std::uint64_t>(row_ptr32_.size() + col_idx32_.size() +
                                      diag_pos32_.size()) *
           sizeof(std::uint32_t);
  return bytes;
}

CsrMatrix Ilu0::ExtractLower() const {
  const index_t n = factors_.rows();
  std::vector<index_t> row_ptr(static_cast<std::size_t>(n) + 1, 0);
  std::vector<index_t> col_idx;
  std::vector<real_t> values;
  for (index_t i = 0; i < n; ++i) {
    for (index_t p = factors_.row_ptr()[static_cast<std::size_t>(i)];
         p < diag_pos_[static_cast<std::size_t>(i)]; ++p) {
      col_idx.push_back(factors_.col_idx()[static_cast<std::size_t>(p)]);
      values.push_back(factors_.values()[static_cast<std::size_t>(p)]);
    }
    col_idx.push_back(i);
    values.push_back(1.0);
    row_ptr[static_cast<std::size_t>(i) + 1] =
        static_cast<index_t>(col_idx.size());
  }
  auto result = CsrMatrix::FromParts(n, n, std::move(row_ptr),
                                     std::move(col_idx), std::move(values));
  BEPI_CHECK(result.ok());
  return std::move(result).value();
}

CsrMatrix Ilu0::ExtractUpper() const {
  const index_t n = factors_.rows();
  std::vector<index_t> row_ptr(static_cast<std::size_t>(n) + 1, 0);
  std::vector<index_t> col_idx;
  std::vector<real_t> values;
  for (index_t i = 0; i < n; ++i) {
    for (index_t p = diag_pos_[static_cast<std::size_t>(i)];
         p < factors_.row_ptr()[static_cast<std::size_t>(i) + 1]; ++p) {
      col_idx.push_back(factors_.col_idx()[static_cast<std::size_t>(p)]);
      values.push_back(factors_.values()[static_cast<std::size_t>(p)]);
    }
    row_ptr[static_cast<std::size_t>(i) + 1] =
        static_cast<index_t>(col_idx.size());
  }
  auto result = CsrMatrix::FromParts(n, n, std::move(row_ptr),
                                     std::move(col_idx), std::move(values));
  BEPI_CHECK(result.ok());
  return std::move(result).value();
}

}  // namespace bepi
