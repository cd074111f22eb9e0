#include "solver/ilu0.hpp"

#include <cmath>
#include <type_traits>
#include <utility>
#include <variant>

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

Result<Ilu0> Ilu0::OverPattern(const KernelCsr& pattern,
                               const real_t* values,
                               std::shared_ptr<const void> owner) {
  if (pattern.rows() != pattern.cols()) {
    return Status::InvalidArgument("ILU(0) requires a square matrix");
  }
  const index_t n = pattern.rows();
  Ilu0 ilu;
  ilu.factors_ = pattern.WithValues(values, std::move(owner));
  index_t missing = -1;
  pattern.Visit([&](const auto* row_ptr, const auto* col_idx) {
    using I = std::remove_cv_t<std::remove_pointer_t<decltype(row_ptr)>>;
    std::vector<I> diag(static_cast<std::size_t>(n));
    for (index_t i = 0; i < n && missing < 0; ++i) {
      I p = row_ptr[i];
      while (p < row_ptr[i + 1] && static_cast<index_t>(col_idx[p]) != i) ++p;
      if (p == row_ptr[i + 1]) missing = i;
      diag[static_cast<std::size_t>(i)] = p;
    }
    ilu.diag_pos_ = std::move(diag);
  });
  if (missing >= 0) {
    return Status::FailedPrecondition(
        "ILU(0) requires a structurally non-zero diagonal (row " +
        std::to_string(missing) + ")");
  }
  return ilu;
}

Result<Ilu0> Ilu0::FromFactors(const KernelCsr& a, const real_t* values,
                               std::shared_ptr<const void> owner) {
  BEPI_ASSIGN_OR_RETURN(Ilu0 ilu, OverPattern(a, values, std::move(owner)));
  Status status = Status::Ok();
  std::visit(
      [&](const auto& diag) {
        for (std::size_t i = 0; i < diag.size(); ++i) {
          const real_t pivot = values[diag[i]];
          if (!UsablePivot(pivot)) {
            status = Status::FailedPrecondition(
                "zero/tiny pivot in ILU(0) at row " + std::to_string(i) +
                " (value " + std::to_string(pivot) + ")");
            return;
          }
        }
      },
      ilu.diag_pos_);
  BEPI_RETURN_IF_ERROR(status);
  return ilu;
}

Result<Ilu0> Ilu0::Factor(const CsrMatrix& a) {
  return Factor(KernelCsr::Own(a, KernelPath::kWide));
}

Result<Ilu0> Ilu0::Factor(const KernelCsr& a) {
  if (a.rows() != a.cols()) {
    return Status::InvalidArgument("ILU(0) requires a square matrix");
  }
  if (BEPI_FAULT_INJECTED(fault_sites::kIluFactor)) {
    return Status::FailedPrecondition(
        "zero pivot in ILU(0) at row 0 (injected fault)");
  }
  const index_t n = a.rows();
  auto storage = std::make_shared<std::vector<real_t>>(
      a.values(), a.values() + a.nnz());
  real_t* values = storage->data();
  BEPI_ASSIGN_OR_RETURN(Ilu0 ilu, OverPattern(a, values, std::move(storage)));

  // IKJ-variant ILU(0) (Saad, "Iterative Methods", Alg. 10.4). `pos` maps a
  // column index to its position within the current row, -1 if absent.
  std::vector<index_t> pos(static_cast<std::size_t>(n), -1);
  Status status = Status::Ok();
  a.Visit([&](const auto* row_ptr, const auto* col_idx) {
    using I = std::remove_cv_t<std::remove_pointer_t<decltype(row_ptr)>>;
    const I* diag_pos = std::get<std::vector<I>>(ilu.diag_pos_).data();
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
        if (!UsablePivot(diag_k)) {
          status = Status::FailedPrecondition(
              "zero/tiny pivot in ILU(0) at row " + std::to_string(k) +
              " (value " + std::to_string(diag_k) + ")");
          return;
        }
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
      if (!UsablePivot(diag_i)) {
        status = Status::FailedPrecondition(
            "zero/tiny pivot in ILU(0) at row " + std::to_string(i) +
            " (value " + std::to_string(diag_i) + ")");
        return;
      }
      for (index_t p = begin; p < end; ++p) {
        pos[static_cast<std::size_t>(col_idx[p])] = -1;
      }
    }
  });
  BEPI_RETURN_IF_ERROR(status);
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
  factors_.Visit([&](const auto* row_ptr, const auto* col_idx) {
    using I = std::remove_cv_t<std::remove_pointer_t<decltype(row_ptr)>>;
    SolveFactors<I>(factors_.values(), row_ptr, col_idx,
                    std::get<std::vector<I>>(diag_pos_).data(), n, lower,
                    upper, z);
  });
}

void Ilu0::SetPath(KernelPath requested) {
  KernelCsr repathed = factors_.WithPath(requested);
  if (repathed.compact() == factors_.compact()) return;
  factors_ = std::move(repathed);
  diag_pos_ = std::visit(
      [&](const auto& diag) -> decltype(diag_pos_) {
        if (factors_.compact()) {
          return std::vector<std::uint32_t>(diag.begin(), diag.end());
        }
        return std::vector<index_t>(diag.begin(), diag.end());
      },
      diag_pos_);
}

void Ilu0::EnableKernels(KernelPath requested) {
  SetPath(requested);
  lower_levels_ = LevelSchedule::BuildLower(factors_);
  upper_levels_ = LevelSchedule::BuildUpper(factors_);
}

bool Ilu0::AdoptSchedules(LevelSchedule lower, LevelSchedule upper,
                          KernelPath requested) {
  SetPath(requested);
  const bool usable = lower.ValidFor(factors_, /*lower=*/true) &&
                      upper.ValidFor(factors_, /*lower=*/false);
  if (usable) {
    lower_levels_ = std::move(lower);
    upper_levels_ = std::move(upper);
  } else {
    EnableKernels(requested);  // discard: rebuild schedules from the pattern
  }
  return usable;
}

std::uint64_t Ilu0::ByteSize() const {
  const std::uint64_t diag =
      std::visit([](const auto& d) -> std::uint64_t {
        return static_cast<std::uint64_t>(d.size()) * sizeof(d[0]);
      }, diag_pos_);
  return factors_.ByteSize() + diag + lower_levels_.ByteSize() +
         upper_levels_.ByteSize();
}

CsrMatrix Ilu0::ExtractLower() const {
  const index_t n = factors_.rows();
  std::vector<index_t> row_ptr(static_cast<std::size_t>(n) + 1, 0);
  std::vector<index_t> col_idx;
  std::vector<real_t> values;
  factors_.Visit([&](const auto* rp, const auto* ci) {
    using I = std::remove_cv_t<std::remove_pointer_t<decltype(rp)>>;
    const I* diag_pos = std::get<std::vector<I>>(diag_pos_).data();
    for (index_t i = 0; i < n; ++i) {
      for (I p = rp[i]; p < diag_pos[i]; ++p) {
        col_idx.push_back(static_cast<index_t>(ci[p]));
        values.push_back(factors_.values()[p]);
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
  const index_t n = factors_.rows();
  std::vector<index_t> row_ptr(static_cast<std::size_t>(n) + 1, 0);
  std::vector<index_t> col_idx;
  std::vector<real_t> values;
  factors_.Visit([&](const auto* rp, const auto* ci) {
    using I = std::remove_cv_t<std::remove_pointer_t<decltype(rp)>>;
    const I* diag_pos = std::get<std::vector<I>>(diag_pos_).data();
    for (index_t i = 0; i < n; ++i) {
      for (I p = diag_pos[i]; p < rp[i + 1]; ++p) {
        col_idx.push_back(static_cast<index_t>(ci[p]));
        values.push_back(factors_.values()[p]);
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
