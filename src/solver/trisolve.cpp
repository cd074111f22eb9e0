#include "solver/trisolve.hpp"

#include <algorithm>
#include <atomic>
#include <string>
#include <utility>

#include "common/metrics.hpp"
#include "common/parallel.hpp"

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

// Rows per ParallelFor chunk inside one level. A fixed constant (like the
// grains in sparse/dense.*) so chunking never depends on the thread count;
// levels below one grain run inline, which also keeps narrow levels cheap.
constexpr index_t kLevelGrain = 256;

// One row of forward substitution. Identical arithmetic to the serial loop
// in SolveLowerCsr; returns false on a zero diagonal (x[i] is left at 0 in
// that case, the caller discards x anyway).
inline bool LowerRow(const CsrMatrix& l, index_t i, bool unit_diagonal,
                     Vector* x) {
  real_t diag = unit_diagonal ? 1.0 : 0.0;
  real_t sum = (*x)[static_cast<std::size_t>(i)];
  for (index_t p = l.row_ptr()[static_cast<std::size_t>(i)];
       p < l.row_ptr()[static_cast<std::size_t>(i) + 1]; ++p) {
    const index_t j = l.col_idx()[static_cast<std::size_t>(p)];
    const real_t v = l.values()[static_cast<std::size_t>(p)];
    if (j < i) {
      sum -= v * (*x)[static_cast<std::size_t>(j)];
    } else if (j == i && !unit_diagonal) {
      diag = v;
    }
  }
  if (diag == 0.0) {
    (*x)[static_cast<std::size_t>(i)] = 0.0;
    return false;
  }
  (*x)[static_cast<std::size_t>(i)] = sum / diag;
  return true;
}

// One row of backward substitution (serial-loop arithmetic, see above).
inline bool UpperRow(const CsrMatrix& u, index_t i, Vector* x) {
  real_t diag = 0.0;
  real_t sum = (*x)[static_cast<std::size_t>(i)];
  for (index_t p = u.row_ptr()[static_cast<std::size_t>(i)];
       p < u.row_ptr()[static_cast<std::size_t>(i) + 1]; ++p) {
    const index_t j = u.col_idx()[static_cast<std::size_t>(p)];
    const real_t v = u.values()[static_cast<std::size_t>(p)];
    if (j > i) {
      sum -= v * (*x)[static_cast<std::size_t>(j)];
    } else if (j == i) {
      diag = v;
    }
  }
  if (diag == 0.0) {
    (*x)[static_cast<std::size_t>(i)] = 0.0;
    return false;
  }
  (*x)[static_cast<std::size_t>(i)] = sum / diag;
  return true;
}

inline void AtomicMin(std::atomic<index_t>* a, index_t v) {
  index_t cur = a->load(std::memory_order_relaxed);
  while (v < cur &&
         !a->compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

inline void AtomicMax(std::atomic<index_t>* a, index_t v) {
  index_t cur = a->load(std::memory_order_relaxed);
  while (v > cur &&
         !a->compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

}  // namespace

// Shared level construction: `lower` selects which side of the diagonal
// carries dependencies. For the lower (forward) pattern dependencies of row
// i are columns < i, so levels are computable scanning rows ascending; for
// the upper (backward) pattern they are columns > i, scanned descending.
LevelSchedule LevelSchedule::Build(const KernelCsr& m, bool lower) {
  const index_t n = m.rows();
  std::vector<index_t> level(static_cast<std::size_t>(n), 0);
  index_t num_levels = 0;
  m.Visit([&](const auto* row_ptr, const auto* col_idx) {
    for (index_t step = 0; step < n; ++step) {
      const index_t i = lower ? step : n - 1 - step;
      index_t lvl = 0;
      for (auto p = row_ptr[i]; p < row_ptr[i + 1]; ++p) {
        const auto j = static_cast<index_t>(col_idx[p]);
        const bool dep = lower ? (j < i) : (j > i);
        if (dep) {
          lvl = std::max(lvl, level[static_cast<std::size_t>(j)] + 1);
        }
      }
      level[static_cast<std::size_t>(i)] = lvl;
      num_levels = std::max(num_levels, lvl + 1);
    }
  });
  LevelSchedule s;
  s.level_ptr_.assign(static_cast<std::size_t>(num_levels) + 1, 0);
  for (index_t i = 0; i < n; ++i) {
    ++s.level_ptr_[static_cast<std::size_t>(level[static_cast<std::size_t>(i)]) + 1];
  }
  for (std::size_t l = 1; l < s.level_ptr_.size(); ++l) {
    s.level_ptr_[l] += s.level_ptr_[l - 1];
  }
  s.rows_.resize(static_cast<std::size_t>(n));
  std::vector<index_t> cursor(s.level_ptr_.begin(), s.level_ptr_.end() - 1);
  for (index_t i = 0; i < n; ++i) {  // ascending fill => ascending per level
    const index_t lvl = level[static_cast<std::size_t>(i)];
    s.rows_[static_cast<std::size_t>(cursor[static_cast<std::size_t>(lvl)]++)] =
        i;
  }
  return s;
}

LevelSchedule LevelSchedule::BuildLower(const KernelCsr& m) {
  return Build(m, /*lower=*/true);
}

LevelSchedule LevelSchedule::BuildUpper(const KernelCsr& m) {
  return Build(m, /*lower=*/false);
}

LevelSchedule LevelSchedule::BuildLower(const CsrMatrix& m) {
  return Build(KernelCsr::Bind(m, KernelPath::kWide), /*lower=*/true);
}

LevelSchedule LevelSchedule::BuildUpper(const CsrMatrix& m) {
  return Build(KernelCsr::Bind(m, KernelPath::kWide), /*lower=*/false);
}

Result<LevelSchedule> LevelSchedule::FromParts(std::vector<index_t> level_ptr,
                                               std::vector<index_t> rows) {
  if (level_ptr.empty() || level_ptr.front() != 0) {
    return Status::InvalidArgument("level schedule: level_ptr must start at 0");
  }
  for (std::size_t l = 1; l < level_ptr.size(); ++l) {
    if (level_ptr[l] < level_ptr[l - 1]) {
      return Status::InvalidArgument(
          "level schedule: level_ptr must be non-decreasing");
    }
  }
  const index_t n = static_cast<index_t>(rows.size());
  if (level_ptr.back() != n) {
    return Status::InvalidArgument(
        "level schedule: level_ptr does not cover all rows");
  }
  std::vector<bool> seen(static_cast<std::size_t>(n), false);
  for (index_t r : rows) {
    if (r < 0 || r >= n || seen[static_cast<std::size_t>(r)]) {
      return Status::InvalidArgument(
          "level schedule: rows must be a permutation of 0..n-1");
    }
    seen[static_cast<std::size_t>(r)] = true;
  }
  LevelSchedule s;
  s.level_ptr_ = std::move(level_ptr);
  s.rows_ = std::move(rows);
  return s;
}

bool LevelSchedule::ValidFor(const KernelCsr& m, bool lower) const {
  if (m.rows() != num_rows()) return false;
  std::vector<index_t> level_of(static_cast<std::size_t>(num_rows()), 0);
  for (index_t l = 0; l < num_levels(); ++l) {
    for (index_t p = level_ptr_[static_cast<std::size_t>(l)];
         p < level_ptr_[static_cast<std::size_t>(l) + 1]; ++p) {
      level_of[static_cast<std::size_t>(rows_[static_cast<std::size_t>(p)])] =
          l;
    }
  }
  // Columns are sorted within a row, so a row's dependencies are a prefix
  // (lower) or a suffix (upper) of it.
  return m.Visit([&](const auto* row_ptr, const auto* col_idx) {
    for (index_t i = 0; i < m.rows(); ++i) {
      const index_t level = level_of[static_cast<std::size_t>(i)];
      if (lower) {
        for (auto p = row_ptr[i]; p < row_ptr[i + 1]; ++p) {
          const auto j = static_cast<index_t>(col_idx[p]);
          if (j >= i) break;
          if (level_of[static_cast<std::size_t>(j)] >= level) return false;
        }
      } else {
        for (auto p = row_ptr[i + 1]; p > row_ptr[i]; --p) {
          const auto j = static_cast<index_t>(col_idx[p - 1]);
          if (j <= i) break;
          if (level_of[static_cast<std::size_t>(j)] >= level) return false;
        }
      }
    }
    return true;
  });
}

bool LevelSchedule::ValidFor(const CsrMatrix& m, bool lower) const {
  return ValidFor(KernelCsr::Bind(m, KernelPath::kWide), lower);
}

Result<Vector> SolveLowerCsr(const CsrMatrix& l, const Vector& b,
                             bool unit_diagonal, const LevelSchedule* levels) {
  if (l.rows() != l.cols()) {
    return Status::InvalidArgument("triangular solve needs a square matrix");
  }
  if (static_cast<index_t>(b.size()) != l.rows()) {
    return Status::InvalidArgument("rhs size mismatch in SolveLowerCsr");
  }
  CountTrisolve(l.nnz());
  const index_t n = l.rows();
  Vector x(b);
  if (levels != nullptr && levels->num_rows() == n) {
    // Level-scheduled form. Rows inside a level are independent; each row
    // runs the exact serial arithmetic (LowerRow), so x is bit-identical
    // to the serial loop below. On a zero diagonal the minimum offending
    // row is reported — the same row the ascending serial scan names.
    std::atomic<index_t> bad{n};
    const std::vector<index_t>& lp = levels->level_ptr();
    const std::vector<index_t>& rows = levels->rows();
    for (index_t lv = 0; lv < levels->num_levels(); ++lv) {
      ParallelFor(lp[static_cast<std::size_t>(lv)],
                  lp[static_cast<std::size_t>(lv) + 1], kLevelGrain,
                  [&](index_t pb, index_t pe) {
                    for (index_t p = pb; p < pe; ++p) {
                      const index_t i = rows[static_cast<std::size_t>(p)];
                      if (!LowerRow(l, i, unit_diagonal, &x)) {
                        AtomicMin(&bad, i);
                      }
                    }
                  });
    }
    const index_t bad_row = bad.load(std::memory_order_relaxed);
    if (bad_row < n) {
      return Status::FailedPrecondition("zero diagonal in lower solve at row " +
                                        std::to_string(bad_row));
    }
    return x;
  }
  for (index_t i = 0; i < n; ++i) {
    if (!LowerRow(l, i, unit_diagonal, &x)) {
      return Status::FailedPrecondition("zero diagonal in lower solve at row " +
                                        std::to_string(i));
    }
  }
  return x;
}

Result<Vector> SolveUpperCsr(const CsrMatrix& u, const Vector& b,
                             const LevelSchedule* levels) {
  if (u.rows() != u.cols()) {
    return Status::InvalidArgument("triangular solve needs a square matrix");
  }
  if (static_cast<index_t>(b.size()) != u.rows()) {
    return Status::InvalidArgument("rhs size mismatch in SolveUpperCsr");
  }
  CountTrisolve(u.nnz());
  const index_t n = u.rows();
  Vector x(b);
  if (levels != nullptr && levels->num_rows() == n) {
    // As in SolveLowerCsr; the descending serial scan names the maximum
    // offending row, so that is what the parallel form reports too.
    std::atomic<index_t> bad{-1};
    const std::vector<index_t>& lp = levels->level_ptr();
    const std::vector<index_t>& rows = levels->rows();
    for (index_t lv = 0; lv < levels->num_levels(); ++lv) {
      ParallelFor(lp[static_cast<std::size_t>(lv)],
                  lp[static_cast<std::size_t>(lv) + 1], kLevelGrain,
                  [&](index_t pb, index_t pe) {
                    for (index_t p = pb; p < pe; ++p) {
                      const index_t i = rows[static_cast<std::size_t>(p)];
                      if (!UpperRow(u, i, &x)) {
                        AtomicMax(&bad, i);
                      }
                    }
                  });
    }
    const index_t bad_row = bad.load(std::memory_order_relaxed);
    if (bad_row >= 0) {
      return Status::FailedPrecondition("zero diagonal in upper solve at row " +
                                        std::to_string(bad_row));
    }
    return x;
  }
  for (index_t i = n - 1; i >= 0; --i) {
    if (!UpperRow(u, i, &x)) {
      return Status::FailedPrecondition("zero diagonal in upper solve at row " +
                                        std::to_string(i));
    }
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
