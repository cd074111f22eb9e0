#include "sparse/kernel.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <utility>

#include "common/check.hpp"
#include "common/log.hpp"
#include "common/metrics.hpp"
#include "common/parallel.hpp"

namespace bepi {
namespace {

/// Every stored index on the compact path must fit an int32; bounding
/// rows/cols/nnz by INT32_MAX bounds them all (row_ptr entries by nnz,
/// column indices by cols - 1).
constexpr index_t kCompactLimit = 2147483647;  // INT32_MAX

/// Same accounting as CsrMatrix's CountSpmv: kernel-layer SpMVs feed the
/// spmv.calls/spmv.flops counters the query telemetry is built on.
inline void CountSpmv(index_t nnz) {
  if (!MetricsEnabled()) return;
  BEPI_METRIC_COUNTER(spmv_calls, "spmv.calls");
  BEPI_METRIC_COUNTER(spmv_flops, "spmv.flops");
  spmv_calls->Increment();
  spmv_flops->Increment(2 * static_cast<std::uint64_t>(nnz));
}

/// Streamed bytes of a plain (non-fused) kernel SpMV under the same
/// traffic model as CountFused/CountSpmm, so scalar and panel solves are
/// comparable on one axis (bench_batch_serve plots exactly this). Fused
/// ops count under spmv.fused.bytes instead — the three byte counters
/// partition the kernel-layer matrix traffic, never overlapping.
inline void CountSpmvBytes(index_t rows, index_t cols, index_t nnz,
                           bool compact) {
  if (!MetricsEnabled()) return;
  BEPI_METRIC_COUNTER(spmv_bytes, "spmv.bytes");
  const std::uint64_t idx = compact ? 4 : 8;
  spmv_bytes->Increment(
      static_cast<std::uint64_t>(nnz) * (idx + sizeof(real_t)) +
      static_cast<std::uint64_t>(rows + 1) * idx +
      (static_cast<std::uint64_t>(cols) + static_cast<std::uint64_t>(rows)) *
          sizeof(real_t));
}

/// Fused-kernel tallies: calls, useful FLOPs and streamed bytes under a
/// simple traffic model (index + value arrays once, the dense operand
/// vectors once). The bytes counter is what makes the compact path's
/// bandwidth saving visible in --metrics-out.
inline void CountFused(index_t rows, index_t cols, index_t nnz,
                       std::uint64_t extra_flops, std::uint64_t vec_reads,
                       bool compact) {
  if (!MetricsEnabled()) return;
  BEPI_METRIC_COUNTER(fused_calls, "spmv.fused.calls");
  BEPI_METRIC_COUNTER(fused_flops, "spmv.fused.flops");
  BEPI_METRIC_COUNTER(fused_bytes, "spmv.fused.bytes");
  const std::uint64_t idx = compact ? 4 : 8;
  fused_calls->Increment();
  fused_flops->Increment(2 * static_cast<std::uint64_t>(nnz) + extra_flops);
  fused_bytes->Increment(
      static_cast<std::uint64_t>(nnz) * (idx + sizeof(real_t)) +
      static_cast<std::uint64_t>(rows + 1) * idx +
      (static_cast<std::uint64_t>(cols) +
       vec_reads * static_cast<std::uint64_t>(rows)) *
          sizeof(real_t));
}

/// Panel-kernel tallies, mirroring CountSpmv/CountFused: one SpMM call
/// streams the matrix once for k right-hand sides, so the per-column
/// byte cost visible in spmm.bytes falls as k grows (the amortization
/// the serve batcher exists to exploit). The traffic model charges the
/// index/value arrays once and the dense panels once each.
inline void CountSpmm(index_t rows, index_t cols, index_t nnz, index_t k,
                      bool compact) {
  if (!MetricsEnabled()) return;
  BEPI_METRIC_COUNTER(spmm_calls, "spmm.calls");
  BEPI_METRIC_COUNTER(spmm_cols, "spmm.columns");
  BEPI_METRIC_COUNTER(spmm_flops, "spmm.flops");
  BEPI_METRIC_COUNTER(spmm_bytes, "spmm.bytes");
  const std::uint64_t idx = compact ? 4 : 8;
  spmm_calls->Increment();
  spmm_cols->Increment(static_cast<std::uint64_t>(k));
  spmm_flops->Increment(2 * static_cast<std::uint64_t>(nnz) *
                        static_cast<std::uint64_t>(k));
  spmm_bytes->Increment(
      static_cast<std::uint64_t>(nnz) * (idx + sizeof(real_t)) +
      static_cast<std::uint64_t>(rows + 1) * idx +
      (static_cast<std::uint64_t>(cols) + static_cast<std::uint64_t>(rows)) *
          static_cast<std::uint64_t>(k) * sizeof(real_t));
}

/// Panel columns are processed in register-friendly groups of this width;
/// the grouping only affects which columns share a pass over a row, never
/// the per-column accumulation order, so it is invisible to results.
constexpr index_t kSpmmColChunk = 16;

/// Matrices below this many non-zeros are not worth farming out (matches
/// the CsrMatrix SpMV threshold so wide/compact parallelize alike).
constexpr index_t kSpmvGrainNnz = 16384;

/// nnz-balanced row partitioning, generic over the row-pointer width; the
/// same scheme as csr.cpp's ParallelOverRows. Row-partitioned SpMV is
/// bit-identical at any thread count because each output row keeps its
/// in-row accumulation order.
template <typename P, typename Fn>
void ParallelOverRowsT(const P* row_ptr, index_t rows, index_t nnz,
                       const Fn& rows_fn) {
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
      const P target = static_cast<P>(nnz / chunks * c);
      row_end = static_cast<index_t>(
          std::lower_bound(row_ptr + row, row_ptr + rows + 1, target) -
          row_ptr);
      row_end = std::min(std::max(row_end, row + 1), rows);
    }
    const index_t b = row, e = row_end;
    group.Run([&rows_fn, b, e] { rows_fn(b, e); });
    row = row_end;
  }
  group.Wait();
}

/// The shared inner row loop: one dot product per output row. Templated
/// over the index width so the compact and wide paths compile to the same
/// instruction sequence modulo load width — and therefore produce
/// identical floating-point results.
template <typename P, typename I>
inline real_t RowDotT(const P* row_ptr, const I* col_idx, const real_t* values,
                      const real_t* x, index_t r) {
  real_t sum = 0.0;
  const std::size_t end = static_cast<std::size_t>(row_ptr[r + 1]);
  for (std::size_t p = static_cast<std::size_t>(row_ptr[r]); p < end; ++p) {
    sum += values[p] * x[static_cast<std::size_t>(col_idx[p])];
  }
  return sum;
}

template <typename P, typename I>
void SpmvInto(const P* row_ptr, const I* col_idx, const real_t* values,
              index_t rows, index_t nnz, const real_t* x, real_t* y) {
  ParallelOverRowsT(row_ptr, rows, nnz, [&](index_t rb, index_t re) {
    for (index_t r = rb; r < re; ++r) {
      y[static_cast<std::size_t>(r)] = RowDotT(row_ptr, col_idx, values, x, r);
    }
  });
}

template <typename P, typename I>
void SpmvAdd(const P* row_ptr, const I* col_idx, const real_t* values,
             index_t rows, index_t nnz, real_t alpha, const real_t* x,
             real_t* y) {
  ParallelOverRowsT(row_ptr, rows, nnz, [&](index_t rb, index_t re) {
    for (index_t r = rb; r < re; ++r) {
      y[static_cast<std::size_t>(r)] +=
          alpha * RowDotT(row_ptr, col_idx, values, x, r);
    }
  });
}

template <typename P, typename I>
void SpmvResidual(const P* row_ptr, const I* col_idx, const real_t* values,
                  index_t rows, index_t nnz, const real_t* x, const real_t* b,
                  real_t* y) {
  ParallelOverRowsT(row_ptr, rows, nnz, [&](index_t rb, index_t re) {
    for (index_t r = rb; r < re; ++r) {
      y[static_cast<std::size_t>(r)] =
          b[static_cast<std::size_t>(r)] -
          RowDotT(row_ptr, col_idx, values, x, r);
    }
  });
}

/// SpMV with an embedded dot against `d`. Chunked by kReduceGrain over the
/// row range — the very chunking Dot uses over the element range — and
/// combined by ParallelReduceSum's fixed pairwise order, so the result is
/// bitwise the unfused SpMV-then-Dot value.
template <typename P, typename I>
real_t SpmvDot(const P* row_ptr, const I* col_idx, const real_t* values,
               index_t rows, const real_t* x, const real_t* d, real_t* y) {
  return ParallelReduceSum(0, rows, kReduceGrain,
                           [&](index_t rb, index_t re) {
                             real_t partial = 0.0;
                             for (index_t r = rb; r < re; ++r) {
                               const real_t yr =
                                   RowDotT(row_ptr, col_idx, values, x, r);
                               y[static_cast<std::size_t>(r)] = yr;
                               partial += yr * d[static_cast<std::size_t>(r)];
                             }
                             return partial;
                           });
}

/// Row-major panel SpMM: for each row, each column j of the chunk keeps
/// its own accumulator and adds values[p] * x[col_idx[p]*k + j] in p
/// order — the exact addition sequence RowDotT performs for that column —
/// before the single store (SpmmInto) or fused alpha-add (SpmmAdd).
template <typename P, typename I>
void SpmmInto(const P* row_ptr, const I* col_idx, const real_t* values,
              index_t rows, index_t nnz, const real_t* x, index_t k,
              real_t* y) {
  ParallelOverRowsT(row_ptr, rows, nnz, [&](index_t rb, index_t re) {
    real_t acc[kSpmmColChunk];
    for (index_t r = rb; r < re; ++r) {
      real_t* yr = y + static_cast<std::size_t>(r) * static_cast<std::size_t>(k);
      const std::size_t p0 = static_cast<std::size_t>(row_ptr[r]);
      const std::size_t p1 = static_cast<std::size_t>(row_ptr[r + 1]);
      for (index_t jb = 0; jb < k; jb += kSpmmColChunk) {
        const index_t jw = std::min<index_t>(kSpmmColChunk, k - jb);
        for (index_t j = 0; j < jw; ++j) acc[j] = 0.0;
        for (std::size_t p = p0; p < p1; ++p) {
          const real_t v = values[p];
          const real_t* xc = x +
                             static_cast<std::size_t>(col_idx[p]) *
                                 static_cast<std::size_t>(k) +
                             static_cast<std::size_t>(jb);
          for (index_t j = 0; j < jw; ++j) acc[j] += v * xc[j];
        }
        for (index_t j = 0; j < jw; ++j) yr[jb + j] = acc[j];
      }
    }
  });
}

template <typename P, typename I>
void SpmmAdd(const P* row_ptr, const I* col_idx, const real_t* values,
             index_t rows, index_t nnz, real_t alpha, const real_t* x,
             index_t k, real_t* y) {
  ParallelOverRowsT(row_ptr, rows, nnz, [&](index_t rb, index_t re) {
    real_t acc[kSpmmColChunk];
    for (index_t r = rb; r < re; ++r) {
      real_t* yr = y + static_cast<std::size_t>(r) * static_cast<std::size_t>(k);
      const std::size_t p0 = static_cast<std::size_t>(row_ptr[r]);
      const std::size_t p1 = static_cast<std::size_t>(row_ptr[r + 1]);
      for (index_t jb = 0; jb < k; jb += kSpmmColChunk) {
        const index_t jw = std::min<index_t>(kSpmmColChunk, k - jb);
        for (index_t j = 0; j < jw; ++j) acc[j] = 0.0;
        for (std::size_t p = p0; p < p1; ++p) {
          const real_t v = values[p];
          const real_t* xc = x +
                             static_cast<std::size_t>(col_idx[p]) *
                                 static_cast<std::size_t>(k) +
                             static_cast<std::size_t>(jb);
          for (index_t j = 0; j < jw; ++j) acc[j] += v * xc[j];
        }
        for (index_t j = 0; j < jw; ++j) yr[jb + j] += alpha * acc[j];
      }
    }
  });
}

std::atomic<KernelPath>& GlobalKernelPathStorage() {
  static std::atomic<KernelPath> path{[] {
    const char* env = std::getenv("BEPI_KERNEL");
    if (env == nullptr || *env == '\0') return KernelPath::kAuto;
    Result<KernelPath> parsed = ParseKernelPath(env);
    if (!parsed.ok()) {
      BEPI_LOG(Warning) << "ignoring BEPI_KERNEL='" << env
                        << "' (want auto|wide|compact)";
      return KernelPath::kAuto;
    }
    return *parsed;
  }()};
  return path;
}

}  // namespace

const char* KernelPathName(KernelPath path) {
  switch (path) {
    case KernelPath::kAuto:
      return "auto";
    case KernelPath::kWide:
      return "wide";
    case KernelPath::kCompact:
      return "compact";
  }
  return "?";
}

Result<KernelPath> ParseKernelPath(const std::string& name) {
  if (name == "auto") return KernelPath::kAuto;
  if (name == "wide") return KernelPath::kWide;
  if (name == "compact") return KernelPath::kCompact;
  return Status::InvalidArgument("unknown kernel path '" + name +
                                 "' (want auto|wide|compact)");
}

KernelPath GlobalKernelPath() {
  return GlobalKernelPathStorage().load(std::memory_order_relaxed);
}

void SetGlobalKernelPath(KernelPath path) {
  GlobalKernelPathStorage().store(path, std::memory_order_relaxed);
}

bool FitsCompactDims(index_t rows, index_t cols, index_t nnz) {
  return rows >= 0 && cols >= 0 && nnz >= 0 && rows <= kCompactLimit &&
         cols <= kCompactLimit && nnz <= kCompactLimit;
}

namespace {

/// Whether `requested` puts a matrix of these dimensions on the compact
/// path.
bool ResolvesCompact(KernelPath requested, index_t rows, index_t cols,
                     index_t nnz) {
  return requested != KernelPath::kWide && FitsCompactDims(rows, cols, nnz);
}

/// Index arrays a converted view owns.
template <typename T>
struct OwnedIndices {
  std::vector<T> row_ptr, col_idx;
};

/// The index arrays as T.
template <typename T, typename P, typename I>
std::shared_ptr<OwnedIndices<T>> ConvertIndices(const P* row_ptr,
                                                const I* col_idx, index_t rows,
                                                index_t nnz) {
  auto owned = std::make_shared<OwnedIndices<T>>();
  owned->row_ptr.assign(row_ptr, row_ptr + rows + 1);
  owned->col_idx.assign(col_idx, col_idx + nnz);
  return owned;
}

/// Every check CsrMatrix::Validate makes, over arrays used in place: each
/// row's end is bounded by nnz before its columns are read.
template <typename P, typename I>
Status ValidateArrays(index_t rows, index_t cols, index_t nnz,
                      const P* row_ptr, const I* col_idx) {
  if (static_cast<index_t>(row_ptr[0]) != 0) {
    return Status::InvalidArgument("row_ptr must start at 0");
  }
  if (static_cast<index_t>(row_ptr[rows]) != nnz) {
    return Status::InvalidArgument("nnz arrays inconsistent with row_ptr");
  }
  for (index_t r = 0; r < rows; ++r) {
    const auto begin = static_cast<index_t>(row_ptr[r]);
    const auto end = static_cast<index_t>(row_ptr[r + 1]);
    if (begin > end) return Status::InvalidArgument("row_ptr not monotone");
    if (end > nnz) return Status::InvalidArgument("row_ptr exceeds nnz");
    for (index_t p = begin; p < end; ++p) {
      const auto c = static_cast<index_t>(col_idx[p]);
      if (c < 0 || c >= cols) {
        return Status::OutOfRange("column index out of range");
      }
      if (p > begin && static_cast<index_t>(col_idx[p - 1]) >= c) {
        return Status::InvalidArgument(
            "column indices not sorted/unique within a row");
      }
    }
  }
  return Status::Ok();
}

}  // namespace

KernelCsr KernelCsr::Bind(const CsrMatrix& m, KernelPath requested) {
  KernelCsr k;
  k.rows_ = m.rows();
  k.cols_ = m.cols();
  k.nnz_ = m.nnz();
  k.row_ptr_ = m.row_ptr().data();
  k.col_idx_ = m.col_idx().data();
  k.values_ = m.values().data();
  return k.WithPath(requested);
}

KernelCsr KernelCsr::Own(CsrMatrix m, KernelPath requested) {
  // A moved vector keeps its buffer, so Bind's pointers into m stay valid.
  KernelCsr k = Bind(m, requested);
  k.values_owner_ = std::make_shared<const std::vector<real_t>>(
      std::move(m.mutable_values()));
  // Compact indices are Bind's copies, and m's are freed on return.
  if (!k.compact()) {
    k.index_owner_ = std::make_shared<const CsrMatrix>(std::move(m));
  }
  return k;
}

Result<KernelCsr> KernelCsr::FromArrays(index_t rows, index_t cols,
                                        index_t nnz, std::uint64_t width,
                                        const void* row_ptr,
                                        const void* col_idx,
                                        const real_t* values,
                                        std::shared_ptr<const void> owner) {
  if (rows < 0 || cols < 0 || nnz < 0) {
    return Status::InvalidArgument("negative matrix dimension");
  }
  if (width != sizeof(std::uint32_t) && width != sizeof(index_t)) {
    return Status::InvalidArgument("index width " + std::to_string(width));
  }
  if (width == sizeof(std::uint32_t) && !FitsCompactDims(rows, cols, nnz)) {
    return Status::InvalidArgument("4-byte indices for a matrix past 2^31");
  }
  KernelCsr k;
  k.rows_ = rows;
  k.cols_ = cols;
  k.nnz_ = nnz;
  k.width_ = width;
  k.row_ptr_ = row_ptr;
  k.col_idx_ = col_idx;
  k.values_ = values;
  BEPI_RETURN_IF_ERROR(k.Visit([&](const auto* rp, const auto* ci) {
    return ValidateArrays(rows, cols, nnz, rp, ci);
  }));
  k.index_owner_ = owner;
  k.values_owner_ = std::move(owner);
  return k;
}

KernelCsr KernelCsr::WithPath(KernelPath requested) const {
  const bool want_compact = ResolvesCompact(requested, rows_, cols_, nnz_);
  if (want_compact == compact()) return *this;
  KernelCsr k = *this;
  const auto adopt = [&k](auto owned) {
    k.row_ptr_ = owned->row_ptr.data();
    k.col_idx_ = owned->col_idx.data();
    k.index_owner_ = std::move(owned);
  };
  Visit([&](const auto* rp, const auto* ci) {
    if (want_compact) {
      adopt(ConvertIndices<std::uint32_t>(rp, ci, rows_, nnz_));
    } else {
      adopt(ConvertIndices<index_t>(rp, ci, rows_, nnz_));
    }
  });
  k.width_ = want_compact ? sizeof(std::uint32_t) : sizeof(index_t);
  return k;
}

CsrMatrix KernelCsr::ToCsr() const {
  std::vector<index_t> row_ptr, col_idx;
  Visit([&](const auto* rp, const auto* ci) {
    row_ptr.assign(rp, rp + rows_ + 1);
    col_idx.assign(ci, ci + nnz_);
  });
  Result<CsrMatrix> m = CsrMatrix::FromParts(
      rows_, cols_, std::move(row_ptr), std::move(col_idx),
      std::vector<real_t>(values_, values_ + nnz_));
  BEPI_CHECK(m.ok());
  return std::move(m).value();
}

std::uint64_t KernelCsr::PatternBytes() const {
  return (static_cast<std::uint64_t>(rows_) + 1 +
          static_cast<std::uint64_t>(nnz_)) *
         width_;
}

std::uint64_t KernelCsr::ByteSize() const {
  return PatternBytes() + static_cast<std::uint64_t>(nnz_) * sizeof(real_t);
}

Vector KernelCsr::Multiply(const Vector& x) const {
  Vector y;
  MultiplyInto(x, &y);
  return y;
}

void KernelCsr::MultiplyInto(const Vector& x, Vector* y) const {
  BEPI_CHECK(static_cast<index_t>(x.size()) == cols_);
  CountSpmv(nnz_);
  CountSpmvBytes(rows_, cols_, nnz_, compact());
  y->resize(static_cast<std::size_t>(rows_));
  Visit([&](const auto* rp, const auto* ci) {
    SpmvInto(rp, ci, values_, rows_, nnz_, x.data(), y->data());
  });
}

void KernelCsr::MultiplyAdd(real_t alpha, const Vector& x, Vector* y) const {
  BEPI_CHECK(static_cast<index_t>(x.size()) == cols_);
  BEPI_CHECK(static_cast<index_t>(y->size()) == rows_);
  CountSpmv(nnz_);
  CountSpmvBytes(rows_, cols_, nnz_, compact());
  Visit([&](const auto* rp, const auto* ci) {
    SpmvAdd(rp, ci, values_, rows_, nnz_, alpha, x.data(), y->data());
  });
}

void KernelCsr::ResidualInto(const Vector& x, const Vector& b,
                             Vector* y) const {
  BEPI_CHECK(static_cast<index_t>(x.size()) == cols_);
  BEPI_CHECK(static_cast<index_t>(b.size()) == rows_);
  CountSpmv(nnz_);
  CountFused(rows_, cols_, nnz_, /*extra_flops=*/
             static_cast<std::uint64_t>(rows_), /*vec_reads=*/2, compact());
  y->resize(static_cast<std::size_t>(rows_));
  Visit([&](const auto* rp, const auto* ci) {
    SpmvResidual(rp, ci, values_, rows_, nnz_, x.data(), b.data(), y->data());
  });
}

real_t KernelCsr::MultiplyDot(const Vector& x, const Vector& d,
                              Vector* y) const {
  BEPI_CHECK(static_cast<index_t>(x.size()) == cols_);
  BEPI_CHECK(static_cast<index_t>(d.size()) == rows_);
  CountSpmv(nnz_);
  CountFused(rows_, cols_, nnz_, /*extra_flops=*/
             2 * static_cast<std::uint64_t>(rows_), /*vec_reads=*/2,
             compact());
  y->resize(static_cast<std::size_t>(rows_));
  return Visit([&](const auto* rp, const auto* ci) {
    return SpmvDot(rp, ci, values_, rows_, x.data(), d.data(), y->data());
  });
}

void KernelCsr::MultiplyMulti(const real_t* x, index_t k, real_t* y) const {
  BEPI_CHECK(k >= 1);
  CountSpmm(rows_, cols_, nnz_, k, compact());
  Visit([&](const auto* rp, const auto* ci) {
    SpmmInto(rp, ci, values_, rows_, nnz_, x, k, y);
  });
}

void KernelCsr::MultiplyAddMulti(real_t alpha, const real_t* x, index_t k,
                                 real_t* y) const {
  BEPI_CHECK(k >= 1);
  CountSpmm(rows_, cols_, nnz_, k, compact());
  Visit([&](const auto* rp, const auto* ci) {
    SpmmAdd(rp, ci, values_, rows_, nnz_, alpha, x, k, y);
  });
}

}  // namespace bepi
