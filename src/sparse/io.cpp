#include "sparse/io.hpp"

#include "common/fileio.hpp"

namespace bepi {

std::uint64_t IndexWidth(index_t rows, index_t cols, index_t nnz) {
  return FitsCompactDims(rows, cols, nnz) ? sizeof(std::uint32_t)
                                          : sizeof(index_t);
}

std::string EncodeMatrix(const KernelCsr& m) {
  const std::uint64_t width = IndexWidth(m.rows(), m.cols(), m.nnz());
  PayloadWriter out;
  out.U64(static_cast<std::uint64_t>(m.rows()));
  out.U64(static_cast<std::uint64_t>(m.cols()));
  out.U64(static_cast<std::uint64_t>(m.nnz()));
  out.U64(width);
  m.Visit([&](const auto* row_ptr, const auto* col_idx) {
    out.Indices(row_ptr, static_cast<std::size_t>(m.rows()) + 1, width);
    out.Indices(col_idx, static_cast<std::size_t>(m.nnz()), width);
  });
  out.Reals(m.values(), static_cast<std::size_t>(m.nnz()));
  return std::move(out.bytes());
}

std::string EncodeMatrix(const CsrMatrix& m) {
  return EncodeMatrix(KernelCsr::Bind(m, KernelPath::kWide));
}

Result<KernelCsr> DecodeMatrixView(const Section& section, index_t rows,
                                   index_t cols,
                                   std::shared_ptr<const void> owner) {
  PayloadReader in(section);
  const std::uint64_t r = in.U64(), c = in.U64(), nnz = in.U64(),
                      width = in.U64();
  BEPI_RETURN_IF_ERROR(in.status());
  if (r != static_cast<std::uint64_t>(rows) ||
      c != static_cast<std::uint64_t>(cols)) {
    return in.Malformed("holds a " + std::to_string(r) + "x" +
                        std::to_string(c) + " matrix, expected " +
                        std::to_string(rows) + "x" + std::to_string(cols));
  }
  if (width != sizeof(std::uint32_t) && width != sizeof(index_t)) {
    return in.Malformed("index width " + std::to_string(width));
  }
  // Each count is bounded by the bytes left before the view is formed.
  const void* row_ptr = in.BorrowArray(r + 1, width);
  const void* col_idx = in.BorrowArray(nnz, width);
  const void* values = in.BorrowArray(nnz, sizeof(real_t));
  BEPI_RETURN_IF_ERROR(in.Finish());
  Result<KernelCsr> m = KernelCsr::FromArrays(
      rows, cols, static_cast<index_t>(nnz), width, row_ptr, col_idx,
      static_cast<const real_t*>(values), std::move(owner));
  if (!m.ok()) return in.Malformed(m.status().message());
  return m;
}

Result<CsrMatrix> DecodeMatrix(const Section& section, index_t rows,
                               index_t cols) {
  // Checkpoint payloads are copies in ordinary strings; give the view
  // decoder the alignment it checks.
  const std::shared_ptr<const AlignedBytes> aligned =
      CopyAligned(section.payload);
  BEPI_ASSIGN_OR_RETURN(
      const KernelCsr m,
      DecodeMatrixView(Section{section.name, aligned->view()}, rows, cols,
                       aligned));
  return m.ToCsr();
}

}  // namespace bepi
