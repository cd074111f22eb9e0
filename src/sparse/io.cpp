#include "sparse/io.hpp"

#include "sparse/kernel.hpp"

namespace bepi {

std::uint64_t IndexWidth(index_t rows, index_t cols, index_t nnz) {
  return FitsCompactDims(rows, cols, nnz) ? sizeof(std::uint32_t)
                                          : sizeof(index_t);
}

std::string EncodeMatrix(const CsrMatrix& m) {
  const std::uint64_t width = IndexWidth(m.rows(), m.cols(), m.nnz());
  PayloadWriter out;
  out.U64(static_cast<std::uint64_t>(m.rows()));
  out.U64(static_cast<std::uint64_t>(m.cols()));
  out.U64(static_cast<std::uint64_t>(m.nnz()));
  out.U64(width);
  out.Indices(m.row_ptr(), width);
  out.Indices(m.col_idx(), width);
  out.Reals(m.values());
  return std::move(out.bytes());
}

Result<CsrMatrix> DecodeMatrix(const Section& section, index_t rows,
                               index_t cols) {
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
  std::vector<index_t> row_ptr = in.Indices(r + 1, width);
  std::vector<index_t> col_idx = in.Indices(nnz, width);
  std::vector<real_t> values = in.Reals(nnz);
  BEPI_RETURN_IF_ERROR(in.Finish());
  Result<CsrMatrix> m = CsrMatrix::FromParts(
      rows, cols, std::move(row_ptr), std::move(col_idx), std::move(values));
  if (!m.ok()) return in.Malformed(m.status().message());
  return m;
}

}  // namespace bepi
