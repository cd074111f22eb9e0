// The CSR payload codec: how a matrix is stored in a section of a model
// (format v8) or a preprocessing checkpoint (common/sections.hpp frames
// both), so the two hold the same bytes for the same matrix.
#ifndef BEPI_SPARSE_IO_HPP_
#define BEPI_SPARSE_IO_HPP_

#include <cstdint>
#include <memory>
#include <string>

#include "common/sections.hpp"
#include "common/status.hpp"
#include "sparse/csr.hpp"
#include "sparse/kernel.hpp"

namespace bepi {

/// Bytes per stored index: 4 when the compact kernel layout's 32-bit rule
/// holds (sparse/kernel.hpp FitsCompactDims), 8 otherwise.
std::uint64_t IndexWidth(index_t rows, index_t cols, index_t nnz);

/// rows, cols, nnz, index width, then row_ptr, col_idx and the values,
/// each array on a 64-byte boundary. The stored width is IndexWidth's,
/// whatever the view's own.
std::string EncodeMatrix(const KernelCsr& m);
std::string EncodeMatrix(const CsrMatrix& m);

/// The matrix in `section` as a view of the payload's own arrays, which
/// must sit on 64-byte boundaries in memory and stay alive through
/// `owner`. It must have the shape rows x cols (known to the caller) and
/// pass KernelCsr::FromArrays' validation.
Result<KernelCsr> DecodeMatrixView(const Section& section, index_t rows,
                                   index_t cols,
                                   std::shared_ptr<const void> owner);

/// The same decode into a builder matrix (checkpoints), from any buffer.
Result<CsrMatrix> DecodeMatrix(const Section& section, index_t rows,
                               index_t cols);

}  // namespace bepi

#endif  // BEPI_SPARSE_IO_HPP_
