#include <gtest/gtest.h>

#include "sparse/coo.hpp"
#include "sparse/csr.hpp"
#include "test_util.hpp"

namespace bepi {
namespace {

TEST(Coo, EmptyToCsr) {
  CooMatrix coo(3, 4);
  auto csr = coo.ToCsr();
  ASSERT_TRUE(csr.ok());
  EXPECT_EQ(csr->rows(), 3);
  EXPECT_EQ(csr->cols(), 4);
  EXPECT_EQ(csr->nnz(), 0);
  EXPECT_TRUE(csr->Validate().ok());
}

TEST(Coo, DuplicatesAreSummed) {
  CooMatrix coo(2, 2);
  coo.Add(0, 1, 1.0);
  coo.Add(0, 1, 2.5);
  coo.Add(1, 0, -1.0);
  auto csr = coo.ToCsr();
  ASSERT_TRUE(csr.ok());
  EXPECT_EQ(csr->nnz(), 2);
  EXPECT_DOUBLE_EQ(csr->At(0, 1), 3.5);
  EXPECT_DOUBLE_EQ(csr->At(1, 0), -1.0);
}

TEST(Coo, CancellationDropsEntry) {
  CooMatrix coo(2, 2);
  coo.Add(0, 0, 1.0);
  coo.Add(0, 0, -1.0);
  coo.Add(1, 1, 2.0);
  auto csr = coo.ToCsr();
  ASSERT_TRUE(csr.ok());
  EXPECT_EQ(csr->nnz(), 1);
  EXPECT_DOUBLE_EQ(csr->At(0, 0), 0.0);
}

TEST(Coo, OutOfRangeEntryFails) {
  CooMatrix coo(2, 2);
  coo.Add(2, 0, 1.0);
  EXPECT_EQ(coo.ToCsr().status().code(), StatusCode::kOutOfRange);
  CooMatrix coo2(2, 2);
  coo2.Add(0, -1, 1.0);
  EXPECT_EQ(coo2.ToCsr().status().code(), StatusCode::kOutOfRange);
}

TEST(Coo, CompactSortsByRowThenCol) {
  CooMatrix coo(3, 3);
  coo.Add(2, 1, 1.0);
  coo.Add(0, 2, 1.0);
  coo.Add(0, 0, 1.0);
  coo.Compact();
  ASSERT_EQ(coo.nnz(), 3);
  EXPECT_EQ(coo.triplets()[0].row, 0);
  EXPECT_EQ(coo.triplets()[0].col, 0);
  EXPECT_EQ(coo.triplets()[1].col, 2);
  EXPECT_EQ(coo.triplets()[2].row, 2);
}

TEST(Csr, IdentityAndDiagonal) {
  CsrMatrix i3 = CsrMatrix::Identity(3);
  EXPECT_EQ(i3.nnz(), 3);
  EXPECT_DOUBLE_EQ(i3.At(1, 1), 1.0);
  EXPECT_DOUBLE_EQ(i3.At(0, 1), 0.0);

  CsrMatrix d = CsrMatrix::Diagonal({2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(d.At(2, 2), 4.0);
  Vector y = d.Multiply({1.0, 1.0, 1.0});
  EXPECT_DOUBLE_EQ(y[1], 3.0);
}

TEST(Csr, ZeroMatrix) {
  CsrMatrix z = CsrMatrix::Zero(2, 5);
  EXPECT_EQ(z.nnz(), 0);
  Vector y = z.Multiply(Vector(5, 1.0));
  EXPECT_EQ(y.size(), 2u);
  EXPECT_DOUBLE_EQ(y[0], 0.0);
}

TEST(Csr, FromPartsValidates) {
  // Unsorted columns within a row must be rejected.
  auto bad = CsrMatrix::FromParts(1, 3, {0, 2}, {2, 0}, {1.0, 1.0});
  EXPECT_FALSE(bad.ok());
  // Wrong row_ptr length.
  auto bad2 = CsrMatrix::FromParts(2, 2, {0, 1}, {0}, {1.0});
  EXPECT_FALSE(bad2.ok());
  // Column out of range.
  auto bad3 = CsrMatrix::FromParts(1, 2, {0, 1}, {5}, {1.0});
  EXPECT_FALSE(bad3.ok());
  // Duplicate column in a row.
  auto bad4 = CsrMatrix::FromParts(1, 3, {0, 2}, {1, 1}, {1.0, 1.0});
  EXPECT_FALSE(bad4.ok());
  // A row reaching past nnz (with ascending columns up to it) is rejected
  // before col_idx is read out of bounds.
  auto bad5 = CsrMatrix::FromParts(2, 3, {0, 3, 2}, {0, 1}, {1.0, 1.0});
  ASSERT_FALSE(bad5.ok());
  EXPECT_NE(bad5.status().message().find("exceeds nnz"), std::string::npos);
  // Good input passes.
  auto good = CsrMatrix::FromParts(2, 2, {0, 1, 2}, {1, 0}, {1.0, 2.0});
  ASSERT_TRUE(good.ok());
  EXPECT_DOUBLE_EQ(good->At(0, 1), 1.0);
}

TEST(Csr, DenseRoundTrip) {
  Rng rng(31);
  CsrMatrix a = test::RandomSparse(7, 5, 0.3, &rng);
  CsrMatrix back = CsrMatrix::FromDense(a.ToDense());
  EXPECT_EQ(CsrMatrix::MaxAbsDiff(a, back), 0.0);
}

TEST(Csr, FromDenseDropsTolerance) {
  DenseMatrix d(2, 2);
  d.At(0, 0) = 1e-12;
  d.At(1, 1) = 1.0;
  CsrMatrix m = CsrMatrix::FromDense(d, 1e-9);
  EXPECT_EQ(m.nnz(), 1);
}

TEST(Csr, MultiplyMatchesDense) {
  Rng rng(37);
  for (int trial = 0; trial < 5; ++trial) {
    CsrMatrix a = test::RandomSparse(8, 6, 0.4, &rng);
    Vector x = test::RandomVector(6, &rng);
    Vector sparse_y = a.Multiply(x);
    Vector dense_y = a.ToDense().Multiply(x);
    EXPECT_LT(DistL2(sparse_y, dense_y), 1e-12);
  }
}

TEST(Csr, MultiplyAddAccumulates) {
  Rng rng(41);
  CsrMatrix a = test::RandomSparse(5, 5, 0.5, &rng);
  Vector x = test::RandomVector(5, &rng);
  Vector y(5, 1.0);
  a.MultiplyAdd(2.0, x, &y);
  Vector expected = a.Multiply(x);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_NEAR(y[i], 1.0 + 2.0 * expected[i], 1e-12);
  }
}

TEST(Csr, MultiplyTransposeMatchesExplicitTranspose) {
  Rng rng(43);
  CsrMatrix a = test::RandomSparse(6, 9, 0.3, &rng);
  Vector x = test::RandomVector(6, &rng);
  Vector implicit = a.MultiplyTranspose(x);
  Vector explicit_t = a.Transpose().Multiply(x);
  EXPECT_LT(DistL2(implicit, explicit_t), 1e-12);
}

TEST(Csr, TransposeTwiceIsIdentity) {
  Rng rng(47);
  CsrMatrix a = test::RandomSparse(10, 4, 0.25, &rng);
  CsrMatrix att = a.Transpose().Transpose();
  EXPECT_EQ(CsrMatrix::MaxAbsDiff(a, att), 0.0);
  EXPECT_TRUE(a.Transpose().Validate().ok());
}

TEST(Csr, TransposeShape) {
  CsrMatrix a = CsrMatrix::Zero(3, 7);
  CsrMatrix at = a.Transpose();
  EXPECT_EQ(at.rows(), 7);
  EXPECT_EQ(at.cols(), 3);
}

TEST(Csr, RowSums) {
  CooMatrix coo(2, 3);
  coo.Add(0, 0, 1.0);
  coo.Add(0, 2, 2.0);
  coo.Add(1, 1, -3.0);
  CsrMatrix a = std::move(coo.ToCsr()).value();
  Vector sums = a.RowSums();
  EXPECT_DOUBLE_EQ(sums[0], 3.0);
  EXPECT_DOUBLE_EQ(sums[1], -3.0);
}

TEST(Csr, ScaleValues) {
  CsrMatrix a = CsrMatrix::Identity(3);
  a.ScaleValues(2.5);
  EXPECT_DOUBLE_EQ(a.At(2, 2), 2.5);
}

TEST(Csr, PrunedRemovesSmallEntries) {
  CooMatrix coo(2, 2);
  coo.Add(0, 0, 1e-15);
  coo.Add(0, 1, 0.5);
  coo.Add(1, 1, -1e-12);
  CsrMatrix a = std::move(coo.ToCsr()).value();
  CsrMatrix pruned = a.Pruned(1e-10);
  EXPECT_EQ(pruned.nnz(), 1);
  EXPECT_DOUBLE_EQ(pruned.At(0, 1), 0.5);
  EXPECT_TRUE(pruned.Validate().ok());
}

TEST(Csr, MaxAbsDiffHandlesDifferentPatterns) {
  CooMatrix ca(2, 2), cb(2, 2);
  ca.Add(0, 0, 1.0);
  cb.Add(1, 1, 2.0);
  CsrMatrix a = std::move(ca.ToCsr()).value();
  CsrMatrix b = std::move(cb.ToCsr()).value();
  EXPECT_DOUBLE_EQ(CsrMatrix::MaxAbsDiff(a, b), 2.0);
}

TEST(Csr, ByteSizeGrowsWithNnz) {
  CsrMatrix small = CsrMatrix::Identity(2);
  CsrMatrix large = CsrMatrix::Identity(100);
  EXPECT_GT(large.ByteSize(), small.ByteSize());
  EXPECT_GT(small.ByteSize(), 0u);
}

TEST(Csr, RowNnzAndAt) {
  Rng rng(53);
  CsrMatrix a = test::RandomSparse(20, 20, 0.2, &rng);
  index_t total = 0;
  for (index_t r = 0; r < a.rows(); ++r) total += a.RowNnz(r);
  EXPECT_EQ(total, a.nnz());
  // At() agrees with dense.
  DenseMatrix d = a.ToDense();
  for (index_t r = 0; r < a.rows(); ++r) {
    for (index_t c = 0; c < a.cols(); ++c) {
      EXPECT_DOUBLE_EQ(a.At(r, c), d.At(r, c));
    }
  }
}

}  // namespace
}  // namespace bepi
