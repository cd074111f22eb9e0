#include <gtest/gtest.h>

#include "sparse/csc.hpp"
#include "sparse/csr.hpp"
#include "test_util.hpp"

namespace bepi {
namespace {

TEST(Csc, RoundTripThroughCsr) {
  Rng rng(61);
  CsrMatrix a = test::RandomSparse(9, 7, 0.3, &rng);
  CscMatrix csc = a.ToCsc();
  EXPECT_EQ(csc.rows(), 9);
  EXPECT_EQ(csc.cols(), 7);
  EXPECT_EQ(csc.nnz(), a.nnz());
  EXPECT_TRUE(csc.Validate().ok());
  CsrMatrix back = csc.ToCsr();
  EXPECT_EQ(CsrMatrix::MaxAbsDiff(a, back), 0.0);
}

TEST(Csc, MultiplyMatchesCsr) {
  Rng rng(67);
  CsrMatrix a = test::RandomSparse(8, 8, 0.4, &rng);
  CscMatrix csc = a.ToCsc();
  Vector x = test::RandomVector(8, &rng);
  EXPECT_LT(DistL2(a.Multiply(x), csc.Multiply(x)), 1e-13);
}

TEST(Csc, FromPartsValidates) {
  auto bad = CscMatrix::FromParts(3, 1, {0, 2}, {2, 0}, {1.0, 1.0});
  EXPECT_FALSE(bad.ok());
  // A column reaching past nnz is rejected before row_idx is read out of
  // bounds.
  auto bad2 = CscMatrix::FromParts(3, 2, {0, 3, 2}, {0, 1}, {1.0, 1.0});
  EXPECT_FALSE(bad2.ok());
  auto good = CscMatrix::FromParts(3, 1, {0, 2}, {0, 2}, {1.0, 1.0});
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good->nnz(), 2);
}

TEST(Csc, ByteSize) {
  Rng rng(71);
  CsrMatrix a = test::RandomSparse(5, 5, 0.5, &rng);
  EXPECT_GT(a.ToCsc().ByteSize(), 0u);
}

TEST(DenseVector, Norms) {
  Vector v{3.0, -4.0};
  EXPECT_DOUBLE_EQ(Norm2(v), 5.0);
  EXPECT_DOUBLE_EQ(Norm1(v), 7.0);
  EXPECT_DOUBLE_EQ(NormInf(v), 4.0);
  EXPECT_DOUBLE_EQ(Dot(v, v), 25.0);
}

TEST(DenseVector, AxpyScaleDist) {
  Vector x{1.0, 2.0};
  Vector y{10.0, 20.0};
  Axpy(2.0, x, &y);
  EXPECT_DOUBLE_EQ(y[0], 12.0);
  EXPECT_DOUBLE_EQ(y[1], 24.0);
  Scale(0.5, &y);
  EXPECT_DOUBLE_EQ(y[0], 6.0);
  EXPECT_DOUBLE_EQ(DistL2({0.0, 0.0}, {3.0, 4.0}), 5.0);
}

TEST(DenseMatrix, IdentityMultiply) {
  DenseMatrix i = DenseMatrix::Identity(4);
  Vector x{1.0, 2.0, 3.0, 4.0};
  EXPECT_LT(DistL2(i.Multiply(x), x), 1e-15);
}

TEST(DenseMatrix, MatrixMultiplyAssociativity) {
  Rng rng(73);
  CsrMatrix a = test::RandomSparse(4, 5, 0.6, &rng);
  CsrMatrix b = test::RandomSparse(5, 3, 0.6, &rng);
  DenseMatrix ab = a.ToDense().Multiply(b.ToDense());
  Vector x = test::RandomVector(3, &rng);
  Vector direct = ab.Multiply(x);
  Vector nested = a.ToDense().Multiply(b.ToDense().Multiply(x));
  EXPECT_LT(DistL2(direct, nested), 1e-12);
}

TEST(DenseMatrix, TransposeAndAdd) {
  DenseMatrix m(2, 3);
  m.At(0, 2) = 5.0;
  DenseMatrix t = m.Transpose();
  EXPECT_EQ(t.rows(), 3);
  EXPECT_EQ(t.cols(), 2);
  EXPECT_DOUBLE_EQ(t.At(2, 0), 5.0);

  DenseMatrix a(2, 2), b(2, 2);
  a.At(0, 0) = 1.0;
  b.At(0, 0) = 2.0;
  a.Add(3.0, b);
  EXPECT_DOUBLE_EQ(a.At(0, 0), 7.0);
}

TEST(DenseMatrix, FrobeniusNormAndDiff) {
  DenseMatrix a(2, 2);
  a.At(0, 0) = 3.0;
  a.At(1, 1) = 4.0;
  EXPECT_DOUBLE_EQ(a.FrobeniusNorm(), 5.0);
  DenseMatrix b(2, 2);
  EXPECT_DOUBLE_EQ(DenseMatrix::MaxAbsDiff(a, b), 4.0);
}

TEST(DenseMatrix, ByteSize) {
  DenseMatrix m(10, 10);
  EXPECT_EQ(m.ByteSize(), 100u * sizeof(real_t));
}

}  // namespace
}  // namespace bepi
