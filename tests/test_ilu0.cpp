#include <gtest/gtest.h>

#include "solver/ilu0.hpp"
#include "solver/sparse_lu.hpp"
#include "solver/trisolve.hpp"
#include "sparse/spgemm.hpp"
#include "test_util.hpp"

namespace bepi {
namespace {

TEST(Ilu0, PatternIsPreserved) {
  Rng rng(271);
  CsrMatrix a = test::RandomDiagDominant(40, 0.1, &rng);
  auto ilu = Ilu0::Factor(a);
  ASSERT_TRUE(ilu.ok());
  // Combined factors live exactly on the pattern of A.
  EXPECT_EQ(ilu->factors().nnz(), a.nnz());
  const CsrMatrix factors = ilu->factors().ToCsr();
  EXPECT_EQ(factors.row_ptr(), a.row_ptr());
  EXPECT_EQ(factors.col_idx(), a.col_idx());
}

TEST(Ilu0, ExactOnMatrixWithNoFill) {
  // A tridiagonal matrix has no fill-in, so ILU(0) == exact LU and the
  // preconditioner inverts A exactly.
  const index_t n = 25;
  CooMatrix coo(n, n);
  for (index_t i = 0; i < n; ++i) {
    coo.Add(i, i, 4.0);
    if (i > 0) coo.Add(i, i - 1, -1.0);
    if (i < n - 1) coo.Add(i, i + 1, -1.0);
  }
  CsrMatrix a = std::move(coo.ToCsr()).value();
  auto ilu = Ilu0::Factor(a);
  ASSERT_TRUE(ilu.ok());
  Rng rng(277);
  Vector x_true = test::RandomVector(n, &rng);
  Vector b = a.Multiply(x_true);
  Vector x;
  ilu->Apply(b, &x);
  EXPECT_LT(DistL2(x, x_true), 1e-10);
}

TEST(Ilu0, MatchesFullLuWhenPatternIsComplete) {
  // On a dense-pattern matrix ILU(0) coincides with the exact LU.
  Rng rng(281);
  CsrMatrix a = test::RandomDiagDominant(12, 1.0, &rng);
  auto ilu = Ilu0::Factor(a);
  auto lu = SparseLu::Factor(a);
  ASSERT_TRUE(ilu.ok());
  ASSERT_TRUE(lu.ok());
  EXPECT_LT(CsrMatrix::MaxAbsDiff(ilu->ExtractLower(), lu->lower()), 1e-10);
  EXPECT_LT(CsrMatrix::MaxAbsDiff(ilu->ExtractUpper(), lu->upper()), 1e-10);
}

TEST(Ilu0, ExtractedFactorsAreTriangularAndMultiplyApproximately) {
  Rng rng(283);
  CsrMatrix a = test::RandomDiagDominant(50, 0.15, &rng);
  auto ilu = Ilu0::Factor(a);
  ASSERT_TRUE(ilu.ok());
  CsrMatrix l = ilu->ExtractLower();
  CsrMatrix u = ilu->ExtractUpper();
  for (index_t i = 0; i < 50; ++i) EXPECT_DOUBLE_EQ(l.At(i, i), 1.0);
  auto product = Multiply(l, u);
  ASSERT_TRUE(product.ok());
  // L*U approximates A on A's pattern; off-pattern entries are the ILU
  // error. Check the on-pattern agreement.
  for (index_t r = 0; r < a.rows(); ++r) {
    for (index_t p = a.row_ptr()[static_cast<std::size_t>(r)];
         p < a.row_ptr()[static_cast<std::size_t>(r) + 1]; ++p) {
      const index_t c = a.col_idx()[static_cast<std::size_t>(p)];
      EXPECT_NEAR(product->At(r, c), a.At(r, c), 1e-10);
    }
  }
}

TEST(Ilu0, ApplyEqualsTriangularSolves) {
  Rng rng(293);
  CsrMatrix a = test::RandomDiagDominant(30, 0.2, &rng);
  auto ilu = Ilu0::Factor(a);
  ASSERT_TRUE(ilu.ok());
  Vector r = test::RandomVector(30, &rng);
  Vector z;
  ilu->Apply(r, &z);
  // Same computation via the extracted factors.
  auto y = SolveLowerCsr(ilu->ExtractLower(), r, /*unit_diagonal=*/true);
  ASSERT_TRUE(y.ok());
  auto z2 = SolveUpperCsr(ilu->ExtractUpper(), *y);
  ASSERT_TRUE(z2.ok());
  EXPECT_LT(DistL2(z, *z2), 1e-12);
}

TEST(Ilu0, MissingDiagonalFails) {
  CooMatrix coo(2, 2);
  coo.Add(0, 0, 1.0);
  coo.Add(1, 0, 1.0);  // no (1,1) entry
  CsrMatrix a = std::move(coo.ToCsr()).value();
  EXPECT_EQ(Ilu0::Factor(a).status().code(), StatusCode::kFailedPrecondition);
}

TEST(Ilu0, NonSquareFails) {
  EXPECT_EQ(Ilu0::Factor(CsrMatrix::Zero(2, 3)).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(Ilu0, SizeAndByteSize) {
  Rng rng(307);
  CsrMatrix a = test::RandomDiagDominant(15, 0.3, &rng);
  auto ilu = Ilu0::Factor(a);
  ASSERT_TRUE(ilu.ok());
  EXPECT_EQ(ilu->size(), 15);
  // Factor storage (same pattern as the input) plus the diagonal-position
  // index; enabling the kernels adds the level schedules.
  EXPECT_GT(ilu->ByteSize(), a.ByteSize());
  const std::uint64_t plain = ilu->ByteSize();
  ilu->EnableKernels(KernelPath::kWide);
  EXPECT_GT(ilu->ByteSize(), plain);
}

TEST(Ilu0, IdentityMatrix) {
  auto ilu = Ilu0::Factor(CsrMatrix::Identity(5));
  ASSERT_TRUE(ilu.ok());
  Vector r{1.0, 2.0, 3.0, 4.0, 5.0};
  Vector z;
  ilu->Apply(r, &z);
  EXPECT_LT(DistL2(r, z), 1e-15);
}

}  // namespace
}  // namespace bepi
