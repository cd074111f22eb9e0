#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "solver/ilu0.hpp"
#include "solver/sparse_lu.hpp"
#include "solver/trisolve.hpp"
#include "sparse/spgemm.hpp"
#include "test_util.hpp"

namespace bepi {
namespace {

/// f32's unit roundoff: the largest relative change rounding an f64 to
/// f32 makes.
constexpr real_t kF32UnitRoundoff = 0x1p-24;

/// The f64 elimination Factor rounds, as L (unit diagonal) and U over a's
/// pattern.
struct EliminatedFactors {
  CsrMatrix lower, upper;
};

EliminatedFactors Eliminated(const CsrMatrix& a) {
  auto combined = Ilu0::Eliminate(KernelCsr::Bind(a, KernelPath::kWide));
  EXPECT_TRUE(combined.ok()) << combined.status().ToString();
  CooMatrix lower(a.rows(), a.cols()), upper(a.rows(), a.cols());
  for (index_t r = 0; r < a.rows(); ++r) {
    lower.Add(r, r, 1.0);
    for (index_t p = a.row_ptr()[static_cast<std::size_t>(r)];
         p < a.row_ptr()[static_cast<std::size_t>(r) + 1]; ++p) {
      const index_t c = a.col_idx()[static_cast<std::size_t>(p)];
      const real_t v = (*combined)[static_cast<std::size_t>(p)];
      (c < r ? lower : upper).Add(r, c, v);
    }
  }
  return {std::move(lower.ToCsr()).value(), std::move(upper.ToCsr()).value()};
}

/// x = U^{-1} (L^{-1} b) over the f64 elimination.
Vector SolveEliminated(const EliminatedFactors& f, const Vector& b) {
  auto y = SolveLowerCsr(f.lower, b, /*unit_diagonal=*/true);
  EXPECT_TRUE(y.ok());
  auto x = SolveUpperCsr(f.upper, *y);
  EXPECT_TRUE(x.ok());
  return std::move(x).value();
}

TEST(Ilu0, PatternIsPreserved) {
  Rng rng(271);
  CsrMatrix a = test::RandomDiagDominant(40, 0.1, &rng);
  auto ilu = Ilu0::Factor(a);
  ASSERT_TRUE(ilu.ok());
  // The factors live exactly on the pattern of A: its off-diagonal
  // entries in f32, its diagonal in f64.
  EXPECT_EQ(ilu->triangles().size(), static_cast<std::size_t>(a.nnz() - 40));
  EXPECT_EQ(ilu->pivots().size(), 40u);
  const CsrMatrix pattern = ilu->pattern().ToCsr();
  EXPECT_EQ(pattern.row_ptr(), a.row_ptr());
  EXPECT_EQ(pattern.col_idx(), a.col_idx());
}

TEST(Ilu0, ExactOnMatrixWithNoFill) {
  // A tridiagonal matrix has no fill-in, so ILU(0) == exact LU and the
  // f64 elimination inverts A exactly.
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
  EXPECT_LT(DistL2(SolveEliminated(Eliminated(a), b), x_true), 1e-10);
  // The stored factors are that elimination rounded to f32: every entry
  // of L and U moves by at most u = 2^-24 relatively, and |L||U| = |A|
  // for this M-matrix, so |L~U~ - A| <= 2u|A| entrywise (to first order).
  // With kappa_inf(A) <= 6 * 1/2 = 3 the preconditioned solve is off by
  // at most 2u * 3 relatively in the inf-norm, and by sqrt(n) times that
  // in the 2-norm.
  Vector x;
  ilu->Apply(b, &x);
  real_t x_inf = 0.0;
  for (real_t v : x_true) x_inf = std::max(x_inf, std::fabs(v));
  EXPECT_LT(DistL2(x, x_true),
            std::sqrt(static_cast<real_t>(n)) * 6.0 * kF32UnitRoundoff *
                1.01 * x_inf);
}

TEST(Ilu0, MatchesFullLuWhenPatternIsComplete) {
  // On a dense-pattern matrix ILU(0)'s elimination coincides with the
  // exact LU.
  Rng rng(281);
  CsrMatrix a = test::RandomDiagDominant(12, 1.0, &rng);
  auto lu = SparseLu::Factor(a);
  ASSERT_TRUE(lu.ok());
  const EliminatedFactors ilu = Eliminated(a);
  EXPECT_LT(CsrMatrix::MaxAbsDiff(ilu.lower, lu->lower()), 1e-10);
  EXPECT_LT(CsrMatrix::MaxAbsDiff(ilu.upper, lu->upper()), 1e-10);
}

TEST(Ilu0, ExtractedFactorsAreTriangularAndMultiplyApproximately) {
  Rng rng(283);
  CsrMatrix a = test::RandomDiagDominant(50, 0.15, &rng);
  auto ilu = Ilu0::Factor(a);
  ASSERT_TRUE(ilu.ok());
  CsrMatrix l = ilu->ExtractLower();
  CsrMatrix u = ilu->ExtractUpper();
  for (index_t r = 0; r < 50; ++r) {
    EXPECT_DOUBLE_EQ(l.At(r, r), 1.0);
    for (index_t p = l.row_ptr()[static_cast<std::size_t>(r)];
         p < l.row_ptr()[static_cast<std::size_t>(r) + 1]; ++p) {
      EXPECT_LE(l.col_idx()[static_cast<std::size_t>(p)], r);
    }
    for (index_t p = u.row_ptr()[static_cast<std::size_t>(r)];
         p < u.row_ptr()[static_cast<std::size_t>(r) + 1]; ++p) {
      EXPECT_GE(u.col_idx()[static_cast<std::size_t>(p)], r);
    }
  }
  EXPECT_EQ(l.nnz() + u.nnz(), a.nnz() + 50);
  // L*U of the f64 elimination approximates A on A's pattern;
  // off-pattern entries are the ILU error. Check the on-pattern
  // agreement.
  const EliminatedFactors f = Eliminated(a);
  auto product = Multiply(f.lower, f.upper);
  ASSERT_TRUE(product.ok());
  for (index_t r = 0; r < a.rows(); ++r) {
    for (index_t p = a.row_ptr()[static_cast<std::size_t>(r)];
         p < a.row_ptr()[static_cast<std::size_t>(r) + 1]; ++p) {
      const index_t c = a.col_idx()[static_cast<std::size_t>(p)];
      EXPECT_NEAR(product->At(r, c), a.At(r, c), 1e-10);
    }
  }
}

TEST(Ilu0, StoredValuesAreTheEliminationRoundedToF32) {
  // Every stored value is the f32 rounding of the f64 elimination, bit for
  // bit: every row's strictly-lower values in row order, then every row's
  // strictly-upper values in row order; the pivots are the elimination's
  // own f64 diagonal.
  Rng rng(289);
  const CsrMatrix a = test::RandomDiagDominant(60, 0.12, &rng);
  for (KernelPath path : {KernelPath::kWide, KernelPath::kCompact}) {
    SCOPED_TRACE(KernelPathName(path));
    const KernelCsr view = KernelCsr::Bind(a, path);
    auto combined = Ilu0::Eliminate(view);
    auto ilu = Ilu0::Factor(view);
    ASSERT_TRUE(combined.ok());
    ASSERT_TRUE(ilu.ok());
    std::vector<float> lower, upper;
    std::vector<real_t> pivots;
    for (index_t r = 0; r < a.rows(); ++r) {
      for (index_t p = a.row_ptr()[static_cast<std::size_t>(r)];
           p < a.row_ptr()[static_cast<std::size_t>(r) + 1]; ++p) {
        const index_t c = a.col_idx()[static_cast<std::size_t>(p)];
        const real_t v = (*combined)[static_cast<std::size_t>(p)];
        if (c < r) lower.push_back(static_cast<float>(v));
        if (c == r) pivots.push_back(v);
        if (c > r) upper.push_back(static_cast<float>(v));
      }
    }
    lower.insert(lower.end(), upper.begin(), upper.end());
    ASSERT_EQ(ilu->triangles().size(), lower.size());
    ASSERT_EQ(ilu->pivots().size(), pivots.size());
    EXPECT_EQ(std::memcmp(ilu->triangles().data(), lower.data(),
                          lower.size() * sizeof(float)),
              0);
    EXPECT_EQ(std::memcmp(ilu->pivots().data(), pivots.data(),
                          pivots.size() * sizeof(real_t)),
              0);
    // A round trip through FromFactors adopts the same values.
    auto adopted = Ilu0::FromFactors(view, ilu->triangles().data(),
                                     ilu->pivots().data(), nullptr);
    ASSERT_TRUE(adopted.ok());
    const Vector r = test::RandomVector(a.rows(), &rng);
    Vector z1, z2;
    ilu->Apply(r, &z1);
    adopted->Apply(r, &z2);
    EXPECT_EQ(z1, z2);
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
  // Beside the shared pattern: 4 bytes per off-diagonal entry, 8 per
  // pivot and the 16 lower offsets at the pattern's 8-byte width.
  EXPECT_EQ(ilu->ByteSize(),
            4 * static_cast<std::uint64_t>(a.nnz() - 15) + 8 * 15 + 8 * 16);
  // Over the compact pattern the offsets take 4 bytes each.
  auto compact = Ilu0::Factor(KernelCsr::Bind(a, KernelPath::kCompact));
  ASSERT_TRUE(compact.ok());
  EXPECT_EQ(compact->ByteSize(), ilu->ByteSize() - 4 * 16);
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
