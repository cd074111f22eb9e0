#include <gtest/gtest.h>

#include "solver/trisolve.hpp"
#include "test_util.hpp"

namespace bepi {
namespace {

CsrMatrix RandomLower(index_t n, bool unit_diag, Rng* rng) {
  CooMatrix coo(n, n);
  for (index_t i = 0; i < n; ++i) {
    coo.Add(i, i, unit_diag ? 1.0 : 1.0 + rng->NextDouble());
    for (index_t j = 0; j < i; ++j) {
      if (rng->NextDouble() < 0.4) coo.Add(i, j, rng->NextDouble() - 0.5);
    }
  }
  return std::move(coo.ToCsr()).value();
}

CsrMatrix RandomUpper(index_t n, Rng* rng) {
  CooMatrix coo(n, n);
  for (index_t i = 0; i < n; ++i) {
    coo.Add(i, i, 1.0 + rng->NextDouble());
    for (index_t j = i + 1; j < n; ++j) {
      if (rng->NextDouble() < 0.4) coo.Add(i, j, rng->NextDouble() - 0.5);
    }
  }
  return std::move(coo.ToCsr()).value();
}

TEST(TriSolve, LowerSolvesRandomSystems) {
  Rng rng(197);
  for (index_t n : {1, 3, 10, 40}) {
    CsrMatrix l = RandomLower(n, /*unit_diag=*/false, &rng);
    Vector x_true = test::RandomVector(n, &rng);
    Vector b = l.Multiply(x_true);
    auto x = SolveLowerCsr(l, b, /*unit_diagonal=*/false);
    ASSERT_TRUE(x.ok());
    EXPECT_LT(DistL2(*x, x_true), 1e-10) << "n=" << n;
  }
}

TEST(TriSolve, LowerUnitDiagonalImplied) {
  Rng rng(199);
  const index_t n = 15;
  // Strictly-lower matrix without stored diagonal: unit diag implied.
  CooMatrix coo(n, n);
  for (index_t i = 1; i < n; ++i) {
    for (index_t j = 0; j < i; ++j) {
      if (rng.NextDouble() < 0.3) coo.Add(i, j, rng.NextDouble() - 0.5);
    }
  }
  CsrMatrix strict = std::move(coo.ToCsr()).value();
  Vector x_true = test::RandomVector(n, &rng);
  Vector b = strict.Multiply(x_true);
  for (index_t i = 0; i < n; ++i) {
    b[static_cast<std::size_t>(i)] += x_true[static_cast<std::size_t>(i)];
  }
  auto x = SolveLowerCsr(strict, b, /*unit_diagonal=*/true);
  ASSERT_TRUE(x.ok());
  EXPECT_LT(DistL2(*x, x_true), 1e-10);
}

TEST(TriSolve, UpperSolvesRandomSystems) {
  Rng rng(211);
  for (index_t n : {1, 3, 10, 40}) {
    CsrMatrix u = RandomUpper(n, &rng);
    Vector x_true = test::RandomVector(n, &rng);
    Vector b = u.Multiply(x_true);
    auto x = SolveUpperCsr(u, b);
    ASSERT_TRUE(x.ok());
    EXPECT_LT(DistL2(*x, x_true), 1e-10) << "n=" << n;
  }
}

TEST(TriSolve, ZeroDiagonalFails) {
  CooMatrix coo(2, 2);
  coo.Add(0, 0, 1.0);  // missing (1,1)
  CsrMatrix l = std::move(coo.ToCsr()).value();
  EXPECT_EQ(SolveLowerCsr(l, {1.0, 1.0}, false).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(SolveUpperCsr(l, {1.0, 1.0}).status().code(),
            StatusCode::kFailedPrecondition);

  // Rows 1 and 3 both lack a diagonal; the forward solve names the first.
  CooMatrix gaps(5, 5);
  gaps.Add(0, 0, 1.0);
  gaps.Add(2, 2, 1.0);
  gaps.Add(4, 4, 1.0);
  gaps.Add(1, 0, 1.0);
  gaps.Add(3, 2, 1.0);
  const Status lower =
      SolveLowerCsr(std::move(gaps.ToCsr()).value(), Vector(5, 1.0), false)
          .status();
  EXPECT_EQ(lower.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(lower.ToString().find("row 1"), std::string::npos)
      << lower.ToString();
}

TEST(TriSolve, ShapeErrors) {
  CsrMatrix rect = CsrMatrix::Zero(2, 3);
  EXPECT_EQ(SolveLowerCsr(rect, {1.0, 1.0}, true).status().code(),
            StatusCode::kInvalidArgument);
  CsrMatrix sq = CsrMatrix::Identity(3);
  EXPECT_EQ(SolveUpperCsr(sq, {1.0, 1.0}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(TriSolve, TriangularityPredicates) {
  Rng rng(223);
  CsrMatrix l = RandomLower(8, false, &rng);
  CsrMatrix u = RandomUpper(8, &rng);
  EXPECT_TRUE(IsLowerTriangular(l));
  EXPECT_FALSE(IsUpperTriangular(l.nnz() > 8 ? l : u.Transpose()));
  EXPECT_TRUE(IsUpperTriangular(u));
  EXPECT_TRUE(IsLowerTriangular(CsrMatrix::Identity(4)));
  EXPECT_TRUE(IsUpperTriangular(CsrMatrix::Identity(4)));
  CooMatrix coo(3, 3);
  coo.Add(0, 2, 1.0);
  CsrMatrix strictly_upper = std::move(coo.ToCsr()).value();
  EXPECT_FALSE(IsLowerTriangular(strictly_upper));
  EXPECT_TRUE(IsUpperTriangular(strictly_upper));
}

}  // namespace
}  // namespace bepi
