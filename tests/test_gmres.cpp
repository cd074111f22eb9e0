#include <gtest/gtest.h>

#include <string>

#include "common/cancel.hpp"
#include "common/metrics.hpp"
#include "solver/gmres.hpp"
#include "solver/ilu0.hpp"
#include "sparse/coo.hpp"
#include "sparse/kernel.hpp"
#include "test_util.hpp"

namespace bepi {
namespace {

class GmresSizes : public ::testing::TestWithParam<index_t> {};

TEST_P(GmresSizes, ConvergesOnDiagDominantSystems) {
  Rng rng(311 + static_cast<std::uint64_t>(GetParam()));
  const index_t n = GetParam();
  CsrMatrix a = test::RandomDiagDominant(n, 0.2, &rng);
  CsrOperator op(a);
  Vector x_true = test::RandomVector(n, &rng);
  Vector b = a.Multiply(x_true);
  GmresOptions options;
  options.tol = 1e-10;
  SolveStats stats;
  auto x = Gmres(op, b, options, &stats);
  ASSERT_TRUE(x.ok());
  EXPECT_TRUE(stats.converged);
  EXPECT_LT(DistL2(*x, x_true), 1e-6) << "n=" << n;
  EXPECT_GT(stats.iterations, 0);
}

INSTANTIATE_TEST_SUITE_P(Sizes, GmresSizes,
                         ::testing::Values<index_t>(1, 2, 7, 30, 120));

TEST(Gmres, ResidualGuarantee) {
  Rng rng(313);
  const index_t n = 60;
  CsrMatrix a = test::RandomDiagDominant(n, 0.1, &rng);
  CsrOperator op(a);
  Vector b = test::RandomVector(n, &rng);
  GmresOptions options;
  options.tol = 1e-9;
  SolveStats stats;
  auto x = Gmres(op, b, options, &stats);
  ASSERT_TRUE(x.ok());
  Vector ax = a.Multiply(*x);
  EXPECT_LE(DistL2(ax, b) / Norm2(b), 2e-9);
}

TEST(Gmres, ZeroRhsGivesZero) {
  CsrMatrix a = CsrMatrix::Identity(4);
  CsrOperator op(a);
  SolveStats stats;
  auto x = Gmres(op, Vector(4, 0.0), GmresOptions(), &stats);
  ASSERT_TRUE(x.ok());
  EXPECT_TRUE(stats.converged);
  EXPECT_DOUBLE_EQ(Norm2(*x), 0.0);
}

TEST(Gmres, IdentityConvergesInOneIteration) {
  CsrMatrix a = CsrMatrix::Identity(10);
  CsrOperator op(a);
  Rng rng(317);
  Vector b = test::RandomVector(10, &rng);
  SolveStats stats;
  auto x = Gmres(op, b, GmresOptions(), &stats);
  ASSERT_TRUE(x.ok());
  EXPECT_LE(stats.iterations, 2);
  EXPECT_LT(DistL2(*x, b), 1e-10);
}

TEST(Gmres, RestartedStillConverges) {
  Rng rng(331);
  const index_t n = 80;
  CsrMatrix a = test::RandomDiagDominant(n, 0.1, &rng);
  CsrOperator op(a);
  Vector x_true = test::RandomVector(n, &rng);
  Vector b = a.Multiply(x_true);
  GmresOptions options;
  options.restart = 5;  // force many restart cycles
  options.max_iters = 2000;
  SolveStats stats;
  auto x = Gmres(op, b, options, &stats);
  ASSERT_TRUE(x.ok());
  EXPECT_TRUE(stats.converged);
  EXPECT_LT(DistL2(*x, x_true), 1e-6);
}

TEST(Gmres, InitialGuessAccelerates) {
  Rng rng(337);
  const index_t n = 50;
  CsrMatrix a = test::RandomDiagDominant(n, 0.15, &rng);
  CsrOperator op(a);
  Vector x_true = test::RandomVector(n, &rng);
  Vector b = a.Multiply(x_true);
  SolveStats cold, warm;
  GmresOptions options;
  auto x0 = Gmres(op, b, options, &cold);
  ASSERT_TRUE(x0.ok());
  auto x1 = Gmres(op, b, options, &warm, nullptr, &*x0);
  ASSERT_TRUE(x1.ok());
  EXPECT_LE(warm.iterations, cold.iterations);
  EXPECT_LT(DistL2(*x1, x_true), 1e-6);
}

TEST(Gmres, IluPreconditioningReducesIterations) {
  Rng rng(347);
  const index_t n = 150;
  // Mildly non-dominant system so plain GMRES needs real work.
  CsrMatrix base = test::RandomDiagDominant(n, 0.05, &rng);
  CsrOperator op(base);
  Vector b = test::RandomVector(n, &rng);
  GmresOptions options;
  options.tol = 1e-10;
  SolveStats plain, preconditioned;
  auto x_plain = Gmres(op, b, options, &plain);
  ASSERT_TRUE(x_plain.ok());
  auto ilu = Ilu0::Factor(base);
  ASSERT_TRUE(ilu.ok());
  auto x_pre = Gmres(op, b, options, &preconditioned, &*ilu);
  ASSERT_TRUE(x_pre.ok());
  EXPECT_TRUE(preconditioned.converged);
  EXPECT_LE(preconditioned.iterations, plain.iterations);
  EXPECT_LT(DistL2(*x_plain, *x_pre), 1e-5);
}

TEST(Gmres, JacobiPreconditionerWorks) {
  Rng rng(349);
  const index_t n = 60;
  CsrMatrix a = test::RandomDiagDominant(n, 0.1, &rng);
  // Scale rows wildly so Jacobi helps.
  CsrMatrix scaled = a;
  auto& values = scaled.mutable_values();
  for (index_t r = 0; r < n; ++r) {
    const real_t s = 1.0 + 1000.0 * rng.NextDouble();
    for (index_t p = scaled.row_ptr()[static_cast<std::size_t>(r)];
         p < scaled.row_ptr()[static_cast<std::size_t>(r) + 1]; ++p) {
      values[static_cast<std::size_t>(p)] *= s;
    }
  }
  CsrOperator op(scaled);
  JacobiPreconditioner jacobi(scaled);
  Vector x_true = test::RandomVector(n, &rng);
  Vector b = scaled.Multiply(x_true);
  SolveStats stats;
  auto x = Gmres(op, b, GmresOptions(), &stats, &jacobi);
  ASSERT_TRUE(x.ok());
  EXPECT_TRUE(stats.converged);
  EXPECT_LT(DistL2(*x, x_true), 1e-5);
}

TEST(Gmres, TrackHistoryRecordsMonotoneResiduals) {
  Rng rng(353);
  const index_t n = 40;
  CsrMatrix a = test::RandomDiagDominant(n, 0.2, &rng);
  CsrOperator op(a);
  Vector b = test::RandomVector(n, &rng);
  GmresOptions options;
  options.track_history = true;
  SolveStats stats;
  auto x = Gmres(op, b, options, &stats);
  ASSERT_TRUE(x.ok());
  ASSERT_FALSE(stats.residual_history.empty());
  for (std::size_t i = 1; i < stats.residual_history.size(); ++i) {
    EXPECT_LE(stats.residual_history[i], stats.residual_history[i - 1] + 1e-14);
  }
  EXPECT_LE(stats.residual_history.back(), options.tol);
}

TEST(Gmres, IterationBudgetExhaustion) {
  Rng rng(359);
  const index_t n = 100;
  CsrMatrix a = test::RandomDiagDominant(n, 0.05, &rng);
  CsrOperator op(a);
  Vector b = test::RandomVector(n, &rng);
  GmresOptions options;
  options.tol = 1e-15;
  options.max_iters = 2;
  SolveStats stats;
  auto x = Gmres(op, b, options, &stats);
  ASSERT_TRUE(x.ok());  // returns best iterate
  EXPECT_FALSE(stats.converged);
  EXPECT_LE(stats.iterations, 3);
}

TEST(Gmres, ShapeErrors) {
  CsrMatrix a = CsrMatrix::Identity(3);
  CsrOperator op(a);
  SolveStats stats;
  EXPECT_FALSE(Gmres(op, Vector(2, 1.0), GmresOptions(), &stats).ok());
  Vector x0(2, 0.0);
  EXPECT_FALSE(
      Gmres(op, Vector(3, 1.0), GmresOptions(), &stats, nullptr, &x0).ok());
  IdentityPreconditioner wrong(5);
  EXPECT_FALSE(
      Gmres(op, Vector(3, 1.0), GmresOptions(), &stats, &wrong).ok());
  GmresOptions bad;
  bad.restart = 0;
  EXPECT_FALSE(Gmres(op, Vector(3, 1.0), bad, &stats).ok());
  // A width-k call fails as a whole when any column is malformed.
  const Vector good(3, 1.0), short_rhs(2, 1.0);
  std::vector<GmresColumn> columns(2);
  columns[0].b = &good;
  columns[1].b = &short_rhs;
  EXPECT_FALSE(Gmres(op, columns, GmresSettings{}).ok());
  columns[1].b = nullptr;
  EXPECT_FALSE(Gmres(op, columns, GmresSettings{}).ok());
}

TEST(Gmres, NullStatsAccepted) {
  CsrMatrix a = CsrMatrix::Identity(3);
  CsrOperator op(a);
  EXPECT_TRUE(Gmres(op, Vector(3, 1.0), GmresOptions(), nullptr).ok());
}

// --- width-k calls --------------------------------------------------------

/// A copy of `c`'s inputs, without its results.
GmresColumn InputsOf(const GmresColumn& c) {
  GmresColumn in;
  in.b = c.b;
  in.x0 = c.x0;
  in.tol = c.tol;
  in.cancel = c.cancel;
  return in;
}

/// Solves `columns` in one call and checks every column against the same
/// column solved alone: x, iterations, residual and outcome bit for bit.
/// A column without a cancel token is also checked against the
/// one-column Gmres(a, b, options, ...) call.
void ExpectEachColumnMatchesItsSoloSolve(const LinearOperator& op,
                                         const Preconditioner* m,
                                         const GmresSettings& settings,
                                         std::vector<GmresColumn>* columns) {
  ASSERT_TRUE(Gmres(op, *columns, settings, m).ok());
  for (std::size_t j = 0; j < columns->size(); ++j) {
    SCOPED_TRACE("column " + std::to_string(j));
    const GmresColumn& got = (*columns)[j];
    GmresColumn alone = InputsOf(got);
    ASSERT_TRUE(Gmres(op, {&alone, 1}, settings, m).ok());
    EXPECT_EQ(got.x, alone.x);
    EXPECT_EQ(got.stats.iterations, alone.stats.iterations);
    EXPECT_EQ(got.stats.relative_residual, alone.stats.relative_residual);
    EXPECT_EQ(got.stats.outcome, alone.stats.outcome);
    EXPECT_EQ(got.stats.converged, alone.stats.converged);
    if (got.cancel != nullptr) continue;
    GmresOptions options;
    static_cast<GmresSettings&>(options) = settings;
    options.tol = got.tol;
    SolveStats stats;
    auto x = Gmres(op, *got.b, options, &stats, m, got.x0);
    ASSERT_TRUE(x.ok());
    EXPECT_EQ(got.x, *x);
    EXPECT_EQ(got.stats.iterations, stats.iterations);
    EXPECT_EQ(got.stats.relative_residual, stats.relative_residual);
    EXPECT_EQ(got.stats.outcome, stats.outcome);
  }
}

TEST(GmresWidth, EachColumnEqualsItsOneColumnCallBitwise) {
  // Mixed initial iterates and tolerances, a zero right-hand side and a
  // pre-cancelled token in one call, under ILU(0), Jacobi and no
  // preconditioner. A short restart makes the columns' cycles end at
  // different steps. The compact kernel view gives the real SpMM panel.
  Rng rng(367);
  const index_t n = 120;
  const CsrMatrix a = test::RandomDiagDominant(n, 0.05, &rng);
  const KernelCsr kernel = KernelCsr::Bind(a, KernelPath::kAuto);
  const KernelCsrOperator op(kernel);
  const Vector b1 = test::RandomVector(n, &rng);
  const Vector b2 = test::RandomVector(n, &rng);
  const Vector b3 = test::RandomVector(n, &rng);
  const Vector b4 = test::RandomVector(n, &rng);
  const Vector zero(static_cast<std::size_t>(n), 0.0);
  const Vector guess = test::RandomVector(n, &rng);
  CancelToken cancelled;
  cancelled.Cancel();
  auto ilu = Ilu0::Factor(a);
  ASSERT_TRUE(ilu.ok());
  const JacobiPreconditioner jacobi(a);
  GmresSettings settings;
  settings.restart = 7;
  settings.max_iters = 500;
  for (const Preconditioner* m :
       {static_cast<const Preconditioner*>(&*ilu),
        static_cast<const Preconditioner*>(&jacobi),
        static_cast<const Preconditioner*>(nullptr)}) {
    SCOPED_TRACE(m == nullptr ? "no preconditioner"
                 : m == &jacobi ? "jacobi" : "ilu0");
    std::vector<GmresColumn> columns(6);
    columns[0].b = &b1;
    columns[1].b = &b2;
    columns[1].x0 = &guess;
    columns[1].tol = 1e-4;
    columns[2].b = &zero;
    columns[2].x0 = &guess;
    columns[3].b = &b3;
    columns[3].tol = 1e-12;
    columns[4].b = &b4;
    columns[4].x0 = &guess;
    columns[4].cancel = &cancelled;
    columns[5].b = &b1;
    columns[5].tol = 1e-6;
    ExpectEachColumnMatchesItsSoloSolve(op, m, settings, &columns);
    EXPECT_EQ(columns[2].stats.outcome, SolveOutcome::kConverged);
    EXPECT_EQ(columns[2].x, zero);
    EXPECT_EQ(columns[4].stats.outcome, SolveOutcome::kCancelled);
    EXPECT_EQ(columns[4].x, guess);
    EXPECT_LT(columns[1].stats.iterations, columns[3].stats.iterations);
  }
}

/// Counts its applies and otherwise forwards to `inner`.
class CountingPreconditioner final : public Preconditioner {
 public:
  explicit CountingPreconditioner(const Preconditioner& inner)
      : inner_(inner) {}
  index_t size() const override { return inner_.size(); }
  void Apply(const Vector& r, Vector* z) const override {
    ++applies_;
    inner_.Apply(r, z);
  }
  std::uint64_t applies() const { return applies_; }

 private:
  const Preconditioner& inner_;
  mutable std::uint64_t applies_ = 0;
};

TEST(GmresWidth, FirstCycleReusesThePreconditionedRhs) {
  // Without an initial guess the first cycle starts from the M^{-1} b
  // that the reference norm needed: one preconditioner apply per Arnoldi
  // step and one per restart cycle. An explicit zero guess recomputes
  // r0 = M^{-1}(b - A 0) at its first cycle and must land on the same
  // result bit for bit.
  Rng rng(379);
  const index_t n = 120;
  const CsrMatrix a = test::RandomDiagDominant(n, 0.05, &rng);
  const KernelCsr kernel = KernelCsr::Bind(a, KernelPath::kAuto);
  const KernelCsrOperator op(kernel);
  auto ilu = Ilu0::Factor(a);
  ASSERT_TRUE(ilu.ok());
  const std::vector<Vector> rhs = {test::RandomVector(n, &rng),
                                   test::RandomVector(n, &rng),
                                   test::RandomVector(n, &rng)};
  const Vector zero(static_cast<std::size_t>(n), 0.0);
  SetMetricsEnabled(true);
  Counter* cycles =
      MetricsRegistry::Global().GetCounter("gmres.restart_cycles");
  struct Run {
    std::vector<GmresColumn> columns;
    std::uint64_t applies = 0, cycles = 0, iterations = 0;
  };
  // restart 4 is short enough that every column needs a second cycle.
  for (const index_t restart : {index_t{100}, index_t{4}}) {
    for (const std::size_t width : {std::size_t{1}, std::size_t{3}}) {
      SCOPED_TRACE("restart " + std::to_string(restart) + ", width " +
                   std::to_string(width));
      GmresSettings settings;
      settings.restart = restart;
      settings.track_history = true;
      const auto solve = [&](const Vector* x0) {
        Run run;
        run.columns.resize(width);
        for (std::size_t j = 0; j < width; ++j) {
          run.columns[j].b = &rhs[j];
          run.columns[j].x0 = x0;
        }
        const CountingPreconditioner m(*ilu);
        cycles->Reset();
        EXPECT_TRUE(Gmres(op, run.columns, settings, &m).ok());
        run.applies = m.applies();
        run.cycles = cycles->value();
        for (const GmresColumn& c : run.columns) {
          EXPECT_EQ(c.stats.outcome, SolveOutcome::kConverged);
          run.iterations += static_cast<std::uint64_t>(c.stats.iterations);
        }
        return run;
      };
      const Run no_guess = solve(nullptr);
      const Run zero_guess = solve(&zero);
      for (std::size_t j = 0; j < width; ++j) {
        const GmresColumn& got = no_guess.columns[j];
        const GmresColumn& want = zero_guess.columns[j];
        EXPECT_EQ(got.x, want.x);
        EXPECT_EQ(got.stats.iterations, want.stats.iterations);
        EXPECT_EQ(got.stats.relative_residual, want.stats.relative_residual);
        EXPECT_EQ(got.stats.residual_history, want.stats.residual_history);
      }
      EXPECT_EQ(no_guess.applies, no_guess.iterations + no_guess.cycles);
      EXPECT_EQ(zero_guess.applies, no_guess.applies + width);
      EXPECT_EQ(zero_guess.cycles, no_guess.cycles);
      if (restart == 4) {
        EXPECT_GE(no_guess.cycles, 2 * width);
      }
    }
  }
  SetMetricsEnabled(false);
}

TEST(GmresWidth, ArnoldiBreakdownColumnFinishesBesideIteratingOnes) {
  // S = diag(I, B): a right-hand side on the identity block makes its
  // first Krylov vector invariant, so that column ends by an exact Arnoldi
  // breakdown at its first step while the others keep iterating.
  Rng rng(373);
  const index_t p = 10, nb = 60, n = p + nb;
  const CsrMatrix block = test::RandomDiagDominant(nb, 0.1, &rng);
  CooMatrix coo(n, n);
  for (index_t i = 0; i < p; ++i) coo.Add(i, i, 1.0);
  for (index_t r = 0; r < nb; ++r) {
    for (index_t q = block.row_ptr()[static_cast<std::size_t>(r)];
         q < block.row_ptr()[static_cast<std::size_t>(r) + 1]; ++q) {
      coo.Add(p + r, p + block.col_idx()[static_cast<std::size_t>(q)],
              block.values()[static_cast<std::size_t>(q)]);
    }
  }
  auto a = coo.ToCsr();
  ASSERT_TRUE(a.ok());
  const KernelCsr kernel = KernelCsr::Bind(*a, KernelPath::kAuto);
  const KernelCsrOperator op(kernel);
  Vector invariant(static_cast<std::size_t>(n), 0.0);
  invariant[3] = 4.0;
  const Vector b1 = test::RandomVector(n, &rng);
  const Vector b2 = test::RandomVector(n, &rng);
  auto ilu = Ilu0::Factor(*a);
  ASSERT_TRUE(ilu.ok());
  for (const Preconditioner* m :
       {static_cast<const Preconditioner*>(&*ilu),
        static_cast<const Preconditioner*>(nullptr)}) {
    SCOPED_TRACE(m == nullptr ? "no preconditioner" : "ilu0");
    std::vector<GmresColumn> columns(3);
    columns[0].b = &b1;
    columns[1].b = &invariant;
    columns[2].b = &b2;
    ExpectEachColumnMatchesItsSoloSolve(op, m, GmresSettings{}, &columns);
    EXPECT_EQ(columns[1].stats.outcome, SolveOutcome::kConverged);
    EXPECT_EQ(columns[1].stats.iterations, 1);
    EXPECT_EQ(columns[1].stats.relative_residual, 0.0);
    EXPECT_EQ(columns[1].x, invariant);
    EXPECT_GT(columns[0].stats.iterations, 1);
    EXPECT_GT(columns[2].stats.iterations, 1);
  }
}

}  // namespace
}  // namespace bepi
