// Verifies the paper's accuracy analysis (Section 3.6.3): Lemma 2 and
// Theorem 4 bound the L2 error of BePI's result in terms of the GMRES
// tolerance, matrix norms and smallest singular values.
#include <gtest/gtest.h>

#include <cmath>

#include "core/bepi.hpp"
#include "core/exact.hpp"
#include "solver/dense_lu.hpp"
#include "solver/gmres.hpp"
#include "solver/spectral.hpp"
#include "test_util.hpp"

namespace bepi {
namespace {

struct BoundContext {
  Graph graph;
  BepiSolver solver;
  ExactSolver exact;
  real_t epsilon;
  real_t sigma_min_s = 0.0;
  real_t sigma_min_h11 = 0.0;
  real_t h12_norm = 0.0;
  real_t h31_norm = 0.0;
  real_t h32_norm = 0.0;
};

BoundContext MakeContext(std::uint64_t seed, real_t epsilon) {
  BepiOptions options;
  options.mode = BepiMode::kPreconditioned;
  options.tolerance = epsilon;
  RwrOptions base;
  BoundContext ctx{test::SmallRmat(100, 420, 0.25, seed), BepiSolver(options),
                   ExactSolver(base), epsilon};
  BEPI_CHECK(ctx.solver.Preprocess(ctx.graph).ok());
  BEPI_CHECK(ctx.exact.Preprocess(ctx.graph).ok());
  const DecompositionKernels& kern = *ctx.solver.kernels();
  ctx.sigma_min_s = SmallestSingularValue(kern.schur.ToCsr()).value();
  // The model keeps no H11; a decomposition of the same graph under the
  // same options builds it again.
  DecompositionOptions dopts;
  dopts.restart_prob = options.restart_prob;
  dopts.hub_ratio = ctx.solver.effective_hub_ratio();
  const auto dec = BuildDecomposition(ctx.graph, dopts, nullptr);
  BEPI_CHECK(dec.ok());
  ctx.sigma_min_h11 = SmallestSingularValue(dec->h11).value();
  ctx.h12_norm = MatrixNorm2(kern.h12.ToCsr());
  ctx.h31_norm = MatrixNorm2(kern.h31.ToCsr());
  ctx.h32_norm = MatrixNorm2(kern.h32.ToCsr());
  return ctx;
}

TEST(AccuracyBound, Theorem4HoldsAcrossSeedsAndTolerances) {
  for (std::uint64_t graph_seed : {911ull, 919ull}) {
    for (real_t epsilon : {1e-4, 1e-7}) {
      BoundContext ctx = MakeContext(graph_seed, epsilon);
      const real_t alpha = ctx.h12_norm / ctx.sigma_min_h11;
      const real_t factor = std::sqrt(
          (alpha * ctx.h31_norm + ctx.h32_norm) *
              (alpha * ctx.h31_norm + ctx.h32_norm) +
          alpha * alpha + 1.0);
      Rng rng(graph_seed);
      for (int trial = 0; trial < 3; ++trial) {
        const index_t seed = rng.UniformIndex(0, 99);
        auto r_exact = ctx.exact.Query(seed);
        auto r_bepi = ctx.solver.Query(seed);
        ASSERT_TRUE(r_exact.ok());
        ASSERT_TRUE(r_bepi.ok());
        // ||q2~||_2 <= c (q2~ comes from a scaled indicator minus a
        // substochastic product); use the conservative bound c * (1 + |H21
        // H11^-1|). Simpler: compute q2~ directly is internal, so use the
        // fact that the theorem's rhs with ||q2~|| <= 1 still dominates.
        const real_t bound = factor * 1.0 / ctx.sigma_min_s * epsilon;
        EXPECT_LT(DistL2(*r_exact, *r_bepi), bound + 1e-12)
            << "graph seed " << graph_seed << " eps " << epsilon;
      }
    }
  }
}

TEST(AccuracyBound, TighterToleranceGivesSmallerError) {
  Graph g = test::SmallRmat(100, 450, 0.2, 929);
  RwrOptions base;
  ExactSolver exact(base);
  ASSERT_TRUE(exact.Preprocess(g).ok());
  real_t prev_error = 1e9;
  for (real_t epsilon : {1e-2, 1e-5, 1e-10}) {
    BepiOptions options;
    options.mode = BepiMode::kPreconditioned;
    options.tolerance = epsilon;
    BepiSolver solver(options);
    ASSERT_TRUE(solver.Preprocess(g).ok());
    auto re = exact.Query(13);
    auto rb = solver.Query(13);
    ASSERT_TRUE(re.ok());
    ASSERT_TRUE(rb.ok());
    const real_t error = DistL2(*re, *rb);
    EXPECT_LE(error, prev_error + 1e-12);
    prev_error = error;
  }
  EXPECT_LT(prev_error, 1e-9);
}

TEST(AccuracyBound, Lemma2ResidualImpliesR2Bound) {
  // Directly: ||r2* - r2|| <= ||q2~|| / sigma_min(S) * eps.
  const real_t epsilon = 1e-6;
  BoundContext ctx = MakeContext(937, epsilon);
  const HubSpokeDecomposition& dec = ctx.solver.decomposition();
  if (dec.n2 == 0) GTEST_SKIP();

  // Build q2~ for a hub seed and solve both ways.
  const real_t c = 0.05;
  // Find a node mapped into the hub range.
  index_t hub_seed = -1;
  for (index_t u = 0; u < ctx.graph.num_nodes(); ++u) {
    const index_t pos = dec.perm[static_cast<std::size_t>(u)];
    if (pos >= dec.n1 && pos < dec.n1 + dec.n2) {
      hub_seed = u;
      break;
    }
  }
  ASSERT_GE(hub_seed, 0);
  Vector q2(static_cast<std::size_t>(dec.n2), 0.0);
  q2[static_cast<std::size_t>(dec.perm[static_cast<std::size_t>(hub_seed)] -
                              dec.n1)] = c;

  const CsrMatrix schur = ctx.solver.kernels()->schur.ToCsr();
  auto s_lu = DenseLu::Factor(schur.ToDense());
  ASSERT_TRUE(s_lu.ok());
  Vector r2_true = s_lu->Solve(q2);

  CsrOperator op(schur);
  GmresOptions gm;
  gm.tol = epsilon;
  SolveStats stats;
  auto r2 = Gmres(op, q2, gm, &stats);
  ASSERT_TRUE(r2.ok());
  ASSERT_TRUE(stats.converged);
  const real_t bound = Norm2(q2) / ctx.sigma_min_s * epsilon;
  EXPECT_LE(DistL2(r2_true, *r2), bound * 1.01 + 1e-14);
}

}  // namespace
}  // namespace bepi
