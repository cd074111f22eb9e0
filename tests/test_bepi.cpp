#include <gtest/gtest.h>

#include <tuple>

#include "core/bepi.hpp"
#include "core/exact.hpp"
#include "test_util.hpp"

namespace bepi {
namespace {

BepiOptions MakeOptions(BepiMode mode, real_t hub_ratio = 0.0) {
  BepiOptions options;
  options.mode = mode;
  options.hub_ratio = hub_ratio;
  return options;
}

/// The main correctness property across modes, hub ratios, restart
/// probabilities and graph seeds: BePI == exact dense solution.
class BepiCorrectness
    : public ::testing::TestWithParam<
          std::tuple<BepiMode, real_t, real_t, std::uint64_t>> {};

TEST_P(BepiCorrectness, MatchesExactSolver) {
  const auto [mode, hub_ratio, restart, seed] = GetParam();
  Graph g = test::SmallRmat(120, 520, 0.25, seed);
  RwrOptions base;
  base.restart_prob = restart;
  ExactSolver exact(base);
  ASSERT_TRUE(exact.Preprocess(g).ok());

  BepiOptions options = MakeOptions(mode, hub_ratio);
  options.restart_prob = restart;
  BepiSolver solver(options);
  ASSERT_TRUE(solver.Preprocess(g).ok());

  Rng rng(seed + 1);
  for (int trial = 0; trial < 4; ++trial) {
    const index_t s = rng.UniformIndex(0, 119);
    auto re = exact.Query(s);
    auto rb = solver.Query(s);
    ASSERT_TRUE(re.ok());
    ASSERT_TRUE(rb.ok());
    EXPECT_LT(DistL2(*re, *rb), 1e-6)
        << "mode=" << BepiModeName(mode) << " k=" << hub_ratio
        << " c=" << restart << " seed node " << s;
  }
}

INSTANTIATE_TEST_SUITE_P(
    ModesRatiosRestarts, BepiCorrectness,
    ::testing::Combine(
        ::testing::Values(BepiMode::kBasic, BepiMode::kSparsified,
                          BepiMode::kPreconditioned),
        ::testing::Values(0.0, 0.1, 0.35),
        ::testing::Values(0.05, 0.3),
        ::testing::Values<std::uint64_t>(751, 757)));

TEST(Bepi, NamesFollowModes) {
  EXPECT_EQ(BepiSolver(MakeOptions(BepiMode::kBasic)).name(), "BePI-B");
  EXPECT_EQ(BepiSolver(MakeOptions(BepiMode::kSparsified)).name(), "BePI-S");
  EXPECT_EQ(BepiSolver(MakeOptions(BepiMode::kPreconditioned)).name(), "BePI");
}

TEST(Bepi, DefaultHubRatiosPerMode) {
  EXPECT_DOUBLE_EQ(
      BepiSolver(MakeOptions(BepiMode::kBasic)).effective_hub_ratio(), 0.001);
  EXPECT_DOUBLE_EQ(
      BepiSolver(MakeOptions(BepiMode::kSparsified)).effective_hub_ratio(),
      0.2);
  EXPECT_DOUBLE_EQ(
      BepiSolver(MakeOptions(BepiMode::kPreconditioned, 0.4))
          .effective_hub_ratio(),
      0.4);
}

TEST(Bepi, ResidualMeetsToleranceOnLargerGraph) {
  Graph g = test::SmallRmat(2000, 12000, 0.2, 761);
  BepiOptions options = MakeOptions(BepiMode::kPreconditioned);
  options.tolerance = 1e-9;
  BepiSolver solver(options);
  ASSERT_TRUE(solver.Preprocess(g).ok());
  for (index_t seed : {0, 512, 1999}) {
    auto r = solver.Query(seed);
    ASSERT_TRUE(r.ok());
    EXPECT_LT(RwrResidual(g, options.restart_prob, seed, *r), 1e-6);
  }
}

TEST(Bepi, PreconditionerReducesIterations) {
  // Table 4 of the paper: ILU preconditioning cuts GMRES iterations.
  Graph g = test::SmallRmat(1500, 9000, 0.15, 769);
  BepiSolver plain(MakeOptions(BepiMode::kSparsified));
  BepiSolver preconditioned(MakeOptions(BepiMode::kPreconditioned));
  ASSERT_TRUE(plain.Preprocess(g).ok());
  ASSERT_TRUE(preconditioned.Preprocess(g).ok());
  QueryStats sp, sq;
  ASSERT_TRUE(plain.Query(7, &sp).ok());
  ASSERT_TRUE(preconditioned.Query(7, &sq).ok());
  EXPECT_LT(sq.iterations, sp.iterations);
  EXPECT_GT(sq.iterations, 0);
}

TEST(Bepi, SparsificationReducesSchurNnz) {
  // Table 3: |S| under BePI-S's hub ratio is smaller than under BePI-B's.
  Graph g = test::SmallRmat(1500, 9000, 0.15, 773);
  BepiSolver basic(MakeOptions(BepiMode::kBasic));
  BepiSolver sparsified(MakeOptions(BepiMode::kSparsified));
  ASSERT_TRUE(basic.Preprocess(g).ok());
  ASSERT_TRUE(sparsified.Preprocess(g).ok());
  EXPECT_LT(sparsified.info().schur_nnz, basic.info().schur_nnz);
}

TEST(Bepi, InfoIsConsistent) {
  Graph g = test::SmallRmat(300, 1300, 0.3, 787);
  BepiSolver solver(MakeOptions(BepiMode::kPreconditioned));
  ASSERT_TRUE(solver.Preprocess(g).ok());
  const BepiPreprocessInfo& info = solver.info();
  EXPECT_EQ(info.n1 + info.n2 + info.n3, 300);
  EXPECT_EQ(info.n3, static_cast<index_t>(g.Deadends().size()));
  EXPECT_EQ(info.schur_nnz, solver.kernels()->schur.nnz());
  // The model keeps no H22; a decomposition of the same graph under the
  // same options builds it again.
  DecompositionOptions dopts;
  dopts.restart_prob = solver.options().restart_prob;
  dopts.hub_ratio = solver.effective_hub_ratio();
  const auto dec = BuildDecomposition(g, dopts, nullptr);
  ASSERT_TRUE(dec.ok());
  EXPECT_EQ(info.h22_nnz, dec->h22.nnz());
  // |S| <= |H22| + |H21 H11^-1 H12| (Section 3.4 bound).
  EXPECT_LE(info.schur_nnz, info.h22_nnz + info.product_nnz);
  EXPECT_NE(solver.preconditioner(), nullptr);
  EXPECT_GT(solver.PreprocessedBytes(), 0u);
  EXPECT_GT(solver.preprocess_seconds(), 0.0);
}

TEST(Bepi, NoPreconditionerInBasicAndSparsifiedModes) {
  Graph g = test::SmallRmat(100, 400, 0.1, 797);
  BepiSolver basic(MakeOptions(BepiMode::kBasic));
  BepiSolver sparsified(MakeOptions(BepiMode::kSparsified));
  ASSERT_TRUE(basic.Preprocess(g).ok());
  ASSERT_TRUE(sparsified.Preprocess(g).ok());
  EXPECT_EQ(basic.preconditioner(), nullptr);
  EXPECT_EQ(sparsified.preconditioner(), nullptr);
  // The preconditioned variant stores the extra ILU factors.
  BepiSolver full(MakeOptions(BepiMode::kPreconditioned, 0.2));
  BepiSolver same_k(MakeOptions(BepiMode::kSparsified, 0.2));
  ASSERT_TRUE(full.Preprocess(g).ok());
  ASSERT_TRUE(same_k.Preprocess(g).ok());
  EXPECT_GT(full.PreprocessedBytes(), same_k.PreprocessedBytes());
}

TEST(Bepi, QueryStatsPopulated) {
  Graph g = test::SmallRmat(200, 900, 0.2, 809);
  BepiSolver solver(MakeOptions(BepiMode::kPreconditioned));
  ASSERT_TRUE(solver.Preprocess(g).ok());
  QueryStats stats;
  ASSERT_TRUE(solver.Query(11, &stats).ok());
  EXPECT_GT(stats.seconds, 0.0);
  EXPECT_GT(stats.iterations, 0);
  EXPECT_LE(stats.residual, 1e-9);
}

TEST(Bepi, DeterministicQueries) {
  Graph g = test::SmallRmat(150, 600, 0.2, 811);
  BepiSolver solver(MakeOptions(BepiMode::kPreconditioned));
  ASSERT_TRUE(solver.Preprocess(g).ok());
  auto r1 = solver.Query(42);
  auto r2 = solver.Query(42);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(*r1, *r2);
}

TEST(Bepi, ScoresAreNonNegativeAndSeedDominates) {
  Graph g = test::SmallRmat(150, 700, 0.1, 821);
  BepiSolver solver(MakeOptions(BepiMode::kPreconditioned));
  ASSERT_TRUE(solver.Preprocess(g).ok());
  for (index_t seed : {3, 77}) {
    auto r = solver.Query(seed);
    ASSERT_TRUE(r.ok());
    for (real_t v : *r) EXPECT_GT(v, -1e-9);
    // The seed always receives at least the restart mass c. (It need not
    // be the global top: a strong attractor can collect more.)
    EXPECT_GE((*r)[static_cast<std::size_t>(seed)], 0.05 - 1e-9);
  }
}

TEST(Bepi, SumOfScoresIsOneWithoutDeadends) {
  Graph g0 = test::SmallRmat(100, 500, 0.0, 823);
  // Patch residual R-MAT deadends so every node has an out-edge.
  std::vector<Edge> edges = g0.EdgeList();
  for (index_t u : g0.Deadends()) edges.push_back({u, (u + 1) % 100});
  Graph g = std::move(Graph::FromEdges(100, edges)).value();
  ASSERT_TRUE(g.Deadends().empty());
  BepiSolver solver(MakeOptions(BepiMode::kPreconditioned));
  ASSERT_TRUE(solver.Preprocess(g).ok());
  auto r = solver.Query(5);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(Norm1(*r), 1.0, 1e-7);
}

TEST(Bepi, ErrorPaths) {
  BepiSolver solver(MakeOptions(BepiMode::kPreconditioned));
  EXPECT_EQ(solver.Query(0).status().code(), StatusCode::kFailedPrecondition);
  auto empty = Graph::FromEdges(0, {});
  EXPECT_FALSE(solver.Preprocess(*empty).ok());

  Graph g = test::SmallRmat(50, 200, 0.2, 827);
  ASSERT_TRUE(solver.Preprocess(g).ok());
  EXPECT_EQ(solver.Query(-1).status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(solver.Query(50).status().code(), StatusCode::kOutOfRange);
}

TEST(Bepi, MemoryBudgetFailsPreprocessing) {
  Graph g = test::SmallRmat(300, 1500, 0.1, 829);
  BepiOptions options = MakeOptions(BepiMode::kPreconditioned);
  options.memory_budget_bytes = 256;
  BepiSolver solver(options);
  EXPECT_EQ(solver.Preprocess(g).code(), StatusCode::kResourceExhausted);
  // And the solver stays unusable afterwards.
  EXPECT_FALSE(solver.Query(0).ok());
}

TEST(Bepi, AllDeadendGraph) {
  auto g = Graph::FromEdges(4, {});
  ASSERT_TRUE(g.ok());
  BepiSolver solver(MakeOptions(BepiMode::kPreconditioned));
  ASSERT_TRUE(solver.Preprocess(*g).ok());
  auto r = solver.Query(2);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR((*r)[2], 0.05, 1e-12);
  EXPECT_NEAR((*r)[0], 0.0, 1e-12);
}

TEST(Bepi, GraphWithoutDeadends) {
  // Directed cycle: no deadends at all (n3 = 0 path).
  std::vector<Edge> edges;
  for (index_t i = 0; i < 30; ++i) edges.push_back({i, (i + 1) % 30});
  auto g = Graph::FromEdges(30, edges);
  ASSERT_TRUE(g.ok());
  RwrOptions base;
  ExactSolver exact(base);
  ASSERT_TRUE(exact.Preprocess(*g).ok());
  BepiSolver solver(MakeOptions(BepiMode::kPreconditioned));
  ASSERT_TRUE(solver.Preprocess(*g).ok());
  EXPECT_EQ(solver.info().n3, 0);
  auto re = exact.Query(4);
  auto rb = solver.Query(4);
  ASSERT_TRUE(re.ok());
  ASSERT_TRUE(rb.ok());
  EXPECT_LT(DistL2(*re, *rb), 1e-7);
}

TEST(Bepi, SelfLoopsHandled) {
  auto g = Graph::FromEdges(5, {{0, 0}, {0, 1}, {1, 2}, {2, 0}, {3, 3}, {4, 0}});
  ASSERT_TRUE(g.ok());
  RwrOptions base;
  ExactSolver exact(base);
  BepiSolver solver(MakeOptions(BepiMode::kPreconditioned));
  ASSERT_TRUE(exact.Preprocess(*g).ok());
  ASSERT_TRUE(solver.Preprocess(*g).ok());
  for (index_t s = 0; s < 5; ++s) {
    auto re = exact.Query(s);
    auto rb = solver.Query(s);
    ASSERT_TRUE(re.ok());
    ASSERT_TRUE(rb.ok());
    EXPECT_LT(DistL2(*re, *rb), 1e-7);
  }
}

TEST(Bepi, PaperExampleRanking) {
  Graph g = test::PaperExampleGraph();
  BepiSolver solver(MakeOptions(BepiMode::kPreconditioned, 0.25));
  ASSERT_TRUE(solver.Preprocess(g).ok());
  auto r = solver.Query(0);
  ASSERT_TRUE(r.ok());
  EXPECT_GT((*r)[7], (*r)[5]);  // u8 recommended over u6 (paper Section 2.1)
}

}  // namespace
}  // namespace bepi
