// The Monte-Carlo walk engine (engine/mc): estimator correctness against
// the exact solver, confidence-bound honesty, bit-identical determinism
// across thread counts, anytime/cancellation semantics, and the terminal
// hop of the degradation chain (every linear-algebra stage fault-injected
// away, query still answered with a bound that contains the truth).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "common/cancel.hpp"
#include "common/faultinject.hpp"
#include "common/parallel.hpp"
#include "core/bepi.hpp"
#include "core/exact.hpp"
#include "engine/mc/mc.hpp"
#include "test_util.hpp"

namespace bepi {
namespace {

McOptions BaseOptions(std::uint64_t walks) {
  McOptions options;
  options.walks = walks;
  options.seed = 20170514;
  return options;
}

TEST(McWalkEngine, BoundContainsExactAnswer) {
  const Graph g = test::PaperExampleGraph();
  McWalkEngine engine(g);
  ExactSolver exact{RwrOptions{}};
  ASSERT_TRUE(exact.Preprocess(g).ok());
  for (index_t seed : {index_t{0}, index_t{4}, index_t{7}}) {
    auto est = engine.EstimateSeed(seed, BaseOptions(200'000));
    ASSERT_TRUE(est.ok()) << est.status().ToString();
    EXPECT_EQ(est->outcome, SolveOutcome::kConverged);
    auto truth = exact.Query(seed);
    ASSERT_TRUE(truth.ok());
    for (index_t v = 0; v < g.num_nodes(); ++v) {
      EXPECT_LE(std::fabs(est->scores[v] - (*truth)[v]), est->CheckBound(v))
          << "seed " << seed << " node " << v;
    }
  }
}

TEST(McWalkEngine, BitIdenticalAcrossThreadCounts) {
  const Graph g = test::SmallRmat(300, 1500, 0.2, 77);
  McWalkEngine engine(g);
  auto& ctx = ParallelContext::Global();
  const int restore = ctx.num_threads();
  ASSERT_TRUE(ctx.SetNumThreads(1).ok());
  auto serial = engine.EstimateSeed(3, BaseOptions(60'000));
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(ctx.SetNumThreads(4).ok());
  auto parallel = engine.EstimateSeed(3, BaseOptions(60'000));
  ASSERT_TRUE(ctx.SetNumThreads(restore).ok());
  ASSERT_TRUE(parallel.ok());
  ASSERT_EQ(serial->scores.size(), parallel->scores.size());
  for (std::size_t v = 0; v < serial->scores.size(); ++v) {
    // Bit-identical, not approximately equal: walk w always consumes the
    // stream WalkSeed(seed, w) regardless of which thread runs it.
    EXPECT_EQ(serial->scores[v], parallel->scores[v]) << "node " << v;
  }
  EXPECT_EQ(serial->total_steps, parallel->total_steps);
}

TEST(McWalkEngine, WeightedGraphFollowsEdgeWeights) {
  // Star: 0 -> {1, 2} with weights 9 and 1; walks restart at 0 only.
  auto g = Graph::FromWeightedEdges(
      3, {{0, 1, 9.0}, {0, 2, 1.0}, {1, 0, 1.0}, {2, 0, 1.0}});
  ASSERT_TRUE(g.ok());
  McWalkEngine engine(*g);
  ExactSolver exact{RwrOptions{}};
  ASSERT_TRUE(exact.Preprocess(*g).ok());
  auto est = engine.EstimateSeed(0, BaseOptions(300'000));
  ASSERT_TRUE(est.ok());
  auto truth = exact.Query(0);
  ASSERT_TRUE(truth.ok());
  for (index_t v = 0; v < 3; ++v) {
    EXPECT_LE(std::fabs(est->scores[v] - (*truth)[v]), est->CheckBound(v));
  }
  // The 9:1 weighting must show through: node 1 clearly outranks node 2.
  EXPECT_GT(est->scores[1], 3.0 * est->scores[2]);
}

TEST(McWalkEngine, TargetEpsShrinksBudgetAndConverges) {
  const Graph g = test::PaperExampleGraph();
  McWalkEngine engine(g);
  McOptions options = BaseOptions(10'000'000);
  options.target_eps = 0.02;
  auto est = engine.EstimateSeed(0, options);
  ASSERT_TRUE(est.ok());
  EXPECT_EQ(est->outcome, SolveOutcome::kConverged);
  EXPECT_EQ(est->walks_completed,
            McWalkEngine::WalksForEps(options.target_eps, options.delta));
  EXPECT_LT(est->walks_completed, options.walks);
  EXPECT_LE(est->hoeffding_eps, options.target_eps + 1e-12);
}

TEST(McWalkEngine, UnreachableTargetEpsExhaustsBudget) {
  const Graph g = test::PaperExampleGraph();
  McWalkEngine engine(g);
  McOptions options = BaseOptions(2'000);
  options.target_eps = 1e-6;  // would need ~2.6e12 walks
  auto est = engine.EstimateSeed(0, options);
  ASSERT_TRUE(est.ok());
  EXPECT_EQ(est->outcome, SolveOutcome::kBudgetExhausted);
  EXPECT_EQ(est->walks_completed, options.walks);
}

TEST(McWalkEngine, CancelledPartialKeepsHonestBound) {
  const Graph g = test::SmallRmat(300, 1500, 0.2, 77);
  McWalkEngine engine(g);
  CancelToken token;
  token.Cancel();
  McOptions options = BaseOptions(100'000);
  options.cancel = &token;
  options.allow_partial = false;
  auto rejected = engine.EstimateSeed(1, options);
  EXPECT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kCancelled);
  // allow_partial with zero completed walks still fails: there is no
  // estimate to bound.
  options.allow_partial = true;
  auto empty = engine.EstimateSeed(1, options);
  EXPECT_FALSE(empty.ok());
}

TEST(McWalkEngine, DeadlinePartialReportsCancelledOutcome) {
  const Graph g = test::SmallRmat(500, 3000, 0.2, 99);
  McWalkEngine engine(g);
  CancelToken token;
  // Expires mid-run: enough walks that several rounds are needed.
  token.SetDeadlineAfter(std::chrono::microseconds(300));
  McOptions options = BaseOptions(200'000'000);
  options.cancel = &token;
  options.allow_partial = true;
  auto est = engine.EstimateSeed(1, options);
  if (est.ok()) {  // fast machines may finish a round before expiry polls
    if (est->outcome == SolveOutcome::kCancelled) {
      EXPECT_LT(est->walks_completed, options.walks);
      EXPECT_GT(est->uniform_eps, 0.0);
      // The bound must be computed from walks actually completed.
      EXPECT_DOUBLE_EQ(
          est->hoeffding_eps,
          McWalkEngine::HoeffdingEps(est->walks_completed, est->delta));
    }
  } else {
    EXPECT_EQ(est.status().code(), StatusCode::kDeadlineExceeded);
  }
}

TEST(McWalkEngine, ValidatesInputs) {
  const Graph g = test::PaperExampleGraph();
  McWalkEngine engine(g);
  McOptions options = BaseOptions(100);
  options.restart_prob = 0.0;
  EXPECT_FALSE(engine.EstimateSeed(0, options).ok());
  options = BaseOptions(0);
  EXPECT_FALSE(engine.EstimateSeed(0, options).ok());
  EXPECT_FALSE(engine.EstimateSeed(-1, BaseOptions(100)).ok());
  EXPECT_FALSE(engine.EstimateSeed(99, BaseOptions(100)).ok());
  Vector q(8, 0.0);
  EXPECT_FALSE(engine.EstimateVector(q, BaseOptions(100)).ok());  // zero mass
  q[0] = -1.0;
  EXPECT_FALSE(engine.EstimateVector(q, BaseOptions(100)).ok());  // negative
  q = Vector(3, 1.0);
  EXPECT_FALSE(engine.EstimateVector(q, BaseOptions(100)).ok());  // wrong n
}

TEST(McWalkEngine, EstimateVectorSplitsStartMass) {
  // q split over two seeds must match the mixture of per-seed estimates
  // in expectation; with the bound it must contain the exact answer.
  const Graph g = test::PaperExampleGraph();
  McWalkEngine engine(g);
  ExactSolver exact{RwrOptions{}};
  ASSERT_TRUE(exact.Preprocess(g).ok());
  Vector q(8, 0.0);
  q[0] = 0.5;
  q[5] = 0.5;
  auto est = engine.EstimateVector(q, BaseOptions(200'000));
  ASSERT_TRUE(est.ok());
  auto truth = exact.QueryVector(q);
  ASSERT_TRUE(truth.ok());
  for (index_t v = 0; v < 8; ++v) {
    EXPECT_LE(std::fabs(est->scores[v] - (*truth)[v]), est->CheckBound(v));
  }
}

TEST(McWalkEngine, InjectedWalkStallFailsLoudly) {
  const Graph g = test::PaperExampleGraph();
  McWalkEngine engine(g);
  FaultInjector::Global().Reset();
  FaultInjector::Global().Arm(fault_sites::kMcWalkStall);
  auto est = engine.EstimateSeed(0, BaseOptions(1'000));
  FaultInjector::Global().Reset();
  EXPECT_FALSE(est.ok());
  EXPECT_EQ(est.status().code(), StatusCode::kInternal);
}

// --- terminal hop of the degradation chain -----------------------------

class McFallbackTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::Global().Reset(); }
  void TearDown() override { FaultInjector::Global().Reset(); }

  static void ArmAllLinearAlgebraFaults() {
    auto& inj = FaultInjector::Global();
    inj.Arm(fault_sites::kGmresStagnate);
    inj.Arm(fault_sites::kPowerStall);
  }
};

TEST_F(McFallbackTest, ChainBottomsOutInMcWithBoundContainingTruth) {
  const Graph g = test::SmallRmat(200, 1200, 0.2, 1009);
  BepiSolver solver{BepiOptions{}};
  ASSERT_TRUE(solver.Preprocess(g).ok());
  McWalkEngine engine(g);
  McFallbackOptions fo;
  fo.walks = 150'000;
  ASSERT_TRUE(solver.AttachMcFallback(&engine, fo).ok());

  ExactSolver exact{RwrOptions{}};
  ASSERT_TRUE(exact.Preprocess(g).ok());
  auto truth = exact.Query(5);
  ASSERT_TRUE(truth.ok());

  ArmAllLinearAlgebraFaults();
  QueryStats stats;
  auto scores = solver.Query(5, &stats);
  FaultInjector::Global().Reset();
  ASSERT_TRUE(scores.ok()) << scores.status().ToString();

  ASSERT_FALSE(stats.report.attempts.empty());
  const SolveAttempt& last = stats.report.attempts.back();
  EXPECT_EQ(last.stage, "mc");
  EXPECT_EQ(last.outcome, SolveOutcome::kConverged);
  EXPECT_GT(last.residual, 0.0);  // the confidence half-width
  // Every earlier hop must be recorded as a failure, not skipped.
  EXPECT_EQ(stats.report.attempts.size(), 3u);
  // The reported bound (sup-norm half-width) must contain the truth.
  for (index_t v = 0; v < g.num_nodes(); ++v) {
    EXPECT_LE(std::fabs((*scores)[v] - (*truth)[v]), last.residual)
        << "node " << v;
  }
}

TEST_F(McFallbackTest, WithoutMcAttachedChainStillFails) {
  const Graph g = test::SmallRmat(200, 1200, 0.2, 1009);
  BepiSolver solver{BepiOptions{}};
  ASSERT_TRUE(solver.Preprocess(g).ok());
  ArmAllLinearAlgebraFaults();
  QueryStats stats;
  auto scores = solver.Query(5, &stats);
  FaultInjector::Global().Reset();
  EXPECT_FALSE(scores.ok());
}

TEST_F(McFallbackTest, AttachValidatesNodeCount) {
  const Graph g = test::SmallRmat(200, 1200, 0.2, 1009);
  const Graph other = test::SmallRmat(100, 500, 0.2, 7);
  BepiSolver solver{BepiOptions{}};
  ASSERT_TRUE(solver.Preprocess(g).ok());
  McWalkEngine wrong(other);
  EXPECT_FALSE(solver.AttachMcFallback(&wrong).ok());
  McWalkEngine right(g);
  EXPECT_TRUE(solver.AttachMcFallback(&right).ok());
  EXPECT_TRUE(solver.AttachMcFallback(nullptr).ok());  // detach
  EXPECT_EQ(solver.mc_fallback(), nullptr);
}

TEST_F(McFallbackTest, DeadlineDuringMcHopHonorsAllowPartial) {
  const Graph g = test::SmallRmat(200, 1200, 0.2, 1009);
  BepiSolver solver{BepiOptions{}};
  ASSERT_TRUE(solver.Preprocess(g).ok());
  McWalkEngine engine(g);
  McFallbackOptions fo;
  fo.walks = 500'000'000;  // far more than fits in the deadline
  ASSERT_TRUE(solver.AttachMcFallback(&engine, fo).ok());
  ArmAllLinearAlgebraFaults();
  CancelToken token;
  token.SetDeadlineAfter(std::chrono::milliseconds(30));
  QueryControl control;
  control.cancel = &token;
  control.allow_partial = true;
  QueryStats stats;
  auto scores = solver.Query(5, &stats, nullptr, control);
  FaultInjector::Global().Reset();
  if (scores.ok()) {
    // Partial MC answer: recorded as the mc attempt with a real bound.
    ASSERT_FALSE(stats.report.attempts.empty());
    EXPECT_EQ(stats.report.attempts.back().stage, "mc");
  } else {
    EXPECT_TRUE(scores.status().code() == StatusCode::kDeadlineExceeded ||
                scores.status().code() == StatusCode::kCancelled)
        << scores.status().ToString();
  }
}

}  // namespace
}  // namespace bepi
