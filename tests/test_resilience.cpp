// Resilience layer tests: FaultInjector semantics, solver breakdown
// detection, and the BePI degradation chain: the model's Krylov stage,
// then power iteration on S (the Monte-Carlo stage is in test_mc).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>

#include "common/faultinject.hpp"
#include "core/bepi.hpp"
#include "core/iterative.hpp"
#include "core/resilient.hpp"
#include "solver/bicgstab.hpp"
#include "solver/gmres.hpp"
#include "solver/ilu0.hpp"
#include "solver/power.hpp"
#include "sparse/coo.hpp"
#include "test_util.hpp"

namespace bepi {
namespace {

real_t DistL1(const Vector& x, const Vector& y) {
  EXPECT_EQ(x.size(), y.size());
  real_t d = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) d += std::fabs(x[i] - y[i]);
  return d;
}

bool AllFinite(const Vector& x) {
  for (real_t v : x) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

/// Every test leaves the process-wide injector disarmed.
class ResilienceTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::Global().Reset(); }
  void TearDown() override { FaultInjector::Global().Reset(); }
};

// ---------------------------------------------------------------------------
// FaultInjector semantics
// ---------------------------------------------------------------------------

using FaultInjectorTest = ResilienceTest;

TEST_F(FaultInjectorTest, UnarmedSitesNeverFire) {
  EXPECT_FALSE(FaultInjector::Global().ShouldFail("never.armed"));
  EXPECT_EQ(FaultInjector::Global().Fired("never.armed"), 0);
  EXPECT_TRUE(FaultInjector::Global().ArmedSites().empty());
}

TEST_F(FaultInjectorTest, SkipThenCountWindow) {
  auto& fi = FaultInjector::Global();
  fi.Arm("s", /*skip=*/2, /*count=*/3);
  std::vector<bool> fired;
  for (int i = 0; i < 8; ++i) fired.push_back(fi.ShouldFail("s"));
  const std::vector<bool> expected = {false, false, true, true,
                                      true,  false, false, false};
  EXPECT_EQ(fired, expected);
  EXPECT_EQ(fi.Hits("s"), 8);
  EXPECT_EQ(fi.Fired("s"), 3);
}

TEST_F(FaultInjectorTest, NegativeCountFiresForever) {
  auto& fi = FaultInjector::Global();
  fi.Arm("s");
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(fi.ShouldFail("s"));
}

TEST_F(FaultInjectorTest, ProbabilisticIsSeedDeterministic) {
  auto& fi = FaultInjector::Global();
  fi.ArmProbabilistic("p", 0.5, 1234);
  std::vector<bool> first;
  for (int i = 0; i < 64; ++i) first.push_back(fi.ShouldFail("p"));
  fi.Reset();
  fi.ArmProbabilistic("p", 0.5, 1234);
  std::vector<bool> second;
  for (int i = 0; i < 64; ++i) second.push_back(fi.ShouldFail("p"));
  EXPECT_EQ(first, second);
  // Degenerate probabilities are exact.
  fi.ArmProbabilistic("zero", 0.0);
  fi.ArmProbabilistic("one", 1.0);
  for (int i = 0; i < 16; ++i) {
    EXPECT_FALSE(fi.ShouldFail("zero"));
    EXPECT_TRUE(fi.ShouldFail("one"));
  }
}

TEST_F(FaultInjectorTest, DisarmAndResetClearState) {
  auto& fi = FaultInjector::Global();
  fi.Arm("a");
  fi.Arm("b");
  EXPECT_EQ(fi.ArmedSites().size(), 2u);
  fi.Disarm("a");
  EXPECT_FALSE(fi.ShouldFail("a"));
  EXPECT_TRUE(fi.ShouldFail("b"));
  fi.Reset();
  EXPECT_TRUE(fi.ArmedSites().empty());
  EXPECT_EQ(fi.Hits("b"), 0);
}

TEST_F(FaultInjectorTest, ConfigureParsesDeterministicAndProbabilistic) {
  auto& fi = FaultInjector::Global();
  ASSERT_TRUE(fi.Configure("ilu0.factor,gmres.stagnate:2,bicgstab.nan:1:3,"
                           "graph.io.read@0.25@9")
                  .ok());
  EXPECT_EQ(fi.ArmedSites().size(), 4u);
  // gmres.stagnate skips its first two hits.
  EXPECT_FALSE(fi.ShouldFail(fault_sites::kGmresStagnate));
  EXPECT_FALSE(fi.ShouldFail(fault_sites::kGmresStagnate));
  EXPECT_TRUE(fi.ShouldFail(fault_sites::kGmresStagnate));
}

TEST_F(FaultInjectorTest, ConfigureRejectsMalformedSpecs) {
  auto& fi = FaultInjector::Global();
  EXPECT_EQ(fi.Configure("site:x").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(fi.Configure("site@1.5").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(fi.Configure(":1").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(fi.Configure("a:1:2:3").code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(fi.Configure("").ok());
}

// ---------------------------------------------------------------------------
// Breakdown detection in the individual solvers
// ---------------------------------------------------------------------------

using SolverGuardTest = ResilienceTest;

TEST_F(SolverGuardTest, IluInjectedBreakdownIsAStatusNotAnAbort) {
  Rng rng(11);
  CsrMatrix a = test::RandomDiagDominant(20, 0.3, &rng);
  FaultInjector::Global().Arm(fault_sites::kIluFactor);
  auto ilu = Ilu0::Factor(a);
  EXPECT_EQ(ilu.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(SolverGuardTest, IluTinyPivotReported) {
  CooMatrix coo(2, 2);
  coo.Add(0, 0, 1e-40);  // below the pivot floor
  coo.Add(0, 1, 1.0);
  coo.Add(1, 0, 1.0);
  coo.Add(1, 1, 2.0);
  auto a = coo.ToCsr();
  ASSERT_TRUE(a.ok());
  auto ilu = Ilu0::Factor(*a);
  EXPECT_EQ(ilu.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(SolverGuardTest, GmresInjectedStagnationReturnsIterate) {
  Rng rng(12);
  CsrMatrix a = test::RandomDiagDominant(20, 0.3, &rng);
  Vector b = test::RandomVector(20, &rng);
  FaultInjector::Global().Arm(fault_sites::kGmresStagnate);
  CsrOperator op(a);
  SolveStats stats;
  auto x = Gmres(op, b, GmresOptions{}, &stats);
  ASSERT_TRUE(x.ok());
  EXPECT_FALSE(stats.converged);
  EXPECT_EQ(stats.outcome, SolveOutcome::kStagnated);
  EXPECT_TRUE(AllFinite(*x));
}

TEST_F(SolverGuardTest, GmresNanPoisonDivergesWithFiniteIterate) {
  Rng rng(13);
  CsrMatrix a = test::RandomDiagDominant(30, 0.2, &rng);
  Vector b = test::RandomVector(30, &rng);
  FaultInjector::Global().Arm(fault_sites::kGmresNan, /*skip=*/0, /*count=*/1);
  CsrOperator op(a);
  SolveStats stats;
  auto x = Gmres(op, b, GmresOptions{}, &stats);
  ASSERT_TRUE(x.ok());
  EXPECT_FALSE(stats.converged);
  EXPECT_EQ(stats.outcome, SolveOutcome::kDiverged);
  EXPECT_TRUE(AllFinite(*x));
}

TEST_F(SolverGuardTest, GmresNonFiniteRhsDiverges) {
  Rng rng(14);
  CsrMatrix a = test::RandomDiagDominant(5, 0.5, &rng);
  Vector b(5, 1.0);
  b[2] = std::numeric_limits<real_t>::quiet_NaN();
  CsrOperator op(a);
  SolveStats stats;
  auto x = Gmres(op, b, GmresOptions{}, &stats);
  ASSERT_TRUE(x.ok());
  EXPECT_EQ(stats.outcome, SolveOutcome::kDiverged);
  EXPECT_TRUE(AllFinite(*x));
}

TEST_F(SolverGuardTest, GmresDetectsRealStagnation) {
  // The cyclic shift matrix: GMRES(1) from x0 = 0 with b = e_0 makes no
  // progress at all, the textbook stagnation example.
  const index_t n = 10;
  CooMatrix coo(n, n);
  for (index_t i = 0; i < n; ++i) coo.Add(i, (i + 1) % n, 1.0);
  auto a = coo.ToCsr();
  ASSERT_TRUE(a.ok());
  Vector b(static_cast<std::size_t>(n), 0.0);
  b[0] = 1.0;
  GmresOptions options;
  options.restart = 1;
  options.max_iters = 500;
  options.stagnation_window = 10;
  CsrOperator op(*a);
  SolveStats stats;
  auto x = Gmres(op, b, options, &stats);
  ASSERT_TRUE(x.ok());
  EXPECT_FALSE(stats.converged);
  EXPECT_EQ(stats.outcome, SolveOutcome::kStagnated);
  EXPECT_LT(stats.iterations, 100);  // gave up early, not at the budget
}

TEST_F(SolverGuardTest, BicgstabInjectedBreakdown) {
  Rng rng(15);
  CsrMatrix a = test::RandomDiagDominant(20, 0.3, &rng);
  Vector b = test::RandomVector(20, &rng);
  FaultInjector::Global().Arm(fault_sites::kBicgstabBreakdown);
  CsrOperator op(a);
  SolveStats stats;
  auto x = Bicgstab(op, b, BicgstabOptions{}, &stats);
  ASSERT_TRUE(x.ok());
  EXPECT_FALSE(stats.converged);
  EXPECT_EQ(stats.outcome, SolveOutcome::kBreakdown);
  EXPECT_TRUE(AllFinite(*x));
}

TEST_F(SolverGuardTest, BicgstabNanPoisonDiverges) {
  Rng rng(16);
  CsrMatrix a = test::RandomDiagDominant(20, 0.3, &rng);
  Vector b = test::RandomVector(20, &rng);
  FaultInjector::Global().Arm(fault_sites::kBicgstabNan, /*skip=*/0,
                              /*count=*/1);
  CsrOperator op(a);
  SolveStats stats;
  auto x = Bicgstab(op, b, BicgstabOptions{}, &stats);
  ASSERT_TRUE(x.ok());
  EXPECT_FALSE(stats.converged);
  EXPECT_EQ(stats.outcome, SolveOutcome::kDiverged);
  EXPECT_TRUE(AllFinite(*x));
}

TEST_F(SolverGuardTest, FixedPointNonFiniteDiverges) {
  CsrMatrix g = CsrMatrix::Identity(4);
  Vector f(4, 0.0);
  f[1] = std::numeric_limits<real_t>::infinity();
  CsrOperator op(g);
  SolveStats stats;
  auto x = FixedPointIteration(op, f, FixedPointOptions{}, &stats);
  ASSERT_TRUE(x.ok());
  EXPECT_FALSE(stats.converged);
  EXPECT_EQ(stats.outcome, SolveOutcome::kDiverged);
}

// ---------------------------------------------------------------------------
// The degradation chain end to end
// ---------------------------------------------------------------------------

class DegradationChainTest : public ResilienceTest {
 protected:
  void SetUp() override {
    ResilienceTest::SetUp();
    graph_ = test::SmallRmat(200, 1200, 0.15, 42);
    RwrOptions ref_options;
    ref_options.tolerance = 1e-12;
    ref_options.max_iterations = 100000;
    reference_ = std::make_unique<PowerSolver>(ref_options);
    ASSERT_TRUE(reference_->Preprocess(graph_).ok());
  }

  Vector Reference(index_t seed) {
    auto r = reference_->Query(seed);
    EXPECT_TRUE(r.ok());
    return std::move(r).value();
  }

  Graph graph_;
  std::unique_ptr<PowerSolver> reference_;
};

TEST_F(DegradationChainTest, HealthyQueryHasOneAttempt) {
  BepiSolver solver(BepiOptions{});
  ASSERT_TRUE(solver.Preprocess(graph_).ok());
  QueryStats stats;
  auto r = solver.Query(3, &stats);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(stats.report.attempts.size(), 1u);
  EXPECT_EQ(stats.report.attempts[0].stage, "ilu0+gmres");
  EXPECT_EQ(stats.report.fallback_hops(), 0);
  EXPECT_EQ(stats.outcome, SolveOutcome::kConverged);
  EXPECT_LT(DistL1(*r, Reference(3)), 1e-6);
}

TEST_F(DegradationChainTest, IluBreakdownAtPreprocessFallsToJacobi) {
  FaultInjector::Global().Arm(fault_sites::kIluFactor, /*skip=*/0,
                              /*count=*/1);
  BepiSolver solver(BepiOptions{});
  ASSERT_TRUE(solver.Preprocess(graph_).ok());
  EXPECT_TRUE(solver.info().ilu_skipped);
  EXPECT_EQ(solver.preconditioner(), nullptr);
  QueryStats stats;
  auto r = solver.Query(7, &stats);
  ASSERT_TRUE(r.ok());
  ASSERT_GE(stats.report.attempts.size(), 1u);
  EXPECT_EQ(stats.report.attempts[0].stage, "jacobi+gmres");
  EXPECT_EQ(stats.report.final_outcome, SolveOutcome::kConverged);
  EXPECT_LT(DistL1(*r, Reference(7)), 1e-6);
}

/// Stage names and outcomes of a report, in chain order.
std::vector<std::string> StageList(const QueryReport& report) {
  std::vector<std::string> stages;
  for (const SolveAttempt& a : report.attempts) {
    stages.push_back(a.stage + ":" + SolveOutcomeName(a.outcome));
  }
  return stages;
}

TEST_F(DegradationChainTest, AllKrylovHopsFailFallsToPowerIteration) {
  // The chain has one Krylov stage, so a GMRES stagnation is all of them
  // failing: the next hop is power, with nothing in between.
  FaultInjector::Global().Arm(fault_sites::kGmresStagnate);
  BepiSolver solver(BepiOptions{});
  ASSERT_TRUE(solver.Preprocess(graph_).ok());
  QueryStats stats;
  auto r = solver.Query(11, &stats);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(StageList(stats.report),
            (std::vector<std::string>{"ilu0+gmres:Stagnated",
                                      "power:Converged"}));
  EXPECT_EQ(stats.report.fallback_hops(), 1);
  EXPECT_EQ(stats.outcome, SolveOutcome::kConverged);
  EXPECT_LT(DistL1(*r, Reference(11)), 1e-6);
  // The report renders a readable chain summary.
  EXPECT_NE(stats.report.Summary().find("power -> Converged"),
            std::string::npos);
}

TEST_F(DegradationChainTest, NoIluModelChainIsJacobiThenPower) {
  // A model without ILU(0) factors, from BePI-S or from a breakdown at
  // preprocess, has jacobi+gmres as its Krylov stage and power after it.
  BepiOptions sparsified;
  sparsified.mode = BepiMode::kSparsified;
  BepiSolver bepi_s(sparsified);
  ASSERT_TRUE(bepi_s.Preprocess(graph_).ok());
  FaultInjector::Global().Arm(fault_sites::kIluFactor, /*skip=*/0,
                              /*count=*/1);
  BepiSolver broken(BepiOptions{});
  ASSERT_TRUE(broken.Preprocess(graph_).ok());
  ASSERT_TRUE(broken.info().ilu_skipped);
  FaultInjector::Global().Arm(fault_sites::kGmresStagnate);
  for (const BepiSolver* solver : {&bepi_s, &broken}) {
    SCOPED_TRACE(solver->name());
    ASSERT_EQ(solver->preconditioner(), nullptr);
    QueryStats stats;
    auto r = solver->Query(13, &stats);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(StageList(stats.report),
              (std::vector<std::string>{"jacobi+gmres:Stagnated",
                                        "power:Converged"}));
    EXPECT_LT(DistL1(*r, Reference(13)), 1e-6);
  }
}

TEST_F(DegradationChainTest, BicgstabAblationBreakdownFallsToPower) {
  BepiOptions options;
  options.inner_solver = BepiInnerSolver::kBicgstab;
  BepiSolver solver(options);
  ASSERT_TRUE(solver.Preprocess(graph_).ok());
  ASSERT_NE(solver.preconditioner(), nullptr);
  FaultInjector::Global().Arm(fault_sites::kBicgstabBreakdown);
  QueryStats stats;
  auto r = solver.Query(17, &stats);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(StageList(stats.report),
            (std::vector<std::string>{"ilu0+bicgstab:Breakdown",
                                      "power:Converged"}));
  EXPECT_LT(DistL1(*r, Reference(17)), 1e-6);
}

TEST_F(DegradationChainTest, QueryVectorAlsoTakesTheChain) {
  FaultInjector::Global().Arm(fault_sites::kGmresStagnate);
  BepiSolver solver(BepiOptions{});
  ASSERT_TRUE(solver.Preprocess(graph_).ok());
  auto q = PersonalizationVector(graph_.num_nodes(), {{3, 0.5}, {19, 0.5}});
  ASSERT_TRUE(q.ok());
  QueryStats stats;
  auto r = solver.QueryVector(*q, &stats);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(stats.report.attempts.back().stage, "power");
  auto expected = reference_->QueryVector(*q);
  ASSERT_TRUE(expected.ok());
  EXPECT_LT(DistL1(*r, *expected), 1e-6);
}

TEST_F(DegradationChainTest, PowerStallWithoutMcSurfacesNotConverged) {
  // With no walk engine armed, a query whose Krylov and power stages both
  // fail is kNotConverged, and its report holds both attempts.
  FaultInjector::Global().Arm(fault_sites::kGmresStagnate);
  FaultInjector::Global().Arm(fault_sites::kPowerStall);
  BepiSolver solver(BepiOptions{});
  ASSERT_TRUE(solver.Preprocess(graph_).ok());
  QueryStats stats;
  auto r = solver.Query(5, &stats);
  EXPECT_EQ(r.status().code(), StatusCode::kNotConverged);
  EXPECT_EQ(StageList(stats.report),
            (std::vector<std::string>{"ilu0+gmres:Stagnated",
                                      "power:BudgetExhausted"}));
}

TEST_F(DegradationChainTest, SavedModelRetainsPowerFallback) {
  // The power stage reads only S and the back-substitution matrices, all
  // in the model: a loaded solver's power answer is the preprocessed one's,
  // bit for bit.
  BepiSolver solver(BepiOptions{});
  ASSERT_TRUE(solver.Preprocess(graph_).ok());
  std::stringstream stream;
  ASSERT_TRUE(solver.Save(stream).ok());
  EXPECT_EQ(stream.str().rfind(BepiSolver::kModelMagic, 0), 0u);
  auto loaded = BepiSolver::Load(stream);
  ASSERT_TRUE(loaded.ok());
  FaultInjector::Global().Arm(fault_sites::kGmresStagnate);
  QueryStats want_stats, stats;
  auto want = solver.Query(23, &want_stats);
  auto r = loaded->Query(23, &stats);
  ASSERT_TRUE(want.ok());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(want_stats.report.attempts.back().stage, "power");
  EXPECT_EQ(stats.report.attempts.back().stage, "power");
  EXPECT_EQ(stats.iterations, want_stats.iterations);
  EXPECT_EQ(*r, *want);
  EXPECT_LT(DistL1(*r, Reference(23)), 1e-6);
}

// ---------------------------------------------------------------------------
// Degenerate graphs: zero-degree-only rows must not produce NaN
// ---------------------------------------------------------------------------

using DeadendGraphTest = ResilienceTest;

TEST_F(DeadendGraphTest, AllDeadendGraphQueriesExactly) {
  auto g = Graph::FromEdges(6, {});
  ASSERT_TRUE(g.ok());
  BepiSolver solver(BepiOptions{});
  ASSERT_TRUE(solver.Preprocess(*g).ok());
  QueryStats stats;
  auto r = solver.Query(4, &stats);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(AllFinite(*r));
  // With no edges H = I, so r = c q exactly.
  for (index_t u = 0; u < 6; ++u) {
    EXPECT_DOUBLE_EQ((*r)[static_cast<std::size_t>(u)], u == 4 ? 0.05 : 0.0);
  }
}

TEST_F(DeadendGraphTest, FaultsOnDeadendOnlyGraphAreHarmless) {
  FaultInjector::Global().Arm(fault_sites::kIluFactor);
  FaultInjector::Global().Arm(fault_sites::kGmresStagnate);
  auto g = Graph::FromEdges(5, {});
  ASSERT_TRUE(g.ok());
  BepiSolver solver(BepiOptions{});
  ASSERT_TRUE(solver.Preprocess(*g).ok());
  auto r = solver.Query(0);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(AllFinite(*r));
  EXPECT_DOUBLE_EQ((*r)[0], 0.05);
}

TEST_F(DeadendGraphTest, MostlyDeadendGraphSurvivesFullChain) {
  Graph g = test::SmallRmat(80, 120, 0.7, 99);
  FaultInjector::Global().Arm(fault_sites::kGmresStagnate);
  BepiSolver solver(BepiOptions{});
  ASSERT_TRUE(solver.Preprocess(g).ok());
  RwrOptions ref_options;
  ref_options.tolerance = 1e-12;
  ref_options.max_iterations = 100000;
  PowerSolver reference(ref_options);
  ASSERT_TRUE(reference.Preprocess(g).ok());
  for (index_t seed : {0, 17, 63}) {
    auto r = solver.Query(seed);
    ASSERT_TRUE(r.ok()) << "seed " << seed;
    ASSERT_TRUE(AllFinite(*r));
    auto expected = reference.Query(seed);
    ASSERT_TRUE(expected.ok());
    EXPECT_LT(DistL1(*r, *expected), 1e-6) << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// ResilientSchurSolver argument handling
// ---------------------------------------------------------------------------

using ResilientApiTest = ResilienceTest;

TEST_F(ResilientApiTest, ShapeMismatchIsInvalidArgument) {
  Rng rng(21);
  CsrMatrix s = test::RandomDiagDominant(8, 0.4, &rng);
  ResilientSchurSolver solver(KernelCsr::Bind(s, KernelPath::kWide), nullptr,
                              ResilientSolveOptions{});
  Vector wrong(3, 0.0);
  SchurColumn column;
  column.b = &wrong;
  EXPECT_EQ(solver.Solve({&column, 1}).code(), StatusCode::kInvalidArgument);
}

TEST_F(ResilientApiTest, SolveWithoutIluStartsAtJacobi) {
  Rng rng(22);
  CsrMatrix s = test::RandomDiagDominant(30, 0.2, &rng);
  Vector b = test::RandomVector(30, &rng);
  ResilientSchurSolver solver(KernelCsr::Bind(s, KernelPath::kWide), nullptr,
                              ResilientSolveOptions{});
  SchurColumn column;
  column.b = &b;
  ASSERT_TRUE(solver.Solve({&column, 1}).ok());
  ASSERT_TRUE(column.status.ok());
  ASSERT_GE(column.report.attempts.size(), 1u);
  EXPECT_EQ(column.report.attempts[0].stage, "jacobi+gmres");
  EXPECT_LT(DistL2(s.Multiply(column.x), b), 1e-6);
}

}  // namespace
}  // namespace bepi
