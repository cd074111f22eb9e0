// Parallel execution layer tests: ThreadPool/TaskGroup lifecycle (incl.
// exception propagation and shutdown), ParallelFor coverage on adversarial
// grains, the bit-identical determinism contract of the parallel kernels
// (SpMV, reductions) at 1 vs 8 threads, a wide Solve span running its
// panels as pool tasks with clean per-request Status when a fault fires
// inside them, and the seeds-file parser.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <vector>

#include "common/faultinject.hpp"
#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "core/bepi.hpp"
#include "graph/io.hpp"
#include "solver/gmres.hpp"
#include "sparse/csr.hpp"
#include "sparse/dense.hpp"
#include "test_util.hpp"

namespace bepi {
namespace {

/// Every test leaves the global context in its default (env-derived)
/// state so later tests in the same process start clean.
class ParallelTest : public ::testing::Test {
 protected:
  void TearDown() override {
    ASSERT_TRUE(ParallelContext::Global().SetNumThreads(0).ok());
    FaultInjector::Global().Reset();
  }
};

TEST_F(ParallelTest, HardwareThreadsIsPositive) {
  EXPECT_GE(HardwareThreads(), 1);
}

TEST_F(ParallelTest, SetNumThreadsControlsPoolExistence) {
  ParallelContext& ctx = ParallelContext::Global();
  ASSERT_TRUE(ctx.SetNumThreads(1).ok());
  EXPECT_EQ(ctx.num_threads(), 1);
  EXPECT_EQ(ctx.pool(), nullptr);  // 1 = exact serial fallback, no pool

  ASSERT_TRUE(ctx.SetNumThreads(4).ok());
  EXPECT_EQ(ctx.num_threads(), 4);
  ASSERT_NE(ctx.pool(), nullptr);
  EXPECT_EQ(ctx.pool()->size(), 4);

  EXPECT_FALSE(ctx.SetNumThreads(-3).ok());
  EXPECT_EQ(ctx.num_threads(), 4);  // failed call leaves state untouched
}

TEST_F(ParallelTest, PoolRunsSubmittedTasks) {
  ThreadPool pool(3);
  std::atomic<int> ran{0};
  TaskGroup group(&pool);
  for (int i = 0; i < 100; ++i) {
    group.Run([&ran] { ran.fetch_add(1); });
  }
  group.Wait();
  EXPECT_EQ(ran.load(), 100);
}

TEST_F(ParallelTest, TaskGroupRethrowsFirstExceptionAndStaysUsable) {
  ThreadPool pool(2);
  TaskGroup group(&pool);
  std::atomic<int> ran{0};
  for (int i = 0; i < 16; ++i) {
    group.Run([&ran, i] {
      ran.fetch_add(1);
      if (i % 4 == 0) throw std::runtime_error("task failed");
    });
  }
  EXPECT_THROW(group.Wait(), std::runtime_error);
  EXPECT_EQ(ran.load(), 16);  // an exception does not cancel peers

  // The group (and the pool) survive a thrown task.
  group.Run([&ran] { ran.fetch_add(1); });
  group.Wait();
  EXPECT_EQ(ran.load(), 17);
}

TEST_F(ParallelTest, PoolDestructionDrainsQueuedTasks) {
  // Submit from the outside and destroy immediately: every queued task
  // must still execute (shutdown drains, it does not drop).
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    TaskGroup group(&pool);
    for (int i = 0; i < 64; ++i) {
      group.Run([&ran] { ran.fetch_add(1); });
    }
    group.Wait();
  }
  EXPECT_EQ(ran.load(), 64);
}

TEST_F(ParallelTest, ParallelForMatchesSerialOnAdversarialGrains) {
  ASSERT_TRUE(ParallelContext::Global().SetNumThreads(8).ok());
  const index_t n = 1000;
  // Grains: degenerate (<=0 treated as 1), 1, prime, larger than range.
  for (index_t grain : {index_t{-5}, index_t{0}, index_t{1}, index_t{7},
                        index_t{13}, index_t{999}, index_t{1000},
                        index_t{5000}}) {
    std::vector<std::atomic<int>> visits(static_cast<std::size_t>(n));
    ParallelFor(0, n, grain, [&visits](index_t begin, index_t end) {
      ASSERT_LT(begin, end);
      for (index_t i = begin; i < end; ++i) {
        visits[static_cast<std::size_t>(i)].fetch_add(1);
      }
    });
    for (index_t i = 0; i < n; ++i) {
      ASSERT_EQ(visits[static_cast<std::size_t>(i)].load(), 1)
          << "index " << i << " grain " << grain;
    }
  }
  // Empty and reversed ranges run nothing.
  ParallelFor(5, 5, 4, [](index_t, index_t) { FAIL(); });
  ParallelFor(5, 2, 4, [](index_t, index_t) { FAIL(); });
}

TEST_F(ParallelTest, NestedParallelForOnWorkerRunsInline) {
  ASSERT_TRUE(ParallelContext::Global().SetNumThreads(4).ok());
  std::atomic<int> inner_total{0};
  // Outer tasks saturate the pool; inner ParallelFor must not deadlock
  // waiting for workers that are all busy running outer tasks.
  ParallelFor(0, 8, 1, [&inner_total](index_t begin, index_t end) {
    for (index_t i = begin; i < end; ++i) {
      ParallelFor(0, 100, 10, [&inner_total](index_t b, index_t e) {
        inner_total.fetch_add(static_cast<int>(e - b));
      });
    }
  });
  EXPECT_EQ(inner_total.load(), 800);
}

/// Values spanning many magnitudes make floating-point summation order
/// visible: any change in association changes the bits.
Vector AdversarialVector(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Vector v(n);
  for (std::size_t i = 0; i < n; ++i) {
    const real_t mag = std::pow(10.0, rng.UniformIndex(-12, 12));
    v[i] = (2.0 * rng.NextDouble() - 1.0) * mag;
  }
  return v;
}

TEST_F(ParallelTest, ReductionsBitIdenticalAcrossThreadCounts) {
  const Vector x = AdversarialVector(100'003, 42);
  const Vector y = AdversarialVector(100'003, 43);

  ASSERT_TRUE(ParallelContext::Global().SetNumThreads(1).ok());
  const real_t dot1 = Dot(x, y);
  const real_t norm1_1 = Norm1(x);
  const real_t norm2_1 = Norm2(x);
  const real_t inf_1 = NormInf(x);

  ASSERT_TRUE(ParallelContext::Global().SetNumThreads(8).ok());
  // Exact equality on purpose: the determinism contract is bitwise.
  EXPECT_EQ(Dot(x, y), dot1);
  EXPECT_EQ(Norm1(x), norm1_1);
  EXPECT_EQ(Norm2(x), norm2_1);
  EXPECT_EQ(NormInf(x), inf_1);
}

TEST_F(ParallelTest, SpmvBitIdenticalAcrossThreadCounts) {
  Rng rng(7);
  const CsrMatrix a = test::RandomSparse(600, 600, 0.05, &rng);
  const Vector x = AdversarialVector(600, 11);

  ASSERT_TRUE(ParallelContext::Global().SetNumThreads(1).ok());
  const Vector serial = a.Multiply(x);
  Vector serial_add(600, 1.0);
  a.MultiplyAdd(-2.0, x, &serial_add);

  ASSERT_TRUE(ParallelContext::Global().SetNumThreads(8).ok());
  EXPECT_EQ(a.Multiply(x), serial);
  Vector parallel_add(600, 1.0);
  a.MultiplyAdd(-2.0, x, &parallel_add);
  EXPECT_EQ(parallel_add, serial_add);
}

TEST_F(ParallelTest, PoolBumpsTaskAndStealCounters) {
  SetMetricsEnabled(true);
  Counter* tasks = MetricsRegistry::Global().GetCounter("parallel.tasks");
  tasks->Reset();
  ASSERT_TRUE(ParallelContext::Global().SetNumThreads(4).ok());
  ParallelFor(0, 64, 1, [](index_t, index_t) {});
  EXPECT_GT(tasks->value(), 0u);
  SetMetricsEnabled(false);
}

TEST_F(ParallelTest, GmresWorkspaceReuseDoesNotChangeResults) {
  Rng rng(3);
  const CsrMatrix a = test::RandomDiagDominant(200, 0.05, &rng);
  const Vector b = test::RandomVector(200, &rng);
  CsrOperator op(a);
  GmresOptions options;
  SolveStats fresh_stats;
  auto fresh = Gmres(op, b, options, &fresh_stats);
  ASSERT_TRUE(fresh.ok());

  GmresWorkspace ws;
  for (int round = 0; round < 3; ++round) {
    SolveStats stats;
    auto reused = Gmres(op, b, options, &stats, nullptr, nullptr, &ws);
    ASSERT_TRUE(reused.ok());
    EXPECT_EQ(*reused, *fresh) << "round " << round;
    EXPECT_EQ(stats.iterations, fresh_stats.iterations);
  }

  // Widths 3 -> 1 -> 3 on one workspace: a column's buffers left by a wider
  // or narrower call never change its result.
  const Vector b2 = test::RandomVector(200, &rng);
  const Vector b3 = test::RandomVector(200, &rng);
  const std::vector<const Vector*> rhs = {&b, &b2, &b3};
  std::vector<Vector> fresh_x;
  for (const Vector* r : rhs) {
    auto x = Gmres(op, *r, options, nullptr);
    ASSERT_TRUE(x.ok());
    fresh_x.push_back(*x);
  }
  for (const std::size_t width : {3, 1, 3}) {
    std::vector<GmresColumn> columns(width);
    for (std::size_t j = 0; j < width; ++j) {
      columns[j].b = rhs[j];
      columns[j].tol = options.tol;
    }
    ASSERT_TRUE(Gmres(op, columns, options, nullptr, &ws).ok());
    for (std::size_t j = 0; j < width; ++j) {
      EXPECT_EQ(columns[j].x, fresh_x[j]) << "width " << width << " column " << j;
    }
  }
}

TEST_F(ParallelTest, FaultInWorkerPropagatesCleanStatus) {
  Graph g = test::SmallRmat(150, 700, 0.2, 17);
  BepiSolver solver{BepiOptions{}};
  ASSERT_TRUE(solver.Preprocess(g).ok());
  ASSERT_TRUE(ParallelContext::Global().SetNumThreads(4).ok());
  const std::vector<index_t> hubs = test::HubSeeds(solver.decomposition());
  ASSERT_FALSE(hubs.empty());
  std::vector<QueryRequest> requests;
  for (std::size_t i = 0; i < 40; ++i) {
    requests.push_back({hubs[i % hubs.size()], nullptr, {}, {}});
  }

  // Every GMRES call inside the span's concurrent panels reports
  // stagnation and every power stage stalls, with no walk engine armed:
  // each request fails on its own, the call itself does not.
  FaultInjector::Global().Arm(fault_sites::kGmresStagnate, 0, -1);
  FaultInjector::Global().Arm(fault_sites::kPowerStall, 0, -1);
  auto faulted = solver.Solve(requests);
  FaultInjector::Global().Reset();
  ASSERT_TRUE(faulted.ok()) << faulted.status().ToString();
  ASSERT_EQ(faulted->size(), requests.size());
  for (const QueryResult& result : *faulted) {
    EXPECT_EQ(result.status.code(), StatusCode::kNotConverged);
  }

  // The same span succeeds once the fault is disarmed: no panel carries
  // poisoned state. Its 40 requests make ceil(40 / 16) = 3 panels, rounded
  // up to a multiple of the 4 workers; each worker's run of panels (here
  // one) is one pool task.
  SetMetricsEnabled(true);
  Counter* tasks = MetricsRegistry::Global().GetCounter("parallel.tasks");
  const std::uint64_t tasks_before = tasks->value();
  auto retry = solver.Solve(requests);
  const std::uint64_t tasks_run = tasks->value() - tasks_before;
  SetMetricsEnabled(false);
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  for (const QueryResult& result : *retry) {
    EXPECT_TRUE(result.status.ok()) << result.status.ToString();
  }
  EXPECT_GE(tasks_run, 4u);
}

TEST_F(ParallelTest, ReadSeedsFileParsesCommentsAndBlankLines) {
  const std::string path = testing::TempDir() + "/seeds_ok.txt";
  std::ofstream(path) << "# header comment\n3\n 7 \n\n11 # trailing\n";
  auto seeds = ReadSeedsFile(path);
  ASSERT_TRUE(seeds.ok()) << seeds.status().ToString();
  EXPECT_EQ(*seeds, (std::vector<index_t>{3, 7, 11}));
}

TEST_F(ParallelTest, ReadSeedsFileRejectsGarbage) {
  const std::string path = testing::TempDir() + "/seeds_bad.txt";
  // Not an integer, a signed one, or one past int64: each names its line,
  // in the edge-list reader's words.
  const struct {
    const char* line;
    const char* error;
  } cases[] = {{"not-a-number", "line 2: expected an integer node id"},
               {"-3", "line 2: expected an integer node id"},
               {"99999999999999999999", "line 2: node id overflows index_t"}};
  for (const auto& bad : cases) {
    std::ofstream(path) << "3\n" << bad.line << "\n4\n";
    auto seeds = ReadSeedsFile(path);
    ASSERT_FALSE(seeds.ok()) << bad.line;
    EXPECT_EQ(seeds.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(seeds.status().message().find(bad.error), std::string::npos)
        << seeds.status().ToString();
  }

  EXPECT_EQ(ReadSeedsFile(testing::TempDir() + "/definitely_missing.txt")
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST_F(ParallelTest, ThreadsFromEnvParsesAndFallsBack) {
  ASSERT_EQ(setenv("BEPI_THREADS", "3", 1), 0);
  EXPECT_EQ(internal::ThreadsFromEnv(), 3);
  ASSERT_EQ(setenv("BEPI_THREADS", "garbage", 1), 0);
  EXPECT_EQ(internal::ThreadsFromEnv(), HardwareThreads());
  ASSERT_EQ(setenv("BEPI_THREADS", "0", 1), 0);
  EXPECT_EQ(internal::ThreadsFromEnv(), HardwareThreads());
  ASSERT_EQ(unsetenv("BEPI_THREADS"), 0);
  EXPECT_EQ(internal::ThreadsFromEnv(), HardwareThreads());
}

}  // namespace
}  // namespace bepi
