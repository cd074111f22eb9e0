#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <utility>

#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "core/bepi.hpp"
#include "solver/ilu0.hpp"
#include "sparse/dense.hpp"
#include "sparse/kernel.hpp"
#include "test_util.hpp"

namespace bepi {
namespace {

constexpr index_t kLimit = 2147483647;  // INT32_MAX

/// Restores the process-global kernel path, thread count and metrics switch
/// a test changed.
class KernelTest : public ::testing::Test {
 protected:
  void TearDown() override {
    SetMetricsEnabled(false);
    SetGlobalKernelPath(KernelPath::kAuto);
    ASSERT_TRUE(ParallelContext::Global().SetNumThreads(0).ok());
  }
};

TEST_F(KernelTest, FitsCompactDimsBoundaries) {
  // Pure arithmetic: these sizes straddle INT32_MAX without allocating.
  EXPECT_TRUE(FitsCompactDims(0, 0, 0));
  EXPECT_TRUE(FitsCompactDims(kLimit, kLimit, kLimit));
  EXPECT_FALSE(FitsCompactDims(kLimit + 1, 1, 1));
  EXPECT_FALSE(FitsCompactDims(1, kLimit + 1, 1));
  EXPECT_FALSE(FitsCompactDims(1, 1, kLimit + 1));
  EXPECT_TRUE(FitsCompactDims(kLimit, 1, kLimit));
}

TEST_F(KernelTest, ParseAndGlobalPath) {
  EXPECT_EQ(*ParseKernelPath("auto"), KernelPath::kAuto);
  EXPECT_EQ(*ParseKernelPath("wide"), KernelPath::kWide);
  EXPECT_EQ(*ParseKernelPath("compact"), KernelPath::kCompact);
  EXPECT_FALSE(ParseKernelPath("fast").ok());
  EXPECT_FALSE(ParseKernelPath("").ok());
  SetGlobalKernelPath(KernelPath::kWide);
  EXPECT_EQ(GlobalKernelPath(), KernelPath::kWide);
  SetGlobalKernelPath(KernelPath::kAuto);
  EXPECT_EQ(GlobalKernelPath(), KernelPath::kAuto);
}

TEST_F(KernelTest, PathNamesRoundTrip) {
  for (KernelPath p :
       {KernelPath::kAuto, KernelPath::kWide, KernelPath::kCompact}) {
    EXPECT_EQ(*ParseKernelPath(KernelPathName(p)), p);
  }
}

TEST_F(KernelTest, CompactMatchesWideBitwise) {
  Rng rng(31);
  for (index_t n : {1, 17, 120}) {
    const CsrMatrix m = test::RandomSparse(n, n, 0.1, &rng);
    const KernelCsr wide = KernelCsr::Bind(m, KernelPath::kWide);
    const KernelCsr compact = KernelCsr::Bind(m, KernelPath::kAuto);
    ASSERT_FALSE(wide.compact());
    ASSERT_TRUE(compact.compact());
    // 8 or 4 bytes per row pointer and per column index, 8 per value.
    EXPECT_EQ(wide.ByteSize(),
              static_cast<std::uint64_t>(8 * (m.rows() + 1 + m.nnz()) +
                                         8 * m.nnz()));
    EXPECT_EQ(compact.ByteSize(),
              static_cast<std::uint64_t>(4 * (m.rows() + 1 + m.nnz()) +
                                         8 * m.nnz()));
    const Vector x = test::RandomVector(n, &rng);
    const Vector b = test::RandomVector(n, &rng);
    EXPECT_EQ(wide.Multiply(x), compact.Multiply(x));
    Vector yw(static_cast<std::size_t>(n)), yc(static_cast<std::size_t>(n));
    wide.MultiplyInto(x, &yw);
    compact.MultiplyInto(x, &yc);
    EXPECT_EQ(yw, yc);
    wide.MultiplyAdd(-0.5, x, &yw);
    compact.MultiplyAdd(-0.5, x, &yc);
    EXPECT_EQ(yw, yc);
    wide.ResidualInto(x, b, &yw);
    compact.ResidualInto(x, b, &yc);
    EXPECT_EQ(yw, yc);
    const real_t dw = wide.MultiplyDot(x, b, &yw);
    const real_t dc = compact.MultiplyDot(x, b, &yc);
    EXPECT_EQ(dw, dc);
    EXPECT_EQ(yw, yc);
  }
}

TEST_F(KernelTest, FusedKernelsMatchUnfusedBitwise) {
  Rng rng(37);
  const index_t n = 90;
  const CsrMatrix m = test::RandomSparse(n, n, 0.08, &rng);
  const Vector x = test::RandomVector(n, &rng);
  const Vector b = test::RandomVector(n, &rng);
  for (int threads : {1, 4}) {
    ASSERT_TRUE(ParallelContext::Global().SetNumThreads(threads).ok());
    for (KernelPath path : {KernelPath::kWide, KernelPath::kCompact}) {
      const KernelCsr k = KernelCsr::Bind(m, path);
      Vector y(static_cast<std::size_t>(n));
      k.MultiplyInto(x, &y);
      Vector unfused_res(static_cast<std::size_t>(n));
      for (std::size_t i = 0; i < unfused_res.size(); ++i) {
        unfused_res[i] = b[i] - y[i];
      }
      const real_t unfused_dot = Dot(y, b);
      Vector fused(static_cast<std::size_t>(n));
      k.ResidualInto(x, b, &fused);
      EXPECT_EQ(fused, unfused_res) << "threads=" << threads;
      const real_t fused_dot = k.MultiplyDot(x, b, &fused);
      EXPECT_EQ(fused, y) << "threads=" << threads;
      EXPECT_EQ(fused_dot, unfused_dot) << "threads=" << threads;
    }
  }
}

TEST_F(KernelTest, SpmmPanelColumnsMatchSpmvBitwise) {
  // The multi-RHS contract (MultiplyMulti / MultiplyAddMulti): column j of
  // a row-major k-wide panel is bit-identical to the scalar kernel applied
  // to that column alone, for both index paths, any thread count, and
  // panel widths straddling the internal column-chunk size.
  Rng rng(41);
  const index_t rows = 70, cols = 55;
  const CsrMatrix m = test::RandomSparse(rows, cols, 0.1, &rng);
  for (int threads : {1, 4}) {
    ASSERT_TRUE(ParallelContext::Global().SetNumThreads(threads).ok());
    for (KernelPath path : {KernelPath::kWide, KernelPath::kCompact}) {
      const KernelCsr k = KernelCsr::Bind(m, path);
      for (index_t width : {1, 3, 16, 21}) {
        Rng col_rng(1000 + width);
        std::vector<Vector> xs, ys;
        for (index_t j = 0; j < width; ++j) {
          xs.push_back(test::RandomVector(cols, &col_rng));
          ys.push_back(test::RandomVector(rows, &col_rng));
        }
        std::vector<real_t> panel_x(static_cast<std::size_t>(cols) * width);
        std::vector<real_t> panel_y(static_cast<std::size_t>(rows) * width);
        for (index_t i = 0; i < cols; ++i) {
          for (index_t j = 0; j < width; ++j) {
            panel_x[static_cast<std::size_t>(i) * width + j] =
                xs[static_cast<std::size_t>(j)][static_cast<std::size_t>(i)];
          }
        }
        k.MultiplyMulti(panel_x.data(), width, panel_y.data());
        for (index_t j = 0; j < width; ++j) {
          Vector y(static_cast<std::size_t>(rows));
          k.MultiplyInto(xs[static_cast<std::size_t>(j)], &y);
          for (index_t i = 0; i < rows; ++i) {
            ASSERT_EQ(panel_y[static_cast<std::size_t>(i) * width + j],
                      y[static_cast<std::size_t>(i)])
                << "col " << j << " row " << i << " width " << width;
          }
        }
        for (index_t i = 0; i < rows; ++i) {
          for (index_t j = 0; j < width; ++j) {
            panel_y[static_cast<std::size_t>(i) * width + j] =
                ys[static_cast<std::size_t>(j)][static_cast<std::size_t>(i)];
          }
        }
        k.MultiplyAddMulti(-0.5, panel_x.data(), width, panel_y.data());
        for (index_t j = 0; j < width; ++j) {
          Vector y = ys[static_cast<std::size_t>(j)];
          k.MultiplyAdd(-0.5, xs[static_cast<std::size_t>(j)], &y);
          for (index_t i = 0; i < rows; ++i) {
            ASSERT_EQ(panel_y[static_cast<std::size_t>(i) * width + j],
                      y[static_cast<std::size_t>(i)])
                << "col " << j << " row " << i << " width " << width;
          }
        }
      }
    }
  }
}

TEST_F(KernelTest, CsrMatrixFusedMethodsDelegate) {
  Rng rng(41);
  const index_t n = 50;
  const CsrMatrix m = test::RandomSparse(n, n, 0.15, &rng);
  const Vector x = test::RandomVector(n, &rng);
  const Vector b = test::RandomVector(n, &rng);
  Vector y(static_cast<std::size_t>(n)), z(static_cast<std::size_t>(n));
  m.ResidualInto(x, b, &y);
  KernelCsr::Bind(m, KernelPath::kWide).ResidualInto(x, b, &z);
  EXPECT_EQ(y, z);
  EXPECT_EQ(m.MultiplyDot(x, b, &y),
            KernelCsr::Bind(m, KernelPath::kWide).MultiplyDot(x, b, &z));
  EXPECT_EQ(y, z);
}

TEST_F(KernelTest, Ilu0KernelApplyMatchesSerialBitwise) {
  // Factors over the wide and the compact pattern apply alike, bit for
  // bit, at any thread count, and Apply never forks pool tasks. The
  // n = 2000 matrix has dependency levels hundreds of rows wide: the case
  // where a parallel sweep would fork most.
  SetMetricsEnabled(true);
  Counter* tasks = MetricsRegistry::Global().GetCounter("parallel.tasks");
  Rng rng(43);
  for (const auto& [n, density] : {std::pair<index_t, real_t>{160, 0.05},
                                   std::pair<index_t, real_t>{2000, 0.001}}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    const CsrMatrix a = test::RandomDiagDominant(n, density, &rng);
    auto wide = Ilu0::Factor(a);
    ASSERT_TRUE(wide.ok());
    ASSERT_FALSE(wide->compact());
    // The factors take the index width of the view they are built over.
    auto compact = Ilu0::Factor(KernelCsr::Bind(a, KernelPath::kCompact));
    ASSERT_TRUE(compact.ok());
    ASSERT_TRUE(compact->compact());
    const Vector r = test::RandomVector(n, &rng);
    Vector z_wide(static_cast<std::size_t>(n));
    wide->Apply(r, &z_wide);
    for (int threads : {1, 4}) {
      ASSERT_TRUE(ParallelContext::Global().SetNumThreads(threads).ok());
      for (const Ilu0* ilu : {&*wide, &*compact}) {
        const std::string where = std::string(ilu->compact() ? "compact"
                                                             : "wide") +
                                  " threads=" + std::to_string(threads);
        const std::uint64_t tasks_before = tasks->value();
        Vector z(static_cast<std::size_t>(n));
        ilu->Apply(r, &z);
        EXPECT_EQ(z, z_wide) << where;
        EXPECT_EQ(tasks->value(), tasks_before) << where;
      }
    }
  }
}

/// End-to-end determinism: the full query path must produce bit-identical
/// scores across kernel paths and thread counts, through Save/Load too.
TEST_F(KernelTest, SolverQueryBitIdenticalAcrossPathsAndThreads) {
  const Graph g = test::SmallRmat(300, 1800, 0.15, 11);
  BepiOptions options;

  SetGlobalKernelPath(KernelPath::kAuto);
  BepiSolver solver(options);
  ASSERT_TRUE(solver.Preprocess(g).ok());
  ASSERT_NE(solver.kernels(), nullptr);
  EXPECT_EQ(solver.kernels()->path, KernelPath::kCompact);
  EXPECT_FALSE(solver.kernels()->reason.empty());
  ASSERT_NE(solver.preconditioner(), nullptr);
  EXPECT_TRUE(solver.preconditioner()->compact());
  const Vector baseline = *solver.Query(5);

  // Forced wide path, fresh preprocessing.
  SetGlobalKernelPath(KernelPath::kWide);
  BepiSolver wide(options);
  ASSERT_TRUE(wide.Preprocess(g).ok());
  EXPECT_EQ(wide.kernels()->path, KernelPath::kWide);
  EXPECT_FALSE(wide.preconditioner()->compact());
  EXPECT_EQ(*wide.Query(5), baseline);

  // Thread-count sweep on the compact solver.
  for (int threads : {1, 4}) {
    ASSERT_TRUE(ParallelContext::Global().SetNumThreads(threads).ok());
    EXPECT_EQ(*solver.Query(5), baseline) << "threads=" << threads;
    EXPECT_EQ(*wide.Query(5), baseline) << "threads=" << threads;
  }

  // Save/Load round trip: the model records the compact path; a load under
  // kAuto adopts it, and the factors follow S onto it.
  SetGlobalKernelPath(KernelPath::kAuto);
  std::ostringstream out;
  ASSERT_TRUE(solver.Save(out).ok());
  std::istringstream in(out.str());
  auto loaded = BepiSolver::Load(in);
  ASSERT_TRUE(loaded.ok());
  ASSERT_NE(loaded->kernels(), nullptr);
  EXPECT_EQ(loaded->kernels()->path, KernelPath::kCompact);
  // The reason says where the path came from: the model, not a request.
  EXPECT_EQ(loaded->kernels()->reason, "model records compact");
  ASSERT_NE(loaded->preconditioner(), nullptr);
  EXPECT_TRUE(loaded->preconditioner()->compact());
  EXPECT_EQ(*loaded->Query(5), baseline);

  // --kernel=wide wins over the recorded path at load time.
  SetGlobalKernelPath(KernelPath::kWide);
  std::istringstream in2(out.str());
  auto loaded_wide = BepiSolver::Load(in2);
  ASSERT_TRUE(loaded_wide.ok());
  EXPECT_EQ(loaded_wide->kernels()->path, KernelPath::kWide);
  EXPECT_EQ(loaded_wide->kernels()->reason, "wide requested");
  EXPECT_FALSE(loaded_wide->preconditioner()->compact());
  EXPECT_EQ(*loaded_wide->Query(5), baseline);
}

TEST_F(KernelTest, PreprocessedBytesCountsIndexWidth) {
  const Graph g = test::SmallRmat(200, 1000, 0.1, 13);
  BepiOptions options;
  SetGlobalKernelPath(KernelPath::kWide);
  BepiSolver wide(options);
  ASSERT_TRUE(wide.Preprocess(g).ok());
  SetGlobalKernelPath(KernelPath::kAuto);
  BepiSolver compact(options);
  ASSERT_TRUE(compact.Preprocess(g).ok());
  // Each model holds its matrices once, at its path's index width: the
  // compact views replace the 8-byte indices instead of sitting next to
  // them, 4 bytes saved per row pointer and per column index.
  const DecompositionKernels& c = *compact.kernels();
  std::uint64_t saved = 0;
  for (const KernelCsr* m :
       {&c.l1_inv, &c.u1_inv, &c.h12, &c.h21, &c.h31, &c.h32, &c.schur}) {
    saved += 4 * static_cast<std::uint64_t>(m->rows() + 1 + m->nnz());
  }
  EXPECT_EQ(wide.kernels()->ByteSize() - c.ByteSize(), saved);
  EXPECT_LT(compact.PreprocessedBytes(), wide.PreprocessedBytes());
}

}  // namespace
}  // namespace bepi
