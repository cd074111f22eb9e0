// Google-benchmark microbenchmarks for the computational kernels under
// BePI: SpMV, SpGEMM, sparse/incomplete LU factorization, triangular
// solves, GMRES, SlashBurn and the full preprocess/query pipeline.
#include <benchmark/benchmark.h>

#include <cmath>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "core/bepi.hpp"
#include "graph/generators.hpp"
#include "graph/slashburn.hpp"
#include "solver/gmres.hpp"
#include "solver/ilu0.hpp"
#include "solver/sparse_lu.hpp"
#include "solver/trisolve.hpp"
#include "sparse/coo.hpp"
#include "sparse/kernel.hpp"
#include "sparse/spgemm.hpp"

namespace {

using namespace bepi;

Graph MakeGraph(index_t n, index_t m) {
  Rng rng(4242);
  RmatOptions options;
  options.num_nodes = n;
  options.num_edges = m;
  options.deadend_fraction = 0.1;
  auto g = GenerateRmat(options, &rng);
  BEPI_CHECK(g.ok());
  return std::move(g).value();
}

CsrMatrix MakeDiagDominant(index_t n, index_t nnz_per_row) {
  Rng rng(777);
  CooMatrix coo(n, n);
  std::vector<real_t> row_abs(static_cast<std::size_t>(n), 0.0);
  for (index_t r = 0; r < n; ++r) {
    for (index_t k = 0; k < nnz_per_row; ++k) {
      const index_t c = rng.UniformIndex(0, n - 1);
      if (c == r) continue;
      const real_t v = rng.NextDouble() - 0.5;
      coo.Add(r, c, v);
      row_abs[static_cast<std::size_t>(r)] += std::fabs(v);
    }
  }
  for (index_t r = 0; r < n; ++r) {
    coo.Add(r, r, row_abs[static_cast<std::size_t>(r)] + 1.0);
  }
  auto csr = coo.ToCsr();
  BEPI_CHECK(csr.ok());
  return std::move(csr).value();
}

/// Attaches arithmetic and memory-traffic throughput counters; `flops` and
/// `bytes` are the per-iteration totals.
void SetKernelRates(benchmark::State& state, double flops, double bytes) {
  state.counters["GFLOP/s"] =
      benchmark::Counter(flops, benchmark::Counter::kIsIterationInvariantRate,
                         benchmark::Counter::kIs1000);
  state.counters["GB/s"] =
      benchmark::Counter(bytes, benchmark::Counter::kIsIterationInvariantRate,
                         benchmark::Counter::kIs1000);
}

/// SpMV traffic model: one streaming pass over values + column indices +
/// row pointers, plus `vec_rows_rw` accesses of the row-length vector and
/// one read of the length-cols input vector. Mirrors the accounting behind
/// the spmv.fused.bytes counter (sparse/kernel.cpp).
double SpmvBytes(index_t rows, index_t cols, index_t nnz, bool compact,
                 double vec_rows_rw) {
  const double idx = compact ? 4.0 : 8.0;
  return static_cast<double>(nnz) * (idx + 8.0) +
         (static_cast<double>(rows) + 1.0) * idx +
         (static_cast<double>(cols) + vec_rows_rw * static_cast<double>(rows)) *
             8.0;
}

void BM_SpMV(benchmark::State& state) {
  const index_t n = state.range(0);
  Graph g = MakeGraph(n, 16 * n);
  CsrMatrix at = g.RowNormalizedAdjacency().Transpose();
  Rng rng(1);
  Vector x(static_cast<std::size_t>(n));
  for (auto& v : x) v = rng.NextDouble();
  for (auto _ : state) {
    Vector y = at.Multiply(x);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * at.nnz());
  SetKernelRates(state, 2.0 * static_cast<double>(at.nnz()),
                 SpmvBytes(at.rows(), at.cols(), at.nnz(), false, 1.0));
}
BENCHMARK(BM_SpMV)->Arg(1 << 12)->Arg(1 << 14)->Arg(1 << 16);

/// Wide vs compact KernelCsr SpMV on the same matrix — the bandwidth win
/// of 12-byte nonzeros over 16-byte ones. Outputs are bit-identical; only
/// the streamed index width differs.
void RunKernelSpmv(benchmark::State& state, KernelPath path) {
  const index_t n = state.range(0);
  Graph g = MakeGraph(n, 16 * n);
  CsrMatrix at = g.RowNormalizedAdjacency().Transpose();
  const KernelCsr k = KernelCsr::Bind(at, path);
  BEPI_CHECK(k.compact() == (path == KernelPath::kCompact));
  Rng rng(1);
  Vector x(static_cast<std::size_t>(n));
  for (auto& v : x) v = rng.NextDouble();
  Vector y(static_cast<std::size_t>(n));
  for (auto _ : state) {
    k.MultiplyInto(x, &y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * k.nnz());
  SetKernelRates(state, 2.0 * static_cast<double>(k.nnz()),
                 SpmvBytes(k.rows(), k.cols(), k.nnz(), k.compact(), 1.0));
}
void BM_KernelSpMVWide(benchmark::State& state) {
  RunKernelSpmv(state, KernelPath::kWide);
}
void BM_KernelSpMVCompact(benchmark::State& state) {
  RunKernelSpmv(state, KernelPath::kCompact);
}
BENCHMARK(BM_KernelSpMVWide)->Arg(1 << 12)->Arg(1 << 14)->Arg(1 << 16);
BENCHMARK(BM_KernelSpMVCompact)->Arg(1 << 12)->Arg(1 << 14)->Arg(1 << 16);

/// The GMRES restart-cycle residual, unfused (Multiply, then subtract)
/// vs fused (ResidualInto, one pass). Same arithmetic, one fewer sweep
/// over the length-n vectors.
void RunResidual(benchmark::State& state, bool fused) {
  const index_t n = state.range(0);
  Graph g = MakeGraph(n, 16 * n);
  CsrMatrix at = g.RowNormalizedAdjacency().Transpose();
  const KernelCsr k = KernelCsr::Bind(at, KernelPath::kAuto);
  Rng rng(1);
  Vector x(static_cast<std::size_t>(n)), b(static_cast<std::size_t>(n));
  for (auto& v : x) v = rng.NextDouble();
  for (auto& v : b) v = rng.NextDouble();
  Vector y(static_cast<std::size_t>(n));
  for (auto _ : state) {
    if (fused) {
      k.ResidualInto(x, b, &y);
    } else {
      k.MultiplyInto(x, &y);
      for (std::size_t i = 0; i < y.size(); ++i) y[i] = b[i] - y[i];
    }
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * k.nnz());
  // Fused reads b where the unfused form re-reads and re-writes y.
  SetKernelRates(state, 2.0 * static_cast<double>(k.nnz() + k.rows()),
                 SpmvBytes(k.rows(), k.cols(), k.nnz(), k.compact(),
                           fused ? 2.0 : 4.0));
}
void BM_ResidualUnfused(benchmark::State& state) { RunResidual(state, false); }
void BM_ResidualFused(benchmark::State& state) { RunResidual(state, true); }
BENCHMARK(BM_ResidualUnfused)->Arg(1 << 12)->Arg(1 << 14)->Arg(1 << 16);
BENCHMARK(BM_ResidualFused)->Arg(1 << 12)->Arg(1 << 14)->Arg(1 << 16);

void BM_SpGEMM(benchmark::State& state) {
  const index_t n = state.range(0);
  CsrMatrix a = MakeDiagDominant(n, 8);
  CsrMatrix b = MakeDiagDominant(n, 8);
  for (auto _ : state) {
    auto c = Multiply(a, b);
    benchmark::DoNotOptimize(c->nnz());
  }
}
BENCHMARK(BM_SpGEMM)->Arg(1 << 10)->Arg(1 << 12);

void BM_SparseLuFactor(benchmark::State& state) {
  const index_t n = state.range(0);
  CsrMatrix a = MakeDiagDominant(n, 6);
  for (auto _ : state) {
    auto lu = SparseLu::Factor(a);
    benchmark::DoNotOptimize(lu->FillNnz());
  }
}
BENCHMARK(BM_SparseLuFactor)->Arg(1 << 9)->Arg(1 << 11);

void BM_Ilu0Factor(benchmark::State& state) {
  const index_t n = state.range(0);
  CsrMatrix a = MakeDiagDominant(n, 12);
  for (auto _ : state) {
    auto ilu = Ilu0::Factor(a);
    benchmark::DoNotOptimize(ilu->size());
  }
  state.SetItemsProcessed(state.iterations() * a.nnz());
}
BENCHMARK(BM_Ilu0Factor)->Arg(1 << 12)->Arg(1 << 14);

/// Lower-triangular matrix with short random dependency chains — the kind
/// of pattern ILU(0) factors of a hub-reordered Schur complement have:
/// many independent rows per topological level.
CsrMatrix MakeLowerTriangular(index_t n, index_t nnz_per_row) {
  Rng rng(99);
  CooMatrix coo(n, n);
  for (index_t r = 1; r < n; ++r) {
    for (index_t k = 0; k < nnz_per_row; ++k) {
      coo.Add(r, rng.UniformIndex(0, r - 1), rng.NextDouble() - 0.5);
    }
  }
  for (index_t r = 0; r < n; ++r) coo.Add(r, r, 4.0);
  auto csr = coo.ToCsr();
  BEPI_CHECK(csr.ok());
  return std::move(csr).value();
}

double TrisolveBytes(const CsrMatrix& m) {
  return static_cast<double>(m.nnz()) * 16.0 +
         (static_cast<double>(m.rows()) + 1.0) * 8.0 +
         2.0 * static_cast<double>(m.rows()) * 8.0;
}

/// Serial forward substitution (the paper's `L\F`, Appendix B).
void BM_TrisolveSerial(benchmark::State& state) {
  const index_t n = state.range(0);
  CsrMatrix l = MakeLowerTriangular(n, 8);
  Rng rng(2);
  Vector b(static_cast<std::size_t>(n));
  for (auto& v : b) v = rng.NextDouble();
  for (auto _ : state) {
    auto x = SolveLowerCsr(l, b, /*unit_diagonal=*/false);
    benchmark::DoNotOptimize(x->data());
  }
  state.SetItemsProcessed(state.iterations() * l.nnz());
  SetKernelRates(state, 2.0 * static_cast<double>(l.nnz()), TrisolveBytes(l));
}
BENCHMARK(BM_TrisolveSerial)->Arg(1 << 12)->Arg(1 << 14)->Arg(1 << 16);

/// The full preconditioner application z = U \ (L \ r), serial, on the
/// 8-byte-index pattern. Bytes are the ilu0.bytes traffic model
/// (Ilu0::ApplyBytes).
void BM_Ilu0ApplySerial(benchmark::State& state) {
  const index_t n = state.range(0);
  CsrMatrix a = MakeDiagDominant(n, 12);
  auto ilu = Ilu0::Factor(a);
  BEPI_CHECK(ilu.ok());
  Rng rng(2);
  Vector r(static_cast<std::size_t>(n));
  for (auto& v : r) v = rng.NextDouble();
  Vector z(static_cast<std::size_t>(n));
  for (auto _ : state) {
    ilu->Apply(r, &z);
    benchmark::DoNotOptimize(z.data());
  }
  const index_t nnz = ilu->pattern().nnz();
  state.SetItemsProcessed(state.iterations() * nnz);
  SetKernelRates(state, 2.0 * static_cast<double>(nnz),
                 static_cast<double>(ilu->ApplyBytes()));
}
BENCHMARK(BM_Ilu0ApplySerial)->Arg(1 << 12)->Arg(1 << 14)->Arg(1 << 16);

void BM_GmresSolve(benchmark::State& state) {
  const index_t n = state.range(0);
  CsrMatrix a = MakeDiagDominant(n, 10);
  CsrOperator op(a);
  Rng rng(3);
  Vector b(static_cast<std::size_t>(n));
  for (auto& v : b) v = rng.NextDouble();
  GmresOptions options;
  for (auto _ : state) {
    SolveStats stats;
    auto x = Gmres(op, b, options, &stats);
    benchmark::DoNotOptimize(stats.iterations);
  }
}
BENCHMARK(BM_GmresSolve)->Arg(1 << 12)->Arg(1 << 14);

void BM_PreconditionedGmresSolve(benchmark::State& state) {
  const index_t n = state.range(0);
  CsrMatrix a = MakeDiagDominant(n, 10);
  CsrOperator op(a);
  auto ilu = Ilu0::Factor(a);
  BEPI_CHECK(ilu.ok());
  Rng rng(3);
  Vector b(static_cast<std::size_t>(n));
  for (auto& v : b) v = rng.NextDouble();
  GmresOptions options;
  for (auto _ : state) {
    SolveStats stats;
    auto x = Gmres(op, b, options, &stats, &*ilu);
    benchmark::DoNotOptimize(stats.iterations);
  }
}
BENCHMARK(BM_PreconditionedGmresSolve)->Arg(1 << 12)->Arg(1 << 14);

void BM_SlashBurn(benchmark::State& state) {
  const index_t n = state.range(0);
  Graph g = MakeGraph(n, 12 * n);
  SlashBurnOptions options;
  options.k_ratio = 0.2;
  for (auto _ : state) {
    auto result = SlashBurn(g.adjacency(), options);
    benchmark::DoNotOptimize(result->num_hubs);
  }
}
BENCHMARK(BM_SlashBurn)->Arg(1 << 12)->Arg(1 << 14);

void BM_BepiPreprocess(benchmark::State& state) {
  const index_t n = state.range(0);
  Graph g = MakeGraph(n, 14 * n);
  for (auto _ : state) {
    BepiOptions options;
    BepiSolver solver(options);
    BEPI_CHECK(solver.Preprocess(g).ok());
    benchmark::DoNotOptimize(solver.PreprocessedBytes());
  }
}
BENCHMARK(BM_BepiPreprocess)->Arg(1 << 12)->Arg(1 << 14);

void BM_BepiQuery(benchmark::State& state) {
  const index_t n = state.range(0);
  Graph g = MakeGraph(n, 14 * n);
  BepiOptions options;
  BepiSolver solver(options);
  BEPI_CHECK(solver.Preprocess(g).ok());
  Rng rng(5);
  for (auto _ : state) {
    auto r = solver.Query(rng.UniformIndex(0, n - 1));
    benchmark::DoNotOptimize(r->size());
  }
}
BENCHMARK(BM_BepiQuery)->Arg(1 << 12)->Arg(1 << 14)->Arg(1 << 16);

}  // namespace

BENCHMARK_MAIN();
