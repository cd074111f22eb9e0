// Reproduces Figure 10 (Appendix I): L2 error against the exact solution
// as a function of the iteration count, for BePI, power iteration and
// GMRES, on a small graph where H^{-1} is computable (the paper used the
// 241-node Physicians network; we use an Erdos-Renyi stand-in of the same
// size). BePI's curve counts its inner preconditioned-GMRES iterations.
//
// Usage: bench_fig10_accuracy [--nodes=241] [--edges=1098] [--max_iters=30]
#include "bench_util.hpp"
#include "core/bepi.hpp"
#include "core/exact.hpp"
#include "graph/generators.hpp"
#include "solver/gmres.hpp"

int main(int argc, char** argv) {
  using namespace bepi;
  Flags flags = Flags::Parse(argc, argv);
  bench::BenchConfig config = bench::BenchConfig::FromFlags(flags);
  const index_t nodes = flags.GetInt("nodes", 241);
  const index_t edges = flags.GetInt("edges", 1098);
  const index_t max_iters = flags.GetInt("max_iters", 30);
  bench::PrintBanner("Figure 10: L2 error vs iteration count", config);

  Rng rng(config.seed);
  auto graph = GenerateErdosRenyi(nodes, edges, &rng);
  BEPI_CHECK(graph.ok());
  const Graph& g = *graph;
  const real_t c = 0.05;
  const index_t seed_node = static_cast<index_t>(rng.NextBounded(
      static_cast<std::uint64_t>(nodes)));

  RwrOptions base;
  ExactSolver exact(base);
  BEPI_CHECK(exact.Preprocess(g).ok());
  auto r_exact = exact.Query(seed_node);
  BEPI_CHECK(r_exact.ok());

  // BePI machinery, preprocessed once.
  BepiOptions bepi_options;
  bepi_options.mode = BepiMode::kPreconditioned;
  bepi_options.hub_ratio = 0.25;
  BepiSolver bepi_solver(bepi_options);
  BEPI_CHECK(bepi_solver.Preprocess(g).ok());
  const HubSpokeDecomposition& dec = bepi_solver.decomposition();
  const DecompositionKernels& kern = *bepi_solver.kernels();
  const Permutation inverse_perm = InversePermutation(dec.perm);

  // Pre-permuted pieces reused by every truncated BePI run.
  const index_t pos = dec.perm[static_cast<std::size_t>(seed_node)];
  Vector cq1(static_cast<std::size_t>(dec.n1), 0.0);
  Vector cq2(static_cast<std::size_t>(dec.n2), 0.0);
  Vector cq3(static_cast<std::size_t>(dec.n3), 0.0);
  if (pos < dec.n1) {
    cq1[static_cast<std::size_t>(pos)] = c;
  } else if (pos < dec.n1 + dec.n2) {
    cq2[static_cast<std::size_t>(pos - dec.n1)] = c;
  } else {
    cq3[static_cast<std::size_t>(pos - dec.n1 - dec.n2)] = c;
  }
  Vector q2_tilde = cq2;
  if (dec.n1 > 0) {
    kern.h21.MultiplyAdd(-1.0, kern.ApplyH11Inverse(cq1), &q2_tilde);
  }

  auto bepi_error_at = [&](index_t iters) {
    KernelCsrOperator op(kern.schur);
    GmresOptions gm;
    gm.tol = 1e-16;
    gm.max_iters = iters;
    gm.restart = iters;
    SolveStats stats;
    auto r2 = Gmres(op, q2_tilde, gm, &stats, bepi_solver.preconditioner());
    BEPI_CHECK(r2.ok());
    Vector r1;
    if (dec.n1 > 0) {
      Vector rhs1 = cq1;
      kern.h12.MultiplyAdd(-1.0, *r2, &rhs1);
      r1 = kern.ApplyH11Inverse(rhs1);
    }
    Vector r3 = cq3;
    if (dec.n3 > 0) {
      if (dec.n1 > 0) kern.h31.MultiplyAdd(-1.0, r1, &r3);
      kern.h32.MultiplyAdd(-1.0, *r2, &r3);
    }
    Vector r(static_cast<std::size_t>(dec.n));
    for (index_t i = 0; i < dec.n1; ++i) {
      r[static_cast<std::size_t>(inverse_perm[static_cast<std::size_t>(i)])] =
          r1[static_cast<std::size_t>(i)];
    }
    for (index_t i = 0; i < dec.n2; ++i) {
      r[static_cast<std::size_t>(
          inverse_perm[static_cast<std::size_t>(dec.n1 + i)])] =
          (*r2)[static_cast<std::size_t>(i)];
    }
    for (index_t i = 0; i < dec.n3; ++i) {
      r[static_cast<std::size_t>(
          inverse_perm[static_cast<std::size_t>(dec.n1 + dec.n2 + i)])] =
          r3[static_cast<std::size_t>(i)];
    }
    return DistL2(r, *r_exact);
  };

  // Power iteration and plain GMRES error curves.
  const CsrMatrix h = BuildH(g, c);
  const CsrMatrix at = g.RowNormalizedAdjacency().Transpose();
  const Vector q = StartingVector(nodes, seed_node, c);
  auto power_error_at = [&](index_t iters) {
    Vector x = q;
    for (index_t i = 0; i < iters; ++i) {
      Vector next = at.Multiply(x);
      Scale(1.0 - c, &next);
      for (std::size_t j = 0; j < next.size(); ++j) next[j] += q[j];
      x = std::move(next);
    }
    return DistL2(x, *r_exact);
  };
  auto gmres_error_at = [&](index_t iters) {
    CsrOperator op(h);
    GmresOptions gm;
    gm.tol = 1e-16;
    gm.max_iters = iters;
    gm.restart = iters;
    SolveStats stats;
    auto x = Gmres(op, q, gm, &stats);
    BEPI_CHECK(x.ok());
    return DistL2(*x, *r_exact);
  };

  std::printf("graph: n=%lld, m=%lld, seed node %lld, c=%.2f\n\n",
              static_cast<long long>(nodes), static_cast<long long>(edges),
              static_cast<long long>(seed_node), c);
  Table table({"iterations", "BePI error", "Power error", "GMRES error"});
  for (index_t i = 1; i <= max_iters;
       i += (i < 10 ? 1 : (i < 50 ? 5 : 25))) {
    table.AddRow({Table::Int(i), Table::Num(bepi_error_at(i)),
                  Table::Num(power_error_at(i)),
                  Table::Num(gmres_error_at(i))});
  }
  table.Print();
  std::printf(
      "\nExpected shape (paper Fig. 10): BePI reaches a given error in the\n"
      "fewest iterations, GMRES next, power iteration slowest; all errors\n"
      "decrease monotonically to the tolerance floor.\n");
  return 0;
}
