// Reproduces Figure 5: scalability in the number of edges. Takes principal
// submatrices of the WikiLink stand-in (as the paper does), runs every
// method on each slice, and reports preprocessing time, preprocessed-data
// memory and query time, plus the fitted log-log slopes for BePI (the
// paper reports slopes 1.01, 0.99 and 1.1 — near-linear scaling).
//
// A second sweep measures shared-memory parallel scaling: the largest
// slice is preprocessed once, then a fixed seed batch is answered by one
// BepiSolver::Solve call (panels of up to 16 seeds spread over the pool)
// at 1, 2, 4, ... worker threads (up to --threads or the hardware width).
// Vectors must be bit-identical across thread counts — the run aborts if
// they are not — and the per-width throughput goes into
// BENCH_parallel_scaling.json via --json-out.
//
// Usage: bench_fig5_scalability [--scale=1.0] [--slices=5] [--queries=3]
//        [--threads=N] [--batch=64] [--json-out=BENCH_parallel_scaling.json]
#include "bench_util.hpp"
#include "common/parallel.hpp"
#include "core/bear.hpp"
#include "core/bepi.hpp"
#include "core/iterative.hpp"
#include "core/lu_rwr.hpp"

namespace {

/// Parallel query scaling on one preprocessed solver: answers the same
/// seed batch at each thread width, checks bit-identity against the
/// 1-thread vectors, prints a table and records JSON metrics.
void RunParallelScaling(const bepi::BepiSolver& solver,
                        const bepi::Graph& g, bepi::index_t batch_size,
                        int max_threads, bepi::bench::BenchJsonWriter* json) {
  using namespace bepi;
  const int configured_threads = ParallelContext::Global().num_threads();
  Rng rng(20170514);
  std::vector<QueryRequest> requests;
  for (index_t i = 0; i < batch_size; ++i) {
    requests.push_back(
        {rng.UniformIndex(0, g.num_nodes() - 1), nullptr, {}, {}});
  }

  std::printf("\nParallel query scaling (batch of %lld seeds, "
              "bit-identity enforced):\n",
              static_cast<long long>(batch_size));
  Table table({"threads", "batch (s)", "throughput (q/s)", "speedup",
               "identical"});
  std::vector<Vector> baseline;
  double baseline_seconds = 0.0;
  for (int t = 1; t <= max_threads; t *= 2) {
    BEPI_CHECK(ParallelContext::Global().SetNumThreads(t).ok());
    Timer timer;
    auto batch = solver.Solve(requests);
    const double seconds = timer.Seconds();
    BEPI_CHECK_MSG(batch.ok(), batch.status().ToString().c_str());
    std::vector<Vector> vectors;
    for (QueryResult& result : *batch) {
      BEPI_CHECK_MSG(result.status.ok(), result.status.ToString().c_str());
      vectors.push_back(std::move(result.scores));
    }
    bool identical = true;
    if (t == 1) {
      baseline = std::move(vectors);
      baseline_seconds = seconds;
    } else {
      identical = vectors == baseline;  // exact, not approximate
    }
    BEPI_CHECK_MSG(identical, "parallel batch diverged from 1-thread run");
    const double speedup = seconds > 0.0 ? baseline_seconds / seconds : 0.0;
    const double qps =
        seconds > 0.0 ? static_cast<double>(batch_size) / seconds : 0.0;
    table.AddRow({Table::Int(t), Table::Num(seconds, 4), Table::Num(qps, 1),
                  Table::Num(speedup, 2), identical ? "yes" : "NO"});
    if (json != nullptr) {
      const std::string method = "threads=" + std::to_string(t);
      json->Add("WikiLink-sim", method, "batch_seconds", seconds);
      json->Add("WikiLink-sim", method, "throughput_qps", qps);
      json->Add("WikiLink-sim", method, "speedup", speedup);
      json->Add("WikiLink-sim", method, "bit_identical",
                identical ? 1.0 : 0.0);
    }
  }
  table.Print();
  // Restore the width that was configured before the sweep (e.g. by
  // --threads), not the BEPI_THREADS/hardware default.
  BEPI_CHECK(
      ParallelContext::Global().SetNumThreads(configured_threads).ok());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bepi;
  Flags flags = Flags::Parse(argc, argv);
  bench::BenchConfig config = bench::BenchConfig::FromFlags(flags);
  if (!flags.Has("queries")) config.num_queries = 3;
  bench::PrintBanner("Figure 5: scalability vs number of edges", config);

  auto spec = FindDataset("WikiLink-sim");
  BEPI_CHECK(spec.ok());
  Graph full = bench::LoadDataset(*spec, config);
  bench::BenchJsonWriter json("parallel_scaling");

  const index_t slices = flags.GetInt("slices", 5);
  Table table({"nodes", "edges", "BePI prep (s)", "BePI mem (MB)",
               "BePI query (s)", "Bear prep (s)", "LU prep (s)",
               "GMRES query (s)", "Power query (s)"});

  // The largest slice BePI preprocessed successfully, kept for the
  // parallel scaling sweep below.
  std::unique_ptr<BepiSolver> scaling_solver;
  Graph scaling_graph;

  std::vector<double> edge_counts, prep_times, mem_sizes, query_times;
  for (index_t slice = 1; slice <= slices; ++slice) {
    // Geometric node-count slices so edges span ~an order of magnitude.
    const double fraction =
        std::pow(2.0, static_cast<double>(slice - slices));
    const index_t nodes = std::max<index_t>(
        64, static_cast<index_t>(fraction * static_cast<double>(
                                                full.num_nodes())));
    auto sub = full.PrincipalSubgraph(nodes);
    BEPI_CHECK(sub.ok());
    if (sub->num_edges() == 0) continue;

    BepiOptions bepi_options;
    bepi_options.hub_ratio = spec->hub_ratio;
    bepi_options.memory_budget_bytes = config.budget_bytes;
    auto bepi_solver = std::make_unique<BepiSolver>(bepi_options);
    bench::PreprocessOutcome prep =
        bench::RunPreprocess(bepi_solver.get(), *sub);
    bench::QueryOutcome query;
    if (prep.ok()) {
      query = bench::RunQueries(*bepi_solver, *sub, config.num_queries,
                                config.seed);
    }

    BearOptions bear_options;
    bear_options.memory_budget_bytes = config.budget_bytes;
    BearSolver bear_solver(bear_options);
    bench::PreprocessOutcome bear_prep = bench::RunPreprocess(
        &bear_solver, *sub, sub->num_edges() > config.bear_max_edges);

    LuSolverOptions lu_options;
    lu_options.memory_budget_bytes = config.budget_bytes;
    LuSolver lu_solver(lu_options);
    bench::PreprocessOutcome lu_prep = bench::RunPreprocess(
        &lu_solver, *sub, sub->num_edges() > config.lu_max_edges);

    GmresSolver gmres_solver(GmresSolverOptions{});
    BEPI_CHECK(gmres_solver.Preprocess(*sub).ok());
    bench::QueryOutcome gmres_query =
        bench::RunQueries(gmres_solver, *sub, config.num_queries, config.seed);

    PowerSolver power_solver(RwrOptions{});
    BEPI_CHECK(power_solver.Preprocess(*sub).ok());
    bench::QueryOutcome power_query =
        bench::RunQueries(power_solver, *sub, config.num_queries, config.seed);

    table.AddRow({Table::IntGrouped(sub->num_nodes()),
                  Table::IntGrouped(sub->num_edges()), prep.TimeCell(),
                  prep.MemoryCell(), query.TimeCell(), bear_prep.TimeCell(),
                  lu_prep.TimeCell(), gmres_query.TimeCell(),
                  power_query.TimeCell()});
    if (prep.ok() && query.ok()) {
      edge_counts.push_back(static_cast<double>(sub->num_edges()));
      prep_times.push_back(prep.seconds);
      mem_sizes.push_back(static_cast<double>(prep.bytes));
      query_times.push_back(query.avg_seconds);
      scaling_solver = std::move(bepi_solver);
      scaling_graph = std::move(*sub);
    }
  }
  table.Print();

  if (edge_counts.size() >= 2) {
    std::printf("\nFitted log-log slopes for BePI vs edges "
                "(paper: 1.01 / 0.99 / 1.1):\n");
    std::printf("  preprocessing time : %.2f\n",
                bench::LogLogSlope(edge_counts, prep_times));
    std::printf("  preprocessed memory: %.2f\n",
                bench::LogLogSlope(edge_counts, mem_sizes));
    std::printf("  query time         : %.2f\n",
                bench::LogLogSlope(edge_counts, query_times));
  }
  std::printf(
      "\nExpected shape (paper Fig. 5): BePI scales near-linearly on all\n"
      "three metrics and processes slices ~100x larger than Bear/LU.\n");

  if (scaling_solver != nullptr) {
    const int max_threads =
        config.threads > 0 ? config.threads : std::max(8, HardwareThreads());
    RunParallelScaling(*scaling_solver, scaling_graph,
                       flags.GetInt("batch", 64), max_threads, &json);
  }
  json.WriteIfRequested(flags);
  return 0;
}
