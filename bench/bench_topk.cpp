// Top-k query modes: latency of QueryTopK against the caller-side
// Query + TopK across a k sweep, the eps-mode bound's honesty margin, and
// the MC warm start's iteration savings. Exact-mode answers are compared
// entry by entry against TopK(full solve) — any mismatch is a bench
// failure, the same contract ci.sh smoke_topk enforces with cmp.
//
// Usage: bench_topk [--scale=1.0] [--queries=3] [--threads=N]
//        [--json-out=BENCH_topk.json]
#include <algorithm>
#include <cmath>

#include "bench_util.hpp"
#include "common/timer.hpp"
#include "core/bepi.hpp"
#include "core/topk.hpp"
#include "engine/mc/mc.hpp"

int main(int argc, char** argv) {
  using namespace bepi;
  Flags flags = Flags::Parse(argc, argv);
  bench::BenchConfig config = bench::BenchConfig::FromFlags(flags);
  bench::PrintBanner("Top-k queries", config);
  bench::BenchJsonWriter json("topk");

  Table table({"dataset", "k", "top-k ms", "dense ms", "exact", "eps bound"});
  for (const DatasetSpec& spec : PaperDatasets()) {
    Graph g = bench::LoadDataset(spec, config);

    BepiOptions options;
    options.hub_ratio = spec.hub_ratio;
    options.memory_budget_bytes = config.budget_bytes;
    BepiSolver solver(options);
    auto pre = solver.Preprocess(g);
    BEPI_CHECK_MSG(pre.ok(), pre.ToString().c_str());

    for (const index_t k_raw : {index_t{1}, index_t{10}, index_t{100}}) {
      const index_t k = std::min<index_t>(k_raw, g.num_nodes());
      TopKOptions opts;
      opts.k = k;

      Rng rng(config.seed);
      double topk_seconds = 0.0, dense_seconds = 0.0, eps_bound = 0.0;
      bool exact = true;
      for (index_t i = 0; i < config.num_queries; ++i) {
        const index_t node = rng.UniformIndex(0, g.num_nodes() - 1);

        Timer topk_timer;
        auto tk = solver.QueryTopK(node, opts);
        BEPI_CHECK_MSG(tk.ok(), tk.status().ToString().c_str());
        topk_seconds += topk_timer.Seconds();

        Timer dense_timer;
        auto scores = solver.Query(node);
        BEPI_CHECK_MSG(scores.ok(), scores.status().ToString().c_str());
        const auto reference = TopK(*scores, k);
        dense_seconds += dense_timer.Seconds();

        // Exact mode means *bitwise* exact: same nodes, same bytes.
        if (tk->entries.size() != reference.size()) exact = false;
        for (std::size_t e = 0; exact && e < reference.size(); ++e) {
          if (tk->entries[e] != reference[e]) exact = false;
        }

        // Eps mode on the same seed: the reported bound must cover the
        // actual deviation from the exact answer (honesty margin).
        TopKOptions eps_opts = opts;
        eps_opts.mode = TopKMode::kEps;
        eps_opts.eps = static_cast<real_t>(1e-4);
        auto etk = solver.QueryTopK(node, eps_opts);
        BEPI_CHECK_MSG(etk.ok(), etk.status().ToString().c_str());
        eps_bound = std::max(eps_bound,
                             static_cast<double>(etk->error_bound));
      }
      BEPI_CHECK_MSG(exact, "top-k diverged from dense solve + sort");

      const double q = static_cast<double>(config.num_queries);
      const std::string method = "k=" + std::to_string(k);
      json.Add(spec.name, method, "topk_ms", topk_seconds / q * 1e3);
      json.Add(spec.name, method, "dense_ms", dense_seconds / q * 1e3);
      json.Add(spec.name, method, "exact_match", exact ? 1.0 : 0.0);
      json.Add(spec.name, method, "eps_bound", eps_bound);

      table.AddRow({spec.name, Table::IntGrouped(k),
                    Table::Num(topk_seconds / q * 1e3),
                    Table::Num(dense_seconds / q * 1e3),
                    exact ? "yes" : "NO", Table::Num(eps_bound)});
    }

    // MC warm start (--warm-start=mc): seed the Schur solve's initial
    // iterate from a cheap walk estimate and count the inner iterations
    // saved against the default cold start on the same seeds.
    {
      McWalkEngine engine(g);
      BEPI_CHECK(solver.AttachMcFallback(&engine).ok());
      Rng rng(config.seed);
      double cold_iters = 0.0, warm_iters = 0.0, max_diff = 0.0;
      for (index_t i = 0; i < config.num_queries; ++i) {
        const index_t node = rng.UniformIndex(0, g.num_nodes() - 1);
        QueryStats cold_stats, warm_stats;
        auto cold = solver.Query(node, &cold_stats);
        BEPI_CHECK_MSG(cold.ok(), cold.status().ToString().c_str());
        QueryControl warm_control;
        warm_control.warm_start_mc = true;
        auto warm = solver.Query(node, &warm_stats, nullptr, warm_control);
        BEPI_CHECK_MSG(warm.ok(), warm.status().ToString().c_str());
        cold_iters += static_cast<double>(cold_stats.total_iterations);
        warm_iters += static_cast<double>(warm_stats.total_iterations);
        for (index_t v = 0; v < g.num_nodes(); ++v) {
          max_diff = std::max(
              max_diff, std::fabs(static_cast<double>((*cold)[v]) -
                                  static_cast<double>((*warm)[v])));
        }
      }
      BEPI_CHECK(solver.AttachMcFallback(nullptr).ok());
      const double q = static_cast<double>(config.num_queries);
      const double saved =
          cold_iters > 0.0 ? (cold_iters - warm_iters) / cold_iters : 0.0;
      json.Add(spec.name, "warm_start_mc", "cold_iterations", cold_iters / q);
      json.Add(spec.name, "warm_start_mc", "warm_iterations", warm_iters / q);
      json.Add(spec.name, "warm_start_mc", "iterations_saved_frac", saved);
      json.Add(spec.name, "warm_start_mc", "max_abs_diff", max_diff);
      std::printf(
          "%s warm start: %.1f -> %.1f inner iterations (%.0f%% saved), "
          "max |warm - cold| = %.3g\n",
          spec.name.c_str(), cold_iters / q, warm_iters / q, saved * 100.0,
          max_diff);
    }
  }
  table.Print();
  std::printf(
      "\nExpected shape: top-k ms close to dense ms (one solve, ranked in\n"
      "the solver or by the caller), exact matches on every row, and eps\n"
      "bounds at the 1e-4 tolerance scale. Warm starts trade bit-identity\n"
      "for fewer inner iterations.\n");
  json.WriteIfRequested(flags);
  return 0;
}
