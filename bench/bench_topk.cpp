// Top-k query modes: latency of QueryTopK against the caller-side
// Query + TopK across a k sweep, and the eps-mode bound's honesty margin.
// Exact-mode answers are compared
// entry by entry against TopK(full solve) — any mismatch is a bench
// failure, the same contract ci.sh smoke_topk enforces with cmp.
//
// Usage: bench_topk [--scale=1.0] [--queries=3] [--threads=N]
//        [--json-out=BENCH_topk.json]
#include <algorithm>

#include "bench_util.hpp"
#include "common/timer.hpp"
#include "core/bepi.hpp"
#include "core/topk.hpp"

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
  }
  table.Print();
  std::printf(
      "\nExpected shape: top-k ms close to dense ms (one solve, ranked in\n"
      "the solver or by the caller), exact matches on every row, and eps\n"
      "bounds at the 1e-4 tolerance scale.\n");
  json.WriteIfRequested(flags);
  return 0;
}
