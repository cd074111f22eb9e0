// Reproduces Figures 1(a) and 1(b): preprocessing wall-clock time and
// memory for preprocessed data, for the three preprocessing methods
// (BePI, Bear, LU decomposition) on every dataset. Bear and LU hit the
// shared memory budget (o.o.m.) or the scaled time ceiling (o.o.t.) on
// all but the smallest graphs, exactly as in the paper.
//
// Usage: bench_fig1_preprocessing [--scale=1.0] [--budget_mb=256]
//                                 [--bear_max_edges=N] [--lu_max_edges=N]
//                                 [--checkpoint-dir=DIR]
//
// With --checkpoint-dir, each dataset additionally runs BePI preprocessing
// with kill-safe checkpointing enabled (core/checkpoint.hpp) and a third
// table reports the durability overhead; the target is under 5%.
#include <filesystem>

#include "bench_util.hpp"
#include "core/bear.hpp"
#include "core/bepi.hpp"
#include "core/checkpoint.hpp"
#include "core/lu_rwr.hpp"

int main(int argc, char** argv) {
  using namespace bepi;
  Flags flags = Flags::Parse(argc, argv);
  bench::BenchConfig config = bench::BenchConfig::FromFlags(flags);
  bench::PrintBanner(
      "Figure 1(a)+(b): preprocessing time and preprocessed-data memory",
      config);

  Table time_table({"dataset", "edges", "BePI (s)", "Bear (s)", "LU (s)"});
  Table mem_table({"dataset", "edges", "BePI (MB)", "Bear (MB)", "LU (MB)"});
  const std::string checkpoint_dir = flags.GetString("checkpoint-dir", "");
  Table ckpt_table({"dataset", "plain (s)", "checkpointed (s)", "ckpt (s)",
                    "writes", "overhead"});

  for (const DatasetSpec& spec : PaperDatasets()) {
    Graph g = bench::LoadDataset(spec, config);

    BepiOptions bepi_options;
    bepi_options.hub_ratio = spec.hub_ratio;
    bepi_options.memory_budget_bytes = config.budget_bytes;
    BepiSolver bepi_solver(bepi_options);
    bench::PreprocessOutcome bepi_out =
        bench::RunPreprocess(&bepi_solver, g);

    BearOptions bear_options;
    bear_options.memory_budget_bytes = config.budget_bytes;
    BearSolver bear_solver(bear_options);
    bench::PreprocessOutcome bear_out = bench::RunPreprocess(
        &bear_solver, g, /*skip=*/g.num_edges() > config.bear_max_edges);

    LuSolverOptions lu_options;
    lu_options.memory_budget_bytes = config.budget_bytes;
    LuSolver lu_solver(lu_options);
    bench::PreprocessOutcome lu_out = bench::RunPreprocess(
        &lu_solver, g, /*skip=*/g.num_edges() > config.lu_max_edges);

    if (!checkpoint_dir.empty()) {
      // Fresh directory per dataset so the run measures full checkpoint
      // writing, not a resume of a previous benchmark invocation.
      const std::string dir = checkpoint_dir + "/" + spec.name;
      std::filesystem::remove_all(dir);
      BepiSolver ckpt_solver(bepi_options);
      CheckpointManager checkpoints(dir);
      const Status status = ckpt_solver.Preprocess(g, &checkpoints);
      if (status.ok()) {
        const double plain = bepi_solver.preprocess_seconds();
        const double with_ckpt = ckpt_solver.preprocess_seconds();
        const double overhead =
            plain > 0.0 ? (with_ckpt - plain) / plain * 100.0 : 0.0;
        ckpt_table.AddRow(
            {spec.name, Table::Num(plain, 3), Table::Num(with_ckpt, 3),
             Table::Num(ckpt_solver.info().checkpoint_seconds, 3),
             Table::Int(ckpt_solver.info().checkpoints_written),
             Table::Num(overhead, 1) + "%"});
      } else {
        ckpt_table.AddRow({spec.name, Table::Num(
            bepi_solver.preprocess_seconds(), 3), "failed", "-", "-", "-"});
      }
    }

    time_table.AddRow({spec.name, Table::IntGrouped(g.num_edges()),
                       bepi_out.TimeCell(), bear_out.TimeCell(),
                       lu_out.TimeCell()});
    mem_table.AddRow({spec.name, Table::IntGrouped(g.num_edges()),
                      bepi_out.MemoryCell(), bear_out.MemoryCell(),
                      lu_out.MemoryCell()});
  }

  std::printf("Figure 1(a): preprocessing time\n");
  time_table.Print();
  std::printf("\nFigure 1(b): memory for preprocessed data\n");
  mem_table.Print();
  if (!checkpoint_dir.empty()) {
    std::printf("\nKill-safe checkpointing overhead (target: <5%%)\n");
    ckpt_table.Print();
    std::printf(
        "Checkpoint cost is per-stage serialization + fsync, independent\n"
        "of how long the stage computed; the <5%% target applies at paper\n"
        "scale, where stages run for minutes to hours. The overhead ratio\n"
        "falling with dataset size is the trend that matters here.\n");
  }
  std::printf(
      "\nExpected shape (paper Fig. 1): only BePI preprocesses every\n"
      "dataset; Bear/LU survive only the smallest graphs before running\n"
      "out of memory or time, and where they do run, BePI is faster and\n"
      "smaller.\n");
  return 0;
}
