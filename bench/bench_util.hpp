// Shared helpers for the paper-reproduction benchmark harnesses.
//
// Conventions (see DESIGN.md and EXPERIMENTS.md):
//  * Datasets are the synthetic Table-2 stand-ins from core/datasets.hpp,
//    scaled by BEPI_BENCH_SCALE (quick=1 default, large=3).
//  * Every preprocessing method runs under the same memory budget
//    (--budget_mb, default 256), reproducing the paper's out-of-memory
//    failures; entries that exceed it print "o.o.m.".
//  * The paper's 24-hour timeout is modeled by per-method edge-count
//    ceilings (--bear_max_edges / --lu_max_edges); skipped entries print
//    "o.o.t.".
#ifndef BEPI_BENCH_BENCH_UTIL_HPP_
#define BEPI_BENCH_BENCH_UTIL_HPP_

#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "common/check.hpp"
#include "common/fileio.hpp"
#include "common/flags.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "core/datasets.hpp"
#include "core/rwr.hpp"

namespace bepi::bench {

struct BenchConfig {
  real_t scale = 1.0;
  // 128 MB is the scaled-down analog of the paper's 500 GB machine: BePI's
  // largest preprocessed footprint (~95 MB on Friendster-sim) fits, Bear's
  // dense S^{-1} pipeline and LU's fill-in do not beyond the two smallest
  // datasets.
  std::uint64_t budget_bytes = 128ull << 20;
  index_t num_queries = 5;
  index_t bear_max_edges = 500'000;
  index_t lu_max_edges = 120'000;
  std::uint64_t seed = 20170514;  // SIGMOD'17 conference date
  // Worker threads for the parallel kernels (--threads); 0 keeps the
  // BEPI_THREADS/hardware default already configured in ParallelContext.
  int threads = 0;

  static BenchConfig FromFlags(const Flags& flags) {
    BenchConfig config;
    config.scale = flags.GetDouble("scale", BenchScaleFromEnv());
    config.budget_bytes =
        static_cast<std::uint64_t>(flags.GetInt("budget_mb", 128)) << 20;
    config.num_queries = flags.GetInt("queries", 5);
    config.bear_max_edges = flags.GetInt("bear_max_edges", 500'000);
    config.lu_max_edges = flags.GetInt("lu_max_edges", 120'000);
    config.seed = static_cast<std::uint64_t>(flags.GetInt("seed", 20170514));
    config.threads = static_cast<int>(flags.GetInt("threads", 0));
    if (config.threads > 0) {
      const Status status =
          ParallelContext::Global().SetNumThreads(config.threads);
      BEPI_CHECK_MSG(status.ok(), status.ToString().c_str());
    }
    return config;
  }
};

/// Generates a registered dataset at the configured scale.
inline Graph LoadDataset(const DatasetSpec& spec, const BenchConfig& config) {
  DatasetSpec scaled = ScaleSpec(spec, config.scale);
  auto g = GenerateDataset(scaled);
  BEPI_CHECK_MSG(g.ok(), g.status().ToString().c_str());
  return std::move(g).value();
}

struct PreprocessOutcome {
  Status status;
  double seconds = 0.0;
  std::uint64_t bytes = 0;

  bool ok() const { return status.ok(); }
  /// Cell text: seconds, "o.o.m." or the error code.
  std::string TimeCell() const {
    if (status.ok()) return Table::Num(seconds);
    if (status.code() == StatusCode::kResourceExhausted) return "o.o.m.";
    if (status.code() == StatusCode::kDeadlineExceeded) return "o.o.t.";
    return StatusCodeName(status.code());
  }
  std::string MemoryCell() const {
    if (status.ok()) return Table::Num(BytesToMb(bytes), 2);
    if (status.code() == StatusCode::kResourceExhausted) return "o.o.m.";
    if (status.code() == StatusCode::kDeadlineExceeded) return "o.o.t.";
    return StatusCodeName(status.code());
  }
};

/// Runs Preprocess and collects time + memory. Pass `skip=true` to model
/// the paper's 24h timeout (records DeadlineExceeded without running).
inline PreprocessOutcome RunPreprocess(RwrSolver* solver, const Graph& g,
                                       bool skip = false) {
  PreprocessOutcome outcome;
  if (skip) {
    outcome.status = Status::DeadlineExceeded(
        "skipped: exceeds this method's edge ceiling (the scaled analog of "
        "the paper's 24h limit)");
    return outcome;
  }
  outcome.status = solver->Preprocess(g);
  if (outcome.ok()) {
    outcome.seconds = solver->preprocess_seconds();
    outcome.bytes = solver->PreprocessedBytes();
  }
  return outcome;
}

struct QueryOutcome {
  Status status;
  double avg_seconds = 0.0;
  double avg_iterations = 0.0;

  bool ok() const { return status.ok(); }
  std::string TimeCell() const {
    if (status.ok()) return Table::Num(avg_seconds);
    return "-";
  }
};

/// Average query time over `count` deterministic random seeds.
inline QueryOutcome RunQueries(const RwrSolver& solver, const Graph& g,
                               index_t count, std::uint64_t seed) {
  QueryOutcome outcome;
  Rng rng(seed);
  double total_seconds = 0.0;
  double total_iterations = 0.0;
  for (index_t i = 0; i < count; ++i) {
    const index_t node = rng.UniformIndex(0, g.num_nodes() - 1);
    QueryStats stats;
    auto r = solver.Query(node, &stats);
    if (!r.ok()) {
      outcome.status = r.status();
      return outcome;
    }
    total_seconds += stats.seconds;
    total_iterations += static_cast<double>(stats.iterations);
  }
  outcome.avg_seconds = total_seconds / static_cast<double>(count);
  outcome.avg_iterations = total_iterations / static_cast<double>(count);
  return outcome;
}

inline std::string EscapeJson(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

/// Machine-readable companion to the printed tables. Collects flat
/// (dataset, method, metric, value) records and writes them as one JSON
/// document — the BENCH_*.json artifacts archived by tools/ci.sh —
/// with an optional "context" object of what a reader needs to weigh
/// the numbers (machine, settings, caveats).
class BenchJsonWriter {
 public:
  explicit BenchJsonWriter(std::string bench_name)
      : name_(std::move(bench_name)) {}

  void Add(const std::string& dataset, const std::string& method,
           const std::string& metric, double value) {
    records_.push_back({dataset, method, metric, value});
  }
  /// One "context" entry, written in the order added.
  void Context(const std::string& key, const std::string& value) {
    context_.emplace_back(key, value);
  }

  Status WriteFile(const std::string& path) const {
    AtomicFileWriter writer(path);
    BEPI_RETURN_IF_ERROR(writer.status());
    auto& out = writer.stream();
    out << "{\n  \"bench\": \"" << EscapeJson(name_) << "\",\n";
    if (!context_.empty()) {
      out << "  \"context\": {";
      for (std::size_t i = 0; i < context_.size(); ++i) {
        out << (i == 0 ? "\n" : ",\n") << "    \""
            << EscapeJson(context_[i].first) << "\": \""
            << EscapeJson(context_[i].second) << "\"";
      }
      out << "\n  },\n";
    }
    out << "  \"results\": [";
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const Record& r = records_[i];
      out << (i == 0 ? "\n" : ",\n");
      out << "    {\"dataset\": \"" << EscapeJson(r.dataset)
          << "\", \"method\": \"" << EscapeJson(r.method)
          << "\", \"metric\": \"" << EscapeJson(r.metric) << "\", \"value\": ";
      if (std::isfinite(r.value)) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g", r.value);
        out << buf;
      } else {
        out << "null";  // JSON has no Inf/NaN
      }
      out << "}";
    }
    out << (records_.empty() ? "" : "\n  ") << "]\n}\n";
    return writer.Commit();
  }

  /// Writes to --json-out when the flag is present; a write failure
  /// aborts so CI never silently archives a missing artifact.
  void WriteIfRequested(const Flags& flags) const {
    const std::string path = flags.GetString("json-out", "");
    if (path.empty()) return;
    const Status status = WriteFile(path);
    BEPI_CHECK_MSG(status.ok(), status.ToString().c_str());
    std::printf("\nwrote %zu benchmark records to %s\n", records_.size(),
                path.c_str());
  }

 private:
  struct Record {
    std::string dataset;
    std::string method;
    std::string metric;
    double value;
  };
  std::string name_;
  std::vector<std::pair<std::string, std::string>> context_;
  std::vector<Record> records_;
};

/// Header line shared by all harness binaries.
inline void PrintBanner(const std::string& title, const BenchConfig& config) {
  std::printf("=== %s ===\n", title.c_str());
  std::printf("scale=%.2f  budget=%s  queries/seed-set=%lld  threads=%d\n\n",
              config.scale, HumanBytes(config.budget_bytes).c_str(),
              static_cast<long long>(config.num_queries),
              ParallelContext::Global().num_threads());
}

/// Least-squares slope of log10(y) vs log10(x) — the paper reports these
/// fitted slopes in Figure 5.
inline double LogLogSlope(const std::vector<double>& x,
                          const std::vector<double>& y) {
  BEPI_CHECK(x.size() == y.size() && x.size() >= 2);
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  const double n = static_cast<double>(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double lx = std::log10(x[i]);
    const double ly = std::log10(y[i]);
    sx += lx;
    sy += ly;
    sxx += lx * lx;
    sxy += lx * ly;
  }
  return (n * sxy - sx * sy) / (n * sxx - sx * sx);
}

}  // namespace bepi::bench

#endif  // BEPI_BENCH_BENCH_UTIL_HPP_
