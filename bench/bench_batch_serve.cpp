// Coalesced-serving benchmark: what the SpMM batcher and the hot-seed
// cache each buy on the serve path.
//
// Part 1 sweeps the batch width k through BepiSolver::Solve and reports
// per-query wall time and per-query stream bytes (the counted traffic
// model behind spmv.bytes / spmv.fused.bytes / spmm.bytes / ilu0.bytes):
// one GMRES step streams the Schur matrix once for all k columns, so the
// per-query byte cost falls as k grows, toward the floor of what does
// not amortize — the per-column ILU(0) applies and dense panels.
//
// Part 2 runs a real QueryServer over a Unix socket with the score
// cache enabled and compares the round-trip p50 of cold solves against
// repeat queries answered from the cache.
//
// Honest caveats, printed with the tables: everything shares this
// machine's cores, so batch speedups here come from memory-traffic
// amortization, not parallelism; the byte columns are a counted traffic
// model, not hardware counters; only the Schur stream amortizes — the
// per-query scalar stages (RHS build, H11 hops, back-substitution) are
// unchanged, which is why per-query time flattens before bytes do; and
// the cache ratio includes protocol overhead on both sides. The JSON
// artifact carries the same caveats and the machine in its "context".
//
// Usage: bench_batch_serve [--scale=1.0] [--queries=48] [--repeats=3]
//        [--json-out=BENCH_batch_serve.json]
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <thread>

#include "bench_util.hpp"
#include "common/metrics.hpp"
#include "core/bepi.hpp"
#include "server/server.hpp"

namespace {

using namespace bepi;

/// One blocking line-protocol client over its own connection.
class Client {
 public:
  explicit Client(const std::string& path) {
    fd_ = socket(AF_UNIX, SOCK_STREAM, 0);
    BEPI_CHECK_MSG(fd_ >= 0, "socket() failed");
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    BEPI_CHECK_MSG(
        connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) ==
            0,
        "connect() failed");
  }
  ~Client() { close(fd_); }

  std::string RoundTrip(const std::string& line) {
    std::string framed = line + "\n";
    std::size_t off = 0;
    while (off < framed.size()) {
      const ssize_t n = write(fd_, framed.data() + off, framed.size() - off);
      BEPI_CHECK_MSG(n > 0, "write() failed");
      off += static_cast<std::size_t>(n);
    }
    while (true) {
      const std::size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        std::string out = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return out;
      }
      char chunk[4096];
      const ssize_t n = read(fd_, chunk, sizeof chunk);
      BEPI_CHECK_MSG(n > 0, "read() failed");
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

double Percentile(std::vector<double>* sorted_into, double p) {
  if (sorted_into->empty()) return 0.0;
  std::sort(sorted_into->begin(), sorted_into->end());
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(sorted_into->size() - 1) + 0.5);
  return (*sorted_into)[std::min(idx, sorted_into->size() - 1)];
}

std::uint64_t StreamBytes() {
  // The first three counters partition the kernel-layer matrix traffic:
  // plain SpMV, fused SpMV variants, and SpMM panels. The preconditioner
  // applies per column and is counted apart.
  MetricsRegistry& registry = MetricsRegistry::Global();
  return registry.GetCounter("spmv.bytes")->value() +
         registry.GetCounter("spmv.fused.bytes")->value() +
         registry.GetCounter("spmm.bytes")->value() +
         registry.GetCounter("ilu0.bytes")->value();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bepi;
  Flags flags = Flags::Parse(argc, argv);
  bench::BenchConfig config = bench::BenchConfig::FromFlags(flags);
  const index_t queries = flags.GetInt("queries", 48);
  const index_t repeats = flags.GetInt("repeats", 3);
  bench::PrintBanner("batch serve: SpMM coalescing and the score cache",
                     config);
  bench::BenchJsonWriter json("batch_serve");
  json.Context("nproc", std::to_string(std::thread::hardware_concurrency()));
  json.Context("threads",
               std::to_string(ParallelContext::Global().num_threads()));
  json.Context("scale", Table::Num(config.scale, 2));
  json.Context("queries", std::to_string(queries));
  json.Context("repeats", std::to_string(repeats));
  json.Context(
      "caveats",
      "every width runs on the same cores, so the sweep shows memory-"
      "traffic amortization, not parallel speedup; stream bytes are the "
      "counted traffic model (spmv.bytes + spmv.fused.bytes + spmm.bytes "
      "+ ilu0.bytes), not hardware counters; only the Schur stream "
      "amortizes with k, the ILU(0) applies and the scalar per-seed "
      "stages do not; cache p50s include the socket protocol on both "
      "sides");

  const DatasetSpec& spec = PaperDatasets().front();
  Graph g = bench::LoadDataset(spec, config);
  BepiOptions options;
  options.hub_ratio = spec.hub_ratio;
  BepiSolver solver(options);
  {
    const Status status = solver.Preprocess(g);
    BEPI_CHECK_MSG(status.ok(), status.ToString().c_str());
  }
  SetMetricsEnabled(true);

  // Distinct, deterministic seeds spread across the node range.
  std::vector<index_t> seeds;
  const index_t stride = std::max<index_t>(1, g.num_nodes() / (queries + 1));
  for (index_t q = 0; q < queries; ++q) {
    seeds.push_back((q * stride + 1) % g.num_nodes());
  }

  // --- Part 1: batch-width sweep through Solve ------------------------
  Table table({"k", "queries", "ms/query", "stream MB/query", "coalesced %"});
  double per_query_ms_k1 = 0.0;
  std::uint64_t per_query_bytes_k1 = 0;
  for (const index_t k : {1, 2, 4, 8, 16}) {
    const std::uint64_t bytes_before = StreamBytes();
    index_t done = 0, coalesced = 0;
    Timer wall;
    while (done < queries) {
      std::vector<QueryRequest> requests;
      for (index_t j = 0; j < k; ++j) {
        const std::size_t pick = static_cast<std::size_t>((done + j) % queries);
        requests.push_back({seeds[pick], nullptr, {}, {}});
      }
      const Result<std::vector<QueryResult>> results = solver.Solve(requests);
      BEPI_CHECK_MSG(results.ok(), results.status().ToString().c_str());
      for (const QueryResult& r : *results) {
        BEPI_CHECK_MSG(r.status.ok(), r.status.ToString().c_str());
        if (r.coalesced) ++coalesced;
      }
      done += k;
    }
    const double ms_per_query =
        wall.Millis() / static_cast<double>(done);
    const std::uint64_t bytes_per_query =
        (StreamBytes() - bytes_before) / static_cast<std::uint64_t>(done);
    if (k == 1) {
      per_query_ms_k1 = ms_per_query;
      per_query_bytes_k1 = bytes_per_query;
    }
    table.AddRow({Table::Int(k), Table::Int(done),
                  Table::Num(ms_per_query, 3),
                  Table::Num(static_cast<double>(bytes_per_query) / 1e6, 3),
                  Table::Num(100.0 * static_cast<double>(coalesced) /
                                 static_cast<double>(done),
                             1)});
    const std::string method = "k=" + std::to_string(k);
    json.Add(spec.name, method, "ms_per_query", ms_per_query);
    json.Add(spec.name, method, "stream_bytes_per_query",
             static_cast<double>(bytes_per_query));
    json.Add(spec.name, method, "coalesced_fraction",
             static_cast<double>(coalesced) / static_cast<double>(done));
    if (k > 1 && per_query_bytes_k1 > 0) {
      json.Add(spec.name, method, "bytes_vs_scalar",
               static_cast<double>(bytes_per_query) /
                   static_cast<double>(per_query_bytes_k1));
      json.Add(spec.name, method, "time_vs_scalar",
               per_query_ms_k1 > 0 ? ms_per_query / per_query_ms_k1 : 0.0);
    }
  }
  table.Print();
  std::printf(
      "\nReading the sweep: the Schur stream is charged once per GMRES step\n"
      "for all k columns, so stream MB/query falls as k grows, toward the\n"
      "per-column ILU(0) applies and dense panels that do not amortize;\n"
      "ms/query flattens earlier because the scalar per-seed stages (RHS\n"
      "build, H11 hops, back-substitution) do not amortize either. Bytes\n"
      "are the counted traffic model (spmv.bytes + spmv.fused.bytes +\n"
      "spmm.bytes + ilu0.bytes), not hardware counters, and all widths\n"
      "run on the same cores — this is bandwidth amortization, not\n"
      "parallel speedup.\n\n");

  // --- Part 2: cache hits vs cold solves over a real socket ------------
  ServeOptions serve_options;
  serve_options.slots = 1;
  serve_options.batch_max = 1;  // sequential: cold latency = one solve
  serve_options.cache_mb = 64;
  const std::string path =
      "/tmp/bepi_bench_batch_serve_" + std::to_string(getpid()) + ".sock";
  QueryServer server(solver, serve_options);
  std::thread serving([&server, &path] {
    const Status status = server.ServeUnixSocket(path);
    BEPI_CHECK_MSG(status.ok(), status.ToString().c_str());
  });
  for (int i = 0; i < 400 && access(path.c_str(), F_OK) != 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  std::vector<double> cold_ms, hit_ms;
  {
    Client client(path);
    for (index_t pass = 0; pass < repeats + 1; ++pass) {
      for (index_t q = 0; q < queries; ++q) {
        const std::string req =
            "{\"op\":\"query\",\"seed\":" +
            std::to_string(seeds[static_cast<std::size_t>(q)]) +
            ",\"topk\":10}";
        Timer rt;
        const std::string response = client.RoundTrip(req);
        const double ms = rt.Millis();
        BEPI_CHECK_MSG(response.find("\"ok\":true") != std::string::npos,
                       response.c_str());
        const bool from_cache =
            response.find("\"stage\":\"cache\"") != std::string::npos;
        BEPI_CHECK_MSG(from_cache == (pass > 0), response.c_str());
        (from_cache ? hit_ms : cold_ms).push_back(ms);
      }
    }
  }
  server.RequestDrain();
  serving.join();
  unlink(path.c_str());

  const ServerStatsSnapshot snap = server.Stats();
  const double cold_p50 = Percentile(&cold_ms, 0.50);
  const double hit_p50 = Percentile(&hit_ms, 0.50);
  const double cold_p99 = Percentile(&cold_ms, 0.99);
  const double hit_p99 = Percentile(&hit_ms, 0.99);
  Table cache_table({"phase", "requests", "p50 (ms)", "p99 (ms)"});
  cache_table.AddRow({std::string("cold solve"),
                      Table::Int(static_cast<index_t>(cold_ms.size())),
                      Table::Num(cold_p50, 3), Table::Num(cold_p99, 3)});
  cache_table.AddRow({std::string("cache hit"),
                      Table::Int(static_cast<index_t>(hit_ms.size())),
                      Table::Num(hit_p50, 3), Table::Num(hit_p99, 3)});
  cache_table.Print();
  const double speedup = hit_p50 > 0 ? cold_p50 / hit_p50 : 0.0;
  std::printf(
      "\ncache-hit p50 is %.1fx below cold-solve p50 (%llu hits, %llu\n"
      "misses, %llu bytes resident). The ratio includes protocol overhead\n"
      "on both sides of the socket, so it understates the pure solve-vs-\n"
      "lookup gap; it still reflects what a repeat-heavy client observes.\n",
      speedup, static_cast<unsigned long long>(snap.cache_hits),
      static_cast<unsigned long long>(snap.cache_misses),
      static_cast<unsigned long long>(snap.cache_bytes));
  json.Add(spec.name, "cache", "cold_p50_ms", cold_p50);
  json.Add(spec.name, "cache", "hit_p50_ms", hit_p50);
  json.Add(spec.name, "cache", "cold_p99_ms", cold_p99);
  json.Add(spec.name, "cache", "hit_p99_ms", hit_p99);
  json.Add(spec.name, "cache", "p50_speedup", speedup);
  json.Add(spec.name, "cache", "hits", static_cast<double>(snap.cache_hits));
  json.Add(spec.name, "cache", "misses",
           static_cast<double>(snap.cache_misses));
  json.WriteIfRequested(flags);
  return 0;
}
