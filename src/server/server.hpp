// The long-running query server behind `bepi_cli serve`: line-delimited
// JSON requests (server/protocol.hpp) answered by a fixed pool of worker
// slots over one preprocessed BepiSolver, with the operational hardening
// a shared deployment needs:
//
//  * Admission control (server/admission.hpp): a bounded queue between
//    the protocol reader(s) and the workers. A full queue rejects
//    immediately with "overloaded" and an honest retry_after_ms hint.
//  * Deadlines: each accepted query gets a CancelToken armed with its
//    deadline_ms (or the server default), linked to the server's
//    cancel-everything flag. Solvers poll it at restart-cycle and
//    power-iteration boundaries only, so an unexpired token leaves
//    results bit-identical to one-shot `bepi_cli query`. Expiry surfaces
//    as a "deadline_exceeded" response — or, with allow_partial, the
//    best-so-far iterate completed through back-substitution plus its
//    residual as an explicit error bound.
//  * Graceful drain: SIGTERM/SIGINT (or stdin EOF) stops admission,
//    lets in-flight and queued work finish within drain_ms, then cancels
//    whatever remains cooperatively. Serve* returns Ok so the CLI can
//    flush --metrics-out/--trace-out and exit 0.
//  * Watchdog: a background thread samples per-worker busy time; a
//    worker stuck past wedge_ms gets its job's token cancelled and the
//    server reports health "degraded" until the worker recovers.
//
// health/stats verbs are answered inline on the reader thread — they
// bypass the queue entirely so probes stay accurate under overload.
#ifndef BEPI_SERVER_SERVER_HPP_
#define BEPI_SERVER_SERVER_HPP_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/cancel.hpp"
#include "core/bepi.hpp"
#include "server/admission.hpp"
#include "server/cache.hpp"
#include "server/protocol.hpp"
#include "solver/gmres.hpp"

namespace bepi {

struct ServeOptions {
  /// Worker slots (each owns a GmresWorkspace). Minimum 1.
  int slots = 2;
  /// Accepted-but-not-started queries the queue may hold.
  index_t max_queue = 64;
  /// Deadline applied to requests that do not carry their own
  /// deadline_ms. 0 = no default deadline.
  double default_deadline_ms = 0.0;
  /// Graceful-drain budget: how long in-flight + queued work may keep
  /// running after shutdown before being cancelled cooperatively.
  double drain_ms = 5000.0;
  /// Watchdog sampling interval.
  double watchdog_ms = 250.0;
  /// A worker busy on one request longer than this is considered wedged:
  /// its token is cancelled and health degrades until it recovers.
  double wedge_ms = 30000.0;
  /// Inbound request-line length cap (transport-enforced).
  std::size_t max_line_bytes = 1 << 20;
  /// Socket mode: give up writing to a client that does not drain its
  /// responses within this budget (the connection is dropped).
  double write_timeout_ms = 5000.0;
  /// Socket mode: concurrent connection cap. A connection past the cap
  /// is answered with one "overloaded" line and closed immediately, so
  /// per-connection thread/stack use stays bounded. Minimum 1.
  int max_conns = 64;
  /// Slow-query threshold: a query whose wall time (admission to write)
  /// exceeds this gets one structured log line with its full timing
  /// breakdown and its request_id becomes the latency histogram's
  /// exemplar. 0 disables the slow-query log.
  double slow_ms = 0.0;
  /// Where the flight recorder is dumped (Perfetto-loadable JSON) on a
  /// watchdog trip or a fatal-signal drain. Empty disables auto-dumps;
  /// the "dump" verb still works.
  std::string flight_dump_path = "bepi-flightrec.json";
  /// Hot-seed score cache budget in MiB (server/cache.hpp). A repeated
  /// (model, seed) query is answered from memory, byte-identical to a
  /// cold solve. 0 disables the cache.
  int cache_mb = 0;
  /// Coalescing scheduler: most queries one worker slot pulls and solves
  /// as a single blocked Schur solve (BepiSolver::Solve). 1 disables
  /// coalescing entirely (every query solves alone); values are clamped
  /// to [1, BepiSolver::kPanelWidth], so a batch is one Solve panel on
  /// the slot's workspace.
  int batch_max = 8;
  /// How long a slot that popped one query waits for more to coalesce
  /// with it, in milliseconds. 0 (the default) batches opportunistically:
  /// only backlog that already queued up is coalesced and no request is
  /// ever delayed. > 0 trades that bounded wait for wider batches.
  double batch_window_ms = 0.0;
};

/// Point-in-time server state, for the "stats" verb and tests. Counters
/// are server-owned (always live, independent of the metrics switch).
struct ServerStatsSnapshot {
  std::uint64_t accepted = 0;
  std::uint64_t completed = 0;
  std::uint64_t rejected_overload = 0;
  std::uint64_t rejected_invalid = 0;  // parse + schema + range rejections
  std::uint64_t rejected_draining = 0;
  std::uint64_t rejected_conns = 0;  // connections shed at the max_conns cap
  std::uint64_t deadline_exceeded = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t partial = 0;
  std::uint64_t watchdog_trips = 0;
  std::uint64_t slow_queries = 0;  // queries past the slow_ms threshold
  std::uint64_t queue_depth = 0;
  std::uint64_t inflight = 0;
  // Hot-seed score cache (server/cache.hpp); all zero when disabled.
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;
  std::uint64_t cache_bytes = 0;
  /// Queries answered by a coalesced multi-seed solve (batch width >= 2).
  std::uint64_t coalesced = 0;
  std::string health;  // "serving" | "draining" | "degraded"
};

class QueryServer {
 public:
  /// `solver` must be preprocessed/loaded and outlive the server.
  QueryServer(const BepiSolver& solver, ServeOptions options);
  ~QueryServer();

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  /// Serves one line-delimited JSON session over a stream pair (the
  /// stdin/stdout mode; also the unit-test harness). Returns after a
  /// graceful drain triggered by EOF or shutdown; Ok on a clean drain.
  Status ServeStream(std::istream& in, std::ostream& out);

  /// Binds a Unix-domain socket at `path` (replacing any stale file) and
  /// serves concurrent connections until shutdown, then drains.
  Status ServeUnixSocket(const std::string& path);

  /// Initiates drain as if SIGTERM had arrived (idempotent, any thread).
  void RequestDrain();

  ServerStatsSnapshot Stats() const;

 private:
  struct Conn;
  struct WorkerSlot;

  void StartWorkers();
  void WorkerLoop(int slot);
  void WatchdogLoop();
  /// Stops admission, waits out the drain budget, cancels stragglers,
  /// joins workers + watchdog. Idempotent.
  void Drain();

  void ReadLoop(const std::shared_ptr<Conn>& conn);
  void HandleLine(const std::shared_ptr<Conn>& conn, const std::string& line);
  /// The admission jobs the coalescing scheduler submits: each deposits
  /// one accepted query into its slot's pending list; the worker then
  /// solves the whole list as one batch (ExecuteBatch).
  void CollectPending(int slot, std::shared_ptr<Conn> conn, Request req,
                      std::shared_ptr<CancelToken> token,
                      CancelToken::Clock::time_point admitted_at);
  /// Answers everything CollectPending queued on `slot`: cache hits
  /// immediately, the rest (duplicate seeds deduped) through one
  /// BepiSolver::Solve on the slot's reused workspace — a batch of one
  /// included, which Solve answers alone.
  void ExecuteBatch(int slot);
  /// Fills `hit` from the hot-seed cache when it can answer `req` (counts
  /// the hit/miss). Returns false on a miss — the caller must solve.
  bool LookupCache(const Request& req, QueryResult* hit);
  /// The one response tail of every answered query (solved, coalesced or
  /// cache hit): error mapping, counters, latency recording, response
  /// assembly and write, and slow-query forensics. A top-k request renders
  /// `result.topk` ("mode", plus the per-score "bound" in eps mode), a
  /// dense one the ranking of `result.scores`. With `insert_cache`, a
  /// converged first-stage dense solve enters the hot-seed cache.
  void Respond(const std::shared_ptr<Conn>& conn, const Request& req,
               const QueryResult& result, bool insert_cache,
               std::int64_t queue_ns, std::int64_t solve_ns,
               CancelToken::Clock::time_point admitted_at);
  void WriteToConn(const std::shared_ptr<Conn>& conn, const std::string& line);
  std::string HealthLine(const std::string& id_json) const;
  std::string StatsLine(const std::string& id_json) const;
  std::string MetricsLine(const std::string& id_json) const;
  std::string DumpLine(const std::string& id_json) const;
  std::string HealthState() const;
  /// Server-minted trace id ("srv-<n>") for requests without one.
  std::string MintRequestId();
  /// Auto-dump the flight recorder to options_.flight_dump_path (at most
  /// once per process incident burst; logs the destination).
  void DumpFlightRecorder(const char* why);

  const BepiSolver& solver_;
  ServeOptions options_;
  AdmissionController admission_;
  /// Hot-seed score cache of solver_'s answers, keyed by seed.
  ScoreCache cache_;
  std::vector<std::unique_ptr<WorkerSlot>> workers_;
  std::vector<std::thread> worker_threads_;
  std::thread watchdog_thread_;

  /// Set after the drain budget expires (and linked into every request
  /// token) so stragglers stop at their next cooperative checkpoint.
  std::atomic<bool> cancel_all_{false};
  std::atomic<bool> degraded_{false};
  std::atomic<bool> drained_{false};
  std::atomic<int> inflight_{0};
  mutable std::mutex drain_mu_;
  std::condition_variable drain_cv_;
  bool workers_started_ = false;

  /// Self-pipe waking the accept loop and FdTransport readers on drain.
  int wake_pipe_[2] = {-1, -1};

  // Server-owned counters (see ServerStatsSnapshot).
  std::atomic<std::uint64_t> accepted_{0}, completed_{0},
      rejected_overload_{0}, rejected_invalid_{0}, rejected_draining_{0},
      rejected_conns_{0}, deadline_exceeded_{0}, cancelled_{0}, partial_{0},
      watchdog_trips_{0}, slow_queries_{0}, coalesced_{0};
  /// Sequence for server-minted request ids.
  std::atomic<std::uint64_t> request_seq_{0};
};

}  // namespace bepi

#endif  // BEPI_SERVER_SERVER_HPP_
