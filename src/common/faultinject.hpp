// Deterministic fault injection for resilience testing. Each potential
// failure location in the library is a named *site* (e.g. "ilu0.factor",
// "gmres.stagnate"); tests and the CLI arm sites through the process-wide
// FaultInjector and the instrumented code asks ShouldFail(site) at the
// matching point. Everything is off by default and costs one relaxed
// atomic load per site when nothing is armed.
//
// Sites can fire deterministically (skip the first `skip` hits, then fire
// `count` times) or probabilistically with a seeded RNG, so a failing run
// is always reproducible from its configuration.
#ifndef BEPI_COMMON_FAULTINJECT_HPP_
#define BEPI_COMMON_FAULTINJECT_HPP_

#include <atomic>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/status.hpp"

namespace bepi {

// Site names used by the instrumented library code. Keeping them in one
// place documents the injectable surface.
namespace fault_sites {
inline constexpr char kIluFactor[] = "ilu0.factor";        // forced zero pivot
inline constexpr char kGmresStagnate[] = "gmres.stagnate"; // forced stagnation
inline constexpr char kGmresNan[] = "gmres.nan";           // poisons a Krylov vector
// The BiCGSTAB sites fire only where BiCGSTAB runs: the ablation's Krylov
// stage (BepiInnerSolver::kBicgstab), never a GMRES chain.
inline constexpr char kBicgstabBreakdown[] = "bicgstab.breakdown";
inline constexpr char kBicgstabNan[] = "bicgstab.nan";
inline constexpr char kEdgeListRead[] = "graph.io.read";   // mid-stream IO error
// Forces the power stage (the chain's second stage, power iteration on S)
// to exhaust its budget without converging, driving queries down to the
// Monte-Carlo terminal stage.
inline constexpr char kPowerStall[] = "power.stall";
// Kills a Monte-Carlo estimate before any walk runs (engine/mc): the one
// failure mode the walk engine has, used to prove a query fails honestly
// when even the terminal stage is broken.
inline constexpr char kMcWalkStall[] = "mc.walk_stall";
// Durable-storage sites (common/fileio, core/checkpoint):
inline constexpr char kFileShortWrite[] = "fileio.short_write";
// Simulates a crash after the temp file was written but before the rename:
// Commit fails, the temp file is left behind, the target is untouched.
inline constexpr char kFileCrashBeforeRename[] = "fileio.crash_before_rename";
inline constexpr char kFileBitFlip[] = "fileio.bit_flip";  // read-path corruption
// Hard-kills the process (SIGKILL) right after a checkpoint commit; drives
// the kill-and-resume smoke test in tools/ci.sh.
inline constexpr char kCheckpointCrash[] = "checkpoint.crash";
// Server protocol sites (src/server): replace an inbound request line with
// garbage bytes, truncate a read mid-line as if the client vanished, and
// simulate a client that never drains its responses (write timeout).
inline constexpr char kServerParseGarbage[] = "server.parse_garbage";
inline constexpr char kServerShortRead[] = "server.short_read";
inline constexpr char kServerSlowClient[] = "server.slow_client";
// Stalls a worker before its batch's solve (sleeping in 10 ms slices
// until its token is cancelled, with a hard 10 s cap) so a test can trip
// the watchdog — and its flight-recorder auto-dump — deterministically.
inline constexpr char kServerExecStall[] = "server.exec_stall";
}  // namespace fault_sites

class FaultInjector {
 public:
  /// The process-wide injector used by all instrumented code.
  static FaultInjector& Global();

  /// Arms `site`: the first `skip` hits pass through, the next `count`
  /// hits fail (count < 0 means every subsequent hit fails).
  void Arm(const std::string& site, index_t skip = 0, index_t count = -1);

  /// Arms `site` to fail each hit independently with `probability`,
  /// drawn from a deterministic RNG seeded with `seed`.
  void ArmProbabilistic(const std::string& site, double probability,
                        std::uint64_t seed = 0x5eed);

  /// Queried by instrumented code. Counts the hit and reports whether the
  /// fault fires at this hit. Never fires for sites that were not armed.
  bool ShouldFail(const std::string& site);

  void Disarm(const std::string& site);
  /// Disarms every site and zeroes all counters.
  void Reset();

  /// Total times `site` was queried / times it fired (0 if never armed).
  index_t Hits(const std::string& site) const;
  index_t Fired(const std::string& site) const;

  std::vector<std::string> ArmedSites() const;

  /// Parses a comma-separated spec, e.g.
  ///   "ilu0.factor,gmres.stagnate:2,bicgstab.nan:1:3,graph.io.read@0.5"
  /// Each entry is SITE[:skip[:count]] for deterministic arming or
  /// SITE@probability[@seed] for probabilistic arming. Used by bepi_cli
  /// --fault-inject and the BEPI_FAULT_INJECT environment variable.
  Status Configure(const std::string& spec);

 private:
  struct Site {
    index_t skip = 0;
    index_t count = -1;  // remaining deterministic firings; <0 = unbounded
    double probability = -1.0;  // >= 0 selects probabilistic mode
    Rng rng{0};
    index_t hits = 0;
    index_t fired = 0;
  };

  FaultInjector() = default;

  std::atomic<int> armed_count_{0};
  mutable std::mutex mu_;
  std::map<std::string, Site> sites_;
};

}  // namespace bepi

/// True when the named fault site is armed and fires at this hit.
#define BEPI_FAULT_INJECTED(site) \
  (::bepi::FaultInjector::Global().ShouldFail(site))

#endif  // BEPI_COMMON_FAULTINJECT_HPP_
