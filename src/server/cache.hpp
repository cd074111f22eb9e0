// Hot-seed score cache for the serve path: an LRU of fully-solved RWR
// score vectors keyed by seed under a byte budget.
//
// One server serves one model and owns one cache, so the seed is the
// whole key. An exact RWR query is a pure function of (model, seed), so a
// cached vector answers a repeat query byte-for-byte identically to
// re-solving it, including the %.17g-rendered topk/scores/residual fields
// of the serve response. Two entry grades share one LRU chain:
//
//   * full:    the complete score vector plus a precomputed top-K prefix.
//     Serves any request (arbitrary topk, want_scores).
//   * compact: the top-K prefix only (K = kCompactTopK). When the budget
//     forces a full entry out, it is demoted to compact and re-inserted
//     at the MRU end — a hot seed keeps answering topk<=K requests for a
//     ~1000x smaller footprint — and only a compact entry reached again
//     by the LRU scan is dropped outright.
//
// TopK (core/rwr.hpp) orders by (score desc, node asc) — a strict total
// order — so the stored top-K list serves any smaller topk as an exact
// prefix of what TopK would return on the full vector.
//
// Thread-safe: one mutex, reads copy out under it. Only *converged* full
// solves may be inserted (partial or degraded-stochastic results must
// not be replayed to later requests). Insert/Lookup maintain the
// server.cache.{hits,misses,evictions,bytes} metrics; a zero budget
// disables the cache entirely (no lookups counted, nothing stored).
#ifndef BEPI_SERVER_CACHE_HPP_
#define BEPI_SERVER_CACHE_HPP_

#include <cstdint>
#include <list>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "sparse/dense.hpp"

namespace bepi {

/// What a cache hit hands the response assembler: the request's exact
/// topk ranking, the full vector when the request wants raw scores, and
/// the original solve's iteration count and residual (replayed verbatim
/// so those response fields stay bit-identical to the cold solve).
struct ScoreCacheHit {
  std::vector<std::pair<index_t, real_t>> topk;
  Vector scores;  // filled only when want_scores was requested
  index_t iterations = 0;
  real_t residual = 0.0;
};

class ScoreCache {
 public:
  /// Compact entries keep this many (node, score) pairs.
  static constexpr index_t kCompactTopK = 100;

  /// `max_bytes` 0 disables the cache (every Lookup returns false
  /// uncounted, Insert is a no-op). Metrics are registered either way so
  /// the exposition's key set stays deterministic.
  explicit ScoreCache(std::uint64_t max_bytes);

  ScoreCache(const ScoreCache&) = delete;
  ScoreCache& operator=(const ScoreCache&) = delete;

  /// Answers `seed` if cached and the entry can serve the request: a full
  /// entry serves anything; a compact entry serves topk <= kCompactTopK
  /// without want_scores. Counts one hit or miss.
  bool Lookup(index_t seed, index_t topk, bool want_scores,
              ScoreCacheHit* hit);

  /// Caches a converged solve's full vector (the top-K prefix is computed
  /// here, excluding `seed` like the serve response does) and shrinks to
  /// the byte budget. Re-inserting an existing key refreshes it.
  void Insert(index_t seed, const Vector& scores, index_t iterations,
              real_t residual);

  std::uint64_t hits() const;
  std::uint64_t misses() const;
  std::uint64_t evictions() const;
  std::uint64_t bytes() const;
  std::uint64_t max_bytes() const { return max_bytes_; }
  bool enabled() const { return max_bytes_ > 0; }

 private:
  struct Entry {
    index_t seed;
    Vector scores;  // empty once demoted to compact
    std::vector<std::pair<index_t, real_t>> topk;
    index_t iterations = 0;
    real_t residual = 0.0;
  };

  static std::uint64_t EntryBytes(const Entry& e);
  void ShrinkLocked();   // mu_ held
  void PublishLocked();  // mu_ held: push bytes_ to the gauge

  const std::uint64_t max_bytes_;
  mutable std::mutex mu_;
  /// MRU at front. The map's values point at list nodes (stable under
  /// splice).
  std::list<Entry> lru_;
  std::unordered_map<index_t, std::list<Entry>::iterator> index_;
  std::uint64_t bytes_ = 0;
  std::uint64_t hits_ = 0, misses_ = 0, evictions_ = 0;
};

}  // namespace bepi

#endif  // BEPI_SERVER_CACHE_HPP_
