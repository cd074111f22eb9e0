#include "server/cache.hpp"

#include <algorithm>

#include "common/metrics.hpp"
#include "core/rwr.hpp"

namespace bepi {

ScoreCache::ScoreCache(std::uint64_t max_bytes) : max_bytes_(max_bytes) {
  // Register up front so the exposition's key set is deterministic (the
  // docs glossary cross-check diffs it), not dependent on traffic.
  MetricsRegistry& registry = MetricsRegistry::Global();
  for (const char* name : {"server.cache.hits", "server.cache.misses",
                           "server.cache.evictions"}) {
    registry.GetCounter(name);
  }
  registry.GetGauge("server.cache.bytes");
}

std::uint64_t ScoreCache::EntryBytes(const Entry& e) {
  // Heap payloads plus a flat allowance for the list node, key and index
  // slot; close enough that --cache-mb means what it says.
  constexpr std::uint64_t kOverhead = 128;
  return kOverhead +
         static_cast<std::uint64_t>(e.scores.capacity()) * sizeof(real_t) +
         static_cast<std::uint64_t>(e.topk.capacity()) *
             sizeof(std::pair<index_t, real_t>);
}

void ScoreCache::PublishLocked() {
  BEPI_METRIC_GAUGE(bytes_gauge, "server.cache.bytes");
  bytes_gauge->Set(static_cast<double>(bytes_));
}

bool ScoreCache::Lookup(index_t seed, index_t topk, bool want_scores,
                        ScoreCacheHit* hit) {
  if (!enabled()) return false;
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(seed);
  const bool compact_ok =
      !want_scores && topk <= static_cast<index_t>(kCompactTopK);
  if (it == index_.end() ||
      (it->second->scores.empty() &&
       (!compact_ok ||
        // A compact entry may legitimately hold fewer than K pairs (tiny
        // graph); it still serves any topk its list covers. TopK also
        // never returns more than n-1 pairs, so a stored short list is
        // the *complete* ranking and serves every topk >= its length —
        // but telling that apart from a truncated one needs n, which the
        // cache does not track: be conservative and only serve prefixes.
        topk > static_cast<index_t>(it->second->topk.size())))) {
    ++misses_;
    BEPI_METRIC_COUNTER(miss_counter, "server.cache.misses");
    miss_counter->Increment();
    return false;
  }
  Entry& e = *it->second;
  lru_.splice(lru_.begin(), lru_, it->second);  // touch: move to MRU
  const index_t want = std::max<index_t>(topk, 0);
  if (want <= static_cast<index_t>(e.topk.size())) {
    hit->topk.assign(e.topk.begin(),
                     e.topk.begin() + static_cast<std::size_t>(want));
  } else {
    hit->topk = TopK(e.scores, want, seed);
  }
  hit->scores = want_scores ? e.scores : Vector();
  hit->iterations = e.iterations;
  hit->residual = e.residual;
  ++hits_;
  BEPI_METRIC_COUNTER(hit_counter, "server.cache.hits");
  hit_counter->Increment();
  return true;
}

void ScoreCache::Insert(index_t seed, const Vector& scores,
                        index_t iterations, real_t residual) {
  if (!enabled()) return;
  // TopK reserves ~n slots before its partial sort; shed the slack so a
  // compact entry really costs O(K), not O(n) (EntryBytes counts
  // capacity — what the allocator actually holds).
  std::vector<std::pair<index_t, real_t>> top = TopK(scores, kCompactTopK, seed);
  top.shrink_to_fit();
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(seed);
  if (it != index_.end()) {
    // Refresh (e.g. a demoted compact entry re-solved in full).
    bytes_ -= EntryBytes(*it->second);
    it->second->scores = scores;
    it->second->topk = std::move(top);
    it->second->iterations = iterations;
    it->second->residual = residual;
    bytes_ += EntryBytes(*it->second);
    lru_.splice(lru_.begin(), lru_, it->second);
  } else {
    lru_.push_front(Entry{seed, scores, std::move(top), iterations, residual});
    index_.emplace(seed, lru_.begin());
    bytes_ += EntryBytes(lru_.front());
  }
  ShrinkLocked();
  PublishLocked();
}

void ScoreCache::ShrinkLocked() {
  BEPI_METRIC_COUNTER(evict_counter, "server.cache.evictions");
  while (bytes_ > max_bytes_ && !lru_.empty()) {
    Entry& victim = lru_.back();
    ++evictions_;
    evict_counter->Increment();
    if (!victim.scores.empty()) {
      // Demote: drop the full vector, keep the top-K prefix, and give the
      // compact remnant a fresh trip through the LRU so hot seeds keep
      // their rankings while cold full vectors go first.
      bytes_ -= EntryBytes(victim);
      Vector().swap(victim.scores);
      bytes_ += EntryBytes(victim);
      lru_.splice(lru_.begin(), lru_, std::prev(lru_.end()));
    } else {
      bytes_ -= EntryBytes(victim);
      index_.erase(victim.seed);
      lru_.pop_back();
    }
  }
}

std::uint64_t ScoreCache::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}
std::uint64_t ScoreCache::misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}
std::uint64_t ScoreCache::evictions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return evictions_;
}
std::uint64_t ScoreCache::bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_;
}

}  // namespace bepi
