// The serve-path hot-seed score cache (server/cache.hpp) and the
// coalescing scheduler around it: hits replay the cold solve's bytes
// exactly, eviction demotes-then-drops under byte pressure, concurrent
// readers/writers are race-free (TSan), and batched/cached serve responses
// are bit-identical to scalar serving.
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.hpp"
#include "core/bepi.hpp"
#include "core/rwr.hpp"
#include "server/cache.hpp"
#include "server/server.hpp"
#include "test_util.hpp"

namespace bepi {
namespace {

Vector DeterministicScores(index_t n, std::uint64_t seed) {
  Rng rng(seed);
  Vector v(static_cast<std::size_t>(n));
  real_t sum = 0.0;
  for (auto& x : v) {
    x = rng.NextDouble();
    sum += x;
  }
  for (auto& x : v) x /= sum;  // looks like a probability vector
  return v;
}

// --- ScoreCache unit ---------------------------------------------------

TEST(ScoreCache, HitReplaysInsertedSolveExactly) {
  ScoreCache cache(std::uint64_t{1} << 20);
  const Vector scores = DeterministicScores(50, 42);
  cache.Insert(/*seed=*/3, scores, /*iterations=*/12, /*residual=*/1.25e-10);

  ScoreCacheHit hit;
  ASSERT_TRUE(cache.Lookup(3, /*topk=*/10, /*want_scores=*/true, &hit));
  EXPECT_EQ(hit.scores, scores);
  EXPECT_EQ(hit.iterations, 12);
  EXPECT_EQ(hit.residual, 1.25e-10);
  EXPECT_EQ(hit.topk, TopK(scores, 10, 3));

  // A topk longer than the stored prefix is recomputed from the full
  // vector — still exactly TopK's answer.
  ScoreCacheHit wide;
  ASSERT_TRUE(cache.Lookup(3, 60, false, &wide));
  EXPECT_EQ(wide.topk, TopK(scores, 60, 3));
  EXPECT_TRUE(wide.scores.empty());  // not requested

  // Another seed misses.
  ScoreCacheHit none;
  EXPECT_FALSE(cache.Lookup(4, 10, false, &none));
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.evictions(), 0u);
  EXPECT_GT(cache.bytes(), 0u);
}

TEST(ScoreCache, ZeroBudgetDisablesEverything) {
  ScoreCache cache(0);
  EXPECT_FALSE(cache.enabled());
  const Vector scores = DeterministicScores(20, 1);
  cache.Insert(2, scores, 3, 1e-9);
  ScoreCacheHit hit;
  EXPECT_FALSE(cache.Lookup(2, 5, false, &hit));
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 0u);
  EXPECT_EQ(cache.bytes(), 0u);
}

TEST(ScoreCache, DemotesThenDropsUnderBytePressure) {
  const index_t n = 1000;
  // Measure one full entry's footprint, then budget 2.5 of them: four
  // inserts must demote the two oldest to compact to fit.
  std::uint64_t full_bytes = 0;
  {
    ScoreCache probe(std::uint64_t{1} << 30);
    probe.Insert(0, DeterministicScores(n, 0), 1, 1e-9);
    full_bytes = probe.bytes();
  }
  const std::uint64_t budget = full_bytes * 5 / 2;
  ScoreCache cache(budget);
  std::vector<Vector> inserted;
  for (index_t seed = 1; seed <= 4; ++seed) {
    inserted.push_back(DeterministicScores(n, static_cast<std::uint64_t>(seed)));
    cache.Insert(seed, inserted.back(), seed, 1e-9);
  }
  EXPECT_LE(cache.bytes(), budget);
  EXPECT_EQ(cache.evictions(), 2u);

  // The two newest entries are still full; the two oldest were demoted
  // to compact top-K prefixes.
  ScoreCacheHit hit;
  ASSERT_TRUE(cache.Lookup(4, 10, /*want_scores=*/true, &hit));
  EXPECT_EQ(hit.scores, inserted[3]);
  ASSERT_TRUE(cache.Lookup(3, 10, true, &hit));
  EXPECT_EQ(hit.scores, inserted[2]);

  // Demoted entries refuse requests they can no longer answer exactly...
  EXPECT_FALSE(cache.Lookup(1, 10, /*want_scores=*/true, &hit));
  EXPECT_FALSE(cache.Lookup(1, ScoreCache::kCompactTopK + 1,
                            /*want_scores=*/false, &hit));
  // ...but still serve any topk <= K as the exact TopK prefix.
  ASSERT_TRUE(cache.Lookup(2, 25, /*want_scores=*/false, &hit));
  EXPECT_EQ(hit.topk, TopK(inserted[1], 25, 2));
  EXPECT_EQ(hit.iterations, 2);

  // A compact entry that falls to the LRU tail again is dropped outright:
  // shrink the working set with a tiny-budget cache.
  ScoreCache tiny(full_bytes + full_bytes / 2);  // fits one full + change
  for (index_t seed = 1; seed <= 3; ++seed) {
    tiny.Insert(seed, DeterministicScores(n, static_cast<std::uint64_t>(seed)),
                seed, 1e-9);
  }
  EXPECT_LE(tiny.bytes(), full_bytes + full_bytes / 2);
  EXPECT_GT(tiny.evictions(), 0u);
}

TEST(ScoreCache, ConcurrentReadersAndWritersAreRaceFree) {
  // Small budget keeps the LRU churning (demotions + drops) while four
  // readers hammer Lookup. The assertion is TSan/ASan cleanliness plus
  // self-consistency of whatever a hit returns.
  ScoreCache cache(std::uint64_t{48} << 10);
  const index_t n = 400;
  std::vector<Vector> truth;
  for (index_t s = 0; s < 8; ++s) {
    truth.push_back(DeterministicScores(n, 100 + static_cast<std::uint64_t>(s)));
  }
  std::thread writer([&] {
    for (int i = 0; i < 400; ++i) {
      const index_t seed = static_cast<index_t>(i % 8);
      cache.Insert(seed, truth[static_cast<std::size_t>(seed)],
                   /*iterations=*/seed + 1, 1e-9);
    }
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      ScoreCacheHit hit;
      for (int i = 0; i < 1500; ++i) {
        const index_t seed = static_cast<index_t>((i + t) % 8);
        const bool want_scores = (i % 3) == 0;
        if (cache.Lookup(seed, 10, want_scores, &hit)) {
          ASSERT_EQ(hit.iterations, seed + 1);
          ASSERT_EQ(hit.topk,
                    TopK(truth[static_cast<std::size_t>(seed)], 10, seed));
          if (want_scores) {
            ASSERT_EQ(hit.scores, truth[static_cast<std::size_t>(seed)]);
          }
        }
      }
    });
  }
  writer.join();
  for (auto& r : readers) r.join();
  EXPECT_EQ(cache.hits() + cache.misses(), 4u * 1500u);
}

// --- Serve-level fixture -----------------------------------------------

class CacheServeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    graph_ = new Graph(test::SmallRmat(200, 1200, 0.2, 1009));
    BepiOptions options;
    options.mode = BepiMode::kPreconditioned;
    solver_ = new BepiSolver(options);
    ASSERT_TRUE(solver_->Preprocess(*graph_).ok());
    // The coalescing assertions below assume a non-empty hub block (the
    // block path bails out to scalar solves when n2 == 0).
    ASSERT_GT(solver_->decomposition().n2, 0);
  }
  static void TearDownTestSuite() {
    delete solver_;
    delete graph_;
    solver_ = nullptr;
    graph_ = nullptr;
  }

  std::vector<std::string> Serve(const std::vector<std::string>& requests,
                                 ServeOptions options = {}) {
    std::string input;
    for (const std::string& r : requests) input += r + "\n";
    std::istringstream in(input);
    std::ostringstream out;
    QueryServer server(*solver_, options);
    EXPECT_TRUE(server.ServeStream(in, out).ok());
    std::vector<std::string> lines;
    std::istringstream split(out.str());
    std::string line;
    while (std::getline(split, line)) lines.push_back(line);
    return lines;
  }

  /// The raw text of `key`'s value in a one-line JSON response: balanced
  /// for arrays/objects, up to the next delimiter for scalars. Byte-exact
  /// comparisons on these slices are the bit-identity check — no parsing,
  /// no reformatting.
  static std::string JsonSlice(const std::string& line,
                               const std::string& key) {
    const std::string pat = "\"" + key + "\":";
    const std::size_t pos = line.find(pat);
    if (pos == std::string::npos) return "";
    std::size_t i = pos + pat.size();
    const std::size_t start = i;
    int depth = 0;
    bool in_str = false;
    for (; i < line.size(); ++i) {
      const char c = line[i];
      if (in_str) {
        if (c == '\\') {
          ++i;
        } else if (c == '"') {
          in_str = false;
        }
        continue;
      }
      if (c == '"') {
        in_str = true;
        continue;
      }
      if (c == '[' || c == '{') {
        ++depth;
      } else if (c == ']' || c == '}') {
        if (depth == 0) break;  // end of enclosing container: scalar done
        if (--depth == 0) {
          ++i;  // include the closing bracket of this value
          break;
        }
      } else if (c == ',' && depth == 0) {
        break;
      }
    }
    return line.substr(start, i - start);
  }

  /// Finds the (unique) response line carrying "id":<id>.
  static const std::string& ById(const std::vector<std::string>& lines,
                                 int id) {
    const std::string needle = "\"id\":" + std::to_string(id) + ",";
    for (const std::string& l : lines) {
      if (l.find(needle) != std::string::npos) return l;
    }
    static const std::string empty;
    ADD_FAILURE() << "no response with id " << id;
    return empty;
  }

  static Graph* graph_;
  static BepiSolver* solver_;
};

Graph* CacheServeTest::graph_ = nullptr;
BepiSolver* CacheServeTest::solver_ = nullptr;

// --- Coalesced Solve contract ----------------------------------------

TEST_F(CacheServeTest, QueryMultiMatchesScalarQueryBitwise) {
  const std::vector<index_t> seeds = {1, 5, 9, 13, 42};
  std::vector<QueryRequest> requests;
  for (index_t s : seeds) requests.push_back({s, nullptr, {}, {}});
  const auto solved = solver_->Solve(requests);
  ASSERT_TRUE(solved.ok());
  const std::vector<QueryResult>& results = *solved;
  ASSERT_EQ(results.size(), seeds.size());
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    ASSERT_TRUE(results[i].status.ok()) << "seed " << seeds[i];
    QueryStats scalar_stats;
    auto scalar = solver_->Query(seeds[i], &scalar_stats);
    ASSERT_TRUE(scalar.ok());
    // Bit-identical vectors, not approximately equal: the block path's
    // per-column arithmetic must match the scalar solve exactly.
    EXPECT_EQ(results[i].scores, *scalar) << "seed " << seeds[i];
    EXPECT_EQ(results[i].stats.total_iterations, scalar_stats.total_iterations);
    EXPECT_EQ(results[i].stats.residual, scalar_stats.residual);
    EXPECT_TRUE(results[i].coalesced) << "seed " << seeds[i];
  }
}

// --- Cache on the serve path ------------------------------------------

TEST_F(CacheServeTest, RepeatQueryHitsCacheWithIdenticalPayload) {
  // slots=1, batch_max=1 forces strictly sequential execution, so the
  // second request is a guaranteed cache hit rather than a coalesce.
  ServeOptions options;
  options.slots = 1;
  options.batch_max = 1;
  options.cache_mb = 8;
  // Run the stream by hand so the counters can be read from a snapshot
  // AFTER it drains (the stats verb itself answers immediately and can
  // overtake in-flight queries).
  std::istringstream in(
      "{\"op\":\"query\",\"id\":1,\"seed\":17,\"topk\":7,\"scores\":true}\n"
      "{\"op\":\"query\",\"id\":2,\"seed\":17,\"topk\":7,\"scores\":true}\n");
  std::ostringstream out;
  QueryServer server(*solver_, options);
  ASSERT_TRUE(server.ServeStream(in, out).ok());
  std::vector<std::string> lines;
  {
    std::istringstream split(out.str());
    std::string line;
    while (std::getline(split, line)) lines.push_back(line);
  }
  ASSERT_EQ(lines.size(), 2u);
  const std::string& cold = ById(lines, 1);
  const std::string& hot = ById(lines, 2);
  EXPECT_TRUE(test::IsValidJson(cold)) << cold;
  EXPECT_TRUE(test::IsValidJson(hot)) << hot;
  EXPECT_NE(cold.find("\"ok\":true"), std::string::npos);
  EXPECT_NE(hot.find("\"ok\":true"), std::string::npos);

  // The hit is visibly a hit...
  EXPECT_NE(hot.find("\"stage\":\"cache\""), std::string::npos) << hot;
  EXPECT_EQ(cold.find("\"stage\":\"cache\""), std::string::npos) << cold;
  EXPECT_NE(hot.find("\"outcome\":\"Converged\""), std::string::npos) << hot;

  // ...and its numeric payload is byte-for-byte the cold solve's.
  for (const char* key : {"topk", "scores", "iterations", "residual"}) {
    const std::string a = JsonSlice(cold, key);
    const std::string b = JsonSlice(hot, key);
    ASSERT_FALSE(a.empty()) << key;
    EXPECT_EQ(a, b) << key;
  }

  const ServerStatsSnapshot snap = server.Stats();
  EXPECT_EQ(snap.cache_hits, 1u);
  EXPECT_EQ(snap.cache_misses, 1u);
  EXPECT_GT(snap.cache_bytes, 0u);
}

TEST_F(CacheServeTest, CacheMissesWhenDisabled) {
  ServeOptions options;
  options.slots = 1;
  options.batch_max = 1;
  options.cache_mb = 0;
  std::istringstream in(
      "{\"op\":\"query\",\"id\":1,\"seed\":17}\n"
      "{\"op\":\"query\",\"id\":2,\"seed\":17}\n");
  std::ostringstream out;
  QueryServer server(*solver_, options);
  ASSERT_TRUE(server.ServeStream(in, out).ok());
  std::vector<std::string> lines;
  std::istringstream split(out.str());
  std::string line;
  while (std::getline(split, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(ById(lines, 2).find("\"stage\":\"cache\""), std::string::npos);
  const ServerStatsSnapshot snap = server.Stats();
  EXPECT_EQ(snap.cache_hits, 0u);
  EXPECT_EQ(snap.cache_misses, 0u);
  EXPECT_EQ(snap.cache_bytes, 0u);
}

// --- Coalesced batches on the serve path ------------------------------

TEST_F(CacheServeTest, CoalescedBatchMatchesScalarServeBitwise) {
  // Scalar reference: one seed per session line, coalescing off.
  ServeOptions scalar_opts;
  scalar_opts.slots = 1;
  scalar_opts.batch_max = 1;
  const std::vector<index_t> unique_seeds = {3, 9, 14};
  std::vector<std::string> scalar_reqs;
  for (std::size_t i = 0; i < unique_seeds.size(); ++i) {
    char buf[128];
    std::snprintf(buf, sizeof buf,
                  R"({"op":"query","id":%d,"seed":%d,"scores":true})",
                  static_cast<int>(i + 1), static_cast<int>(unique_seeds[i]));
    scalar_reqs.push_back(buf);
  }
  // An eps top-k request joins the batch with its own tolerance.
  const char* eps_request =
      R"({"op":"query","id":%d,"seed":9,"top_k":5,"mode":"eps","eps":1e-4})";
  char eps_buf[128];
  std::snprintf(eps_buf, sizeof eps_buf, eps_request,
                static_cast<int>(unique_seeds.size() + 1));
  scalar_reqs.push_back(eps_buf);
  auto scalar_lines = Serve(scalar_reqs, scalar_opts);
  ASSERT_EQ(scalar_lines.size(), scalar_reqs.size());

  // Batched run: five requests (two duplicate seeds among them) into one
  // slot with a generous coalescing window, so they form one batch.
  ServeOptions batch_opts;
  batch_opts.slots = 1;
  batch_opts.batch_max = 8;
  batch_opts.batch_window_ms = 500.0;
  const std::vector<index_t> batch_seeds = {3, 9, 3, 14, 9};
  std::vector<std::string> batch_reqs;
  for (std::size_t i = 0; i < batch_seeds.size(); ++i) {
    char buf[128];
    std::snprintf(buf, sizeof buf,
                  R"({"op":"query","id":%d,"seed":%d,"scores":true})",
                  static_cast<int>(i + 1), static_cast<int>(batch_seeds[i]));
    batch_reqs.push_back(buf);
  }
  std::snprintf(eps_buf, sizeof eps_buf, eps_request,
                static_cast<int>(batch_seeds.size() + 1));
  batch_reqs.push_back(eps_buf);
  auto batch_lines = Serve(batch_reqs, batch_opts);
  ASSERT_EQ(batch_lines.size(), batch_reqs.size());

  int coalesced_responses = 0;
  for (std::size_t i = 0; i < batch_seeds.size(); ++i) {
    const std::string& got = ById(batch_lines, static_cast<int>(i + 1));
    EXPECT_TRUE(test::IsValidJson(got)) << got;
    EXPECT_NE(got.find("\"ok\":true"), std::string::npos) << got;
    if (got.find("\"coalesced\":true") != std::string::npos) {
      ++coalesced_responses;
    }
    // Locate the scalar reference for this seed and compare payloads
    // byte-for-byte (duplicates included: within-batch dedupe must hand
    // every member the same converged answer).
    std::size_t ref = 0;
    while (unique_seeds[ref] != batch_seeds[i]) ++ref;
    const std::string& want =
        ById(scalar_lines, static_cast<int>(ref + 1));
    for (const char* key : {"topk", "scores", "iterations", "residual",
                            "outcome"}) {
      const std::string a = JsonSlice(want, key);
      const std::string b = JsonSlice(got, key);
      ASSERT_FALSE(a.empty()) << key;
      EXPECT_EQ(a, b) << "seed " << batch_seeds[i] << " key " << key;
    }
  }
  const std::string& eps_want =
      ById(scalar_lines, static_cast<int>(unique_seeds.size() + 1));
  const std::string& eps_got =
      ById(batch_lines, static_cast<int>(batch_seeds.size() + 1));
  EXPECT_NE(eps_got.find("\"ok\":true"), std::string::npos) << eps_got;
  for (const char* key : {"topk", "bound", "iterations", "residual"}) {
    const std::string a = JsonSlice(eps_want, key);
    ASSERT_FALSE(a.empty()) << key;
    EXPECT_EQ(a, JsonSlice(eps_got, key)) << "eps request, key " << key;
  }
  // The reader thread feeds an in-memory stream, so all six requests
  // land well inside the 500 ms window: at worst the first executes solo
  // and the remaining five coalesce.
  EXPECT_GE(coalesced_responses, 2) << "batching never engaged";
}

TEST_F(CacheServeTest, BatchMaxIsClampedToOneSolvePanel) {
  // A batch is one Solve panel on its slot's workspace, so batch_max above
  // BepiSolver::kPanelWidth is clamped: twenty queued queries inside one
  // window never form a batch of twenty.
  ServeOptions options;
  options.slots = 1;
  options.batch_max = 32;
  options.batch_window_ms = 500.0;
  std::vector<std::string> requests;
  for (int i = 0; i < 20; ++i) {
    char buf[96];
    std::snprintf(buf, sizeof buf,
                  R"({"op":"query","id":%d,"seed":%d,"top_k":3})", i + 1, i);
    requests.push_back(buf);
  }
  Histogram* widths =
      MetricsRegistry::Global().GetHistogram("server.batch_width");
  widths->Reset();
  const auto lines = Serve(requests, options);
  ASSERT_EQ(lines.size(), requests.size());
  for (const std::string& line : lines) {
    EXPECT_NE(line.find("\"ok\":true"), std::string::npos) << line;
  }
  const HistogramSnapshot snap = widths->Snapshot();
  EXPECT_LE(snap.max, static_cast<double>(BepiSolver::kPanelWidth));
  EXPECT_GT(snap.max, 1.0) << "batching never engaged";
}

// --- Top-k query mode on the serve path --------------------------------

TEST_F(CacheServeTest, TopKModeMatchesDenseRenderingBitwise) {
  // A top_k request's answer must render byte-for-byte the same "topk"
  // array a dense solve's TopK rendering produces for the same k.
  ServeOptions options;
  options.slots = 1;
  options.batch_max = 1;
  auto lines = Serve({R"({"op":"query","id":1,"seed":17,"topk":7})",
                      R"({"op":"query","id":2,"seed":17,"top_k":7})"},
                     options);
  ASSERT_EQ(lines.size(), 2u);
  const std::string& dense = ById(lines, 1);
  const std::string& topk = ById(lines, 2);
  EXPECT_TRUE(test::IsValidJson(topk)) << topk;
  EXPECT_NE(topk.find("\"ok\":true"), std::string::npos) << topk;
  EXPECT_NE(topk.find("\"mode\":\"exact\""), std::string::npos) << topk;
  EXPECT_EQ(dense.find("\"mode\""), std::string::npos) << dense;
  const std::string a = JsonSlice(dense, "topk");
  const std::string b = JsonSlice(topk, "topk");
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

TEST_F(CacheServeTest, EpsTopKCarriesModeAndBound) {
  ServeOptions options;
  options.slots = 1;
  options.batch_max = 1;
  auto lines = Serve(
      {R"({"op":"query","id":1,"seed":17,"top_k":5,"mode":"eps","eps":1e-4})"},
      options);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_TRUE(test::IsValidJson(lines[0])) << lines[0];
  EXPECT_NE(lines[0].find("\"ok\":true"), std::string::npos) << lines[0];
  EXPECT_NE(lines[0].find("\"mode\":\"eps\""), std::string::npos) << lines[0];
  const std::string bound = JsonSlice(lines[0], "bound");
  ASSERT_FALSE(bound.empty()) << lines[0];
  EXPECT_GT(std::stod(bound), 0.0);
}

TEST_F(CacheServeTest, ExactTopKServedFromCache) {
  // A dense solve populates the cache; a later exact top_k request for
  // the same seed is answered from it ("stage":"cache") with the same
  // pairs a cold top_k query returns.
  ServeOptions options;
  options.slots = 1;
  options.batch_max = 1;
  options.cache_mb = 8;
  std::istringstream in(
      "{\"op\":\"query\",\"id\":1,\"seed\":17}\n"
      "{\"op\":\"query\",\"id\":2,\"seed\":17,\"top_k\":7}\n");
  std::ostringstream out;
  QueryServer server(*solver_, options);
  ASSERT_TRUE(server.ServeStream(in, out).ok());
  std::vector<std::string> lines;
  {
    std::istringstream split(out.str());
    std::string line;
    while (std::getline(split, line)) lines.push_back(line);
  }
  ASSERT_EQ(lines.size(), 2u);
  const std::string& hot = ById(lines, 2);
  EXPECT_NE(hot.find("\"stage\":\"cache\""), std::string::npos) << hot;
  EXPECT_NE(hot.find("\"mode\":\"exact\""), std::string::npos) << hot;
  const ServerStatsSnapshot snap = server.Stats();
  EXPECT_EQ(snap.cache_hits, 1u);

  // Cold top_k reference (no cache): identical pairs, byte-for-byte.
  ServeOptions cold_opts;
  cold_opts.slots = 1;
  cold_opts.batch_max = 1;
  auto cold =
      Serve({R"({"op":"query","id":1,"seed":17,"top_k":7})"}, cold_opts);
  ASSERT_EQ(cold.size(), 1u);
  EXPECT_EQ(JsonSlice(cold[0], "topk"), JsonSlice(hot, "topk")) << cold[0];
}

// --- One response shape per kind ---------------------------------------

/// The top-level keys of a one-line JSON object, in wire order.
std::vector<std::string> TopLevelKeys(const std::string& line) {
  std::vector<std::string> keys;
  int depth = 0;
  bool in_str = false, expect_key = false;
  std::string current;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (in_str) {
      if (c == '\\') {
        current += line[++i];
      } else if (c == '"') {
        in_str = false;
        if (expect_key) keys.push_back(current);
        expect_key = false;
      } else {
        current += c;
      }
      continue;
    }
    if (c == '"') {
      in_str = true;
      current.clear();
      // A string directly after '{' or ',' at depth 1 is a key.
      std::size_t j = i;
      while (j > 0 && line[j - 1] == ' ') --j;
      expect_key = depth == 1 && j > 0 &&
                   (line[j - 1] == '{' || line[j - 1] == ',');
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']') {
      --depth;
    }
  }
  return keys;
}

using Keys = std::vector<std::string>;

TEST_F(CacheServeTest, ResponseKeyOrderIsPinnedPerKind) {
  // One renderer answers every kind of query; this pins each kind's field
  // list and order on the wire so none can drop or move silently.
  ServeOptions options;
  options.slots = 1;
  options.batch_max = 1;
  options.cache_mb = 8;
  const auto lines = Serve(
      {R"({"op":"query","id":1,"seed":17,"topk":3,"scores":true})",
       R"({"op":"query","id":2,"seed":17,"topk":3,"scores":true})",
       R"({"op":"query","id":3,"seed":17,"top_k":3})",
       R"({"op":"query","id":4,"seed":21,"top_k":3})",
       R"({"op":"query","id":5,"seed":21,"top_k":3,"mode":"eps","eps":1e-4})",
       R"({"op":"query","id":6,"seed":5,"deadline_ms":0.000001,)"
       R"("allow_partial":true})",
       R"({"op":"query","id":7,"seed":5,"deadline_ms":0.000001})"},
      options);
  ASSERT_EQ(lines.size(), 7u);
  const Keys head = {"id", "ok", "request_id", "seed", "partial", "outcome",
                     "stage", "iterations", "residual", "ms", "timing",
                     "topk"};
  auto with = [&head](std::initializer_list<const char*> tail) {
    Keys keys = head;
    keys.insert(keys.end(), tail.begin(), tail.end());
    return keys;
  };
  const std::string& cold_dense = ById(lines, 1);
  EXPECT_EQ(TopLevelKeys(cold_dense), with({"scores"})) << cold_dense;
  const std::string& hit_dense = ById(lines, 2);
  EXPECT_NE(hit_dense.find("\"stage\":\"cache\""), std::string::npos);
  EXPECT_EQ(TopLevelKeys(hit_dense), with({"scores"})) << hit_dense;
  const std::string& hit_topk = ById(lines, 3);
  EXPECT_NE(hit_topk.find("\"stage\":\"cache\""), std::string::npos);
  EXPECT_EQ(TopLevelKeys(hit_topk), with({"mode"})) << hit_topk;
  const std::string& cold_topk = ById(lines, 4);
  EXPECT_EQ(TopLevelKeys(cold_topk), with({"mode"})) << cold_topk;
  const std::string& eps_topk = ById(lines, 5);
  EXPECT_EQ(TopLevelKeys(eps_topk), with({"mode", "bound"})) << eps_topk;
  const std::string& partial = ById(lines, 6);
  EXPECT_NE(partial.find("\"partial\":true"), std::string::npos) << partial;
  EXPECT_EQ(TopLevelKeys(partial), head) << partial;
  const std::string& error = ById(lines, 7);
  EXPECT_EQ(TopLevelKeys(error),
            (Keys{"id", "ok", "error", "request_id", "message"}))
      << error;

  // A coalesced answer adds exactly one field, right after "partial".
  ServeOptions batch_opts;
  batch_opts.slots = 1;
  batch_opts.batch_window_ms = 500.0;
  const auto batch_lines =
      Serve({R"({"op":"query","id":1,"seed":3})",
             R"({"op":"query","id":2,"seed":9})",
             R"({"op":"query","id":3,"seed":14})"},
            batch_opts);
  ASSERT_EQ(batch_lines.size(), 3u);
  Keys coalesced = head;
  coalesced.insert(coalesced.begin() + 5, "coalesced");
  int seen = 0;
  for (const std::string& line : batch_lines) {
    if (line.find("\"coalesced\":true") == std::string::npos) continue;
    ++seen;
    EXPECT_EQ(TopLevelKeys(line), coalesced) << line;
  }
  EXPECT_GE(seen, 2) << "batching never engaged: " << batch_lines[0] << "\n"
                     << batch_lines[1] << "\n" << batch_lines[2];
}

TEST_F(CacheServeTest, EpsTopKBypassesCache) {
  // Eps answers depend on the request's eps; they are never served from
  // the cache (and never counted against it), and never inserted.
  ServeOptions options;
  options.slots = 1;
  options.batch_max = 1;
  options.cache_mb = 8;
  std::istringstream in(
      "{\"op\":\"query\",\"id\":1,\"seed\":17}\n"
      "{\"op\":\"query\",\"id\":2,\"seed\":17,\"top_k\":5,\"mode\":\"eps\","
      "\"eps\":1e-4}\n"
      "{\"op\":\"query\",\"id\":3,\"seed\":17,\"top_k\":5,\"mode\":\"eps\","
      "\"eps\":1e-4}\n");
  std::ostringstream out;
  QueryServer server(*solver_, options);
  ASSERT_TRUE(server.ServeStream(in, out).ok());
  std::vector<std::string> lines;
  {
    std::istringstream split(out.str());
    std::string line;
    while (std::getline(split, line)) lines.push_back(line);
  }
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(ById(lines, 2).find("\"stage\":\"cache\""), std::string::npos);
  EXPECT_EQ(ById(lines, 3).find("\"stage\":\"cache\""), std::string::npos);
  const ServerStatsSnapshot snap = server.Stats();
  EXPECT_EQ(snap.cache_hits, 0u);
  // Only the dense query's lookup counted: eps requests bypass entirely.
  EXPECT_EQ(snap.cache_misses, 1u);
}

}  // namespace
}  // namespace bepi
