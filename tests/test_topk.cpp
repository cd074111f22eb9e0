// Exact top-k and the bounded-error (eps) query mode: bound containment,
// byte-for-byte parity with the sorted dense solve across kernel paths
// and thread counts, eps-bound honesty against the exact solution, and
// tie determinism at the k boundary.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/faultinject.hpp"
#include "common/parallel.hpp"
#include "core/bepi.hpp"
#include "core/iterative.hpp"
#include "core/topk.hpp"
#include "solver/dense_lu.hpp"
#include "sparse/kernel.hpp"
#include "test_util.hpp"

namespace bepi {
namespace {

/// %.17g rendering — the CLI's dump format, where "byte-identical" is
/// defined for the exact-mode parity contract.
std::string Fmt(real_t v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

class TopKTest : public ::testing::Test {
 protected:
  void TearDown() override {
    SetGlobalKernelPath(KernelPath::kAuto);
    ASSERT_TRUE(ParallelContext::Global().SetNumThreads(0).ok());
  }
};

TEST_F(TopKTest, BoundTablesContainTrueScores) {
  // ScoreErrorBound against the errors it bounds: perturb each seed's
  // exact hub scores r2 by dr2 and back-substitute. Every true score, hub,
  // spoke and deadend alike, must sit inside the bound that the perturbed
  // iterate's Schur residual gives. dr2 = +delta everywhere keeps
  // dr1 = -H11^{-1} H12 dr2 of one sign (H11^{-1} and -H12 are
  // nonnegative), the nearly tight case; random signs are the typical one.
  const Graph g = test::SmallRmat(250, 1400, 0.2, 21);
  const DecompositionOptions dopts;
  const real_t c = dopts.restart_prob;
  auto built = BuildDecomposition(g, dopts, nullptr);
  ASSERT_TRUE(built.ok());
  const HubSpokeDecomposition& dec = *built;
  auto s_lu = DenseLu::Factor(dec.schur.ToDense());
  ASSERT_TRUE(s_lu.ok());

  const real_t delta = 1e-3;
  Rng rng(21);
  for (index_t seed : {0, 7, 100, 249}) {
    const SlicedVector cq = dec.SliceRestart(seed, nullptr, c);
    const auto back_substitute = [&](const Vector& r2, Vector* r1,
                                     Vector* r3) {
      Vector rhs1 = cq.v1;
      dec.h12.MultiplyAdd(-1.0, r2, &rhs1);
      *r1 = dec.ApplyH11Inverse(rhs1);
      *r3 = cq.v3;
      dec.h31.MultiplyAdd(-1.0, *r1, r3);
      dec.h32.MultiplyAdd(-1.0, r2, r3);
    };
    Vector q2_tilde = cq.v2;
    dec.h21.MultiplyAdd(-1.0, dec.ApplyH11Inverse(cq.v1), &q2_tilde);
    const Vector r2 = s_lu->Solve(q2_tilde);
    Vector r1, r3;
    back_substitute(r2, &r1, &r3);
    for (bool same_sign : {true, false}) {
      SCOPED_TRACE("seed " + std::to_string(seed) +
                   (same_sign ? ", dr2 = +delta" : ", random signs"));
      Vector r2p = r2;
      for (real_t& v : r2p) {
        v += same_sign || rng.NextDouble() < 0.5 ? delta : -delta;
      }
      Vector r1p, r3p;
      back_substitute(r2p, &r1p, &r3p);
      Vector rho = q2_tilde;
      dec.schur.MultiplyAdd(-1.0, r2p, &rho);
      real_t rho_norm1 = 0.0;
      for (real_t v : rho) rho_norm1 += std::abs(v);
      const real_t bound = ScoreErrorBound(rho_norm1, c);

      // The derivation bounds the error's 1-norm (||H^{-1}||_1 ||rho||_1),
      // which covers every score's error at once.
      real_t err1 = 0.0, err3 = 0.0;
      real_t err_norm1 = delta * static_cast<real_t>(r2.size());
      for (std::size_t i = 0; i < r1.size(); ++i) {
        err1 = std::max(err1, std::abs(r1p[i] - r1[i]));
        err_norm1 += std::abs(r1p[i] - r1[i]);
      }
      for (std::size_t i = 0; i < r3.size(); ++i) {
        err3 = std::max(err3, std::abs(r3p[i] - r3[i]));
        err_norm1 += std::abs(r3p[i] - r3[i]);
      }
      EXPECT_GT(err1, 0.0);
      EXPECT_GT(err3, 0.0);
      EXPECT_LE(err_norm1, bound);
      EXPECT_LE(delta, bound);
      EXPECT_LE(err1, bound);
      EXPECT_LE(err3, bound);
    }
  }
}

TEST_F(TopKTest, ExactParityAcrossKernelPathsAndThreads) {
  const struct {
    Graph graph;
    std::vector<index_t> seeds;
    index_t k;
  } cases[] = {{test::SmallRmat(300, 1800, 0.15, 11), {5}, 25},
               {test::SmallRmat(250, 1400, 0.2, 21), {0, 7, 100, 249}, 10}};
  for (const auto& c : cases) {
    // Reference: dense solve on the default configuration, sorted.
    std::vector<std::vector<std::pair<index_t, real_t>>> expect;
    {
      SetGlobalKernelPath(KernelPath::kAuto);
      ASSERT_TRUE(ParallelContext::Global().SetNumThreads(0).ok());
      BepiSolver solver{BepiOptions{}};
      ASSERT_TRUE(solver.Preprocess(c.graph).ok());
      for (index_t seed : c.seeds) {
        const auto dense = solver.Query(seed);
        ASSERT_TRUE(dense.ok());
        expect.push_back(TopK(*dense, c.k));
      }
    }
    for (KernelPath path : {KernelPath::kCompact, KernelPath::kWide}) {
      SetGlobalKernelPath(path);
      BepiSolver solver{BepiOptions{}};
      ASSERT_TRUE(solver.Preprocess(c.graph).ok());
      for (int threads : {1, 4}) {
        ASSERT_TRUE(ParallelContext::Global().SetNumThreads(threads).ok());
        for (std::size_t s = 0; s < c.seeds.size(); ++s) {
          SCOPED_TRACE("seed " + std::to_string(c.seeds[s]) + ", path " +
                       KernelPathName(path) + ", threads " +
                       std::to_string(threads));
          TopKOptions opts;
          opts.k = c.k;
          const auto got = solver.QueryTopK(c.seeds[s], opts);
          ASSERT_TRUE(got.ok()) << got.status().ToString();
          ASSERT_EQ(got->entries.size(), expect[s].size());
          for (std::size_t i = 0; i < expect[s].size(); ++i) {
            EXPECT_EQ(got->entries[i].first, expect[s][i].first)
                << "rank " << i;
            EXPECT_EQ(Fmt(got->entries[i].second), Fmt(expect[s][i].second))
                << "rank " << i;
          }
        }
      }
    }
  }
}

TEST_F(TopKTest, InvalidKAndEpsAreRejectedByName) {
  const Graph g = test::SmallRmat(60, 250, 0.1, 3);
  BepiSolver solver{BepiOptions{}};
  ASSERT_TRUE(solver.Preprocess(g).ok());
  TopKOptions opts;
  opts.k = 0;
  auto r = solver.QueryTopK(1, opts);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("top_k"), std::string::npos);
  opts.k = 1000;  // > n
  r = solver.QueryTopK(1, opts);
  EXPECT_FALSE(r.ok());
  opts.k = 5;
  opts.mode = TopKMode::kEps;
  opts.eps = 0.0;
  r = solver.QueryTopK(1, opts);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("eps"), std::string::npos);
  opts.eps = -1.0;
  EXPECT_FALSE(solver.QueryTopK(1, opts).ok());
}

TEST_F(TopKTest, EpsBoundIsHonestAgainstExactSolution) {
  const Graph g = test::SmallRmat(250, 1200, 0.2, 13);
  BepiSolver solver{BepiOptions{}};
  ASSERT_TRUE(solver.Preprocess(g).ok());
  for (index_t seed : {2, 50, 120}) {
    const auto exact = solver.Query(seed);
    ASSERT_TRUE(exact.ok());
    TopKOptions opts;
    opts.k = 10;
    opts.mode = TopKMode::kEps;
    opts.eps = 1e-4;
    QueryStats stats;
    const auto got = solver.QueryTopK(seed, opts, &stats);
    ASSERT_TRUE(got.ok());
    ASSERT_GT(got->error_bound, 0.0);
    EXPECT_EQ(stats.error_bound, got->error_bound);
    // Every returned score is within the reported bound of the truth.
    // (The exact reference itself is converged far below eps.)
    for (const auto& [node, score] : got->entries) {
      EXPECT_LE(std::abs(score - (*exact)[static_cast<std::size_t>(node)]),
                got->error_bound)
          << "seed " << seed << " node " << node;
    }
  }
}

TEST_F(TopKTest, TieAtBoundaryIsDeterministicById) {
  // A graph with symmetric structure produces genuinely tied scores; the
  // contract is the TopK comparator's: score descending, id ascending.
  const Graph g = test::PaperExampleGraph();
  BepiSolver solver{BepiOptions{}};
  ASSERT_TRUE(solver.Preprocess(g).ok());
  const auto dense = solver.Query(0);
  ASSERT_TRUE(dense.ok());
  for (index_t k = 1; k <= 8; ++k) {
    const auto expect = TopK(*dense, k);
    TopKOptions opts;
    opts.k = k;
    const auto got = solver.QueryTopK(0, opts);
    ASSERT_TRUE(got.ok());
    ASSERT_EQ(got->entries.size(), expect.size()) << "k=" << k;
    for (std::size_t i = 0; i < expect.size(); ++i) {
      EXPECT_EQ(got->entries[i].first, expect[i].first) << "k=" << k;
      EXPECT_EQ(got->entries[i].second, expect[i].second) << "k=" << k;
    }
  }
}

TEST_F(TopKTest, ExcludeSeedMatchesDenseExclusion) {
  const Graph g = test::SmallRmat(200, 900, 0.15, 29);
  BepiSolver solver{BepiOptions{}};
  ASSERT_TRUE(solver.Preprocess(g).ok());
  const auto dense = solver.Query(9);
  ASSERT_TRUE(dense.ok());
  const auto expect = TopK(*dense, 12, /*exclude=*/9);
  TopKOptions opts;
  opts.k = 12;
  opts.exclude = 9;
  const auto got = solver.QueryTopK(9, opts);
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got->entries.size(), expect.size());
  for (std::size_t i = 0; i < expect.size(); ++i) {
    EXPECT_EQ(got->entries[i].first, expect[i].first);
    EXPECT_EQ(got->entries[i].second, expect[i].second);
    EXPECT_NE(got->entries[i].first, 9);
  }
}

TEST_F(TopKTest, QueryMultiMixesTopKAndDenseColumns) {
  const Graph g = test::SmallRmat(300, 1500, 0.2, 17);
  BepiSolver solver{BepiOptions{}};
  ASSERT_TRUE(solver.Preprocess(g).ok());
  std::vector<QueryRequest> items;
  // Dense, exact top-k, dense, eps top-k, exact top-k.
  items.push_back({3, nullptr, {}, {}});
  TopKOptions t1;
  t1.k = 8;
  items.push_back({41, nullptr, t1, {}});
  items.push_back({77, nullptr, {}, {}});
  TopKOptions t2;
  t2.k = 8;
  t2.mode = TopKMode::kEps;
  t2.eps = 1e-5;
  items.push_back({120, nullptr, t2, {}});
  TopKOptions t3;
  t3.k = 3;
  items.push_back({200, nullptr, t3, {}});
  const auto solved = solver.Solve(items);
  ASSERT_TRUE(solved.ok());
  const std::vector<QueryResult>& results = *solved;
  ASSERT_EQ(results.size(), items.size());
  for (std::size_t j = 0; j < items.size(); ++j) {
    ASSERT_TRUE(results[j].status.ok()) << "item " << j;
  }
  // Dense columns: bit-identical to scalar Query.
  for (std::size_t j : {std::size_t{0}, std::size_t{2}}) {
    const auto scalar = solver.Query(items[j].seed);
    ASSERT_TRUE(scalar.ok());
    EXPECT_EQ(results[j].scores, *scalar) << "item " << j;
  }
  // Exact top-k columns: identical to the solo top-k (and hence to the
  // sorted dense solve); dense scores stay empty.
  for (std::size_t j : {std::size_t{1}, std::size_t{4}}) {
    EXPECT_TRUE(results[j].scores.empty()) << "item " << j;
    const auto solo = solver.QueryTopK(items[j].seed, items[j].topk);
    ASSERT_TRUE(solo.ok());
    ASSERT_EQ(results[j].topk.entries.size(), solo->entries.size());
    for (std::size_t i = 0; i < solo->entries.size(); ++i) {
      EXPECT_EQ(results[j].topk.entries[i].first, solo->entries[i].first);
      EXPECT_EQ(results[j].topk.entries[i].second, solo->entries[i].second);
    }
  }
  // Eps column: bound reported, scores within it of the exact solve.
  EXPECT_GT(results[3].topk.error_bound, 0.0);
  const auto exact = solver.Query(items[3].seed);
  ASSERT_TRUE(exact.ok());
  for (const auto& [node, score] : results[3].topk.entries) {
    EXPECT_LE(std::abs(score - (*exact)[static_cast<std::size_t>(node)]),
              results[3].topk.error_bound);
  }
}

/// Stage names and outcomes of a query's degradation-chain report.
std::vector<std::string> StageList(const QueryStats& stats) {
  std::vector<std::string> stages;
  for (const SolveAttempt& a : stats.report.attempts) {
    stages.push_back(a.stage + ":" + SolveOutcomeName(a.outcome));
  }
  return stages;
}

TEST_F(TopKTest, SolveMatchesWidthOneCallsBitwise) {
  // Every request shape in one Solve: seeds and personalization vectors,
  // a duplicate seed, an out-of-range seed, an eps top-k and a dense eps
  // item, in one panel and cycled over several. Each
  // result must equal its width-1 call bit for bit — scores, top-k entries
  // and the report's stage list — at 1, 4 and 8 threads.
  const Graph g = test::SmallRmat(300, 1500, 0.2, 23);
  BepiSolver solver{BepiOptions{}};
  ASSERT_TRUE(solver.Preprocess(g).ok());
  const Vector q1 =
      PersonalizationVector(300, {{4, 1.0}, {150, 2.0}, {299, 1.0}}).value();
  const Vector q2 = PersonalizationVector(300, {{60, 1.0}}).value();
  TopKOptions exact;
  exact.k = 7;
  TopKOptions eps = exact;
  eps.mode = TopKMode::kEps;
  eps.eps = 1e-5;
  QueryControl dense_eps;
  dense_eps.eps = 1e-6;
  const std::vector<QueryRequest> requests = {
      {11, nullptr, {}, {}},       {0, &q1, {}, {}},
      {11, nullptr, {}, {}},       {90, nullptr, exact, {}},
      {300, nullptr, {}, {}},      {120, nullptr, eps, {}},
      {7, nullptr, {}, dense_eps}, {0, &q2, exact, {}},
      {200, nullptr, {}, {}}};

  // The same shapes cycled to 40: past 16 requests Solve answers balanced
  // panels as pool tasks, and each answer must still be its width-1 call's.
  std::vector<QueryRequest> wide;
  for (std::size_t i = 0; i < 40; ++i) {
    wide.push_back(requests[i % requests.size()]);
  }

  std::vector<Vector> scores_at_one_thread(requests.size());
  for (int threads : {1, 4, 8}) {
    ASSERT_TRUE(ParallelContext::Global().SetNumThreads(threads).ok());
    // The width-1 call of each request's shape.
    std::vector<QueryResult> wants(requests.size());
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const QueryRequest& r = requests[i];
      QueryResult& want = wants[i];
      if (r.personalization != nullptr && r.topk.k > 0) {
        want = solver.Solve({&r, 1}).value().front();
      } else if (r.personalization != nullptr) {
        Result<Vector> v = solver.QueryVector(*r.personalization, &want.stats);
        want.status = v.status();
        if (v.ok()) want.scores = *v;
      } else if (r.topk.k > 0) {
        Result<TopKResult> t =
            solver.QueryTopK(r.seed, r.topk, &want.stats, nullptr, r.control);
        want.status = t.status();
        if (t.ok()) want.topk = *t;
      } else {
        Result<Vector> v =
            solver.Query(r.seed, &want.stats, nullptr, r.control);
        want.status = v.status();
        if (v.ok()) want.scores = *v;
      }
    }
    for (const std::vector<QueryRequest>* span :
         {&requests, &std::as_const(wide)}) {
      const auto solved = solver.Solve(*span);
      ASSERT_TRUE(solved.ok());
      ASSERT_EQ(solved->size(), span->size());
      for (std::size_t i = 0; i < span->size(); ++i) {
        const std::size_t shape = i % requests.size();
        const QueryResult& got = (*solved)[i];
        const QueryResult& want = wants[shape];
        SCOPED_TRACE("request " + std::to_string(i) + " of " +
                     std::to_string(span->size()) + ", threads " +
                     std::to_string(threads));
        ASSERT_EQ(got.status.code(), want.status.code());
        if (!want.status.ok()) continue;
        EXPECT_EQ(got.scores, want.scores);
        EXPECT_EQ(got.topk.entries, want.topk.entries);
        EXPECT_EQ(got.topk.error_bound, want.topk.error_bound);
        EXPECT_EQ(StageList(got.stats), StageList(want.stats));
        EXPECT_EQ(got.stats.total_iterations, want.stats.total_iterations);
        EXPECT_EQ(got.stats.residual, want.stats.residual);
        EXPECT_EQ(got.stats.error_bound, want.stats.error_bound);
        if (threads == 1 && span == &requests) {
          scores_at_one_thread[shape] = got.scores;
        } else {
          EXPECT_EQ(got.scores, scores_at_one_thread[shape]);
        }
      }
      if (span != &requests) continue;
      // Every valid request coalesced, the eps ones with their own
      // tolerance.
      EXPECT_TRUE((*solved)[0].coalesced);
      EXPECT_TRUE((*solved)[2].coalesced);
      EXPECT_TRUE((*solved)[3].coalesced);
      EXPECT_TRUE((*solved)[1].coalesced);
      EXPECT_TRUE((*solved)[5].coalesced);
      EXPECT_TRUE((*solved)[6].coalesced);
      EXPECT_TRUE((*solved)[7].coalesced);
      EXPECT_EQ((*solved)[4].status.code(), StatusCode::kOutOfRange);
    }
  }

  // One gmres.stagnate hit lands on the first column that reaches the
  // fault site. That column moves on to power by itself and must equal
  // the same request solved alone under the same arming; the other
  // columns stay coalesced and equal their clean width-1 calls.
  const std::vector<QueryRequest> faulted = {{11, nullptr, {}, {}},
                                             {90, nullptr, exact, {}},
                                             {200, nullptr, {}, {}}};
  std::vector<QueryResult> clean;
  for (const QueryRequest& r : faulted) {
    clean.push_back(solver.Solve({&r, 1}).value().front());
  }
  FaultInjector::Global().Arm(fault_sites::kGmresStagnate, 0, 1);
  const auto solved = solver.Solve(faulted);
  FaultInjector::Global().Reset();
  FaultInjector::Global().Arm(fault_sites::kGmresStagnate, 0, 1);
  const QueryResult alone = solver.Solve({&faulted[0], 1}).value().front();
  FaultInjector::Global().Reset();
  ASSERT_TRUE(solved.ok());
  const std::vector<std::string> degraded = {"ilu0+gmres:Stagnated",
                                             "power:Converged"};
  const QueryResult& got = solved->front();
  ASSERT_TRUE(got.status.ok());
  EXPECT_EQ(StageList(got.stats), degraded);
  EXPECT_EQ(StageList(alone.stats), degraded);
  EXPECT_EQ(got.scores, alone.scores);
  EXPECT_EQ(got.stats.residual, alone.stats.residual);
  EXPECT_EQ(got.stats.total_iterations, alone.stats.total_iterations);
  EXPECT_FALSE(got.coalesced);
  for (std::size_t i = 1; i < faulted.size(); ++i) {
    SCOPED_TRACE("faulted batch request " + std::to_string(i));
    const QueryResult& other = (*solved)[i];
    ASSERT_TRUE(other.status.ok());
    EXPECT_TRUE(other.coalesced);
    EXPECT_EQ(StageList(other.stats), StageList(clean[i].stats));
    EXPECT_EQ(other.scores, clean[i].scores);
    EXPECT_EQ(other.topk.entries, clean[i].topk.entries);
  }
}

TEST_F(TopKTest, DenseFallbackStillAnswersWithBound) {
  // Degrade the Krylov stage of the Schur chain: the query falls to the
  // power stage, whose Schur iterate back-substitutes like a Krylov one,
  // so the top-k answer still carries the residual bound. The truth is a
  // power iteration on the raw graph, which shares nothing with S.
  const Graph g = test::SmallRmat(250, 1200, 0.2, 13);
  BepiSolver solver{BepiOptions{}};
  ASSERT_TRUE(solver.Preprocess(g).ok());
  ASSERT_GT(solver.info().n2, 0) << "graph must decompose with hubs";
  RwrOptions truth_options;
  truth_options.tolerance = 1e-12;
  truth_options.max_iterations = 100000;
  PowerSolver truth_solver(truth_options);
  ASSERT_TRUE(truth_solver.Preprocess(g).ok());
  // Pick a seed whose Schur solve actually iterates: a deadend (or a
  // spoke block disconnected from the hubs) has q2~ = 0 and exits before
  // any fault site, which would leave nothing to degrade.
  index_t seed = -1;
  for (index_t s = 0; s < 250; ++s) {
    QueryStats probe;
    ASSERT_TRUE(solver.Query(s, &probe).ok());
    if (probe.iterations > 0) {
      seed = s;
      break;
    }
  }
  ASSERT_GE(seed, 0);
  const auto truth = truth_solver.Query(seed);
  ASSERT_TRUE(truth.ok());
  const auto true_error = [&](index_t node, real_t score) {
    return std::abs(score - (*truth)[static_cast<std::size_t>(node)]);
  };

  FaultInjector::Global().Arm(fault_sites::kGmresStagnate);
  TopKOptions opts;
  opts.k = 6;
  opts.mode = TopKMode::kEps;
  opts.eps = 1e-3;
  QueryStats stats;
  const auto got = solver.QueryTopK(seed, opts, &stats);
  // eps 1e-8 over every score: a bound that holds must also be small.
  TopKOptions tight = opts;
  tight.k = g.num_nodes();
  tight.eps = 1e-8;
  QueryStats tight_stats;
  const auto tight_got = solver.QueryTopK(seed, tight, &tight_stats);
  // The dense form of an eps request, answered through Solve at 1 and 4
  // threads.
  QueryControl dense_eps;
  dense_eps.eps = 1e-8;
  const QueryRequest dense{seed, nullptr, {}, dense_eps};
  std::vector<QueryResult> dense_at;
  for (int threads : {1, 4}) {
    ASSERT_TRUE(ParallelContext::Global().SetNumThreads(threads).ok());
    auto solved = solver.Solve({&dense, 1});
    ASSERT_TRUE(solved.ok());
    dense_at.push_back(std::move(solved->front()));
  }
  FaultInjector::Global().Reset();

  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(stats.report.attempts.back().stage, "power");
  EXPECT_EQ(got->entries.size(), 6u);
  EXPECT_GT(got->error_bound, 0.0);
  for (const auto& [node, score] : got->entries) {
    EXPECT_LE(true_error(node, score), got->error_bound) << "node " << node;
  }

  ASSERT_TRUE(tight_got.ok()) << tight_got.status().ToString();
  EXPECT_EQ(tight_stats.report.attempts.back().stage, "power");
  ASSERT_EQ(static_cast<index_t>(tight_got->entries.size()), g.num_nodes());
  EXPECT_LE(tight_got->error_bound, 1e-5);
  for (const auto& [node, score] : tight_got->entries) {
    EXPECT_LE(true_error(node, score), tight_got->error_bound)
        << "node " << node;
  }

  for (const QueryResult& r : dense_at) {
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    EXPECT_EQ(r.stats.report.attempts.back().stage, "power");
  }
  EXPECT_EQ(dense_at[0].scores, dense_at[1].scores);
  EXPECT_EQ(dense_at[0].stats.error_bound, dense_at[1].stats.error_bound);
  EXPECT_LE(dense_at[0].stats.error_bound, 1e-5);
  for (index_t node = 0; node < g.num_nodes(); ++node) {
    EXPECT_LE(true_error(node,
                         dense_at[0].scores[static_cast<std::size_t>(node)]),
              dense_at[0].stats.error_bound)
        << "node " << node;
  }
}

}  // namespace
}  // namespace bepi
