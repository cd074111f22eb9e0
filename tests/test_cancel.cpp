// Cooperative cancellation: CancelToken semantics, solver checkpoints,
// the partial-result contract, and — run under TSan in CI — concurrent
// Cancel() against in-flight solves with workspace reuse afterwards.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <optional>
#include <thread>
#include <vector>

#include "common/cancel.hpp"
#include "common/shutdown.hpp"
#include "core/bepi.hpp"
#include "solver/gmres.hpp"
#include "test_util.hpp"

namespace bepi {
namespace {

using namespace std::chrono_literals;

TEST(CancelToken, StartsUnexpired) {
  CancelToken token;
  EXPECT_FALSE(token.Expired());
  EXPECT_FALSE(token.has_deadline());
}

TEST(CancelToken, ExplicitCancelExpires) {
  CancelToken token;
  token.Cancel();
  EXPECT_TRUE(token.Expired());
  const Status status = token.ToStatus("work");
  EXPECT_EQ(status.code(), StatusCode::kCancelled);
  EXPECT_NE(status.message().find("work"), std::string::npos);
}

TEST(CancelToken, DeadlineExpires) {
  CancelToken token;
  token.SetDeadlineAfter(-1ns);  // already past
  EXPECT_TRUE(token.Expired());
  EXPECT_EQ(token.ToStatus("work").code(), StatusCode::kDeadlineExceeded);

  CancelToken future;
  future.SetDeadlineAfter(1h);
  EXPECT_FALSE(future.Expired());
}

TEST(CancelToken, LinkedFlagExpiresAndMapsToCancelled) {
  std::atomic<bool> flag{false};
  CancelToken token;
  token.LinkFlag(&flag);
  EXPECT_FALSE(token.Expired());
  flag.store(true);
  EXPECT_TRUE(token.Expired());
  EXPECT_EQ(token.ToStatus("work").code(), StatusCode::kCancelled);
}

TEST(CancelToken, ExplicitCancelWinsOverDeadlineInToStatus) {
  CancelToken token;
  token.SetDeadlineAfter(-1ns);
  token.Cancel();
  // Both sources fired; the explicit cancel decides the code.
  EXPECT_EQ(token.ToStatus("work").code(), StatusCode::kCancelled);
}

TEST(CancelToken, ResetRearms) {
  CancelToken token;
  token.Cancel();
  token.SetDeadlineAfter(-1ns);
  token.Reset();
  EXPECT_FALSE(token.Expired());
  EXPECT_FALSE(token.has_deadline());
}

class CancelSolve : public ::testing::Test {
 protected:
  void SetUp() override {
    g_ = test::SmallRmat(300, 1800, 0.25, 977);
    BepiOptions options;
    options.mode = BepiMode::kPreconditioned;
    solver_.emplace(options);
    ASSERT_TRUE(solver_->Preprocess(g_).ok());
  }

  /// `count` requests for seeds 0, 1, ... cycling over the 300 nodes,
  /// each carrying `token` (may be null). Past 16 requests a Solve runs
  /// them as panels.
  static std::vector<QueryRequest> Span(std::size_t count,
                                        const CancelToken* token) {
    std::vector<QueryRequest> requests(count);
    for (std::size_t i = 0; i < count; ++i) {
      requests[i].seed = static_cast<index_t>(i % 300);
      requests[i].control.cancel = token;
    }
    return requests;
  }

  Graph g_;
  std::optional<BepiSolver> solver_;
};

TEST_F(CancelSolve, PreCancelledTokenFailsQueryWithCancelled) {
  CancelToken token;
  token.Cancel();
  QueryControl control;
  control.cancel = &token;
  QueryStats stats;
  GmresWorkspace workspace;
  auto r = solver_->Query(5, &stats, &workspace, control);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(stats.outcome, SolveOutcome::kCancelled);

  // The workspace survives an aborted solve: the very next query through
  // it matches an uncontrolled solve bit for bit.
  auto clean = solver_->Query(5);
  ASSERT_TRUE(clean.ok());
  auto reused = solver_->Query(5, &stats, &workspace, QueryControl());
  ASSERT_TRUE(reused.ok());
  ASSERT_EQ(clean->size(), reused->size());
  for (std::size_t i = 0; i < clean->size(); ++i) {
    EXPECT_EQ((*clean)[i], (*reused)[i]) << "component " << i;
  }
}

TEST_F(CancelSolve, ExpiredDeadlineFailsQueryWithDeadlineExceeded) {
  CancelToken token;
  token.SetDeadlineAfter(-1ns);
  QueryControl control;
  control.cancel = &token;
  QueryStats stats;
  auto r = solver_->Query(5, &stats, nullptr, control);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
}

TEST_F(CancelSolve, AllowPartialReturnsBestIterateWithErrorBound) {
  CancelToken token;
  token.Cancel();
  QueryControl control;
  control.cancel = &token;
  control.allow_partial = true;
  QueryStats stats;
  auto r = solver_->Query(5, &stats, nullptr, control);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(stats.outcome, SolveOutcome::kCancelled);
  EXPECT_EQ(r->size(), static_cast<std::size_t>(solver_->decomposition().n));
  // The reported residual is the explicit error bound of the interrupted
  // inner solve; an immediately-cancelled solve cannot have converged.
  EXPECT_GT(stats.residual, 0.0);
}

TEST_F(CancelSolve, NeverExpiringTokenLeavesSolveBitIdentical) {
  CancelToken token;
  token.SetDeadlineAfter(1h);
  QueryControl control;
  control.cancel = &token;
  QueryStats stats;
  auto controlled = solver_->Query(7, &stats, nullptr, control);
  auto plain = solver_->Query(7);
  ASSERT_TRUE(controlled.ok());
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(stats.outcome, SolveOutcome::kConverged);
  ASSERT_EQ(controlled->size(), plain->size());
  for (std::size_t i = 0; i < plain->size(); ++i) {
    EXPECT_EQ((*controlled)[i], (*plain)[i]) << "component " << i;
  }
}

TEST_F(CancelSolve, BatchFailsAllOrNothingOnExpiredToken) {
  CancelToken token;
  token.Cancel();
  auto solved = solver_->Solve(Span(40, &token));
  ASSERT_TRUE(solved.ok()) << solved.status().ToString();
  for (const QueryResult& result : *solved) {
    EXPECT_EQ(result.status.code(), StatusCode::kCancelled);
    EXPECT_EQ(result.stats.outcome, SolveOutcome::kCancelled);
  }
}

TEST_F(CancelSolve, ExpiredTokenCancelsZeroRhsSeedAtAnySpanWidth) {
  // A deadend seed's Schur right-hand side is zero, so its solve finishes
  // without ever polling the token. An expired token must still answer it
  // Cancelled, alone as inside a span wider than one panel: the answer
  // may not depend on the span width.
  const HubSpokeDecomposition& dec = solver_->decomposition();
  index_t deadend = -1;
  for (index_t v = 0; v < dec.n && deadend < 0; ++v) {
    if (dec.perm[static_cast<std::size_t>(v)] >= dec.n1 + dec.n2) deadend = v;
  }
  ASSERT_GE(deadend, 0) << "graph must have a deadend";
  QueryStats clean;
  ASSERT_TRUE(solver_->Query(deadend, &clean).ok());
  ASSERT_EQ(clean.total_iterations, 0);

  CancelToken token;
  token.Cancel();
  QueryControl control;
  control.cancel = &token;
  QueryStats stats;
  auto r = solver_->Query(deadend, &stats, nullptr, control);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(stats.outcome, SolveOutcome::kCancelled);

  std::vector<QueryRequest> requests = Span(40, &token);
  for (QueryRequest& request : requests) request.seed = deadend;
  auto solved = solver_->Solve(requests);
  ASSERT_TRUE(solved.ok()) << solved.status().ToString();
  for (const QueryResult& result : *solved) {
    EXPECT_EQ(result.status.code(), StatusCode::kCancelled);
    EXPECT_EQ(result.stats.outcome, SolveOutcome::kCancelled);
  }
}

// --- deadline x linked-flag interaction across a wide Solve span -------
//
// A serving batch typically carries a token wearing BOTH a per-request
// deadline and the process shutdown flag. The two must stay
// distinguishable (DeadlineExceeded vs Cancelled) and either source
// firing mid-span must stop the remaining panels, not just fail the
// requests after running every solve to completion.

TEST_F(CancelSolve, BatchDeadlineWithLinkedFlagArmedMapsToDeadlineExceeded) {
  std::atomic<bool> shutdown{false};  // armed but never fired
  CancelToken token;
  token.LinkFlag(&shutdown);
  token.SetDeadlineAfter(-1ns);
  auto solved = solver_->Solve(Span(40, &token));
  ASSERT_TRUE(solved.ok()) << solved.status().ToString();
  // The deadline is the sole cause; the linked flag must not masquerade
  // the failure as an operator cancellation.
  for (const QueryResult& result : *solved) {
    EXPECT_EQ(result.status.code(), StatusCode::kDeadlineExceeded);
  }
}

TEST_F(CancelSolve, BatchLinkedFlagFiringMidBatchMapsToCancelled) {
  std::atomic<bool> shutdown{false};
  CancelToken token;
  token.LinkFlag(&shutdown);
  token.SetDeadlineAfter(1h);  // armed, far away: must not decide the code
  std::thread signaller([&shutdown] {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    shutdown.store(true);
  });
  auto solved = solver_->Solve(Span(600, &token));
  signaller.join();
  ASSERT_TRUE(solved.ok()) << solved.status().ToString();
  for (const QueryResult& result : *solved) {
    if (!result.status.ok()) {
      EXPECT_EQ(result.status.code(), StatusCode::kCancelled);
    }
  }
  // Whatever the race outcome, the solver answers a span with a fresh
  // token.
  CancelToken fresh;
  auto clean = solver_->Solve(Span(40, &fresh));
  ASSERT_TRUE(clean.ok());
  for (const QueryResult& result : *clean) {
    EXPECT_TRUE(result.status.ok()) << result.status.ToString();
  }
}

TEST_F(CancelSolve, BatchDeadlineFiringMidBatchCancelsRemainingSlots) {
  const auto t0 = std::chrono::steady_clock::now();
  ASSERT_TRUE(solver_->Solve(Span(3000, nullptr)).ok());
  const auto full = std::chrono::steady_clock::now() - t0;

  std::atomic<bool> shutdown{false};
  CancelToken token;
  token.LinkFlag(&shutdown);
  token.SetDeadlineAfter(full / 20);
  const auto t1 = std::chrono::steady_clock::now();
  auto solved = solver_->Solve(Span(3000, &token));
  const auto controlled = std::chrono::steady_clock::now() - t1;
  ASSERT_TRUE(solved.ok()) << solved.status().ToString();
  int expired = 0;
  for (const QueryResult& result : *solved) {
    if (result.status.ok()) continue;
    EXPECT_EQ(result.status.code(), StatusCode::kDeadlineExceeded);
    ++expired;
  }
  EXPECT_GT(expired, 0);
  // The deadline fired ~5% in; if the remaining panels had run to
  // completion anyway, the controlled span would cost about as much as
  // the full one. Generous margin for scheduler noise and TSan.
  EXPECT_LT(controlled, full * 3 / 4)
      << "span kept solving after its deadline fired";
}

TEST_F(CancelSolve, PreprocessObservesCancelledToken) {
  CancelToken token;
  token.Cancel();
  BepiOptions options;
  options.mode = BepiMode::kPreconditioned;
  options.cancel = &token;
  BepiSolver fresh(options);
  const Status status = fresh.Preprocess(g_);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kCancelled);
}

// The TSan target: one thread fires Cancel() while queries run. Whatever
// the interleaving, every query either completes converged or reports
// Cancelled — and the workspace stays reusable afterwards.
TEST_F(CancelSolve, ConcurrentCancelMidSolveIsClean) {
  for (int round = 0; round < 8; ++round) {
    CancelToken token;
    GmresWorkspace workspace;
    QueryControl control;
    control.cancel = &token;
    std::thread canceller([&token] {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
      token.Cancel();
    });
    bool saw_cancel = false;
    for (index_t seed = 0; seed < 6; ++seed) {
      QueryStats stats;
      auto r = solver_->Query(seed, &stats, &workspace, control);
      if (!r.ok()) {
        EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
        saw_cancel = true;
      } else {
        EXPECT_EQ(stats.outcome, SolveOutcome::kConverged);
      }
    }
    canceller.join();
    EXPECT_TRUE(saw_cancel || token.Expired());

    // Post-race bit-identity through the same workspace.
    auto clean = solver_->Query(3);
    auto reused = solver_->Query(3, nullptr, &workspace, QueryControl());
    ASSERT_TRUE(clean.ok());
    ASSERT_TRUE(reused.ok());
    for (std::size_t i = 0; i < clean->size(); ++i) {
      ASSERT_EQ((*clean)[i], (*reused)[i]);
    }
  }
}

TEST(Shutdown, RequestShutdownSetsFlagAndStatus) {
  ResetShutdownForTest();
  EXPECT_FALSE(ShutdownRequested());
  RequestShutdown(15);
  EXPECT_TRUE(ShutdownRequested());
  EXPECT_EQ(ShutdownSignal(), 15);
  // A linked token observes it.
  CancelToken token;
  token.LinkFlag(ShutdownFlag());
  EXPECT_TRUE(token.Expired());
  EXPECT_EQ(token.ToStatus("work").code(), StatusCode::kCancelled);
  ResetShutdownForTest();
  EXPECT_FALSE(ShutdownRequested());
}

}  // namespace
}  // namespace bepi
