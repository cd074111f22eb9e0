// BePI: the paper's main contribution. A block-elimination preprocessing
// method whose only remaining linear system — over the Schur complement of
// the block-diagonal spoke block H11 — is solved per query by (optionally
// ILU(0)-preconditioned) GMRES instead of being inverted.
//
// Three variants (paper Section 3.1):
//   kBasic          BePI-B: block elimination + iterative Schur solve,
//                   hub ratio chosen small (0.001) to minimize n2.
//   kSparsified     BePI-S: hub ratio ~0.2 minimizing |S| (Section 3.4).
//   kPreconditioned BePI:   adds the ILU(0) preconditioner (Section 3.5).
#ifndef BEPI_CORE_BEPI_HPP_
#define BEPI_CORE_BEPI_HPP_

#include <iosfwd>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "common/cancel.hpp"
#include "core/decomposition.hpp"
#include "core/resilient.hpp"
#include "core/rwr.hpp"
#include "core/topk.hpp"
#include "solver/ilu0.hpp"

namespace bepi {

class AlignedBytes;
struct GmresWorkspace;
class McWalkEngine;

enum class BepiMode { kBasic, kSparsified, kPreconditioned };

const char* BepiModeName(BepiMode mode);

struct BepiOptions : RwrOptions {
  BepiMode mode = BepiMode::kPreconditioned;
  /// SlashBurn hub selection ratio k; 0 selects the paper's default for
  /// the mode (0.001 for kBasic, 0.2 otherwise).
  real_t hub_ratio = 0.0;
  /// GMRES restart length for the Schur-complement solve.
  index_t gmres_restart = 100;
  BepiInnerSolver inner_solver = BepiInnerSolver::kGmres;
  /// Hub selection strategy (kRandom is the ablation control).
  SlashBurnOptions::HubSelection hub_selection =
      SlashBurnOptions::HubSelection::kDegree;
  /// Cooperative cancellation for *preprocessing* (the CLI links the
  /// SIGINT/SIGTERM shutdown flag here). Checked at stage boundaries; with
  /// checkpointing enabled the current stage is committed before the
  /// Cancelled/DeadlineExceeded Status is returned. Not owned; may be
  /// null. Query-side cancellation goes through QueryControl instead.
  const CancelToken* cancel = nullptr;
};

/// Per-query runtime controls (deadline/cancellation), as opposed to the
/// numeric configuration in BepiOptions. A default-constructed control is
/// inert, and a null/never-expiring token leaves the solve bit-identical
/// to an uncontrolled one — the token is only *polled*, before the solve
/// and at restart-cycle and power-iteration boundaries, never consulted
/// by the numerics.
struct QueryControl {
  /// Cooperative cancellation/deadline. May be null. Not owned; must
  /// outlive the query.
  const CancelToken* cancel = nullptr;
  /// What to do when `cancel` expires mid-solve. False: the query returns
  /// the token's Status (kDeadlineExceeded or kCancelled) and no vector.
  /// True: back-substitution completes from the best Schur iterate and
  /// the query returns that partial vector with stats->outcome ==
  /// kCancelled and stats->residual as the explicit error bound of the
  /// interrupted inner solve.
  bool allow_partial = false;
  /// Trace context from the serve path: attached to the query's trace
  /// spans and flight-recorder stage-hop events so one request can be
  /// followed across the whole degradation chain. Not owned; must outlive
  /// the query. May be null (non-serve callers).
  const char* request_id = nullptr;
  /// Bounded-error approximate mode: when > 0 the Schur solve stops at
  /// this relative residual tolerance instead of the model's, and a clean
  /// solve computes its true residual and reports the sup-norm per-score
  /// bound in QueryStats::error_bound (core/topk.hpp ScoreErrorBound — the
  /// bound crosscheck verifies against the MC oracle). 0 leaves the solve
  /// bit-identical to the default path.
  real_t eps = 0.0;
};

/// One query of BepiSolver::Solve: a restart distribution, an output shape
/// and the per-request controls.
struct QueryRequest {
  /// The restart: a single seed, or — when `personalization` is non-null —
  /// an arbitrary start distribution q over all n nodes (original ids; the
  /// seed is then ignored). Not owned; must outlive the call.
  index_t seed = 0;
  const Vector* personalization = nullptr;
  /// Output shape (core/topk.hpp): topk.k == 0 answers with the dense
  /// score vector; topk.k >= 1 makes the result's `topk` field the
  /// deliverable (exact, or eps with an explicit per-score bound) and
  /// leaves `scores` empty.
  TopKOptions topk;
  QueryControl control;
};

/// Per-request verdict of BepiSolver::Solve. `scores`/`topk` are
/// meaningful only when `status` is ok; `stats` for every valid request (a
/// failed or cancelled one still reports its chain).
/// `coalesced` marks a request whose answering GMRES stage solved two or
/// more columns together.
struct QueryResult {
  Status status = Status::Ok();
  Vector scores;
  TopKResult topk;
  QueryStats stats;
  bool coalesced = false;
};

/// Structural metadata produced by preprocessing; consumed by the
/// benchmark harnesses (Tables 2-4, Figures 4, 6, 8).
struct BepiPreprocessInfo {
  index_t n1 = 0, n2 = 0, n3 = 0;
  index_t num_blocks = 0;
  index_t slashburn_iterations = 0;
  index_t schur_nnz = 0;
  index_t h22_nnz = 0;
  index_t product_nnz = 0;  // |H21 H11^-1 H12|
  double reorder_seconds = 0.0;
  double build_seconds = 0.0;
  double factor_seconds = 0.0;
  double schur_seconds = 0.0;
  double ilu_seconds = 0.0;
  /// True when ILU(0) factorization of S broke down and preprocessing
  /// continued without the preconditioner.
  bool ilu_skipped = false;
  // Checkpointing overhead (zero when preprocessing ran without a
  // CheckpointManager): payload encoding, framing, write and fsync. Lets
  // bench_fig1_preprocessing report the cost of kill-safety against the
  // paper's preprocessing-time figures.
  double checkpoint_seconds = 0.0;
  index_t checkpoints_written = 0;
  index_t checkpoints_resumed = 0;
};

class BepiSolver final : public RwrSolver {
 public:
  /// The most requests Solve answers as one panel on the caller's
  /// workspace: one SpMM column group (sparse/kernel.cpp). A serve batch
  /// (server/server.hpp) is never wider.
  static constexpr std::size_t kPanelWidth = 16;

  explicit BepiSolver(BepiOptions options);

  std::string name() const override;
  Status Preprocess(const Graph& g) override;
  /// Kill-safe variant: with a non-null manager, preprocessing stages are
  /// checkpointed (and resumed) under a fingerprint derived from the graph
  /// and the options, so a SIGKILLed run restarted with the same arguments
  /// completes from the last durable stage and produces a bit-identical
  /// model. See core/checkpoint.hpp.
  Status Preprocess(const Graph& g, CheckpointManager* checkpoints);
  Result<Vector> Query(index_t seed, QueryStats* stats = nullptr) const override;
  Result<Vector> QueryVector(const Vector& q,
                             QueryStats* stats = nullptr) const override;
  /// The serving-path variant: `workspace` (may be null) holds the GMRES
  /// scratch buffers across solves so no per-query heap allocation happens
  /// beyond the returned vector (one workspace per concurrent caller, see
  /// solver/gmres.hpp), and `control` carries the deadline/cancellation
  /// (see QueryControl). The workspace is left reusable whatever the
  /// outcome — cancellation only ever stops between restart cycles.
  Result<Vector> Query(index_t seed, QueryStats* stats,
                       GmresWorkspace* workspace,
                       const QueryControl& control = {}) const;
  /// Answers every request with Algorithm 4 along one path: restart
  /// slicing, the Schur right-hand side, the Schur stage, back-substitution
  /// and reassembly, each over all requests at once (a single query is a
  /// batch of one). Every valid request is one column of one degradation-
  /// chain solve (core/resilient.hpp) under its own QueryControl: an eps
  /// request carries its own tolerance. A GMRES stage solves its columns
  /// together and streams S once per step for all of them (sparse/
  /// kernel.hpp SpMM panels) — the bandwidth amortization the serve batcher
  /// (server/server.hpp) is built on — and the columns a Krylov stage
  /// answered back-substitute as one panel, top-k ones included; a top-k
  /// request then ranks its vector with TopK and returns only the ranking.
  /// Each result is bit-identical to the same request solved alone;
  /// QueryResult::coalesced marks the ones whose answering GMRES stage ran
  /// two or more columns. The returned Status covers batch-level
  /// preconditions only; per-request failures land in each
  /// QueryResult::status, with stats.
  ///
  /// A request whose token has already expired when its panel starts, and
  /// that takes no partial result, is answered with the token's Status and
  /// outcome kCancelled without being validated or solved, at any span
  /// width. A span of more than kPanelWidth requests is answered as
  /// balanced panels of at most kPanelWidth, each pool worker (common/
  /// parallel.hpp) taking a contiguous run of them on one workspace, so a
  /// wide span spreads over the cores; `workspace` serves only a span of
  /// up to kPanelWidth. A request's stats.seconds is its panel's wall
  /// time, `coalesced` refers to its panel, and the first batch-level
  /// error in span order is returned.
  Result<std::vector<QueryResult>> Solve(
      std::span<const QueryRequest> requests,
      GmresWorkspace* workspace = nullptr) const;
  /// Top-k query (core/topk.hpp): the dense query ranked by TopK. Exact
  /// mode returns entries byte-identical to TopK(Query(seed), k,
  /// opts.exclude); eps mode stops the Schur solve at opts.eps and reports
  /// the honest per-score bound in TopKResult::error_bound (mirrored into
  /// stats->error_bound). Every Schur stage of the chain (Krylov or power)
  /// answers with a Schur iterate and takes these rules; when the MC stage
  /// answers, its vector is ranked with the walk estimate's half-width as
  /// the bound.
  Result<TopKResult> QueryTopK(index_t seed, const TopKOptions& opts,
                               QueryStats* stats = nullptr,
                               GmresWorkspace* workspace = nullptr,
                               const QueryControl& control = {}) const;
  std::uint64_t PreprocessedBytes() const override;

  /// Arms the Monte-Carlo walk engine (engine/mc) as the terminal stage of
  /// the degradation chain: when every linear-algebra stage — including
  /// power iteration on S — has failed, the query is answered by
  /// simulating walks on the raw graph, with the estimate's confidence
  /// half-width recorded as the attempt's residual (the explicit error
  /// bound). The engine must be built over the same graph the model was
  /// preprocessed from (node counts are checked) and must outlive the
  /// solver. Pass nullptr to detach.
  Status AttachMcFallback(const McWalkEngine* engine,
                          McFallbackOptions options = {});
  const McWalkEngine* mc_fallback() const { return mc_; }

  const BepiPreprocessInfo& info() const { return info_; }
  const BepiOptions& options() const { return options_; }
  /// Partition sizes and permutation (the matrices live in kernels(); the
  /// spoke block sizes only after Preprocess).
  const HubSpokeDecomposition& decomposition() const { return dec_; }
  /// The ILU(0) preconditioner (present only in kPreconditioned mode).
  const Ilu0* preconditioner() const {
    return ilu_.has_value() ? &*ilu_ : nullptr;
  }
  /// The query-phase matrices (sparse/kernel.hpp views): path, selection
  /// reason and the per-matrix views. Null before Preprocess/Load.
  const DecompositionKernels* kernels() const { return kernels_.get(); }
  real_t effective_hub_ratio() const { return effective_hub_ratio_; }

  /// First line of every model Save writes: format v8 (DESIGN.md §9).
  static constexpr char kModelMagic[] = "BEPI-MODEL v8";

  /// Serializes the preprocessed model — options, permutation, the
  /// query-phase matrices, the ILU(0) factor values (f32 triangles, f64
  /// pivots) and the kernel path — as checksummed sections of raw
  /// little-endian arrays, each on a 64-byte file offset, so a load can
  /// use them in place. Preprocessing runs once and the
  /// model can then be shipped to query servers. Byte-stable: saving a
  /// loaded model reproduces the file.
  Status Save(std::ostream& out) const;
  /// Save into a temp file renamed over `path`. A served model is replaced
  /// this way only (a loaded solver reads the mapped file; rewriting it in
  /// place would change its pages under the solver).
  Status SaveFile(const std::string& path) const;

  /// Restores a solver from Save's output in four stages, each a child
  /// span of `model.load` and a `model.load_seconds.<stage>` gauge:
  ///   map      LoadFile maps the file (Load copies the bytes once into an
  ///            owned 64-byte-aligned buffer; a stream that cannot seek,
  ///            such as a pipe, goes through a string first);
  ///   verify   every section's CRC32C and the manifest;
  ///   validate every structural check, in place: counts against the
  ///            bytes, alignment and zero pads, CSR structure and shapes,
  ///            the permutation, the ILU(0) diagonal and pivots;
  ///   bind     the inverse permutation and the kernel views.
  /// The query path then reads the matrices and ILU(0) factor values from
  /// the loaded bytes themselves: nothing is copied unless --kernel forces
  /// an index width the file does not store. A model of format v1-v7 is
  /// rejected with an error that says to preprocess again.
  static Result<BepiSolver> Load(std::string_view model);
  static Result<BepiSolver> Load(std::istream& in);
  static Result<BepiSolver> LoadFile(const std::string& path);
  /// From bytes already mapped or copied (verify-model loads the mapping
  /// it checked).
  static Result<BepiSolver> Load(std::shared_ptr<const AlignedBytes> model);

 private:
  /// Solve over at most kPanelWidth requests, as one panel on the calling
  /// thread.
  Result<std::vector<QueryResult>> SolvePanel(
      std::span<const QueryRequest> requests,
      GmresWorkspace* workspace) const;
  /// InvalidArgument/OutOfRange when `request` cannot be answered.
  Status Validate(const QueryRequest& request) const;
  /// q2~ = c q2 - H21 (U1^{-1} (L1^{-1} (c q1)))  (line 3).
  Vector SchurRhs(const SlicedVector& cq) const;
  /// Lines 5-7 for columns holding a Schur iterate r2[j], with restart
  /// cq[j]: panel (or, for one column, vector) back-substitution and
  /// reassembly into outs[j]->scores.
  void BackSubstitute(std::vector<SlicedVector> cq, std::vector<Vector> r2,
                      const std::vector<QueryResult*>& outs) const;
  /// The tail of a solved request: stats (with `error_bound`) and, when
  /// out->status is ok, metrics.
  void Finish(const QueryRequest& request, QueryReport report, double seconds,
              real_t error_bound, QueryResult* out) const;
  /// Eps-mode epilogue: computes the true Schur residual of `r2` against
  /// `q2_tilde` and returns the sup-norm score bound of the answer
  /// back-substituted from it (core/topk.hpp ScoreErrorBound).
  real_t EpsErrorBound(const Vector& q2_tilde, const Vector& r2) const;

  /// The tail of Preprocess and of every Load: inverts the permutation and
  /// publishes the kernel path (log line and model.kernel_path gauge).
  void Publish();

  BepiOptions options_;
  real_t effective_hub_ratio_ = 0.0;
  /// Partition sizes, permutation and (after Preprocess) spoke blocks. Its
  /// matrices are the builder's and are empty once Preprocess has moved
  /// them into kernels_.
  HubSpokeDecomposition dec_;
  std::optional<Ilu0> ilu_;
  /// The query-phase matrices as views (owned after Preprocess, borrowed
  /// from the model bytes after Load).
  std::unique_ptr<DecompositionKernels> kernels_;
  Permutation inverse_perm_;  // new -> old
  BepiPreprocessInfo info_;
  bool preprocessed_ = false;
  /// Terminal-stage walk engine (not owned; null = stage disarmed).
  const McWalkEngine* mc_ = nullptr;
  McFallbackOptions mc_fallback_options_;
};

}  // namespace bepi

#endif  // BEPI_CORE_BEPI_HPP_
