// The node reordering + block partition + H11 factorization + Schur
// complement pipeline shared by BePI (which solves S iteratively) and the
// Bear baseline (which inverts S). Implements Sections 3.2-3.4 of the
// paper: deadend reordering, SlashBurn hub-and-spoke reordering of Ann,
// partitioning of H per Equation (5), per-block LU of the block-diagonal
// H11 with explicitly inverted triangular factors, and
// S = H22 - H21 (U1^{-1} (L1^{-1} H12)).
#ifndef BEPI_CORE_DECOMPOSITION_HPP_
#define BEPI_CORE_DECOMPOSITION_HPP_

#include <string>

#include "common/cancel.hpp"
#include "common/sections.hpp"
#include "common/status.hpp"
#include "core/budget.hpp"
#include "graph/graph.hpp"
#include "graph/slashburn.hpp"
#include "sparse/csr.hpp"
#include "sparse/kernel.hpp"
#include "sparse/permute.hpp"

namespace bepi {

struct DecompositionOptions {
  real_t restart_prob = 0.05;
  /// SlashBurn hub selection ratio k. BePI-B uses 0.001 (small n2); BePI-S
  /// and BePI use ~0.2 (minimizes |S|); see paper Figure 4 / Table 2.
  real_t hub_ratio = 0.2;
  /// Hub selection strategy (kRandom is the ablation control).
  SlashBurnOptions::HubSelection hub_selection =
      SlashBurnOptions::HubSelection::kDegree;
  /// Cap on SlashBurn iterations (0 = none); ablation knob.
  index_t slashburn_max_iterations = 0;
  /// Minimum seconds between *incremental* checkpoints (SlashBurn rounds,
  /// partial LU progress) when a CheckpointManager is supplied. Stage-
  /// boundary checkpoints are always written. 0 snapshots every round and
  /// every block (tests); the default keeps overhead well under 5% on
  /// graphs small enough that stages finish quickly anyway.
  double checkpoint_interval_seconds = 0.25;
  /// Cooperative cancellation (e.g. SIGINT via common/shutdown.hpp),
  /// polled at stage boundaries, SlashBurn round boundaries and per-block
  /// LU progress. On expiry the pipeline *first commits the current stage's
  /// checkpoint* (when a CheckpointManager is supplied) and then returns
  /// the token's Status, so an interrupted preprocess resumes from where
  /// it stopped rather than from the last interval-driven snapshot. May be
  /// null.
  const CancelToken* cancel = nullptr;
};

/// A reordered vector split along the partition [n1 | n2 | n3] — Algorithm
/// 4's q1/q2/q3 and r1/r2/r3 — as row-major panels of k columns (entry
/// (i, j) of a block lives at v[i * k + j]). At k == 1 each block is a
/// plain vector.
struct SlicedVector {
  index_t k = 1;
  Vector v1, v2, v3;
};

struct HubSpokeDecomposition {
  index_t n = 0;   // total nodes
  index_t n1 = 0;  // spokes
  index_t n2 = 0;  // hubs (incl. final GCC)
  index_t n3 = 0;  // deadends

  /// old node id -> new (reordered) id for the full graph.
  Permutation perm;
  /// Sizes of the diagonal blocks of H11.
  std::vector<index_t> block_sizes;
  index_t slashburn_iterations = 0;

  /// Partitions of the reordered H (Equation (5)). H13/H23 are zero and
  /// H33 = I by construction; they are not stored.
  CsrMatrix h11, h12, h21, h22, h31, h32;

  /// Block-diagonal sparse inverses of the LU factors of H11.
  CsrMatrix l1_inv, u1_inv;

  /// S = H22 - H21 H11^{-1} H12.
  CsrMatrix schur;
  /// Non-zeros of the product H21 H11^{-1} H12 before subtraction (the
  /// other side of the Figure 4 trade-off; |H22| is h22.nnz()).
  index_t product_nnz = 0;

  // Preprocessing time breakdown (seconds).
  double reorder_seconds = 0.0;
  double build_seconds = 0.0;
  double factor_seconds = 0.0;
  double schur_seconds = 0.0;
  /// Part of the stage seconds above spent writing checkpoints, payload
  /// encoding included.
  double checkpoint_seconds = 0.0;

  /// U1^{-1} (L1^{-1} v) — applies H11^{-1} to a length-n1 vector.
  Vector ApplyH11Inverse(const Vector& v) const;

  /// The scaled restart c*q as one-column slices: q = e_seed, or the
  /// distribution *q (original ids) when q is non-null (Algorithm 4,
  /// lines 1-2). The one place the partition boundaries meet the
  /// permutation.
  SlicedVector SliceRestart(index_t seed, const Vector* q, real_t c) const;

  /// Bytes of the matrices a block-elimination method keeps for queries
  /// (excluding S itself, whose treatment differs between BePI and Bear).
  std::uint64_t CommonBytes() const;
};

/// The `perm` section payload of a model and of the reorder checkpoint
/// (DESIGN.md §9): n, n1, n2, n3, the index width, then dec.perm.
std::string EncodePerm(const HubSpokeDecomposition& dec);
/// Reads a `perm` payload into dec's n, n1, n2, n3 and perm. The partition
/// sizes must add up to n (checked before the entries are read) and perm
/// must be a permutation.
Status DecodePerm(const Section& section, HubSpokeDecomposition* dec);

/// The `blocks` section payload of a model and of the reorder checkpoint:
/// the H11 block sizes as an index array (count, index width, entries).
std::string EncodeBlocks(const HubSpokeDecomposition& dec);
/// Reads a `blocks` payload into dec->block_sizes, which must be positive
/// and tile the dec->n1 spokes exactly.
Status DecodeBlocks(const Section& section, HubSpokeDecomposition* dec);

/// The one-column `r` in original node ids (Algorithm 4, line 7); entry i
/// of the concatenated slices lands at inverse_perm[i].
Vector Unslice(const SlicedVector& r, const Permutation& inverse_perm);

/// Every column of the panel `r` in original node ids, in one pass: node
/// u reads row perm[u] of the panel whole.
std::vector<Vector> UnsliceAll(const SlicedVector& r, const Permutation& perm);

/// The query phase's matrices as read-only views (sparse/kernel.hpp), all
/// on one kernel path so a query never mixes compact and wide kernels. A
/// preprocessed solver's views own their arrays (TakeDecompositionKernels
/// converts the builder's matrices once); a loaded solver's borrow them
/// from the mapped model file.
struct DecompositionKernels {
  /// The resolved path (kWide or kCompact, never kAuto) and a short
  /// human-readable reason, surfaced in the preprocessing log line and the
  /// CLI output.
  KernelPath path = KernelPath::kWide;
  std::string reason;

  /// What Algorithm 4 reads (H11 and H22 enter only through L1^{-1},
  /// U1^{-1} and S).
  KernelCsr l1_inv, u1_inv, h12, h21, h31, h32, schur;

  /// U1^{-1} (L1^{-1} v) through the bound kernels.
  Vector ApplyH11Inverse(const Vector& v) const;

  /// Panel form over k row-major right-hand sides (sparse/kernel.hpp
  /// MultiplyMulti): `v` and `out` are n1 x k row-major, `tmp` is caller
  /// scratch (resized here). Each panel column is bit-identical to
  /// ApplyH11Inverse on that column alone.
  void ApplyH11InverseMulti(const real_t* v, index_t k, real_t* out,
                            std::vector<real_t>* tmp) const;

  /// Bytes of every view's arrays.
  std::uint64_t ByteSize() const;
};

/// Binds `views` (at their stored index widths) for the query path:
/// compact when `requested` is kCompact or kAuto and *every* query matrix
/// fits the 32-bit limits, wide otherwise (a kCompact request that does
/// not fit falls back to wide). A view whose width already matches is kept
/// as it is; only a forced path converts (owned copies).
DecompositionKernels BindDecompositionKernels(DecompositionKernels views,
                                              KernelPath requested);

/// Moves the builder's query matrices of `dec` into owning views on
/// `requested`'s path and releases every builder matrix, H11 and H22
/// included (dec keeps its sizes, permutation and blocks).
DecompositionKernels TakeDecompositionKernels(HubSpokeDecomposition* dec,
                                              KernelPath requested);

class CheckpointManager;

/// Runs the full pipeline. `budget` (may be null) gates the footprint of
/// each produced matrix. With a non-null `checkpoints` the expensive
/// stages are snapshotted at their boundaries (deadend partition, each
/// SlashBurn round, per-diagonal-block LU progress, the Schur complement)
/// and any valid snapshot found on entry is resumed instead of recomputed
/// — a killed preprocessing run restarted with the same graph, options and
/// checkpoint directory produces a bit-identical decomposition.
Result<HubSpokeDecomposition> BuildDecomposition(
    const Graph& g, const DecompositionOptions& options, MemoryBudget* budget,
    CheckpointManager* checkpoints = nullptr);

}  // namespace bepi

#endif  // BEPI_CORE_DECOMPOSITION_HPP_
