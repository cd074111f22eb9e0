#include "core/decomposition.hpp"

#include <algorithm>
#include <array>
#include <limits>
#include <map>
#include <optional>
#include <utility>

#include "common/check.hpp"
#include "common/log.hpp"
#include "common/metrics.hpp"
#include "common/timer.hpp"
#include "common/trace.hpp"
#include "core/checkpoint.hpp"
#include "core/rwr.hpp"
#include "graph/deadend.hpp"
#include "graph/slashburn.hpp"
#include "sparse/coo.hpp"
#include "sparse/io.hpp"
#include "sparse/spgemm.hpp"
#include "solver/dense_lu.hpp"

namespace bepi {
namespace {

// Checkpoint stage names (file names under the checkpoint directory).
constexpr char kStageDeadend[] = "deadend";
constexpr char kStageSlashBurnRound[] = "slashburn.round";
constexpr char kStageReorder[] = "reorder";
constexpr char kStageFactor[] = "factor";
constexpr char kStageSchur[] = "schur";

using CheckpointSections = std::map<std::string, std::string>;
using CheckpointPayloads = std::vector<std::pair<std::string, std::string>>;

/// Dense LU without pivoting, valid for the strictly diagonally dominant
/// H11 blocks. Returns packed LU (L unit-lower below the diagonal, U on
/// and above).
Status FactorNoPivot(DenseMatrix* a) {
  const index_t n = a->rows();
  for (index_t k = 0; k < n; ++k) {
    const real_t pivot = a->At(k, k);
    if (pivot == 0.0) {
      return Status::FailedPrecondition("zero pivot in H11 block LU");
    }
    for (index_t i = k + 1; i < n; ++i) {
      const real_t factor = a->At(i, k) / pivot;
      a->At(i, k) = factor;
      if (factor == 0.0) continue;
      for (index_t j = k + 1; j < n; ++j) {
        a->At(i, j) -= factor * a->At(k, j);
      }
    }
  }
  return Status::Ok();
}

/// The diagonal block of `m` at rows and columns [start, start + size),
/// dense: the entries ExtractBlock(...).ToDense() gives, without the
/// intermediate CSR matrix.
DenseMatrix DenseDiagonalBlock(const CsrMatrix& m, index_t start,
                               index_t size) {
  DenseMatrix block(size, size);
  const auto& col_idx = m.col_idx();
  for (index_t r = 0; r < size; ++r) {
    const auto row_begin =
        col_idx.begin() + m.row_ptr()[static_cast<std::size_t>(start + r)];
    const auto row_end =
        col_idx.begin() + m.row_ptr()[static_cast<std::size_t>(start + r) + 1];
    // Columns are sorted: the block's columns by binary search.
    for (auto it = std::lower_bound(row_begin, row_end, start);
         it != row_end && *it < start + size; ++it) {
      block.At(r, *it - start) =
          m.values()[static_cast<std::size_t>(it - col_idx.begin())];
    }
  }
  return block;
}

/// Bytes per entry of an index array whose entries lie in [0, bound].
std::uint64_t WidthFor(index_t bound) { return IndexWidth(bound, bound, 0); }

/// Whether the block sizes `sizes` are all positive and sum to exactly
/// `spokes`.
bool BlocksTileSpokes(const std::vector<index_t>& sizes, index_t spokes) {
  // Subtracts rather than sums, so hostile sizes cannot overflow.
  index_t left = spokes;
  for (index_t size : sizes) {
    if (size <= 0 || size > left) return false;
    left -= size;
  }
  return left == 0;
}

/// Checkpoint payloads, in v4 terms (DESIGN.md §9). Sections that hold a
/// model artifact carry that model section's name and bytes.
CheckpointPayloads EncodeDeadend(const DeadendPartition& deadends,
                                 index_t n) {
  PayloadWriter out;
  out.U64(static_cast<std::uint64_t>(deadends.num_non_deadends));
  out.U64(static_cast<std::uint64_t>(deadends.num_deadends));
  out.IndexArray(deadends.perm, WidthFor(n));
  return {{kStageDeadend, std::move(out.bytes())}};
}

Status DecodeDeadend(const CheckpointSections& sections, index_t n,
                     DeadendPartition* out) {
  BEPI_ASSIGN_OR_RETURN(const Section section,
                        FindSection(sections, kStageDeadend));
  PayloadReader in(section);
  const std::uint64_t non_deadends = in.U64(), deadends = in.U64();
  out->perm = in.IndexArray();
  BEPI_RETURN_IF_ERROR(in.Finish());
  const auto un = static_cast<std::uint64_t>(n);
  if (non_deadends > un || deadends != un - non_deadends ||
      out->perm.size() != un || !IsPermutation(out->perm)) {
    return in.Malformed("inconsistent with a graph of " + std::to_string(n) +
                        " nodes");
  }
  out->num_non_deadends = static_cast<index_t>(non_deadends);
  out->num_deadends = static_cast<index_t>(deadends);
  return Status::Ok();
}

CheckpointPayloads EncodeSlashBurnRound(const SlashBurnResult& round,
                                        index_t nn) {
  PayloadWriter out;
  out.U64(static_cast<std::uint64_t>(round.num_spokes));
  out.U64(static_cast<std::uint64_t>(round.num_hubs));
  out.U64(static_cast<std::uint64_t>(round.iterations));
  // Unassigned nodes hold -1, which only the 8-byte width stores.
  out.IndexArray(round.perm, sizeof(index_t));
  out.IndexArray(round.block_sizes, WidthFor(nn));
  return {{"round", std::move(out.bytes())}};
}

Status DecodeSlashBurnRound(const CheckpointSections& sections, index_t nn,
                            SlashBurnResult* out) {
  BEPI_ASSIGN_OR_RETURN(const Section section, FindSection(sections, "round"));
  PayloadReader in(section);
  const std::uint64_t spokes = in.U64(), hubs = in.U64(), rounds = in.U64();
  out->perm = in.IndexArray();
  out->block_sizes = in.IndexArray();
  BEPI_RETURN_IF_ERROR(in.Finish());
  const auto unn = static_cast<std::uint64_t>(nn);
  if (spokes > unn || hubs > unn - spokes || rounds > unn ||
      out->perm.size() != unn ||
      !BlocksTileSpokes(out->block_sizes, static_cast<index_t>(spokes))) {
    return in.Malformed("inconsistent with " + std::to_string(nn) +
                        " non-deadend nodes");
  }
  out->num_spokes = static_cast<index_t>(spokes);
  out->num_hubs = static_cast<index_t>(hubs);
  out->iterations = static_cast<index_t>(rounds);
  // Which ids the round assigned is validated by SlashBurn() before the
  // state is trusted.
  return Status::Ok();
}

CheckpointPayloads EncodeReorder(const HubSpokeDecomposition& dec) {
  PayloadWriter rounds;
  rounds.U64(static_cast<std::uint64_t>(dec.slashburn_iterations));
  return {{"perm", EncodePerm(dec)},
          {"blocks", EncodeBlocks(dec)},
          {"slashburn", std::move(rounds.bytes())}};
}

Status DecodeReorder(const CheckpointSections& sections,
                     HubSpokeDecomposition* dec) {
  HubSpokeDecomposition stored;
  BEPI_ASSIGN_OR_RETURN(const Section perm, FindSection(sections, "perm"));
  BEPI_RETURN_IF_ERROR(DecodePerm(perm, &stored));
  if (stored.n != dec->n) {
    return PayloadReader(perm).Malformed(
        "orders " + std::to_string(stored.n) + " nodes, the graph has " +
        std::to_string(dec->n));
  }
  BEPI_ASSIGN_OR_RETURN(const Section blocks, FindSection(sections, "blocks"));
  BEPI_RETURN_IF_ERROR(DecodeBlocks(blocks, &stored));
  BEPI_ASSIGN_OR_RETURN(const Section rounds,
                        FindSection(sections, "slashburn"));
  PayloadReader in(rounds);
  stored.slashburn_iterations = static_cast<index_t>(in.U64());
  BEPI_RETURN_IF_ERROR(in.Finish());
  dec->n1 = stored.n1;
  dec->n2 = stored.n2;
  dec->n3 = stored.n3;
  dec->perm = std::move(stored.perm);
  dec->block_sizes = std::move(stored.block_sizes);
  dec->slashburn_iterations = stored.slashburn_iterations;
  return Status::Ok();
}

void AppendCsrToCoo(const CsrMatrix& m, CooMatrix* out) {
  for (index_t r = 0; r < m.rows(); ++r) {
    for (index_t p = m.row_ptr()[static_cast<std::size_t>(r)];
         p < m.row_ptr()[static_cast<std::size_t>(r) + 1]; ++p) {
      out->Add(r, m.col_idx()[static_cast<std::size_t>(p)],
               m.values()[static_cast<std::size_t>(p)]);
    }
  }
}

/// Whether `m` holds inverted triangular factors of exactly the first
/// `done` diagonal blocks of H11: rows past them are empty, and each row of
/// a done block has its diagonal and no entry outside its block on the
/// wrong side of it (left of the diagonal for the upper factor, right of
/// it for the lower one).
bool HoldsDoneBlocks(const CsrMatrix& m, const std::vector<index_t>& sizes,
                     std::size_t done, bool lower) {
  index_t start = 0;
  for (std::size_t b = 0; b < sizes.size(); ++b) {
    const index_t end = start + sizes[b];
    for (index_t i = start; i < end; ++i) {
      const index_t begin = m.row_ptr()[static_cast<std::size_t>(i)];
      const index_t stop = m.row_ptr()[static_cast<std::size_t>(i) + 1];
      if (b >= done) {
        if (begin != stop) return false;
        continue;
      }
      bool diagonal = false;
      for (index_t p = begin; p < stop; ++p) {
        const index_t j = m.col_idx()[static_cast<std::size_t>(p)];
        if (j < start || j >= end || (lower ? j > i : j < i)) return false;
        diagonal = diagonal || j == i;
      }
      if (!diagonal) return false;
    }
    start = end;
  }
  return true;
}

/// Leaves the outputs untouched unless the whole checkpoint decodes.
Status DecodeFactor(const CheckpointSections& sections, index_t n1,
                    const std::vector<index_t>& block_sizes,
                    std::size_t* blocks_done, CooMatrix* l1, CooMatrix* u1) {
  BEPI_ASSIGN_OR_RETURN(const Section progress,
                        FindSection(sections, "progress"));
  PayloadReader in(progress);
  const std::uint64_t done = in.U64();
  BEPI_RETURN_IF_ERROR(in.Finish());
  if (done > block_sizes.size()) {
    return in.Malformed(std::to_string(done) + " of " +
                        std::to_string(block_sizes.size()) + " blocks done");
  }
  BEPI_ASSIGN_OR_RETURN(const Section l1_inv, FindSection(sections, "l1_inv"));
  BEPI_ASSIGN_OR_RETURN(CsrMatrix l1_csr, DecodeMatrix(l1_inv, n1, n1));
  BEPI_ASSIGN_OR_RETURN(const Section u1_inv, FindSection(sections, "u1_inv"));
  BEPI_ASSIGN_OR_RETURN(CsrMatrix u1_csr, DecodeMatrix(u1_inv, n1, n1));
  const auto d = static_cast<std::size_t>(done);
  if (!HoldsDoneBlocks(l1_csr, block_sizes, d, /*lower=*/true) ||
      !HoldsDoneBlocks(u1_csr, block_sizes, d, /*lower=*/false)) {
    return in.Malformed("the factors do not hold exactly the " +
                        std::to_string(done) + " blocks done");
  }
  AppendCsrToCoo(l1_csr, l1);
  AppendCsrToCoo(u1_csr, u1);
  *blocks_done = static_cast<std::size_t>(done);
  return Status::Ok();
}

CheckpointPayloads EncodeFactor(std::size_t blocks_done,
                                const CsrMatrix& l1_inv,
                                const CsrMatrix& u1_inv) {
  PayloadWriter progress;
  progress.U64(blocks_done);
  return {{"progress", std::move(progress.bytes())},
          {"l1_inv", EncodeMatrix(l1_inv)},
          {"u1_inv", EncodeMatrix(u1_inv)}};
}

CheckpointPayloads EncodeSchur(const HubSpokeDecomposition& dec) {
  PayloadWriter product;
  product.U64(static_cast<std::uint64_t>(dec.product_nnz));
  return {{"product_nnz", std::move(product.bytes())},
          {"schur", EncodeMatrix(dec.schur)}};
}

Status DecodeSchur(const CheckpointSections& sections,
                   HubSpokeDecomposition* dec) {
  BEPI_ASSIGN_OR_RETURN(const Section product,
                        FindSection(sections, "product_nnz"));
  PayloadReader in(product);
  const std::uint64_t product_nnz = in.U64();
  BEPI_RETURN_IF_ERROR(in.Finish());
  if (product_nnz > static_cast<std::uint64_t>(
                        std::numeric_limits<index_t>::max())) {
    return in.Malformed("product nnz " + std::to_string(product_nnz));
  }
  BEPI_ASSIGN_OR_RETURN(const Section schur, FindSection(sections, "schur"));
  BEPI_ASSIGN_OR_RETURN(dec->schur, DecodeMatrix(schur, dec->n2, dec->n2));
  dec->product_nnz = static_cast<index_t>(product_nnz);
  return Status::Ok();
}

/// `stage`'s checkpoint, decoded by `decode`; false when there is no usable
/// one. A checkpoint `decode` rejects is handed back to the manager, so it
/// is not counted as resumed, and the stage is recomputed.
template <typename Decode>
bool Resume(CheckpointManager* checkpoints, const char* stage,
            Decode decode) {
  if (checkpoints == nullptr) return false;
  Result<CheckpointSections> sections = checkpoints->Read(stage);
  if (!sections.ok()) return false;
  const Status decoded = decode(*sections);
  if (!decoded.ok()) checkpoints->Reject(stage, decoded);
  return decoded.ok();
}

/// Writes `stage`'s checkpoint, if there are checkpoints, from the sections
/// `encode` returns, adding the seconds spent, encoding included, to
/// dec->checkpoint_seconds. Writes are best-effort: a failure costs
/// durability of this resume point, never the run. (The checkpoint.crash
/// SIGKILL site fires inside Write itself, after a successful commit.)
template <typename Encode>
void Checkpoint(CheckpointManager* checkpoints, const char* stage,
                HubSpokeDecomposition* dec, Encode encode) {
  if (checkpoints == nullptr) return;
  Timer timer;
  const Result<CheckpointPayloads> sections = encode();
  const Status status =
      sections.ok() ? checkpoints->Write(stage, *sections) : sections.status();
  dec->checkpoint_seconds += timer.Seconds();
  if (!status.ok()) {
    BEPI_LOG(Warning) << "checkpoint write for stage '" << stage
                      << "' failed: " << status.ToString();
  }
}

}  // namespace

Vector HubSpokeDecomposition::ApplyH11Inverse(const Vector& v) const {
  return u1_inv.Multiply(l1_inv.Multiply(v));
}

SlicedVector HubSpokeDecomposition::SliceRestart(index_t seed, const Vector* q,
                                                 real_t c) const {
  SlicedVector cq{1, Vector(static_cast<std::size_t>(n1), 0.0),
                  Vector(static_cast<std::size_t>(n2), 0.0),
                  Vector(static_cast<std::size_t>(n3), 0.0)};
  const auto put = [&](index_t node, real_t value) {
    const index_t pos = perm[static_cast<std::size_t>(node)];
    if (pos < n1) {
      cq.v1[static_cast<std::size_t>(pos)] = value;
    } else if (pos < n1 + n2) {
      cq.v2[static_cast<std::size_t>(pos - n1)] = value;
    } else {
      cq.v3[static_cast<std::size_t>(pos - n1 - n2)] = value;
    }
  };
  if (q == nullptr) {
    put(seed, c);
    return cq;
  }
  for (index_t u = 0; u < n; ++u) {
    const real_t v = (*q)[static_cast<std::size_t>(u)];
    if (v != 0.0) put(u, c * v);
  }
  return cq;
}

Vector Unslice(const SlicedVector& r, const Permutation& inverse_perm) {
  Vector out(inverse_perm.size());
  std::size_t i = 0;
  for (const Vector* slice : {&r.v1, &r.v2, &r.v3}) {
    for (real_t v : *slice) out[static_cast<std::size_t>(inverse_perm[i++])] = v;
  }
  return out;
}

std::vector<Vector> UnsliceAll(const SlicedVector& r, const Permutation& perm) {
  const std::size_t k = static_cast<std::size_t>(r.k);
  const std::size_t n1 = r.v1.size() / k;
  const std::size_t n12 = n1 + r.v2.size() / k;
  std::vector<Vector> out(k, Vector(perm.size()));
  for (std::size_t u = 0; u < perm.size(); ++u) {
    const std::size_t i = static_cast<std::size_t>(perm[u]);
    const real_t* row = i < n1    ? &r.v1[i * k]
                        : i < n12 ? &r.v2[(i - n1) * k]
                                  : &r.v3[(i - n12) * k];
    for (std::size_t q = 0; q < k; ++q) out[q][u] = row[q];
  }
  return out;
}

std::string EncodePerm(const HubSpokeDecomposition& dec) {
  PayloadWriter out;
  for (index_t size : {dec.n, dec.n1, dec.n2, dec.n3}) {
    out.U64(static_cast<std::uint64_t>(size));
  }
  const std::uint64_t width = WidthFor(dec.n);
  out.U64(width);
  out.Indices(dec.perm, width);
  return std::move(out.bytes());
}

Status DecodePerm(const Section& section, HubSpokeDecomposition* dec) {
  PayloadReader in(section);
  const std::uint64_t n = in.U64(), n1 = in.U64(), n2 = in.U64(),
                      n3 = in.U64(), width = in.U64();
  BEPI_RETURN_IF_ERROR(in.status());
  if (n1 > n || n2 > n - n1 || n3 != n - n1 - n2) {
    return in.Malformed("partition sizes do not add up to n");
  }
  // n is bounded by the section size once its entries are read.
  dec->perm = in.Indices(n, width);
  BEPI_RETURN_IF_ERROR(in.Finish());
  if (!IsPermutation(dec->perm)) return in.Malformed("not a permutation");
  dec->n = static_cast<index_t>(n);
  dec->n1 = static_cast<index_t>(n1);
  dec->n2 = static_cast<index_t>(n2);
  dec->n3 = static_cast<index_t>(n3);
  return Status::Ok();
}

std::string EncodeBlocks(const HubSpokeDecomposition& dec) {
  PayloadWriter out;
  out.IndexArray(dec.block_sizes, WidthFor(dec.n1));
  return std::move(out.bytes());
}

Status DecodeBlocks(const Section& section, HubSpokeDecomposition* dec) {
  PayloadReader in(section);
  dec->block_sizes = in.IndexArray();
  BEPI_RETURN_IF_ERROR(in.Finish());
  if (!BlocksTileSpokes(dec->block_sizes, dec->n1)) {
    return in.Malformed("block sizes do not tile the spoke partition");
  }
  return Status::Ok();
}

std::uint64_t HubSpokeDecomposition::CommonBytes() const {
  return l1_inv.ByteSize() + u1_inv.ByteSize() + h12.ByteSize() +
         h21.ByteSize() + h31.ByteSize() + h32.ByteSize();
}

Vector DecompositionKernels::ApplyH11Inverse(const Vector& v) const {
  return u1_inv.Multiply(l1_inv.Multiply(v));
}

void DecompositionKernels::ApplyH11InverseMulti(const real_t* v, index_t k,
                                                real_t* out,
                                                std::vector<real_t>* tmp) const {
  tmp->resize(static_cast<std::size_t>(l1_inv.rows()) *
              static_cast<std::size_t>(k));
  l1_inv.MultiplyMulti(v, k, tmp->data());
  u1_inv.MultiplyMulti(tmp->data(), k, out);
}

namespace {

/// The views of `k`, const or not, in model order.
template <typename Kernels>
auto Views(Kernels& k) {
  return std::array{&k.l1_inv, &k.u1_inv, &k.h12, &k.h21,
                    &k.h31,    &k.h32,    &k.schur};
}

}  // namespace

std::uint64_t DecompositionKernels::ByteSize() const {
  std::uint64_t bytes = 0;
  for (const KernelCsr* m : Views(*this)) bytes += m->ByteSize();
  return bytes;
}

namespace {

/// The kernel path for query matrices that all fit the 32-bit limits (or
/// not), with the reason the log line and the CLI show.
KernelPath ResolveKernelPath(bool fits, KernelPath requested,
                             std::string* reason) {
  if (requested == KernelPath::kWide) {
    *reason = "wide requested";
    return KernelPath::kWide;
  }
  if (fits) {
    *reason = requested == KernelPath::kCompact
                  ? "compact requested"
                  : "auto: all query matrices fit 32-bit indices";
    return KernelPath::kCompact;
  }
  *reason = requested == KernelPath::kCompact
                ? "compact requested but matrices exceed 32-bit limits"
                : "auto: matrices exceed 32-bit limits";
  return KernelPath::kWide;
}

}  // namespace

DecompositionKernels BindDecompositionKernels(DecompositionKernels k,
                                              KernelPath requested) {
  bool fits = true;
  for (const KernelCsr* m : Views(k)) {
    fits = fits && FitsCompactDims(m->rows(), m->cols(), m->nnz());
  }
  k.path = ResolveKernelPath(fits, requested, &k.reason);
  for (KernelCsr* m : Views(k)) *m = m->WithPath(k.path);
  return k;
}

DecompositionKernels TakeDecompositionKernels(HubSpokeDecomposition* dec,
                                              KernelPath requested) {
  DecompositionKernels k;
  // Each matrix converts once and its builder arrays are released as it
  // goes. Binding then converts again only when some matrices fit 32-bit
  // indices and others do not (all go wide).
  for (auto [view, m] : {std::pair{&k.l1_inv, &dec->l1_inv},
                         {&k.u1_inv, &dec->u1_inv},
                         {&k.h12, &dec->h12},
                         {&k.h21, &dec->h21},
                         {&k.h31, &dec->h31},
                         {&k.h32, &dec->h32},
                         {&k.schur, &dec->schur}}) {
    *view = KernelCsr::Own(std::move(*m), requested);
    *m = CsrMatrix();
  }
  // H11 and H22 live on only inside L1^{-1}, U1^{-1} and S.
  dec->h11 = CsrMatrix();
  dec->h22 = CsrMatrix();
  return BindDecompositionKernels(std::move(k), requested);
}

Result<HubSpokeDecomposition> BuildDecomposition(
    const Graph& g, const DecompositionOptions& options, MemoryBudget* budget,
    CheckpointManager* checkpoints) {
  if (g.num_nodes() == 0) {
    return Status::InvalidArgument("empty graph");
  }
  if (!(options.restart_prob > 0.0) || !(options.restart_prob < 1.0)) {
    return Status::InvalidArgument("restart probability must be in (0, 1)");
  }
  HubSpokeDecomposition dec;
  dec.n = g.num_nodes();
  Timer timer;
  const auto cancelled = [&options] {
    return options.cancel != nullptr && options.cancel->Expired();
  };
  const auto cancel_status = [&options](const char* where) {
    return options.cancel->ToStatus(std::string("preprocess (") + where + ")");
  };

  // One span per pipeline stage, advanced at the same boundaries as the
  // stage timers so the exported trace mirrors the seconds breakdown.
  std::optional<TraceSpan> stage_span;
  stage_span.emplace("preprocess.reorder");

  // Steps 1+2: deadend reordering (Section 3.2.1) then hub-and-spoke
  // reordering of Ann via SlashBurn. A "reorder" checkpoint holds the
  // combined outcome and skips both.
  const bool reorder_resumed =
      Resume(checkpoints, kStageReorder, [&](const CheckpointSections& ckpt) {
        return DecodeReorder(ckpt, &dec);
      });
  if (!reorder_resumed) {
    DeadendPartition deadends;
    const bool deadend_resumed = Resume(
        checkpoints, kStageDeadend, [&](const CheckpointSections& ckpt) {
          return DecodeDeadend(ckpt, dec.n, &deadends);
        });
    if (!deadend_resumed) {
      TraceSpan deadend_span("preprocess.deadend_reorder");
      deadends = ReorderDeadends(g);
      deadend_span.Arg("deadends", deadends.num_deadends);
      Checkpoint(checkpoints, kStageDeadend, &dec,
                 [&] { return EncodeDeadend(deadends, dec.n); });
    }
    dec.n3 = deadends.num_deadends;
    const index_t nn = deadends.num_non_deadends;

    BEPI_ASSIGN_OR_RETURN(
        CsrMatrix a_deadend_ordered,
        PermuteSymmetric(g.adjacency(), deadends.perm));
    BEPI_ASSIGN_OR_RETURN(CsrMatrix ann,
                          ExtractBlock(a_deadend_ordered, 0, nn, 0, nn));
    SlashBurnOptions sb_options;
    sb_options.k_ratio = options.hub_ratio;
    sb_options.hub_selection = options.hub_selection;
    sb_options.max_iterations = options.slashburn_max_iterations;
    // Round-level resume only makes sense for deterministic hub selection;
    // kRandom would diverge from the uninterrupted run (slashburn.hpp).
    SlashBurnResult round_state;
    const bool resumable =
        checkpoints != nullptr &&
        options.hub_selection == SlashBurnOptions::HubSelection::kDegree;
    Timer since_round_ckpt;
    if (resumable) {
      if (Resume(checkpoints, kStageSlashBurnRound,
                 [&](const CheckpointSections& ckpt) {
                   return DecodeSlashBurnRound(ckpt, nn, &round_state);
                 })) {
        sb_options.resume_from = &round_state;
      }
      sb_options.round_hook = [&](const SlashBurnResult& partial) -> Status {
        // A cancellation (SIGINT) commits the round immediately — the
        // interval only throttles steady-state snapshots — so the resumed
        // run restarts from this exact round.
        const bool cancel_now = cancelled();
        if (!cancel_now &&
            since_round_ckpt.Seconds() < options.checkpoint_interval_seconds) {
          return Status::Ok();
        }
        Checkpoint(checkpoints, kStageSlashBurnRound, &dec,
                   [&] { return EncodeSlashBurnRound(partial, nn); });
        since_round_ckpt.Restart();
        if (cancel_now) return cancel_status("slashburn");
        return Status::Ok();
      };
    } else if (options.cancel != nullptr) {
      // No checkpointing (or non-resumable hub selection): still honour
      // the token at round boundaries, just without a snapshot to commit.
      sb_options.round_hook = [&](const SlashBurnResult&) -> Status {
        if (cancelled()) return cancel_status("slashburn");
        return Status::Ok();
      };
    }
    std::optional<TraceSpan> slashburn_span;
    slashburn_span.emplace("preprocess.slashburn");
    Result<SlashBurnResult> sb_result = SlashBurn(ann, sb_options);
    if (!sb_result.ok() && sb_options.resume_from != nullptr) {
      // A checkpoint that passed its checksum but fails SlashBurn's own
      // consistency validation is recomputed, not fatal.
      checkpoints->Reject(kStageSlashBurnRound, sb_result.status());
      sb_options.resume_from = nullptr;
      sb_result = SlashBurn(ann, sb_options);
    }
    BEPI_ASSIGN_OR_RETURN(SlashBurnResult sb, std::move(sb_result));
    slashburn_span->Arg("rounds", sb.iterations);
    slashburn_span->Arg("hubs", sb.num_hubs);
    slashburn_span->Arg("spokes", sb.num_spokes);
    slashburn_span.reset();
    dec.n1 = sb.num_spokes;
    dec.n2 = sb.num_hubs;
    dec.block_sizes = std::move(sb.block_sizes);
    dec.slashburn_iterations = sb.iterations;

    // Full permutation: SlashBurn order on non-deadends, deadends
    // unchanged.
    Permutation hub_spoke_perm = IdentityPermutation(dec.n);
    for (index_t i = 0; i < nn; ++i) {
      hub_spoke_perm[static_cast<std::size_t>(i)] =
          sb.perm[static_cast<std::size_t>(i)];
    }
    dec.perm = ComposePermutations(hub_spoke_perm, deadends.perm);

    if (checkpoints != nullptr) {
      Checkpoint(checkpoints, kStageReorder, &dec,
                 [&] { return EncodeReorder(dec); });
      // The reorder snapshot supersedes its inputs; drop them so the
      // directory only holds live resume points.
      checkpoints->Invalidate(kStageSlashBurnRound);
      checkpoints->Invalidate(kStageDeadend);
    }
  }
  dec.reorder_seconds = timer.Seconds();
  // Stage boundary: the reorder checkpoint (if any) is durable, so an
  // interrupted run resumes directly into the factor stage.
  if (cancelled()) return cancel_status("reorder");
  stage_span->Arg("n1", dec.n1);
  stage_span->Arg("n2", dec.n2);
  stage_span->Arg("n3", dec.n3);
  stage_span.emplace("preprocess.build_h");

  // Step 3: H = I - (1-c) Ã^T in the new ordering (the normalization uses
  // the original out-degrees; edges to deadends count). Cheap relative to
  // factoring, so it is recomputed rather than checkpointed.
  timer.Restart();
  BEPI_ASSIGN_OR_RETURN(
      CsrMatrix normalized_perm,
      PermuteSymmetric(g.RowNormalizedAdjacency(), dec.perm));
  CsrMatrix h = BuildHFromNormalized(normalized_perm, options.restart_prob);

  // Step 4: partition H per Equation (5).
  const index_t b1 = dec.n1;
  const index_t b2 = dec.n1 + dec.n2;
  const index_t b3 = dec.n;
  BEPI_ASSIGN_OR_RETURN(dec.h11, ExtractBlock(h, 0, b1, 0, b1));
  BEPI_ASSIGN_OR_RETURN(dec.h12, ExtractBlock(h, 0, b1, b1, b2));
  BEPI_ASSIGN_OR_RETURN(dec.h21, ExtractBlock(h, b1, b2, 0, b1));
  BEPI_ASSIGN_OR_RETURN(dec.h22, ExtractBlock(h, b1, b2, b1, b2));
  BEPI_ASSIGN_OR_RETURN(dec.h31, ExtractBlock(h, b2, b3, 0, b1));
  BEPI_ASSIGN_OR_RETURN(dec.h32, ExtractBlock(h, b2, b3, b1, b2));
  if (budget != nullptr) {
    BEPI_RETURN_IF_ERROR(
        budget->Charge(dec.h12.ByteSize() + dec.h21.ByteSize() +
                           dec.h31.ByteSize() + dec.h32.ByteSize(),
                       "partition blocks of H"));
  }
  dec.build_seconds = timer.Seconds();
  stage_span.emplace("preprocess.block_lu");
  stage_span->Arg("blocks",
                  static_cast<std::int64_t>(dec.block_sizes.size()));

  // Step 5: per-block LU of H11 with explicitly inverted factors
  // (r1 = U1^{-1} (L1^{-1} ...) in the query phase). The "factor"
  // checkpoint records how many whole blocks are already inverted.
  timer.Restart();
  if (budget != nullptr) {
    std::uint64_t projected = 0;
    for (index_t size : dec.block_sizes) {
      const std::uint64_t s = static_cast<std::uint64_t>(size);
      // L^{-1} and U^{-1} of a block are triangular: ~s^2 values + indices.
      projected += s * s * (sizeof(real_t) + sizeof(index_t)) + 2 * s * 8;
    }
    BEPI_RETURN_IF_ERROR(budget->Charge(projected, "inverted LU factors of H11"));
  }
  const std::size_t num_blocks = dec.block_sizes.size();
  CooMatrix l1_coo(dec.n1, dec.n1), u1_coo(dec.n1, dec.n1);
  std::size_t blocks_done = 0;
  Resume(checkpoints, kStageFactor, [&](const CheckpointSections& ckpt) {
    return DecodeFactor(ckpt, dec.n1, dec.block_sizes, &blocks_done, &l1_coo,
                        &u1_coo);
  });
  const std::size_t blocks_resumed = blocks_done;
  index_t block_start = 0;
  for (std::size_t b = 0; b < blocks_resumed; ++b) {
    block_start += dec.block_sizes[b];
  }
  Timer since_factor_ckpt;
  // One block at a time, in block order, each appended to the COO staging
  // buffers while its factors are hot. That gives the factor checkpoint
  // its prefix-count semantics (blocks_done whole blocks, in order) and
  // makes the factors independent of the thread count. The loop is serial
  // on purpose: spoke blocks are tiny (83,365 blocks on a 400k-node
  // graph), and on a 4-vCPU VM pool tasks of them never beat it — one task
  // per block cost a 200k-node graph 150 ms instead of 20 ms, and tasks
  // grouped up to 2^22 flops were no faster than the loop either.
  for (std::size_t b = blocks_resumed; b < num_blocks; ++b) {
    const index_t size = dec.block_sizes[b];
    DenseMatrix block = DenseDiagonalBlock(dec.h11, block_start, size);
    BEPI_RETURN_IF_ERROR(FactorNoPivot(&block));
    BEPI_ASSIGN_OR_RETURN(const DenseMatrix l_inv,
                          InvertLowerTriangular(block, /*unit_diagonal=*/true));
    BEPI_ASSIGN_OR_RETURN(const DenseMatrix u_inv,
                          InvertUpperTriangular(block));
    for (index_t i = 0; i < size; ++i) {
      for (index_t j = 0; j <= i; ++j) {
        const real_t lv = i == j ? 1.0 : l_inv.At(i, j);
        if (lv != 0.0) l1_coo.Add(block_start + i, block_start + j, lv);
        const real_t uv = u_inv.At(j, i);
        if (uv != 0.0) u1_coo.Add(block_start + j, block_start + i, uv);
      }
    }
    block_start += size;
    ++blocks_done;
    // Cancellation commits the factor progress made so far (interval
    // ignored) before aborting, so the resumed run continues from block
    // blocks_done instead of the last interval snapshot.
    const bool cancel_now = cancelled();
    if (checkpoints != nullptr && blocks_done < num_blocks &&
        (cancel_now || since_factor_ckpt.Seconds() >=
                           options.checkpoint_interval_seconds)) {
      // Partial COO state round-trips through sorted CSR; the final
      // ToCsr() sorts anyway, so the resumed run converges to the same
      // matrices.
      Checkpoint(checkpoints, kStageFactor, &dec,
                 [&]() -> Result<CheckpointPayloads> {
                   BEPI_ASSIGN_OR_RETURN(const CsrMatrix l1, l1_coo.ToCsr());
                   BEPI_ASSIGN_OR_RETURN(const CsrMatrix u1, u1_coo.ToCsr());
                   return EncodeFactor(blocks_done, l1, u1);
                 });
      since_factor_ckpt.Restart();
    }
    if (cancel_now) return cancel_status("factor");
  }
  BEPI_CHECK(block_start == dec.n1);
  BEPI_ASSIGN_OR_RETURN(dec.l1_inv, l1_coo.ToCsr());
  BEPI_ASSIGN_OR_RETURN(dec.u1_inv, u1_coo.ToCsr());
  if (checkpoints != nullptr && blocks_resumed < num_blocks) {
    // The stage-boundary snapshot reuses the assembled CSR factors rather
    // than re-sorting the COO staging buffers a second time.
    Checkpoint(checkpoints, kStageFactor, &dec, [&] {
      return EncodeFactor(num_blocks, dec.l1_inv, dec.u1_inv);
    });
  }
  dec.factor_seconds = timer.Seconds();
  // Stage boundary: the assembled factor checkpoint is durable.
  if (cancelled()) return cancel_status("factor");
  stage_span.emplace("preprocess.schur");

  // Step 6: Schur complement S = H22 - H21 (U1^{-1} (L1^{-1} H12)).
  timer.Restart();
  const bool schur_resumed =
      Resume(checkpoints, kStageSchur, [&](const CheckpointSections& ckpt) {
        return DecodeSchur(ckpt, &dec);
      });
  if (!schur_resumed) {
    BEPI_ASSIGN_OR_RETURN(CsrMatrix t1, Multiply(dec.l1_inv, dec.h12));
    BEPI_ASSIGN_OR_RETURN(CsrMatrix t2, Multiply(dec.u1_inv, t1));
    BEPI_ASSIGN_OR_RETURN(CsrMatrix t3, Multiply(dec.h21, t2));
    dec.product_nnz = t3.nnz();
    BEPI_ASSIGN_OR_RETURN(dec.schur, Subtract(dec.h22, t3));
    Checkpoint(checkpoints, kStageSchur, &dec,
               [&] { return EncodeSchur(dec); });
  }
  if (budget != nullptr) {
    BEPI_RETURN_IF_ERROR(budget->Charge(dec.schur.ByteSize(),
                                        "Schur complement S"));
  }
  dec.schur_seconds = timer.Seconds();
  stage_span->Arg("schur_nnz", dec.schur.nnz());
  stage_span->Arg("resumed", static_cast<std::int64_t>(schur_resumed));
  return dec;
}

}  // namespace bepi
