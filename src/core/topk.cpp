#include "core/topk.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.hpp"
#include "common/metrics.hpp"

namespace bepi {
namespace {

/// Rounding slack on every derived bound: the bound arithmetic itself and
/// the kernel dot products it must dominate each round over a handful of
/// operations, so a relative pad of 1e-6 (plus a denormal-proof absolute
/// pad) keeps the bounds honest without costing measurable pruning power —
/// true scores live many orders of magnitude above 1e-280.
constexpr real_t kRelSlack = 1e-6;
constexpr real_t kAbsSlack = 1e-280;

inline real_t Pad(real_t v) { return v * (1.0 + kRelSlack) + kAbsSlack; }

/// Absolute row sums of a view (the sup-norm amplification of each output
/// coordinate).
std::vector<real_t> AbsRowSums(const KernelCsr& m) {
  std::vector<real_t> sums(static_cast<std::size_t>(m.rows()), 0.0);
  const real_t* values = m.values();
  m.Visit([&](const auto* row_ptr, const auto*) {
    for (index_t r = 0; r < m.rows(); ++r) {
      real_t s = 0.0;
      for (auto p = row_ptr[r]; p < row_ptr[r + 1]; ++p) {
        s += std::abs(values[p]);
      }
      sums[static_cast<std::size_t>(r)] = s;
    }
  });
  return sums;
}

/// spmv.bytes traffic model for one SpMV over the whole matrix.
std::uint64_t DenseSpmvBytes(const KernelCsr& m, std::uint64_t idx) {
  return static_cast<std::uint64_t>(m.nnz()) * (idx + sizeof(real_t)) +
         static_cast<std::uint64_t>(m.rows() + 1) * idx +
         (static_cast<std::uint64_t>(m.cols()) +
          static_cast<std::uint64_t>(m.rows())) *
             sizeof(real_t);
}

}  // namespace

const char* TopKModeName(TopKMode mode) {
  return mode == TopKMode::kEps ? "eps" : "exact";
}

real_t TopKBoundTables::R1RowBound(index_t row, real_t r2_max) const {
  const index_t b = row_block[static_cast<std::size_t>(row)];
  return Pad(au[static_cast<std::size_t>(row)] *
             block_al_max[static_cast<std::size_t>(b)] *
             block_a12_max[static_cast<std::size_t>(b)] * r2_max);
}

TopKBoundTables BuildTopKBoundTables(const HubSpokeDecomposition& dec,
                                     const DecompositionKernels& kern) {
  TopKBoundTables t;
  // Preprocessing and every model load provide blocks that tile the
  // spokes.
  const std::vector<index_t>& sizes = dec.block_sizes;
  const std::size_t nb = sizes.size();
  t.block_start.resize(nb + 1, 0);
  for (std::size_t b = 0; b < nb; ++b) {
    t.block_start[b + 1] = t.block_start[b] + sizes[b];
  }
  BEPI_CHECK(t.block_start[nb] == dec.n1);
  t.row_block.resize(static_cast<std::size_t>(dec.n1));
  for (std::size_t b = 0; b < nb; ++b) {
    for (index_t i = t.block_start[b]; i < t.block_start[b + 1]; ++i) {
      t.row_block[static_cast<std::size_t>(i)] = static_cast<index_t>(b);
    }
  }
  t.au = AbsRowSums(kern.u1_inv);
  t.a12 = AbsRowSums(kern.h12);
  const std::vector<real_t> al = AbsRowSums(kern.l1_inv);
  t.block_al_max.assign(nb, 0.0);
  t.block_a12_max.assign(nb, 0.0);
  std::vector<real_t> block_au_max(nb, 0.0);
  for (index_t i = 0; i < dec.n1; ++i) {
    const std::size_t b =
        static_cast<std::size_t>(t.row_block[static_cast<std::size_t>(i)]);
    t.block_al_max[b] =
        std::max(t.block_al_max[b], al[static_cast<std::size_t>(i)]);
    t.block_a12_max[b] =
        std::max(t.block_a12_max[b], t.a12[static_cast<std::size_t>(i)]);
    block_au_max[b] =
        std::max(block_au_max[b], t.au[static_cast<std::size_t>(i)]);
  }
  for (std::size_t b = 0; b < nb; ++b) {
    t.r1_coeff_max =
        std::max(t.r1_coeff_max,
                 block_au_max[b] * t.block_al_max[b] * t.block_a12_max[b]);
  }
  t.a31 = AbsRowSums(kern.h31);
  t.a32 = AbsRowSums(kern.h32);
  for (real_t v : t.a31) t.a31_max = std::max(t.a31_max, v);
  for (real_t v : t.a32) t.a32_max = std::max(t.a32_max, v);
  return t;
}

real_t ScoreErrorBound(const TopKBoundTables& tables, real_t residual_norm1,
                       real_t restart_prob) {
  // ||dr2||_inf <= ||S^{-1}||_1 ||rho||_1 <= ||rho||_1 / c: S^{-1} is the
  // hub-hub block of H^{-1}, and ||H^{-1}||_1 <= sum_t (1-c)^t = 1/c
  // because the columns of (1-c) A~^T sum to at most 1-c.
  const real_t err2 = residual_norm1 / restart_prob;
  // Propagated through back-substitution: dr1 = U1^{-1} L1^{-1} H12 dr2,
  // dr3 = H31 dr1 + H32 dr2, each bounded by the absolute-row-sum tables.
  const real_t err1 = tables.r1_coeff_max * err2;
  const real_t err3 = tables.a31_max * err1 + tables.a32_max * err2;
  return Pad(std::max(err2, std::max(err1, err3)));
}

real_t FullSystemScoreBound(real_t residual_norm1, real_t restart_prob) {
  return Pad(residual_norm1 / restart_prob);
}

std::uint64_t DenseBackSubstitutionBytes(const DecompositionKernels& kern,
                                         bool compact_path) {
  const std::uint64_t idx = compact_path ? 4 : 8;
  return DenseSpmvBytes(kern.h12, idx) + DenseSpmvBytes(kern.l1_inv, idx) +
         DenseSpmvBytes(kern.u1_inv, idx) + DenseSpmvBytes(kern.h31, idx) +
         DenseSpmvBytes(kern.h32, idx);
}

void CountTopKDenseFallback() {
  if (!MetricsEnabled()) return;
  // Registered together with the counters PrunedTopK owns so any top-k
  // activity publishes the full topk.* key set (the docs glossary
  // cross-check relies on deterministic keys).
  BEPI_METRIC_COUNTER(queries, "topk.queries");
  BEPI_METRIC_COUNTER(candidates, "topk.candidates");
  BEPI_METRIC_COUNTER(pruned_rows, "topk.pruned_rows");
  BEPI_METRIC_COUNTER(bytes, "topk.bytes_touched");
  BEPI_METRIC_COUNTER(fallbacks, "topk.dense_fallbacks");
  (void)candidates;
  (void)pruned_rows;
  (void)bytes;
  queries->Increment();
  fallbacks->Increment();
}

TopKResult PrunedTopK(const HubSpokeDecomposition& dec,
                      const DecompositionKernels& kern,
                      const TopKBoundTables& tables,
                      const Permutation& inverse_perm, const Vector& cq1,
                      const Vector& cq3, const Vector& r2, real_t score_bound,
                      const TopKOptions& opts) {
  BEPI_CHECK(opts.k >= 1);
  const index_t n1 = dec.n1, n2 = dec.n2, n3 = dec.n3, n = dec.n;
  // Block layout from the tables, not dec.block_sizes: the tables
  // synthesize a single block when the model carries no layout.
  const std::size_t nb = tables.block_start.size() - 1;
  const std::uint64_t idx_bytes = kern.path == KernelPath::kCompact ? 4 : 8;
  constexpr real_t kInf = std::numeric_limits<real_t>::infinity();

  TopKResult out;
  out.error_bound = score_bound;
  out.pruned = true;

  real_t r2_max = 0.0;
  for (real_t v : r2) r2_max = std::max(r2_max, std::abs(v));

  // Per-row streaming cost of the pruned path: the row's slice of the
  // index/value arrays, its two row_ptr entries, one operand read per
  // stored entry and the output write.
  auto touch_row = [&](const KernelCsr& m, index_t r) {
    const std::uint64_t len = static_cast<std::uint64_t>(m.RowNnz(r));
    out.bytes_touched += len * (idx_bytes + 2 * sizeof(real_t)) +
                         2 * idx_bytes + sizeof(real_t);
  };

  // Back-substitution scratch, full length but only filled blockwise:
  // L1^{-1}/U1^{-1} are block diagonal, so rows of a computed block never
  // read outside it, and H31 rows of candidates only read blocks the
  // closure below forces computed.
  Vector rhs1(static_cast<std::size_t>(n1), 0.0);
  Vector s1(static_cast<std::size_t>(n1), 0.0);
  Vector r1(static_cast<std::size_t>(n1), 0.0);
  std::vector<char> computed(nb, 0);
  // Replicates the dense sequence per row: rhs1 = cq1 - H12 r2 (the
  // MultiplyAdd alpha = -1.0 form), then the two triangular solves as
  // plain Multiply row dots.
  auto compute_block = [&](index_t b) {
    if (computed[static_cast<std::size_t>(b)]) return;
    computed[static_cast<std::size_t>(b)] = 1;
    const index_t bs = tables.block_start[static_cast<std::size_t>(b)];
    const index_t be = tables.block_start[static_cast<std::size_t>(b) + 1];
    for (index_t i = bs; i < be; ++i) {
      rhs1[static_cast<std::size_t>(i)] =
          cq1[static_cast<std::size_t>(i)] +
          (-1.0) * kern.h12.RowDot(i, r2.data());
      touch_row(kern.h12, i);
    }
    for (index_t i = bs; i < be; ++i) {
      s1[static_cast<std::size_t>(i)] = kern.l1_inv.RowDot(i, rhs1.data());
      touch_row(kern.l1_inv, i);
    }
    for (index_t i = bs; i < be; ++i) {
      r1[static_cast<std::size_t>(i)] = kern.u1_inv.RowDot(i, s1.data());
      touch_row(kern.u1_inv, i);
    }
  };

  // The seed's block (when the seed is a spoke) carries the c*q1 term no
  // table bounds, so it is always computed up front; its rows then enter
  // candidate selection with exact (zero-width) intervals.
  index_t seed_pos = -1;
  for (index_t i = 0; i < n1; ++i) {
    if (cq1[static_cast<std::size_t>(i)] != 0.0) {
      seed_pos = i;
      compute_block(tables.row_block[static_cast<std::size_t>(i)]);
    }
  }
  (void)seed_pos;

  // Score intervals per reordered position: [lb, ub] always contains the
  // dense solve's computed value for that node.
  Vector lb(static_cast<std::size_t>(n)), ub(static_cast<std::size_t>(n));
  real_t r1_max = Pad(tables.r1_coeff_max * r2_max);
  for (std::size_t b = 0; b < nb; ++b) {
    if (!computed[b]) continue;
    for (index_t i = tables.block_start[b]; i < tables.block_start[b + 1];
         ++i) {
      r1_max = std::max(r1_max, std::abs(r1[static_cast<std::size_t>(i)]));
    }
  }
  for (index_t i = 0; i < n1; ++i) {
    if (computed[static_cast<std::size_t>(
            tables.row_block[static_cast<std::size_t>(i)])]) {
      lb[static_cast<std::size_t>(i)] = ub[static_cast<std::size_t>(i)] =
          r1[static_cast<std::size_t>(i)];
    } else {
      const real_t w = tables.R1RowBound(i, r2_max);
      lb[static_cast<std::size_t>(i)] = -w;
      ub[static_cast<std::size_t>(i)] = w;
    }
  }
  for (index_t j = 0; j < n2; ++j) {
    lb[static_cast<std::size_t>(n1 + j)] = ub[static_cast<std::size_t>(n1 + j)] =
        r2[static_cast<std::size_t>(j)];
  }
  for (index_t i = 0; i < n3; ++i) {
    const real_t center = cq3[static_cast<std::size_t>(i)];
    const real_t w = Pad(tables.a31[static_cast<std::size_t>(i)] * r1_max +
                         tables.a32[static_cast<std::size_t>(i)] * r2_max);
    lb[static_cast<std::size_t>(n1 + n2 + i)] = center - w;
    ub[static_cast<std::size_t>(n1 + n2 + i)] = center + w;
  }
  if (opts.exclude >= 0 && opts.exclude < n) {
    const std::size_t pos =
        static_cast<std::size_t>(dec.perm[static_cast<std::size_t>(opts.exclude)]);
    lb[pos] = ub[pos] = -kInf;
  }

  // tau = k-th largest lower bound: at least k nodes score >= tau, so any
  // node with ub < tau is strictly below k others and provably out —
  // boundary ties included, whatever the id tie-break says.
  real_t tau = -kInf;
  if (static_cast<std::size_t>(opts.k) < lb.size()) {
    Vector lbs = lb;
    std::nth_element(lbs.begin(),
                     lbs.begin() + static_cast<std::ptrdiff_t>(opts.k - 1),
                     lbs.end(), std::greater<real_t>());
    tau = lbs[static_cast<std::size_t>(opts.k - 1)];
  }

  // Candidate rows plus the closure of H11 blocks their scores read:
  // every candidate spoke's own block, and every block referenced by a
  // candidate deadend's H31 row.
  std::vector<index_t> cand1, cand3;
  for (index_t i = 0; i < n1; ++i) {
    if (ub[static_cast<std::size_t>(i)] >= tau) cand1.push_back(i);
  }
  for (index_t i = 0; i < n3; ++i) {
    if (ub[static_cast<std::size_t>(n1 + n2 + i)] >= tau) cand3.push_back(i);
  }
  auto block_of = [&](index_t col) {
    return static_cast<index_t>(
        std::upper_bound(tables.block_start.begin(), tables.block_start.end(),
                         col) -
        tables.block_start.begin() - 1);
  };
  for (index_t i : cand1) {
    compute_block(tables.row_block[static_cast<std::size_t>(i)]);
  }
  kern.h31.Visit([&](const auto* h31_ptr, const auto* h31_col) {
    for (index_t i : cand3) {
      for (auto p = h31_ptr[i]; p < h31_ptr[i + 1]; ++p) {
        compute_block(block_of(static_cast<index_t>(h31_col[p])));
      }
    }
  });

  // Candidate scores, dense order per row: r3 = (cq3 - H31 r1) - H32 r2.
  out.entries.reserve(cand1.size() + cand3.size() + static_cast<std::size_t>(n2));
  const index_t exclude_pos =
      (opts.exclude >= 0 && opts.exclude < n)
          ? dec.perm[static_cast<std::size_t>(opts.exclude)]
          : static_cast<index_t>(-1);
  auto emit = [&](index_t pos, real_t score) {
    if (pos == exclude_pos) return;
    out.entries.emplace_back(inverse_perm[static_cast<std::size_t>(pos)],
                             score);
  };
  for (index_t i : cand1) emit(i, r1[static_cast<std::size_t>(i)]);
  for (index_t j = 0; j < n2; ++j) {
    if (ub[static_cast<std::size_t>(n1 + j)] >= tau) {
      emit(n1 + j, r2[static_cast<std::size_t>(j)]);
    }
  }
  for (index_t i : cand3) {
    real_t v = cq3[static_cast<std::size_t>(i)] +
               (-1.0) * kern.h31.RowDot(i, r1.data());
    v += (-1.0) * kern.h32.RowDot(i, r2.data());
    touch_row(kern.h31, i);
    touch_row(kern.h32, i);
    emit(n1 + n2 + i, v);
  }

  // Same comparator as core/rwr.hpp TopK: score descending, ties by node
  // id — the candidate superset sorted this way shares its first k entries
  // with the sorted full vector.
  std::sort(out.entries.begin(), out.entries.end(),
            [](const auto& a, const auto& b) {
              return a.second != b.second ? a.second > b.second
                                          : a.first < b.first;
            });
  if (out.entries.size() > static_cast<std::size_t>(opts.k)) {
    out.entries.resize(static_cast<std::size_t>(opts.k));
  }

  index_t computed_rows = 0;
  for (std::size_t b = 0; b < nb; ++b) {
    if (computed[b]) {
      computed_rows += tables.block_start[b + 1] - tables.block_start[b];
    }
  }
  computed_rows += static_cast<index_t>(cand3.size());
  out.candidates = computed_rows;
  out.pruned_rows = n1 + n3 - computed_rows;

  if (MetricsEnabled()) {
    BEPI_METRIC_COUNTER(queries, "topk.queries");
    BEPI_METRIC_COUNTER(candidates, "topk.candidates");
    BEPI_METRIC_COUNTER(pruned_rows, "topk.pruned_rows");
    BEPI_METRIC_COUNTER(bytes, "topk.bytes_touched");
    BEPI_METRIC_COUNTER(fallbacks, "topk.dense_fallbacks");
    (void)fallbacks;
    queries->Increment();
    candidates->Increment(static_cast<std::uint64_t>(out.candidates));
    pruned_rows->Increment(static_cast<std::uint64_t>(out.pruned_rows));
    bytes->Increment(out.bytes_touched);
  }
  return out;
}

}  // namespace bepi
