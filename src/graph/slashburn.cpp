#include "graph/slashburn.hpp"

#include <algorithm>
#include <cmath>

#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "common/trace.hpp"
#include "graph/components.hpp"

namespace bepi {

Result<SlashBurnResult> SlashBurn(const CsrMatrix& adjacency,
                                  const SlashBurnOptions& options) {
  if (adjacency.rows() != adjacency.cols()) {
    return Status::InvalidArgument("SlashBurn needs a square matrix");
  }
  if (!(options.k_ratio > 0.0) || options.k_ratio > 1.0) {
    return Status::InvalidArgument("SlashBurn k_ratio must be in (0, 1]");
  }
  const index_t n = adjacency.rows();
  SlashBurnResult result;
  result.perm.assign(static_cast<std::size_t>(n), -1);
  if (n == 0) return result;

  const CsrMatrix sym = SymmetrizePattern(adjacency);
  const index_t n_sel = static_cast<index_t>(
      std::ceil(options.k_ratio * static_cast<real_t>(n)));

  std::vector<bool> active(static_cast<std::size_t>(n), true);
  index_t active_count = n;
  index_t low_next = 0;    // next spoke id
  index_t high_next = n - 1;  // next hub id

  if (options.resume_from != nullptr) {
    // Rebuild the round state from a partial result: active nodes are
    // exactly those without an assigned id, spoke ids grow from the low
    // end and hub ids from the high end.
    if (options.hub_selection == SlashBurnOptions::HubSelection::kRandom) {
      return Status::InvalidArgument(
          "SlashBurn resume requires degree-based hub selection");
    }
    const SlashBurnResult& from = *options.resume_from;
    if (static_cast<index_t>(from.perm.size()) != n) {
      return Status::InvalidArgument("SlashBurn resume state size mismatch");
    }
    if (from.num_spokes < 0 || from.num_hubs < 0 ||
        from.num_spokes > n - from.num_hubs) {
      return Status::InvalidArgument("SlashBurn resume state inconsistent");
    }
    // Assigned ids are distinct and fill the spoke ids from the low end
    // and the hub ids from the high end, nothing in between.
    std::vector<bool> taken(static_cast<std::size_t>(n), false);
    index_t assigned = 0;
    for (index_t u = 0; u < n; ++u) {
      const index_t pos = from.perm[static_cast<std::size_t>(u)];
      if (pos < 0) continue;
      if (pos >= n || taken[static_cast<std::size_t>(pos)] ||
          (pos >= from.num_spokes && pos < n - from.num_hubs)) {
        return Status::InvalidArgument("SlashBurn resume state id out of range");
      }
      taken[static_cast<std::size_t>(pos)] = true;
      active[static_cast<std::size_t>(u)] = false;
      ++assigned;
    }
    index_t spokes_in_blocks = 0;
    for (index_t size : from.block_sizes) spokes_in_blocks += size;
    if (assigned != from.num_spokes + from.num_hubs ||
        spokes_in_blocks != from.num_spokes) {
      return Status::InvalidArgument("SlashBurn resume state inconsistent");
    }
    result = from;
    active_count = n - assigned;
    low_next = from.num_spokes;
    high_next = n - 1 - from.num_hubs;
  }

  std::vector<index_t> degree(static_cast<std::size_t>(n), 0);
  Rng rng(options.random_seed);
  while (active_count > 0) {
    if (active_count < n_sel ||
        (options.max_iterations > 0 &&
         result.iterations >= options.max_iterations)) {
      break;  // remaining GCC joins the hub region below
    }
    ++result.iterations;
    TraceSpan round_span("slashburn.round");
    round_span.Arg("round", result.iterations);
    round_span.Arg("active", active_count);
    if (MetricsEnabled()) {
      BEPI_METRIC_COUNTER(rounds, "slashburn.rounds");
      rounds->Increment();
    }

    // Degrees within the active subgraph.
    for (index_t u = 0; u < n; ++u) {
      if (!active[static_cast<std::size_t>(u)]) continue;
      index_t d = 0;
      for (index_t p = sym.row_ptr()[static_cast<std::size_t>(u)];
           p < sym.row_ptr()[static_cast<std::size_t>(u) + 1]; ++p) {
        if (active[static_cast<std::size_t>(
                sym.col_idx()[static_cast<std::size_t>(p)])]) {
          ++d;
        }
      }
      degree[static_cast<std::size_t>(u)] = d;
    }

    // Select the ceil(k*n) highest-degree active nodes as hubs
    // (ties broken by lower id for determinism).
    std::vector<index_t> candidates;
    candidates.reserve(static_cast<std::size_t>(active_count));
    for (index_t u = 0; u < n; ++u) {
      if (active[static_cast<std::size_t>(u)]) candidates.push_back(u);
    }
    const index_t take = std::min<index_t>(n_sel, active_count);
    if (options.hub_selection == SlashBurnOptions::HubSelection::kRandom) {
      rng.Shuffle(&candidates);
    } else {
      std::partial_sort(
          candidates.begin(), candidates.begin() + take, candidates.end(),
          [&](index_t a, index_t b) {
            const index_t da = degree[static_cast<std::size_t>(a)];
            const index_t db = degree[static_cast<std::size_t>(b)];
            return da != db ? da > db : a < b;
          });
    }
    // Highest-degree hub gets the highest remaining id.
    for (index_t i = 0; i < take; ++i) {
      const index_t hub = candidates[static_cast<std::size_t>(i)];
      active[static_cast<std::size_t>(hub)] = false;
      result.perm[static_cast<std::size_t>(hub)] = high_next--;
      ++result.num_hubs;
      --active_count;
    }
    if (active_count == 0) break;

    // Components of the residual graph; the largest (GCC) survives to the
    // next iteration, all others become spoke blocks.
    ComponentInfo comps = ConnectedComponentsMasked(sym, active);
    index_t gcc = 0;
    for (index_t c = 1; c < comps.num_components; ++c) {
      if (comps.sizes[static_cast<std::size_t>(c)] >
          comps.sizes[static_cast<std::size_t>(gcc)]) {
        gcc = c;
      }
    }
    if (comps.num_components > 1) {
      // Group member lists per non-GCC component, then assign spoke ids in
      // decreasing component-size order (ties by discovery order).
      std::vector<std::vector<index_t>> members(
          static_cast<std::size_t>(comps.num_components));
      for (index_t u = 0; u < n; ++u) {
        const index_t c = comps.component_id[static_cast<std::size_t>(u)];
        if (c >= 0 && c != gcc) {
          members[static_cast<std::size_t>(c)].push_back(u);
        }
      }
      std::vector<index_t> order;
      for (index_t c = 0; c < comps.num_components; ++c) {
        if (c != gcc && !members[static_cast<std::size_t>(c)].empty()) {
          order.push_back(c);
        }
      }
      std::stable_sort(order.begin(), order.end(), [&](index_t a, index_t b) {
        return members[static_cast<std::size_t>(a)].size() >
               members[static_cast<std::size_t>(b)].size();
      });
      for (index_t c : order) {
        const auto& nodes = members[static_cast<std::size_t>(c)];
        result.block_sizes.push_back(static_cast<index_t>(nodes.size()));
        for (index_t u : nodes) {
          active[static_cast<std::size_t>(u)] = false;
          result.perm[static_cast<std::size_t>(u)] = low_next++;
          ++result.num_spokes;
          --active_count;
        }
      }
    }
    if (options.round_hook) {
      BEPI_RETURN_IF_ERROR(options.round_hook(result));
    }
  }

  // Remaining active nodes (the final GCC) take the middle ids and count
  // as hubs: they are part of the H22 region.
  for (index_t u = 0; u < n; ++u) {
    if (active[static_cast<std::size_t>(u)]) {
      result.perm[static_cast<std::size_t>(u)] = low_next++;
      ++result.num_hubs;
    }
  }
  return result;
}

}  // namespace bepi
