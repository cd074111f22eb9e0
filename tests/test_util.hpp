// Shared helpers for the BePI test suite: deterministic random matrices,
// graphs, and dense oracles.
#ifndef BEPI_TESTS_TEST_UTIL_HPP_
#define BEPI_TESTS_TEST_UTIL_HPP_

#include <gtest/gtest.h>

#include <cctype>
#include <cstddef>
#include <functional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/sections.hpp"
#include "core/decomposition.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "sparse/coo.hpp"
#include "sparse/csr.hpp"
#include "sparse/dense.hpp"

namespace bepi::test {

/// Re-frames a section-framed file with `edit` applied to the payload of
/// section `name`. Checksums and the manifest are recomputed, so only the
/// payload decoder can notice the damage.
inline std::string ReframeSection(
    const std::string& framed, std::string_view magic, std::string_view name,
    const std::function<void(std::string*)>& edit) {
  auto reader = SectionReader::Open(framed, magic);
  BEPI_CHECK(reader.ok());
  std::ostringstream out;
  SectionWriter writer(out, magic);
  for (;;) {
    auto next = reader->Next();
    BEPI_CHECK(next.ok());
    if (!next->has_value()) break;
    std::string payload((*next)->payload);
    if ((*next)->name == name) edit(&payload);
    BEPI_CHECK(writer.Add((*next)->name, payload).ok());
  }
  BEPI_CHECK(writer.Finish().ok());
  return out.str();
}

/// `m` as MatrixMarket coordinate text (1-based, doubles at precision 17):
/// how the retired text models and v1 checkpoints stored a matrix.
inline std::string MatrixMarketText(const CsrMatrix& m) {
  std::ostringstream out;
  out.precision(17);
  out << "%%MatrixMarket matrix coordinate real general\n"
      << m.rows() << " " << m.cols() << " " << m.nnz() << "\n";
  for (index_t r = 0; r < m.rows(); ++r) {
    for (index_t p = m.row_ptr()[static_cast<std::size_t>(r)];
         p < m.row_ptr()[static_cast<std::size_t>(r) + 1]; ++p) {
      out << r + 1 << " " << m.col_idx()[static_cast<std::size_t>(p)] + 1
          << " " << m.values()[static_cast<std::size_t>(p)] << "\n";
    }
  }
  return out.str();
}

/// Random sparse matrix with the given density; values uniform in [-1, 1).
inline CsrMatrix RandomSparse(index_t rows, index_t cols, real_t density,
                              Rng* rng) {
  CooMatrix coo(rows, cols);
  for (index_t r = 0; r < rows; ++r) {
    for (index_t c = 0; c < cols; ++c) {
      if (rng->NextDouble() < density) {
        coo.Add(r, c, 2.0 * rng->NextDouble() - 1.0);
      }
    }
  }
  auto csr = coo.ToCsr();
  BEPI_CHECK(csr.ok());
  return std::move(csr).value();
}

/// Random square, strictly diagonally dominant matrix (always invertible;
/// LU without pivoting is stable on it).
inline CsrMatrix RandomDiagDominant(index_t n, real_t density, Rng* rng) {
  CooMatrix coo(n, n);
  std::vector<real_t> row_abs(static_cast<std::size_t>(n), 0.0);
  for (index_t r = 0; r < n; ++r) {
    for (index_t c = 0; c < n; ++c) {
      if (r != c && rng->NextDouble() < density) {
        const real_t v = 2.0 * rng->NextDouble() - 1.0;
        coo.Add(r, c, v);
        row_abs[static_cast<std::size_t>(r)] += v < 0 ? -v : v;
      }
    }
  }
  for (index_t r = 0; r < n; ++r) {
    coo.Add(r, r, row_abs[static_cast<std::size_t>(r)] + 1.0);
  }
  auto csr = coo.ToCsr();
  BEPI_CHECK(csr.ok());
  return std::move(csr).value();
}

/// Random dense vector with entries in [-1, 1).
inline Vector RandomVector(index_t n, Rng* rng) {
  Vector v(static_cast<std::size_t>(n));
  for (auto& x : v) x = 2.0 * rng->NextDouble() - 1.0;
  return v;
}

/// Small deterministic R-MAT graph with deadends.
inline Graph SmallRmat(index_t n, index_t m, real_t deadend_fraction,
                       std::uint64_t seed) {
  Rng rng(seed);
  RmatOptions options;
  options.num_nodes = n;
  options.num_edges = m;
  options.deadend_fraction = deadend_fraction;
  auto g = GenerateRmat(options, &rng);
  BEPI_CHECK(g.ok());
  return std::move(g).value();
}

/// The nodes a decomposition reorders into its hub block: a seed among
/// them has a nonzero Schur right-hand side, so its solve runs GMRES (and
/// reaches its fault sites) rather than converging at once on a zero
/// right-hand side.
inline std::vector<index_t> HubSeeds(const HubSpokeDecomposition& dec) {
  std::vector<index_t> hubs;
  for (index_t u = 0; u < dec.n; ++u) {
    const index_t pos = dec.perm[static_cast<std::size_t>(u)];
    if (pos >= dec.n1 && pos < dec.n1 + dec.n2) hubs.push_back(u);
  }
  return hubs;
}

/// The 8-node example graph from Figure 2 of the paper.
inline Graph PaperExampleGraph() {
  // Undirected edges from the figure, both directions.
  const std::vector<std::pair<index_t, index_t>> undirected = {
      {0, 1}, {0, 2}, {0, 3}, {0, 4}, {1, 2}, {1, 4},
      {3, 7}, {4, 7}, {4, 5}, {5, 6}, {5, 7},
  };
  std::vector<Edge> edges;
  for (auto [u, v] : undirected) {
    edges.push_back({u, v});
    edges.push_back({v, u});
  }
  auto g = Graph::FromEdges(8, edges);
  BEPI_CHECK(g.ok());
  return std::move(g).value();
}

namespace json_detail {

inline void SkipWs(const std::string& s, std::size_t* i) {
  while (*i < s.size() && (s[*i] == ' ' || s[*i] == '\t' || s[*i] == '\n' ||
                           s[*i] == '\r')) {
    ++*i;
  }
}

inline bool ParseString(const std::string& s, std::size_t* i) {
  if (*i >= s.size() || s[*i] != '"') return false;
  ++*i;
  while (*i < s.size()) {
    const char c = s[*i];
    if (c == '"') {
      ++*i;
      return true;
    }
    if (static_cast<unsigned char>(c) < 0x20) return false;  // raw control
    if (c == '\\') {
      ++*i;
      if (*i >= s.size()) return false;
      const char e = s[*i];
      if (e == 'u') {
        for (int k = 0; k < 4; ++k) {
          ++*i;
          if (*i >= s.size() || !std::isxdigit(static_cast<unsigned char>(
                                    s[*i]))) {
            return false;
          }
        }
      } else if (e != '"' && e != '\\' && e != '/' && e != 'b' && e != 'f' &&
                 e != 'n' && e != 'r' && e != 't') {
        return false;
      }
    }
    ++*i;
  }
  return false;  // unterminated
}

inline bool ParseNumber(const std::string& s, std::size_t* i) {
  const std::size_t start = *i;
  if (*i < s.size() && s[*i] == '-') ++*i;
  std::size_t digits = 0;
  while (*i < s.size() && std::isdigit(static_cast<unsigned char>(s[*i]))) {
    ++*i;
    ++digits;
  }
  if (digits == 0) return false;
  if (*i < s.size() && s[*i] == '.') {
    ++*i;
    digits = 0;
    while (*i < s.size() && std::isdigit(static_cast<unsigned char>(s[*i]))) {
      ++*i;
      ++digits;
    }
    if (digits == 0) return false;
  }
  if (*i < s.size() && (s[*i] == 'e' || s[*i] == 'E')) {
    ++*i;
    if (*i < s.size() && (s[*i] == '+' || s[*i] == '-')) ++*i;
    digits = 0;
    while (*i < s.size() && std::isdigit(static_cast<unsigned char>(s[*i]))) {
      ++*i;
      ++digits;
    }
    if (digits == 0) return false;
  }
  return *i > start;
}

bool ParseValue(const std::string& s, std::size_t* i);  // forward

inline bool ParseObject(const std::string& s, std::size_t* i) {
  ++*i;  // consume '{'
  SkipWs(s, i);
  if (*i < s.size() && s[*i] == '}') {
    ++*i;
    return true;
  }
  while (true) {
    SkipWs(s, i);
    if (!ParseString(s, i)) return false;
    SkipWs(s, i);
    if (*i >= s.size() || s[*i] != ':') return false;
    ++*i;
    if (!ParseValue(s, i)) return false;
    SkipWs(s, i);
    if (*i >= s.size()) return false;
    if (s[*i] == ',') {
      ++*i;
      continue;
    }
    if (s[*i] == '}') {
      ++*i;
      return true;
    }
    return false;
  }
}

inline bool ParseArray(const std::string& s, std::size_t* i) {
  ++*i;  // consume '['
  SkipWs(s, i);
  if (*i < s.size() && s[*i] == ']') {
    ++*i;
    return true;
  }
  while (true) {
    if (!ParseValue(s, i)) return false;
    SkipWs(s, i);
    if (*i >= s.size()) return false;
    if (s[*i] == ',') {
      ++*i;
      continue;
    }
    if (s[*i] == ']') {
      ++*i;
      return true;
    }
    return false;
  }
}

inline bool ParseValue(const std::string& s, std::size_t* i) {
  SkipWs(s, i);
  if (*i >= s.size()) return false;
  const char c = s[*i];
  if (c == '{') return ParseObject(s, i);
  if (c == '[') return ParseArray(s, i);
  if (c == '"') return ParseString(s, i);
  if (s.compare(*i, 4, "true") == 0) {
    *i += 4;
    return true;
  }
  if (s.compare(*i, 5, "false") == 0) {
    *i += 5;
    return true;
  }
  if (s.compare(*i, 4, "null") == 0) {
    *i += 4;
    return true;
  }
  return ParseNumber(s, i);
}

}  // namespace json_detail

/// Strict structural JSON validator (RFC 8259 syntax, no semantics) for
/// checking the --metrics-out / --trace-out / BENCH_*.json emitters.
inline bool IsValidJson(const std::string& s) {
  std::size_t i = 0;
  if (!json_detail::ParseValue(s, &i)) return false;
  json_detail::SkipWs(s, &i);
  return i == s.size();
}

}  // namespace bepi::test

#endif  // BEPI_TESTS_TEST_UTIL_HPP_
