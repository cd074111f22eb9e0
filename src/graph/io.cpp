#include "graph/io.hpp"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <sstream>
#include <string_view>
#include <system_error>

#include "common/faultinject.hpp"

namespace bepi {
namespace {

constexpr std::string_view kSpace = " \t\r";

/// Parses one non-negative node id. Distinguishes overflow from other
/// malformed input so the error message can say which.
enum class TokenResult { kOk, kMalformed, kOverflow };

TokenResult ParseId(std::string_view token, index_t* out) {
  if (token.empty()) return TokenResult::kMalformed;
  // std::from_chars accepts a leading '-'; node ids must not have one.
  if (token.front() == '-' || token.front() == '+') {
    return TokenResult::kMalformed;
  }
  const auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), *out);
  if (ec == std::errc::result_out_of_range) return TokenResult::kOverflow;
  if (ec != std::errc() || ptr != token.data() + token.size()) {
    return TokenResult::kMalformed;
  }
  return TokenResult::kOk;
}

/// Splits on blanks; returns false when the line does not hold exactly
/// `want` tokens (trailing garbage such as "1 2 x" is rejected).
bool SplitTokens(std::string_view line, std::string_view* tokens,
                 std::size_t want) {
  std::size_t found = 0;
  std::size_t pos = 0;
  while (true) {
    pos = line.find_first_not_of(kSpace, pos);
    if (pos == std::string_view::npos) break;
    const std::size_t end = line.find_first_of(kSpace, pos);
    const std::size_t len =
        (end == std::string_view::npos ? line.size() : end) - pos;
    if (found == want) return false;  // extra token
    tokens[found++] = line.substr(pos, len);
    pos += len;
  }
  return found == want;
}

std::string LineContext(index_t line_no, const std::string& line) {
  return " at line " + std::to_string(line_no) + ": " + line;
}

}  // namespace

Result<Graph> ReadEdgeList(std::istream& in, index_t num_nodes) {
  std::vector<Edge> edges;
  index_t max_id = -1;
  index_t declared_nodes = 0;
  std::string line;
  index_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (BEPI_FAULT_INJECTED(fault_sites::kEdgeListRead)) {
      return Status::IoError("injected IO fault reading edge list at line " +
                             std::to_string(line_no));
    }
    if (line.empty() || line[0] == '#' || line[0] == '%' ||
        line.find_first_not_of(kSpace) == std::string::npos) {
      // Honor the "# nodes N ..." header our writer emits, so graphs with
      // trailing isolated nodes round-trip exactly.
      std::istringstream header(line);
      std::string hash, keyword;
      index_t value = 0;
      if (header >> hash >> keyword >> value && keyword == "nodes") {
        declared_nodes = std::max(declared_nodes, value);
      }
      continue;
    }
    std::string_view tokens[2];
    if (!SplitTokens(line, tokens, 2)) {
      return Status::IoError("malformed edge" + LineContext(line_no, line));
    }
    index_t src = -1, dst = -1;
    for (int f = 0; f < 2; ++f) {
      index_t* id = f == 0 ? &src : &dst;
      switch (ParseId(tokens[f], id)) {
        case TokenResult::kOk:
          break;
        case TokenResult::kOverflow:
          return Status::IoError("node id overflows index_t" +
                                 LineContext(line_no, line));
        case TokenResult::kMalformed:
          return Status::IoError("malformed edge" + LineContext(line_no, line));
      }
    }
    if (num_nodes > 0 && (src >= num_nodes || dst >= num_nodes)) {
      return Status::InvalidArgument(
          "node id " + std::to_string(std::max(src, dst)) +
          " >= declared node count " + std::to_string(num_nodes) +
          LineContext(line_no, line));
    }
    edges.push_back({src, dst});
    max_id = std::max({max_id, src, dst});
  }
  if (in.bad()) {
    return Status::IoError("stream error reading edge list after line " +
                           std::to_string(line_no));
  }
  const index_t n =
      num_nodes > 0 ? num_nodes : std::max(declared_nodes, max_id + 1);
  return Graph::FromEdges(n, edges);
}

Result<Graph> ReadEdgeListFile(const std::string& path, index_t num_nodes) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open for reading: " + path);
  return ReadEdgeList(in, num_nodes);
}

Result<std::vector<index_t>> ReadSeedsFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open seeds file: " + path);
  std::vector<index_t> seeds;
  std::string line;
  index_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::string_view text =
        std::string_view(line).substr(0, line.find('#'));
    if (text.find_first_not_of(kSpace) == std::string_view::npos) continue;
    const auto bad = [&](const char* what) {
      std::string message = "seeds file " + path;
      message += " line " + std::to_string(line_no) + ": ";
      message += what;
      return Status::InvalidArgument(std::move(message));
    };
    std::string_view token;
    if (!SplitTokens(text, &token, 1)) {
      return bad("trailing content after seed");
    }
    index_t seed = 0;
    switch (ParseId(token, &seed)) {
      case TokenResult::kOk:
        break;
      case TokenResult::kOverflow:
        return bad("node id overflows index_t");
      case TokenResult::kMalformed:
        return bad("expected an integer node id");
    }
    seeds.push_back(seed);
  }
  return seeds;
}

Status WriteEdgeList(const Graph& g, std::ostream& out) {
  out << "# nodes " << g.num_nodes() << " edges " << g.num_edges() << "\n";
  for (const Edge& e : g.EdgeList()) {
    out << e.src << " " << e.dst << "\n";
  }
  if (!out) return Status::IoError("failed writing edge list");
  return Status::Ok();
}

Status WriteEdgeListFile(const Graph& g, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open for writing: " + path);
  return WriteEdgeList(g, out);
}

}  // namespace bepi
