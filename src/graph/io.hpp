// Edge-list graph IO: one "src dst" pair per line, '#' or '%' comments,
// the format used by SNAP/KONECT dumps of the paper's datasets; and seed
// lists, one node id per line.
#ifndef BEPI_GRAPH_IO_HPP_
#define BEPI_GRAPH_IO_HPP_

#include <iosfwd>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "graph/graph.hpp"

namespace bepi {

/// Reads an edge list. If `num_nodes` <= 0, the node count is inferred as
/// max id + 1.
Result<Graph> ReadEdgeList(std::istream& in, index_t num_nodes = 0);
Result<Graph> ReadEdgeListFile(const std::string& path, index_t num_nodes = 0);

/// Reads a seeds file: one node id per line, blank lines and '#' comments
/// ignored. A line that is not one unsigned integer that fits index_t is an
/// InvalidArgument naming the line. Used by `bepi_cli query --seeds-file`.
Result<std::vector<index_t>> ReadSeedsFile(const std::string& path);

Status WriteEdgeList(const Graph& g, std::ostream& out);
Status WriteEdgeListFile(const Graph& g, const std::string& path);

}  // namespace bepi

#endif  // BEPI_GRAPH_IO_HPP_
