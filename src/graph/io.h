// Plain-text graph (de)serialization.
//
// Format (whitespace/newline separated):
//   line 1:  n m
//   m lines: u v            [w]      — 0-based endpoints, optional weight
// Comments: lines starting with '#' are skipped. This covers the common
// edge-list corpora (SNAP-style) after trivial preprocessing, so users can
// feed real graphs to the library.
#ifndef MPCG_GRAPH_IO_H
#define MPCG_GRAPH_IO_H

#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "graph/graph.h"

namespace mpcg {

struct LoadedGraph {
  Graph graph;
  /// Present iff the file carried a third column; indexed by edge id.
  std::optional<std::vector<double>> weights;
};

/// Parses the format above. Throws std::runtime_error on malformed input
/// (bad counts, n beyond the 2^32 vertex ids, out-of-range endpoints, rows
/// other than `u v` or `u v w`).
[[nodiscard]] LoadedGraph read_edge_list(std::istream& in);
[[nodiscard]] LoadedGraph read_edge_list_file(const std::string& path);

/// Writes the format above (with weights iff provided; weights must then
/// have one entry per edge id).
void write_edge_list(std::ostream& out, const Graph& g,
                     const std::vector<double>* weights = nullptr);
void write_edge_list_file(const std::string& path, const Graph& g,
                          const std::vector<double>* weights = nullptr);

}  // namespace mpcg

#endif  // MPCG_GRAPH_IO_H
