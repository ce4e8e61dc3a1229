#include "graph/io.h"

#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace mpcg {

namespace {

/// Vertex ids are 32-bit and the all-ones id is the kAbsent/kUnmatched
/// sentinel, so a graph has at most 2^32 - 1 vertices (ids 0 .. 2^32 - 2).
constexpr std::size_t kMaxVertices = std::numeric_limits<VertexId>::max();

std::string next_content_line(std::istream& in) {
  std::string line;
  while (std::getline(in, line)) {
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos) continue;
    if (line[first] == '#') continue;
    return line;
  }
  return {};
}

}  // namespace

LoadedGraph read_edge_list(std::istream& in) {
  const std::string header = next_content_line(in);
  std::istringstream head(header);
  std::size_t n = 0;
  std::size_t m = 0;
  if (!(head >> n >> m)) {
    throw std::runtime_error("read_edge_list: bad header (want 'n m')");
  }
  if (n > kMaxVertices) {
    throw std::runtime_error(
        "read_edge_list: n exceeds the 32-bit vertex id range (at most "
        "2^32 - 1 vertices)");
  }
  GraphBuilder builder(n);
  // Weights keyed by canonical endpoints; remapped to edge ids post-build
  // (the builder sorts and dedupes).
  std::vector<std::pair<Edge, double>> weighted;
  bool any_weight = false;
  bool any_plain = false;
  for (std::size_t i = 0; i < m; ++i) {
    const std::string line = next_content_line(in);
    if (line.empty()) {
      throw std::runtime_error("read_edge_list: fewer edges than declared");
    }
    std::istringstream row(line);
    std::size_t u = 0;
    std::size_t v = 0;
    if (!(row >> u >> v)) {
      throw std::runtime_error("read_edge_list: bad edge line: " + line);
    }
    if (u >= n || v >= n) {
      throw std::runtime_error("read_edge_list: endpoint out of range");
    }
    // Anything after the endpoints must be exactly one weight.
    double w = 0.0;
    const bool has_weight = !(row >> std::ws).eof();
    if (has_weight && !(row >> w)) {
      throw std::runtime_error("read_edge_list: bad weight: " + line);
    }
    if (!(row >> std::ws).eof()) {
      throw std::runtime_error("read_edge_list: extra tokens in edge line: " +
                               line);
    }
    if (has_weight) {
      any_weight = true;
      Edge e{static_cast<VertexId>(u), static_cast<VertexId>(v)};
      if (e.u > e.v) std::swap(e.u, e.v);
      weighted.emplace_back(e, w);
    } else {
      any_plain = true;
    }
    builder.add_edge(static_cast<VertexId>(u), static_cast<VertexId>(v));
  }
  if (any_weight && any_plain) {
    throw std::runtime_error(
        "read_edge_list: mixed weighted and unweighted rows");
  }

  LoadedGraph out;
  out.graph = builder.build();
  if (any_weight) {
    std::vector<double> weights(out.graph.num_edges(), 0.0);
    for (const auto& [e, w] : weighted) {
      const EdgeId id = out.graph.find_edge(e.u, e.v);
      if (id != Graph::kNoEdge) weights[id] = w;  // last duplicate wins
    }
    out.weights = std::move(weights);
  }
  return out;
}

LoadedGraph read_edge_list_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("read_edge_list: cannot open " + path);
  return read_edge_list(in);
}

void write_edge_list(std::ostream& out, const Graph& g,
                     const std::vector<double>* weights) {
  if (weights != nullptr && weights->size() != g.num_edges()) {
    throw std::invalid_argument("write_edge_list: weights size mismatch");
  }
  out << std::setprecision(17);  // lossless double round-trip
  out << g.num_vertices() << ' ' << g.num_edges() << '\n';
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const Edge ed = g.edge(e);
    out << ed.u << ' ' << ed.v;
    if (weights != nullptr) out << ' ' << (*weights)[e];
    out << '\n';
  }
}

void write_edge_list_file(const std::string& path, const Graph& g,
                          const std::vector<double>* weights) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("write_edge_list: cannot open " + path);
  write_edge_list(out, g, weights);
}

}  // namespace mpcg
