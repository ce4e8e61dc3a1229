#include "graph/subgraph.h"

#include <algorithm>
#include <stdexcept>

namespace mpcg {

namespace {
constexpr VertexId kAbsent = static_cast<VertexId>(-1);
}  // namespace

InducedSubgraph induced_subgraph(const Graph& g,
                                 const std::vector<VertexId>& vertices) {
  std::vector<VertexId> local_of(g.num_vertices(), kAbsent);
  for (std::size_t i = 0; i < vertices.size(); ++i) {
    const VertexId v = vertices[i];
    if (v >= g.num_vertices()) {
      throw std::out_of_range("induced_subgraph: vertex out of range");
    }
    if (local_of[v] != kAbsent) {
      throw std::invalid_argument("induced_subgraph: duplicate vertex");
    }
    local_of[v] = static_cast<VertexId>(i);
  }

  // Collect local edges with their parent edge ids, canonicalized to
  // local u < v. g is simple, so the (u, v) keys are unique; sorting the
  // triples lexicographically puts them in exactly the order GraphBuilder
  // assigns local edge ids, letting the parent ids ride along instead of
  // being recovered by per-edge binary search afterwards, and the builder
  // takes them in that order without sorting again.
  struct LocalEdge {
    VertexId u, v;
    EdgeId parent;
  };
  std::vector<LocalEdge> local_edges;
  for (const VertexId v : vertices) {
    for (const Arc& a : g.arcs(v)) {
      if (a.to > v && local_of[a.to] != kAbsent) {
        VertexId lu = local_of[v];
        VertexId lv = local_of[a.to];
        if (lu > lv) std::swap(lu, lv);
        local_edges.push_back({lu, lv, a.edge});
      }
    }
  }
  std::sort(local_edges.begin(), local_edges.end(),
            [](const LocalEdge& a, const LocalEdge& b) {
              return a.u < b.u || (a.u == b.u && a.v < b.v);
            });

  GraphBuilder builder(vertices.size());
  builder.reserve(local_edges.size());
  InducedSubgraph out;
  out.to_parent_edge.reserve(local_edges.size());
  for (const LocalEdge& e : local_edges) {
    builder.add_edge(e.u, e.v);
    out.to_parent_edge.push_back(e.parent);
  }
  out.graph = builder.build();
  out.to_parent_vertex = vertices;
  return out;
}

std::size_t count_induced_edges(const Graph& g,
                                const std::vector<VertexId>& vertices) {
  std::vector<bool> in_set(g.num_vertices(), false);
  for (const VertexId v : vertices) in_set[v] = true;
  std::size_t count = 0;
  for (const VertexId v : vertices) {
    for (const Arc& a : g.arcs(v)) {
      if (a.to > v && in_set[a.to]) ++count;
    }
  }
  return count;
}

}  // namespace mpcg
