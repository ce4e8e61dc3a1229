#include "graph/graph.h"

#include <algorithm>
#include <stdexcept>

namespace mpcg {

std::size_t Graph::max_degree() const noexcept {
  std::size_t best = 0;
  for (std::size_t v = 0; v < num_vertices_; ++v) {
    best = std::max(best, degree(static_cast<VertexId>(v)));
  }
  return best;
}

double Graph::average_degree() const noexcept {
  if (num_vertices_ == 0) return 0.0;
  return 2.0 * static_cast<double>(num_edges()) /
         static_cast<double>(num_vertices_);
}

bool Graph::has_edge(VertexId u, VertexId v) const noexcept {
  return find_edge(u, v) != kNoEdge;
}

EdgeId Graph::find_edge(VertexId u, VertexId v) const noexcept {
  if (u >= num_vertices_ || v >= num_vertices_) return kNoEdge;
  // Search the smaller adjacency.
  if (degree(u) > degree(v)) std::swap(u, v);
  const auto adj = arcs(u);
  const auto it = std::lower_bound(
      adj.begin(), adj.end(), v,
      [](const Arc& a, VertexId target) { return a.to < target; });
  if (it != adj.end() && it->to == v) return it->edge;
  return kNoEdge;
}

void GraphBuilder::add_edge(VertexId u, VertexId v) {
  if (u >= num_vertices_ || v >= num_vertices_) {
    throw std::out_of_range("GraphBuilder::add_edge: vertex out of range");
  }
  if (u == v) return;  // simple graph: drop self-loops
  if (u > v) std::swap(u, v);
  pending_.push_back(Edge{u, v});
}

namespace {

/// One stable counting-sort pass: scatters `in` into `out` ordered by
/// key(e) < n, keeping the input order among equal keys. `start` is a
/// work array of n + 1 entries.
template <typename Key>
void counting_pass(const std::vector<Edge>& in, std::vector<Edge>& out,
                   std::vector<std::size_t>& start, Key key) {
  std::fill(start.begin(), start.end(), 0);
  // size_t before the + 1: a 32-bit key of 2^32 - 1 would wrap to 0.
  for (const Edge& e : in) ++start[std::size_t{key(e)} + 1];
  for (std::size_t k = 1; k < start.size(); ++k) start[k] += start[k - 1];
  out.resize(in.size());
  for (const Edge& e : in) out[start[key(e)]++] = e;
}

}  // namespace

Graph GraphBuilder::build() {
  const bool strictly_ascending =
      std::adjacent_find(pending_.begin(), pending_.end(),
                         [](const Edge& a, const Edge& b) {
                           return a.u > b.u || (a.u == b.u && a.v >= b.v);
                         }) == pending_.end();
  if (!strictly_ascending) {
    // LSD radix order: by v, then stably by u.
    std::vector<std::size_t> start(num_vertices_ + 1);
    std::vector<Edge> by_v;
    counting_pass(pending_, by_v, start, [](const Edge& e) { return e.v; });
    counting_pass(by_v, pending_, start, [](const Edge& e) { return e.u; });
    pending_.erase(std::unique(pending_.begin(), pending_.end()),
                   pending_.end());
  }

  Graph g;
  g.num_vertices_ = num_vertices_;
  g.edges_ = std::move(pending_);
  pending_ = {};

  g.offsets_.assign(num_vertices_ + 1, 0);
  for (const Edge& e : g.edges_) {
    ++g.offsets_[std::size_t{e.u} + 1];
    ++g.offsets_[std::size_t{e.v} + 1];
  }
  for (std::size_t v = 1; v <= num_vertices_; ++v) {
    g.offsets_[v] += g.offsets_[v - 1];
  }
  g.arcs_.resize(2 * g.edges_.size());
  std::vector<std::size_t> cursor(g.offsets_.begin(), g.offsets_.end() - 1);
  for (EdgeId e = 0; e < g.edges_.size(); ++e) {
    const Edge& ed = g.edges_[e];
    g.arcs_[cursor[ed.u]++] = Arc{ed.v, e};
    g.arcs_[cursor[ed.v]++] = Arc{ed.u, e};
  }
  return g;
}

Graph make_graph(std::size_t num_vertices,
                 const std::vector<std::pair<VertexId, VertexId>>& edges) {
  GraphBuilder builder(num_vertices);
  for (const auto& [u, v] : edges) builder.add_edge(u, v);
  return builder.build();
}

}  // namespace mpcg
