// Incrementally maintained residual (alive-induced) view of a Graph.
//
// The paper's algorithms repeatedly shrink the graph: MIS removes chosen
// vertices and their neighborhoods, vertex-cover removes heavy vertices.
// The per-phase work is supposed to scale with the *residual* graph
// (Lemma 3.1: each rank window induces only O(n) edges), so the driver
// must never rescan the full edge list to answer "how many alive edges are
// left" or "what is the residual maximum degree".
//
// ResidualGraph wraps an immutable Graph with:
//   - an alive flag and residual degree per vertex,
//   - a live alive-edge count (O(1) query),
//   - a residual-degree histogram giving amortized-O(1) max_alive_degree
//     (degrees only decrease under kills, so the max pointer only moves
//     down),
//   - lazily compacted adjacency and vertex lists, so iterating alive
//     arcs/vertices costs O(residual size), with each dead entry paid for
//     at most once, ever.
//
// Construction is O(n): adjacency is served directly from the wrapped
// graph's storage until a vertex loses its first neighbor, and only then
// is that vertex's segment materialized: its alive entries are appended to
// the residual's own arc arena, in materialization order. The arena is
// allocated address-space-only and filled from its start, so resident
// memory is proportional to the arcs actually copied. A residual graph
// over a huge input whose kills touch a small region never copies the
// rest.
//
// Compaction is *stable*: alive_arcs(v) preserves the ascending neighbor
// order of graph().arcs(v) and alive_vertices() preserves ascending vertex
// id. Drivers that sum floating-point contributions in arc order therefore
// produce bit-identical results before and after porting to this class
// (see DESIGN.md, "Residual graph subsystem").
#ifndef MPCG_GRAPH_RESIDUAL_H
#define MPCG_GRAPH_RESIDUAL_H

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "graph/graph.h"

namespace mpcg {

class ResidualGraph {
 public:
  explicit ResidualGraph(const Graph& g);

  /// Starts from the subgraph induced by `alive` (vertices beyond the
  /// vector's size default to alive). Costs O(n + sum of full degrees of
  /// alive vertices) — the dead vertices' adjacencies are never copied.
  ResidualGraph(const Graph& g, const std::vector<char>& alive);

  /// Copying snapshots the current residual state (only materialized
  /// segments of alive vertices are copied, packed contiguously at the
  /// start of the copy's arena, no graph rescans) — how drivers hand a
  /// consistent view to sub-algorithms.
  ResidualGraph(const ResidualGraph& other);
  ResidualGraph& operator=(const ResidualGraph& other);
  ResidualGraph(ResidualGraph&&) = default;
  ResidualGraph& operator=(ResidualGraph&&) = default;

  [[nodiscard]] const Graph& graph() const noexcept { return *g_; }

  [[nodiscard]] bool alive(VertexId v) const noexcept {
    return alive_[v] != 0;
  }
  /// Alive flags indexed by vertex id (for snapshotting into drivers that
  /// want their own copy, e.g. LocalMisState).
  [[nodiscard]] const std::vector<char>& alive_flags() const noexcept {
    return alive_;
  }

  [[nodiscard]] std::size_t alive_count() const noexcept {
    return alive_count_;
  }

  /// Number of edges with both endpoints alive. O(1).
  [[nodiscard]] std::uint64_t alive_edge_count() const noexcept {
    return alive_edges_;
  }

  /// Number of alive neighbors of v (0 once v is dead).
  [[nodiscard]] std::size_t residual_degree(VertexId v) const noexcept {
    return degree_[v];
  }

  /// Maximum residual degree over alive vertices; 0 when none are alive.
  /// Amortized O(1): the histogram max pointer only ever moves down.
  [[nodiscard]] std::size_t max_alive_degree() noexcept;

  /// Alive neighbors of v, ascending by neighbor id (the stable-compacted
  /// prefix of graph().arcs(v)). O(1) when no neighbor died since the last
  /// reconciliation (kills mark their surviving neighbors dirty); otherwise
  /// one stable compaction pays for the dead entries. Requires v alive (a
  /// dead vertex's view falls back to a filtering scan). The span is valid
  /// until the next alive_arcs call for the same vertex; kills during
  /// iteration do not invalidate it but may leave just-killed neighbors in
  /// view.
  [[nodiscard]] std::span<const Arc> alive_arcs(VertexId v) {
    if (live_end_[v] == kLazy) {
      const auto full = g_->arcs(v);
      if (degree_[v] == full.size()) return full;  // nothing ever died
      return materialize_segment(v);
    }
    if (!dirty_[v] && alive_[v]) {
      return {arcs_.get() + start_[v], arcs_.get() + live_end_[v]};
    }
    return compact_segment(v);
  }

  /// The alive neighbors of v with id greater than v — the suffix of
  /// alive_arcs(v) (adjacency is sorted by neighbor id), found by binary
  /// search. The canonical-edge iteration `for v: for a in
  /// alive_upper_arcs(v)` visits every alive-alive edge exactly once, in
  /// edge-id (lexicographic) order, reading only half the arc entries.
  [[nodiscard]] std::span<const Arc> alive_upper_arcs(VertexId v) {
    const auto arcs = alive_arcs(v);
    std::size_t lo = 0, hi = arcs.size();
    while (lo < hi) {
      const std::size_t mid = (lo + hi) / 2;
      if (arcs[mid].to > v) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    return arcs.subspan(lo);
  }

  /// Alive vertices in ascending id order. The span is valid until the
  /// next alive_vertices() call; kills during iteration leave stale
  /// entries that the caller must filter with alive().
  [[nodiscard]] std::span<const VertexId> alive_vertices();

  /// Removes v from the residual graph: decrements each alive neighbor's
  /// residual degree (once, ever) and the alive-edge count. O(residual
  /// degree of v) plus amortized compaction. No-op if v is already dead.
  void kill(VertexId v);

  /// Removes a batch of vertices. Small batches kill one by one; when the
  /// batch rivals the surviving population (a rank phase wiping out most
  /// of a dense residual), state is instead rebuilt from the survivor side
  /// in O(survivors + their arcs) — cheaper than paying per dead edge.
  void kill_batch(std::span<const VertexId> dead);

 private:
  /// live_end_ value marking a vertex whose segment is still served from
  /// the wrapped graph's storage (never filtered).
  static constexpr std::size_t kLazy = static_cast<std::size_t>(-1);

  void hist_remove(std::size_t degree) noexcept { --hist_[degree]; }
  void hist_add(std::size_t degree) noexcept { ++hist_[degree]; }

  /// Ensures arcs_ is allocated: 2m arcs of address space, whose pages
  /// are touched only as segments are appended.
  void ensure_arc_buffer();

  /// Slow paths of alive_arcs: first filtering of a lazy vertex (appends
  /// its alive arcs at the arena cursor), and re-compaction of a dirty
  /// segment in place.
  std::span<const Arc> materialize_segment(VertexId v);
  std::span<const Arc> compact_segment(VertexId v);

  const Graph* g_;
  std::vector<char> alive_;
  /// dirty_[v]: an alive neighbor of v died since v's segment was last
  /// reconciled (only meaningful for materialized, alive vertices).
  std::vector<char> dirty_;
  std::vector<std::uint32_t> degree_;
  std::uint64_t alive_edges_ = 0;
  std::size_t alive_count_ = 0;

  // Mutable adjacency segments, materialized per vertex on first
  // filtering: arcs of v live in arcs_[start_[v], live_end_[v]) once
  // live_end_[v] != kLazy; until then they are read from graph().arcs(v)
  // (valid exactly while residual_degree(v) equals the full degree).
  // Segments are bump-allocated at arena_end_. A vertex materializes at
  // most once per object and never copies more arcs than its full degree,
  // so the cursor stays within the 2m arcs allocated; the buffer never
  // moves, so spans into it stay valid as documented above.
  std::unique_ptr<Arc[]> arcs_;
  std::vector<std::size_t> start_;
  std::vector<std::size_t> live_end_;
  std::size_t arena_end_ = 0;

  // Lazily compacted alive-vertex list (ascending id).
  std::vector<VertexId> vertex_list_;
  std::size_t vertex_list_end_ = 0;

  // hist_[d] = number of alive vertices with residual degree d.
  std::vector<std::uint32_t> hist_;
  std::size_t max_degree_bound_ = 0;
};

/// Reusable two-pass CSR scratch for a small adjacency given as encoded
/// (u, v) vertex pairs — the leader-side window subgraphs of the MIS
/// algorithm (Section 3.2). Building is O(pairs + touched vertices) and
/// clear() is O(touched vertices); the n-sized index arrays are allocated
/// once and never rescanned, so repeated build/clear cycles cost only the
/// data actually present.
class CsrScratch {
 public:
  explicit CsrScratch(std::size_t num_vertices)
      : degree_(num_vertices, 0), start_(num_vertices, 0),
        cursor_(num_vertices, 0) {}

  /// Populates the adjacency from undirected pairs; each pair (u, v)
  /// contributes v to u's neighbor list and u to v's. Requires a
  /// preceding clear() (or a fresh object).
  void build(std::span<const std::pair<VertexId, VertexId>> pairs);

  /// Neighbors of v from the last build (empty if untouched).
  [[nodiscard]] std::span<const VertexId> neighbors(VertexId v) const {
    if (degree_[v] == 0) return {};
    return {flat_.data() + start_[v], flat_.data() + start_[v] + degree_[v]};
  }

  /// Degree of v in the last build (0 if untouched) — one array read,
  /// for consumers that size per-vertex state without walking neighbors.
  [[nodiscard]] std::uint32_t degree(VertexId v) const noexcept {
    return degree_[v];
  }

  /// Vertices with at least one neighbor in the last build.
  [[nodiscard]] const std::vector<VertexId>& touched() const noexcept {
    return touched_;
  }

  void clear();

 private:
  std::vector<std::uint32_t> degree_;
  std::vector<std::uint32_t> start_;
  std::vector<std::uint32_t> cursor_;
  std::vector<VertexId> flat_;
  std::vector<VertexId> touched_;
};

}  // namespace mpcg

#endif  // MPCG_GRAPH_RESIDUAL_H
