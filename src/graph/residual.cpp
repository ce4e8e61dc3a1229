#include "graph/residual.h"

#include <algorithm>

#include "util/memory.h"

namespace mpcg {

ResidualGraph::ResidualGraph(const Graph& g)
    : g_(&g), alive_(g.num_vertices(), 1), dirty_(g.num_vertices(), 0),
      degree_(g.num_vertices(), 0), alive_edges_(g.num_edges()),
      alive_count_(g.num_vertices()), start_(g.num_vertices()),
      live_end_(g.num_vertices(), kLazy) {
  const std::size_t n = g.num_vertices();
  for (VertexId v = 0; v < n; ++v) {
    degree_[v] = static_cast<std::uint32_t>(g.degree(v));
  }

  vertex_list_.resize(n);
  for (VertexId v = 0; v < n; ++v) vertex_list_[v] = v;
  vertex_list_end_ = n;

  max_degree_bound_ = g.max_degree();
  hist_.assign(max_degree_bound_ + 1, 0);
  for (VertexId v = 0; v < n; ++v) hist_add(degree_[v]);
}

ResidualGraph::ResidualGraph(const Graph& g, const std::vector<char>& alive)
    : g_(&g), alive_(g.num_vertices(), 1), dirty_(g.num_vertices(), 0),
      degree_(g.num_vertices(), 0), start_(g.num_vertices()),
      live_end_(g.num_vertices(), kLazy) {
  const std::size_t n = g.num_vertices();
  const std::size_t given = std::min(alive.size(), n);
  for (std::size_t v = 0; v < given; ++v) alive_[v] = alive[v] ? 1 : 0;

  vertex_list_.reserve(n);
  for (VertexId v = 0; v < n; ++v) {
    if (!alive_[v]) continue;
    std::size_t live = 0;
    bool all_alive = true;
    for (const Arc& a : g.arcs(v)) {
      if (alive_[a.to]) {
        ++live;
      } else {
        all_alive = false;
      }
    }
    // Materialize the filtered segment now; the scan was paid anyway.
    if (!all_alive) materialize_segment(v);
    degree_[v] = static_cast<std::uint32_t>(live);
    vertex_list_.push_back(v);
    alive_edges_ += live;
  }
  alive_edges_ /= 2;  // each alive-alive edge was counted at both ends
  alive_count_ = vertex_list_.size();
  vertex_list_end_ = vertex_list_.size();

  max_degree_bound_ = g.max_degree();
  hist_.assign(max_degree_bound_ + 1, 0);
  for (const VertexId v : vertex_list_) hist_add(degree_[v]);
}

ResidualGraph::ResidualGraph(const ResidualGraph& other)
    : g_(other.g_), alive_(other.alive_), dirty_(other.dirty_),
      degree_(other.degree_),
      alive_edges_(other.alive_edges_), alive_count_(other.alive_count_),
      start_(other.start_.size()), live_end_(other.live_end_),
      vertex_list_(other.vertex_list_),
      vertex_list_end_(other.vertex_list_end_), hist_(other.hist_),
      max_degree_bound_(other.max_degree_bound_) {
  // Dead vertices' segments are not copied; mark them lazy so a later
  // query re-materializes from the graph instead of reading uninitialized
  // memory.
  for (VertexId v = 0; v < alive_.size(); ++v) {
    if (!alive_[v]) live_end_[v] = kLazy;
  }
  if (other.arcs_ != nullptr) {
    // Copy only the materialized segments of alive vertices — dead and
    // lazy vertices contribute nothing — packed back to back in ascending
    // vertex order.
    ensure_arc_buffer();
    for (std::size_t i = 0; i < vertex_list_end_; ++i) {
      const VertexId v = vertex_list_[i];
      if (!alive_[v] || live_end_[v] == kLazy) continue;
      const std::size_t len = other.live_end_[v] - other.start_[v];
      std::copy_n(other.arcs_.get() + other.start_[v], len,
                  arcs_.get() + arena_end_);
      start_[v] = arena_end_;
      arena_end_ += len;
      live_end_[v] = arena_end_;
    }
  }
}

ResidualGraph& ResidualGraph::operator=(const ResidualGraph& other) {
  if (this != &other) *this = ResidualGraph(other);
  return *this;
}

void ResidualGraph::ensure_arc_buffer() {
  const std::size_t capacity = 2 * g_->num_edges();
  if (arcs_ == nullptr && capacity > 0) {
    arcs_ = std::make_unique_for_overwrite<Arc[]>(capacity);
    advise_huge_pages(arcs_.get(), capacity * sizeof(Arc));
  }
}

std::size_t ResidualGraph::max_alive_degree() noexcept {
  if (alive_count_ == 0) return 0;
  while (max_degree_bound_ > 0 && hist_[max_degree_bound_] == 0) {
    --max_degree_bound_;
  }
  return max_degree_bound_;
}

std::span<const Arc> ResidualGraph::materialize_segment(VertexId v) {
  ensure_arc_buffer();
  const std::size_t begin = arena_end_;
  std::size_t write = begin;
  for (const Arc& a : g_->arcs(v)) {
    if (alive_[a.to]) arcs_[write++] = a;
  }
  start_[v] = begin;
  live_end_[v] = write;
  arena_end_ = write;
  dirty_[v] = 0;
  return {arcs_.get() + begin, arcs_.get() + write};
}

std::span<const Arc> ResidualGraph::compact_segment(VertexId v) {
  const std::size_t begin = start_[v];
  const std::size_t end = live_end_[v];
  std::size_t read = begin;
  while (read < end && alive_[arcs_[read].to]) ++read;
  std::size_t write = read;
  for (; read < end; ++read) {
    const Arc a = arcs_[read];
    if (alive_[a.to]) arcs_[write++] = a;
  }
  live_end_[v] = write;
  dirty_[v] = 0;
  return {arcs_.get() + begin, arcs_.get() + write};
}

std::span<const VertexId> ResidualGraph::alive_vertices() {
  std::size_t read = 0;
  while (read < vertex_list_end_ && alive_[vertex_list_[read]]) ++read;
  if (read < vertex_list_end_) {
    std::size_t write = read;
    for (++read; read < vertex_list_end_; ++read) {
      const VertexId v = vertex_list_[read];
      if (alive_[v]) vertex_list_[write++] = v;
    }
    vertex_list_end_ = write;
  }
  return {vertex_list_.data(), vertex_list_end_};
}

void ResidualGraph::kill(VertexId v) {
  if (!alive_[v]) return;
  const auto neighbors = alive_arcs(v);
  alive_[v] = 0;
  --alive_count_;
  alive_edges_ -= neighbors.size();
  hist_remove(degree_[v]);
  degree_[v] = 0;
  for (const Arc& a : neighbors) {
    hist_remove(degree_[a.to]);
    --degree_[a.to];
    hist_add(degree_[a.to]);
    dirty_[a.to] = 1;
  }
}

void ResidualGraph::kill_batch(std::span<const VertexId> dead) {
  // Per-kill pays O(live degree) per dead vertex plus scattered histogram
  // updates per dead edge; the rebuild pays O(survivors + their arcs).
  // Prefer the rebuild once the batch is a sizable fraction of the
  // residual.
  if (4 * dead.size() < alive_count_) {
    for (const VertexId v : dead) kill(v);
    return;
  }
  std::size_t killed = 0;
  for (const VertexId v : dead) {
    if (alive_[v]) {
      alive_[v] = 0;
      degree_[v] = 0;
      ++killed;
    }
  }
  alive_count_ -= killed;

  // Rebuild degrees, the alive-edge count, and the histogram from the
  // survivor side. Survivors that never lost a neighbor stay lazy and cost
  // one read-only scan; nothing else is written.
  alive_edges_ = 0;
  std::fill(hist_.begin(), hist_.end(), 0);
  std::size_t write = 0;
  for (std::size_t read = 0; read < vertex_list_end_; ++read) {
    const VertexId v = vertex_list_[read];
    if (!alive_[v]) continue;
    vertex_list_[write++] = v;
    std::size_t live = 0;
    if (live_end_[v] == kLazy) {
      bool all_alive = true;
      for (const Arc& a : g_->arcs(v)) {
        if (alive_[a.to]) {
          ++live;
        } else {
          all_alive = false;
        }
      }
      if (!all_alive) materialize_segment(v);
      dirty_[v] = 0;
    } else {
      const std::size_t begin = start_[v];
      std::size_t arc_write = begin;
      for (std::size_t arc_read = begin; arc_read < live_end_[v];
           ++arc_read) {
        const Arc a = arcs_[arc_read];
        if (alive_[a.to]) arcs_[arc_write++] = a;
      }
      live_end_[v] = arc_write;
      live = arc_write - begin;
      dirty_[v] = 0;
    }
    degree_[v] = static_cast<std::uint32_t>(live);
    alive_edges_ += live;
    hist_add(degree_[v]);
  }
  vertex_list_end_ = write;
  alive_edges_ /= 2;
}

void CsrScratch::build(std::span<const std::pair<VertexId, VertexId>> pairs) {
  flat_.resize(2 * pairs.size());
  for (const auto& [u, v] : pairs) {
    if (degree_[u]++ == 0) touched_.push_back(u);
    if (degree_[v]++ == 0) touched_.push_back(v);
  }
  std::uint32_t cum = 0;
  for (const VertexId t : touched_) {
    start_[t] = cum;
    cursor_[t] = cum;
    cum += degree_[t];
  }
  for (const auto& [u, v] : pairs) {
    flat_[cursor_[u]++] = v;
    flat_[cursor_[v]++] = u;
  }
}

void CsrScratch::clear() {
  for (const VertexId t : touched_) degree_[t] = 0;
  touched_.clear();
}

}  // namespace mpcg
