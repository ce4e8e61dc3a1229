// ResidualGraph invariants: after arbitrary kill sequences, the maintained
// degrees, alive-edge count, max degree, and compacted adjacency must match
// a brute-force recount over the underlying graph.
#include <algorithm>
#include <gtest/gtest.h>

#include "graph/residual.h"
#include "test_util.h"
#include "util/rng.h"

namespace mpcg {
namespace {

using testing::kFamilies;
using testing::make_family;

struct BruteForce {
  std::vector<char> alive;

  explicit BruteForce(std::size_t n) : alive(n, 1) {}

  void kill(VertexId v) { alive[v] = 0; }

  [[nodiscard]] std::size_t degree(const Graph& g, VertexId v) const {
    if (!alive[v]) return 0;
    std::size_t d = 0;
    for (const Arc& a : g.arcs(v)) d += alive[a.to] ? 1 : 0;
    return d;
  }

  [[nodiscard]] std::uint64_t alive_edges(const Graph& g) const {
    std::uint64_t count = 0;
    for (const Edge& e : g.edges()) {
      if (alive[e.u] && alive[e.v]) ++count;
    }
    return count;
  }

  [[nodiscard]] std::size_t max_degree(const Graph& g) const {
    std::size_t best = 0;
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      if (alive[v]) best = std::max(best, degree(g, v));
    }
    return best;
  }
};

void check_against_brute_force(const Graph& g, ResidualGraph& rg,
                               const BruteForce& bf) {
  ASSERT_EQ(rg.alive_edge_count(), bf.alive_edges(g));
  ASSERT_EQ(rg.max_alive_degree(), bf.max_degree(g));
  std::size_t alive_count = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    ASSERT_EQ(rg.alive(v), bf.alive[v] != 0) << "vertex " << v;
    if (bf.alive[v]) {
      ++alive_count;
      ASSERT_EQ(rg.residual_degree(v), bf.degree(g, v)) << "vertex " << v;
      // alive_arcs must be the alive neighbors in ascending order.
      std::vector<VertexId> expected;
      for (const Arc& a : g.arcs(v)) {
        if (bf.alive[a.to]) expected.push_back(a.to);
      }
      std::vector<VertexId> got;
      for (const Arc& a : rg.alive_arcs(v)) got.push_back(a.to);
      ASSERT_EQ(got, expected) << "vertex " << v;
    }
  }
  ASSERT_EQ(rg.alive_count(), alive_count);
  // alive_vertices must be exactly the alive ids, ascending.
  std::vector<VertexId> expected_vertices;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (bf.alive[v]) expected_vertices.push_back(v);
  }
  const auto span = rg.alive_vertices();
  const std::vector<VertexId> got_vertices(span.begin(), span.end());
  ASSERT_EQ(got_vertices, expected_vertices);
}

TEST(ResidualGraph, FreshGraphMatchesGraph) {
  for (const char* family : kFamilies) {
    const Graph g = make_family(family, 300, 17);
    ResidualGraph rg(g);
    BruteForce bf(g.num_vertices());
    check_against_brute_force(g, rg, bf);
    EXPECT_EQ(rg.alive_edge_count(), g.num_edges());
    EXPECT_EQ(rg.max_alive_degree(), g.max_degree());
  }
}

TEST(ResidualGraph, RandomKillSequences) {
  for (const char* family : {"gnp_sparse", "gnp_dense", "power_law", "star"}) {
    const Graph g = make_family(family, 200, 23);
    ResidualGraph rg(g);
    BruteForce bf(g.num_vertices());
    Rng rng(mix64(99, g.num_edges()));
    std::vector<VertexId> order(g.num_vertices());
    for (VertexId v = 0; v < g.num_vertices(); ++v) order[v] = v;
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng() % i]);
    }
    for (std::size_t i = 0; i < order.size(); ++i) {
      rg.kill(order[i]);
      bf.kill(order[i]);
      // Full cross-check every few kills (quadratic otherwise), and always
      // near the end where histogram/max-pointer edge cases live.
      if (i % 16 == 0 || i + 8 >= order.size()) {
        check_against_brute_force(g, rg, bf);
      }
    }
    EXPECT_EQ(rg.alive_count(), 0U);
    EXPECT_EQ(rg.alive_edge_count(), 0U);
    EXPECT_EQ(rg.max_alive_degree(), 0U);
  }
}

TEST(ResidualGraph, KillBatchMatchesBruteForce) {
  // Exercises both kill_batch strategies: a small batch (per-kill path)
  // and a mass extinction (survivor-side rebuild).
  for (const std::size_t batch_size : {5UL, 150UL}) {
    const Graph g = make_family("gnp_dense", 200, 31);
    ResidualGraph rg(g);
    BruteForce bf(g.num_vertices());
    Rng rng(77);
    std::vector<VertexId> batch;
    while (batch.size() < batch_size) {
      const auto v = static_cast<VertexId>(rng() % g.num_vertices());
      batch.push_back(v);  // duplicates allowed: kill_batch must cope
    }
    rg.kill_batch(batch);
    for (const VertexId v : batch) bf.kill(v);
    check_against_brute_force(g, rg, bf);
  }
}

TEST(ResidualGraph, SubsetConstructorMatchesKills) {
  const Graph g = make_family("power_law", 150, 7);
  std::vector<char> alive(g.num_vertices(), 1);
  ResidualGraph by_kill(g);
  for (VertexId v = 0; v < g.num_vertices(); v += 3) {
    alive[v] = 0;
    by_kill.kill(v);
  }
  ResidualGraph by_subset(g, alive);
  EXPECT_EQ(by_subset.alive_count(), by_kill.alive_count());
  EXPECT_EQ(by_subset.alive_edge_count(), by_kill.alive_edge_count());
  EXPECT_EQ(by_subset.max_alive_degree(), by_kill.max_alive_degree());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(by_subset.alive(v), by_kill.alive(v));
    EXPECT_EQ(by_subset.residual_degree(v), by_kill.residual_degree(v));
  }
  BruteForce bf(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (!alive[v]) bf.kill(v);
  }
  check_against_brute_force(g, by_subset, bf);
  check_against_brute_force(g, by_kill, bf);
  // Segments materialized after construction go behind the constructor's.
  for (VertexId v = 1; v < g.num_vertices(); v += 3) {
    by_subset.kill(v);
    bf.kill(v);
  }
  check_against_brute_force(g, by_subset, bf);
}

TEST(ResidualGraph, CopySnapshotsAreIndependent) {
  const Graph g = make_family("gnp_dense", 120, 9);
  ResidualGraph rg(g);
  rg.kill(3);
  rg.kill(40);
  ResidualGraph snapshot(rg);
  BruteForce bf(g.num_vertices());
  bf.kill(3);
  bf.kill(40);
  check_against_brute_force(g, snapshot, bf);
  // Mutating the copy must not affect the original.
  snapshot.kill(7);
  EXPECT_TRUE(rg.alive(7));
  check_against_brute_force(g, rg, bf);

  // Random-order kills and adjacency reads materialize segments out of id
  // order; the copy packs the alive ones back to back, and later kills on
  // either object append new segments behind the existing ones.
  for (const char* family : {"gnp_dense", "power_law", "rmat"}) {
    const Graph h = make_family(family, 200, 13);
    const std::size_t n = h.num_vertices();
    Rng rng(mix64(5, h.num_edges()));
    std::vector<VertexId> order(n);
    for (VertexId v = 0; v < n; ++v) order[v] = v;
    for (std::size_t i = n; i > 1; --i) {
      std::swap(order[i - 1], order[rng() % i]);
    }
    ResidualGraph source(h);
    BruteForce source_bf(n);
    const std::size_t half = n / 2;
    for (std::size_t i = 0; i < half; ++i) {
      source.kill(order[i]);
      source_bf.kill(order[i]);
      const auto reader = static_cast<VertexId>(rng() % n);
      if (source.alive(reader)) (void)source.alive_arcs(reader);
    }
    ResidualGraph copy(source);
    BruteForce copy_bf = source_bf;
    check_against_brute_force(h, copy, copy_bf);
    check_against_brute_force(h, source, source_bf);
    // The source keeps the kill order, the copy runs it backwards.
    for (std::size_t i = half; i < n; ++i) {
      source.kill(order[i]);
      source_bf.kill(order[i]);
      const VertexId v = order[n - 1 - (i - half)];
      copy.kill(v);
      copy_bf.kill(v);
      if (i % 16 == 0 || i + 4 >= n) {
        check_against_brute_force(h, source, source_bf);
        check_against_brute_force(h, copy, copy_bf);
      }
    }
    EXPECT_EQ(source.alive_count(), 0U) << family;
    EXPECT_EQ(copy.alive_count(), 0U) << family;
  }
}

TEST(ResidualGraph, UpperArcsAreCanonicalSuffix) {
  const Graph g = make_family("gnp_dense", 100, 5);
  ResidualGraph rg(g);
  for (VertexId v = 0; v < 30; ++v) rg.kill(v);
  for (VertexId v = 30; v < g.num_vertices(); ++v) {
    std::vector<VertexId> expected;
    for (const Arc& a : rg.alive_arcs(v)) {
      if (a.to > v) expected.push_back(a.to);
    }
    std::vector<VertexId> got;
    for (const Arc& a : rg.alive_upper_arcs(v)) got.push_back(a.to);
    EXPECT_EQ(got, expected) << "vertex " << v;
  }
}

TEST(ResidualGraph, KillIsIdempotent) {
  const Graph g = make_family("gnp_dense", 100, 3);
  ResidualGraph rg(g);
  rg.kill(5);
  const auto edges_after = rg.alive_edge_count();
  const auto count_after = rg.alive_count();
  rg.kill(5);  // no-op
  EXPECT_EQ(rg.alive_edge_count(), edges_after);
  EXPECT_EQ(rg.alive_count(), count_after);
}

TEST(ResidualGraph, BatchKillChargesSharedEdgesOnce) {
  // Triangle: killing two adjacent vertices must remove all 3 edges, not 4.
  const Graph g = make_graph(3, {{0, 1}, {1, 2}, {0, 2}});
  ResidualGraph rg(g);
  rg.kill(0);
  EXPECT_EQ(rg.alive_edge_count(), 1U);  // {1,2} left
  rg.kill(1);
  EXPECT_EQ(rg.alive_edge_count(), 0U);
  EXPECT_EQ(rg.residual_degree(2), 0U);
  EXPECT_TRUE(rg.alive(2));
}

TEST(ResidualGraph, EmptyGraph) {
  const Graph g = GraphBuilder(0).build();
  ResidualGraph rg(g);
  EXPECT_EQ(rg.alive_count(), 0U);
  EXPECT_EQ(rg.alive_edge_count(), 0U);
  EXPECT_EQ(rg.max_alive_degree(), 0U);
  EXPECT_TRUE(rg.alive_vertices().empty());
}

TEST(CsrScratch, BuildsAdjacencyAndClears) {
  CsrScratch csr(6);
  const std::vector<std::pair<VertexId, VertexId>> pairs{
      {0, 1}, {0, 2}, {3, 4}};
  csr.build(pairs);
  auto sorted = [](std::span<const VertexId> s) {
    std::vector<VertexId> v(s.begin(), s.end());
    std::sort(v.begin(), v.end());
    return v;
  };
  EXPECT_EQ(sorted(csr.neighbors(0)), (std::vector<VertexId>{1, 2}));
  EXPECT_EQ(sorted(csr.neighbors(1)), (std::vector<VertexId>{0}));
  EXPECT_EQ(sorted(csr.neighbors(4)), (std::vector<VertexId>{3}));
  EXPECT_TRUE(csr.neighbors(5).empty());
  EXPECT_EQ(csr.touched().size(), 5U);

  csr.clear();
  EXPECT_TRUE(csr.touched().empty());
  EXPECT_TRUE(csr.neighbors(0).empty());

  // Reuse after clear.
  const std::vector<std::pair<VertexId, VertexId>> pairs2{{5, 0}};
  csr.build(pairs2);
  EXPECT_EQ(sorted(csr.neighbors(5)), (std::vector<VertexId>{0}));
  EXPECT_TRUE(csr.neighbors(1).empty());
}

}  // namespace
}  // namespace mpcg
