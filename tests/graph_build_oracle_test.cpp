// Oracle tests for the linear-time graph build. The reference builder
// (comparison sort, unique, arc fill, then a sort of every adjacency) and
// the G(n, p) generator's binary-search row lookup live here as test-local
// oracles; every build path must reproduce their degrees, arcs and edges
// exactly, so edge ids and adjacency order are unchanged for every caller.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "gen/families.h"
#include "gen/generators.h"
#include "graph/graph.h"
#include "graph/io.h"
#include "graph/subgraph.h"
#include "util/rng.h"

namespace mpcg {
namespace {

using Pairs = std::vector<std::pair<VertexId, VertexId>>;

/// A graph's CSR as plain vectors: per-vertex degrees, the concatenated
/// adjacencies as (neighbor, edge id), and the edges in id order.
struct Csr {
  std::vector<std::size_t> degree;
  std::vector<std::pair<VertexId, EdgeId>> arcs;
  std::vector<std::pair<VertexId, VertexId>> edges;
};

bool lex_less(const Edge& a, const Edge& b) {
  return a.u < b.u || (a.u == b.u && a.v < b.v);
}

/// The reference builder: add_edge's canonicalization, then sort, unique,
/// degree count, arc fill in edge-id order and a per-vertex adjacency sort.
Csr oracle_build(std::size_t n, const Pairs& added) {
  std::vector<Edge> edges;
  for (auto [u, v] : added) {
    if (u == v) continue;
    if (u > v) std::swap(u, v);
    edges.push_back(Edge{u, v});
  }
  std::sort(edges.begin(), edges.end(), lex_less);
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  std::vector<std::size_t> offsets(n + 1, 0);
  for (const Edge& e : edges) {
    ++offsets[std::size_t{e.u} + 1];
    ++offsets[std::size_t{e.v} + 1];
  }
  for (std::size_t v = 0; v < n; ++v) offsets[v + 1] += offsets[v];
  std::vector<Arc> arcs(2 * edges.size());
  std::vector<std::size_t> cursor(offsets.begin(), offsets.end() - 1);
  for (EdgeId e = 0; e < edges.size(); ++e) {
    arcs[cursor[edges[e].u]++] = Arc{edges[e].v, e};
    arcs[cursor[edges[e].v]++] = Arc{edges[e].u, e};
  }
  for (std::size_t v = 0; v < n; ++v) {
    std::sort(arcs.begin() + static_cast<std::ptrdiff_t>(offsets[v]),
              arcs.begin() + static_cast<std::ptrdiff_t>(offsets[v + 1]),
              [](const Arc& a, const Arc& b) { return a.to < b.to; });
  }
  Csr out;
  for (std::size_t v = 0; v < n; ++v) {
    out.degree.push_back(offsets[v + 1] - offsets[v]);
  }
  for (const Arc& a : arcs) out.arcs.emplace_back(a.to, a.edge);
  for (const Edge& e : edges) out.edges.emplace_back(e.u, e.v);
  return out;
}

/// The G(n, p) generator's edge sequence as it was produced with a binary
/// search for the row of every skip target.
Pairs oracle_gnp_sequence(std::size_t n, double p, Rng& rng) {
  Pairs out;
  if (p <= 0.0 || n < 2 || p >= 1.0) return out;
  const double log_q = std::log1p(-p);
  const std::uint64_t total = static_cast<std::uint64_t>(n) * (n - 1) / 2;
  const auto cum = [&](std::uint64_t u) {
    return u * (n - 1) - u * (u - 1) / 2;
  };
  std::uint64_t idx = 0;
  while (true) {
    const double r = rng.next_double();
    const double skip = std::floor(std::log(1.0 - r) / log_q);
    idx += static_cast<std::uint64_t>(std::min(skip, 1e18)) + 1;
    if (idx > total) break;
    const std::uint64_t k = idx - 1;
    std::uint64_t lo = 0;
    std::uint64_t hi = n - 1;
    while (lo < hi) {
      const std::uint64_t mid = (lo + hi + 1) / 2;
      if (cum(mid) <= k) {
        lo = mid;
      } else {
        hi = mid - 1;
      }
    }
    out.emplace_back(static_cast<VertexId>(lo),
                     static_cast<VertexId>(lo + 1 + (k - cum(lo))));
  }
  return out;
}

Csr image_of(const Graph& g) {
  Csr out;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    out.degree.push_back(g.degree(v));
    for (const Arc& a : g.arcs(v)) out.arcs.emplace_back(a.to, a.edge);
  }
  for (const Edge& e : g.edges()) out.edges.emplace_back(e.u, e.v);
  return out;
}

void expect_same(const Graph& g, const Csr& want, const std::string& what) {
  const Csr got = image_of(g);
  EXPECT_EQ(got.degree, want.degree) << what;
  EXPECT_EQ(got.arcs, want.arcs) << what;
  EXPECT_EQ(got.edges, want.edges) << what;
}

Pairs edges_of(const Graph& g) {
  Pairs out;
  for (const Edge& e : g.edges()) out.emplace_back(e.u, e.v);
  return out;
}

/// The same edge set in an order the builder must sort: shuffled, about a
/// third of the pairs reversed, a quarter duplicated, plus self-loops.
Pairs scramble(Pairs edges, std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  const std::size_t m = edges.size();
  for (std::size_t i = 0; i < m; ++i) {
    if (rng.next_below(4) == 0) edges.push_back(edges[i]);
  }
  for (std::size_t i = 0; n > 0 && i < m / 8 + 2; ++i) {
    const auto v = static_cast<VertexId>(rng.next_below(n));
    edges.emplace_back(v, v);
  }
  for (auto& [u, v] : edges) {
    if (rng.next_below(3) == 0) std::swap(u, v);
  }
  for (std::size_t i = edges.size(); i > 1; --i) {
    std::swap(edges[i - 1], edges[rng.next_below(i)]);
  }
  return edges;
}

/// Checks a generated graph against the oracle on its own edge set, in
/// ascending order (the builder's no-sort path) and scrambled (its
/// counting-sort path).
void check_graph(const Graph& g, const std::string& what) {
  const std::size_t n = g.num_vertices();
  const Pairs sorted = edges_of(g);
  const Csr want = oracle_build(n, sorted);
  expect_same(g, want, what);
  expect_same(make_graph(n, sorted), want, what + " ascending");
  const Pairs scrambled = scramble(sorted, n, sorted.size() + n);
  expect_same(make_graph(n, scrambled), oracle_build(n, scrambled),
              what + " scrambled");
  expect_same(make_graph(n, scrambled), want, what + " scrambled vs graph");
}

constexpr std::size_t kSizes[] = {0, 1, 2, 17, 1000, std::size_t{1} << 14};
constexpr std::uint64_t kSeeds[] = {1, 2, 9001};

TEST(GraphBuildOracle, EveryFamilyMatchesTheOracle) {
  for (const char* family : family_names()) {
    for (const std::size_t n : kSizes) {
      for (const std::uint64_t seed : kSeeds) {
        check_graph(graph_family(family, n, seed),
                    std::string(family) + " n=" + std::to_string(n) +
                        " seed=" + std::to_string(seed));
      }
    }
  }
}

// FNV-1a over a graph's degrees, arcs and edges.
std::uint64_t digest(const Graph& g, std::uint64_t h) {
  const auto fold = [&h](std::uint64_t w) {
    h = (h ^ w) * 0x100000001b3ULL;
  };
  fold(g.num_vertices());
  fold(g.num_edges());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    fold(g.degree(v));
    for (const Arc& a : g.arcs(v)) {
      fold((std::uint64_t{a.to} << 32) | a.edge);
    }
  }
  for (const Edge& e : g.edges()) fold((std::uint64_t{e.u} << 32) | e.v);
  return h;
}

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

TEST(GraphBuildOracle, FamilyGraphsAreByteStable) {
  // Digests of every family graph over kSizes x kSeeds, taken with the
  // comparison-sort builder and binary-search G(n, p) rows. The generators'
  // own edge sequences go into these, which the oracle checks above cannot
  // see.
  const std::pair<const char*, std::uint64_t> pinned[] = {
      {"gnp_sparse", 0x8ed95b2a0d76d9e0ULL},
      {"gnp_dense", 0xa8827b1155e94160ULL},
      {"power_law", 0xd7c321246ccd55c8ULL},
      {"bipartite", 0xc6da90911fffb2edULL},
      {"rmat", 0xfa57b1363ce5f5c0ULL},
      {"grid", 0xde7d5d02409175f3ULL},
      {"star", 0x1cc5a3319e5a3965ULL},
      {"cliques", 0x0b2770b2fcadc9bdULL},
  };
  for (const auto& [family, want] : pinned) {
    std::uint64_t h = kFnvOffset;
    for (const std::size_t n : kSizes) {
      for (const std::uint64_t seed : kSeeds) {
        h = digest(graph_family(family, n, seed), h);
      }
    }
    EXPECT_EQ(h, want) << family << " got 0x" << std::hex << h;
  }
}

TEST(GraphBuildOracle, GnpRowWalkMatchesBinarySearch) {
  struct Case {
    std::size_t n;
    double p;
  };
  const Case cases[] = {
      {2, 0.5},       {3, 0.9},      {17, 0.3},
      {1000, 0.0005},  // sparse: most rows empty
      {1000, 0.006},  {1000, 0.024},  // the gnp_sparse / gnp_dense degrees
      {300, 0.3},      // dense
      {200, 0.999},    // almost every pair, the last rows included
  };
  for (const Case& c : cases) {
    for (const std::uint64_t seed : kSeeds) {
      const std::string what = "n=" + std::to_string(c.n) +
                               " p=" + std::to_string(c.p) +
                               " seed=" + std::to_string(seed);
      Rng oracle_rng(seed);
      const Pairs seq = oracle_gnp_sequence(c.n, c.p, oracle_rng);
      ASSERT_TRUE(std::is_sorted(seq.begin(), seq.end())) << what;
      Rng rng(seed);
      const Graph g = erdos_renyi_gnp(c.n, c.p, rng);
      expect_same(g, oracle_build(c.n, seq), what);
      EXPECT_EQ(rng.next_double(), oracle_rng.next_double()) << what;
    }
  }
}

TEST(GraphBuildOracle, OtherGeneratorsMatchTheOracle) {
  std::uint64_t h = kFnvOffset;
  for (const std::uint64_t seed : kSeeds) {
    Rng gnm_rng(seed);
    const Graph gnm = erdos_renyi_gnm(2000, 9000, gnm_rng);
    check_graph(gnm, "gnm seed=" + std::to_string(seed));
    Rng ba_rng(seed);
    const Graph ba = barabasi_albert(2000, 4, ba_rng);
    check_graph(ba, "barabasi_albert seed=" + std::to_string(seed));
    Rng geo_rng(seed);
    const Graph geo = random_geometric(1500, 0.05, geo_rng);
    check_graph(geo, "geometric seed=" + std::to_string(seed));
    h = digest(geo, digest(ba, digest(gnm, h)));
  }
  // Taken with the comparison-sort builder, like the family digests.
  EXPECT_EQ(h, 0xc5397327db064029ULL) << "got 0x" << std::hex << h;
}

TEST(GraphBuildOracle, ScrambledEdgeListsMatchTheOracle) {
  // Random multigraph input: duplicates, both orientations, self-loops and
  // isolated vertices.
  for (const std::size_t n : {1UL, 2UL, 5UL, 64UL, 1000UL}) {
    for (const std::uint64_t seed : kSeeds) {
      Rng rng(mix64(seed, n));
      Pairs added;
      const std::size_t count = 3 * n + 10;
      for (std::size_t i = 0; i < count; ++i) {
        const auto u = static_cast<VertexId>(rng.next_below(n));
        const auto v = static_cast<VertexId>(rng.next_below(n));
        added.emplace_back(u, v);
        if (i % 5 == 0) added.emplace_back(v, u);
      }
      const std::string what =
          "n=" + std::to_string(n) + " seed=" + std::to_string(seed);
      expect_same(make_graph(n, added), oracle_build(n, added), what);
    }
  }
  // Non-strict ascending input (a duplicate in place) must still dedupe.
  const Pairs dup{{0, 1}, {0, 1}, {1, 2}};
  expect_same(make_graph(3, dup), oracle_build(3, dup), "sorted duplicate");
}

/// induced_subgraph as it was: sort the local triples, build with the
/// reference builder, and let the parent edge ids ride along.
void check_induced(const Graph& g, const std::vector<VertexId>& vertices,
                   const std::string& what) {
  std::vector<VertexId> local_of(g.num_vertices(), ~VertexId{0});
  for (std::size_t i = 0; i < vertices.size(); ++i) {
    local_of[vertices[i]] = static_cast<VertexId>(i);
  }
  struct Triple {
    VertexId u, v;
    EdgeId parent;
  };
  std::vector<Triple> triples;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const VertexId a = local_of[g.edge(e).u];
    const VertexId b = local_of[g.edge(e).v];
    if (a == ~VertexId{0} || b == ~VertexId{0}) continue;
    triples.push_back({std::min(a, b), std::max(a, b), e});
  }
  std::sort(triples.begin(), triples.end(),
            [](const Triple& a, const Triple& b) {
              return a.u < b.u || (a.u == b.u && a.v < b.v);
            });
  Pairs local;
  std::vector<EdgeId> parents;
  for (const Triple& t : triples) {
    local.emplace_back(t.u, t.v);
    parents.push_back(t.parent);
  }
  const InducedSubgraph sub = induced_subgraph(g, vertices);
  expect_same(sub.graph, oracle_build(vertices.size(), local), what);
  EXPECT_EQ(sub.to_parent_edge, parents) << what;
  EXPECT_EQ(sub.to_parent_vertex, vertices) << what;
}

TEST(GraphBuildOracle, InducedSubgraphMatchesTheOracle) {
  for (const char* family : {"gnp_dense", "power_law", "rmat", "cliques"}) {
    for (const std::uint64_t seed : kSeeds) {
      const Graph g = graph_family(family, 2000, seed);
      const std::string what =
          std::string(family) + " seed=" + std::to_string(seed);
      Rng rng(seed);
      std::vector<VertexId> ascending;
      for (VertexId v = 0; v < g.num_vertices(); ++v) {
        if (rng.next_below(3) != 0) ascending.push_back(v);
      }
      check_induced(g, ascending, what + " ascending");
      std::vector<VertexId> shuffled = ascending;
      for (std::size_t i = shuffled.size(); i > 1; --i) {
        std::swap(shuffled[i - 1], shuffled[rng.next_below(i)]);
      }
      check_induced(g, shuffled, what + " shuffled");
      check_induced(g, {}, what + " empty");
    }
  }
}

TEST(GraphBuildOracle, ReadEdgeListMatchesTheOracle) {
  for (const std::uint64_t seed : kSeeds) {
    const Graph g = graph_family("power_law", 1000, seed);
    const std::size_t n = g.num_vertices();
    const Pairs rows = scramble(edges_of(g), n, seed);
    std::ostringstream text;
    text << n << ' ' << rows.size() << '\n';
    for (const auto& [u, v] : rows) text << u << ' ' << v << '\n';
    std::istringstream in(text.str());
    const LoadedGraph loaded = read_edge_list(in);
    const std::string what = "seed=" + std::to_string(seed);
    expect_same(loaded.graph, oracle_build(n, rows), what);
    expect_same(loaded.graph, image_of(g), what + " vs source");
  }
}

}  // namespace
}  // namespace mpcg
