#include "gen/generators.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <unordered_set>

namespace mpcg {

namespace {

/// Packs an edge into a 64-bit key for dedup sets.
std::uint64_t edge_key(VertexId u, VertexId v) noexcept {
  if (u > v) std::swap(u, v);
  return (static_cast<std::uint64_t>(u) << 32) | v;
}

}  // namespace

Graph erdos_renyi_gnp(std::size_t n, double p, Rng& rng) {
  GraphBuilder builder(n);
  if (p <= 0.0 || n < 2) return builder.build();
  if (p >= 1.0) return complete_graph(n);

  // Iterate potential edges in lexicographic order, skipping geometrically.
  // Linear index k (0-based) of pair (u, v) lies in row u, which holds the
  // n - 1 - u pairs (u, u+1..n-1) at [row_begin, row_end). k only grows, so
  // the row is found by walking forward; the edges come out in ascending
  // (u, v) order, which the builder takes without sorting.
  const double log_q = std::log1p(-p);
  const std::uint64_t total = static_cast<std::uint64_t>(n) * (n - 1) / 2;
  const double expected = p * static_cast<double>(total);
  builder.reserve(static_cast<std::size_t>(std::min(
      static_cast<double>(total), expected + 6.0 * std::sqrt(expected) + 64)));
  std::uint64_t idx = 0;
  std::uint64_t u = 0;
  std::uint64_t row_begin = 0;
  std::uint64_t row_end = n - 1;
  while (true) {
    const double r = rng.next_double();
    // Geometric skip: number of non-edges before the next edge.
    const double skip = std::floor(std::log(1.0 - r) / log_q);
    idx += static_cast<std::uint64_t>(std::min(skip, 1e18)) + 1;
    if (idx > total) break;
    const std::uint64_t k = idx - 1;
    while (k >= row_end) {
      ++u;
      row_begin = row_end;
      row_end += n - 1 - u;
    }
    const std::uint64_t v = u + 1 + (k - row_begin);
    builder.add_edge(static_cast<VertexId>(u), static_cast<VertexId>(v));
  }
  return builder.build();
}

Graph erdos_renyi_gnm(std::size_t n, std::size_t m, Rng& rng) {
  GraphBuilder builder(n);
  if (n < 2) return builder.build();
  const std::uint64_t total = static_cast<std::uint64_t>(n) * (n - 1) / 2;
  m = static_cast<std::size_t>(
      std::min<std::uint64_t>(m, total));
  std::unordered_set<std::uint64_t> chosen;
  chosen.reserve(m * 2);
  while (chosen.size() < m) {
    const auto u = static_cast<VertexId>(rng.next_below(n));
    const auto v = static_cast<VertexId>(rng.next_below(n));
    if (u == v) continue;
    if (chosen.insert(edge_key(u, v)).second) builder.add_edge(u, v);
  }
  return builder.build();
}

Graph chung_lu_power_law(std::size_t n, double beta, double avg_degree,
                         Rng& rng) {
  if (n == 0) return GraphBuilder(0).build();
  if (beta <= 1.0) throw std::invalid_argument("chung_lu: beta must be > 1");
  // Expected degrees w_i ~ c * i^{-1/(beta-1)}, scaled to the target mean.
  std::vector<double> w(n);
  const double exponent = -1.0 / (beta - 1.0);
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    w[i] = std::pow(static_cast<double>(i + 1), exponent);
    sum += w[i];
  }
  const double scale = avg_degree * static_cast<double>(n) / sum;
  double total = 0.0;
  for (auto& wi : w) {
    wi *= scale;
    total += wi;
  }

  // Efficient Chung-Lu sampling (Miller–Hagberg): vertices sorted by weight
  // descending (they already are), skip-sample within each row.
  GraphBuilder builder(n);
  for (std::size_t u = 0; u + 1 < n; ++u) {
    std::size_t v = u + 1;
    double p = std::min(1.0, w[u] * w[v] / total);
    while (v < n && p > 0.0) {
      if (p < 1.0) {
        const double r = rng.next_double();
        const double skip = std::floor(std::log(r) / std::log1p(-p));
        v += static_cast<std::size_t>(std::min(skip, 1e18));
      }
      if (v >= n) break;
      const double q = std::min(1.0, w[u] * w[v] / total);
      if (rng.next_double() < q / p) {
        builder.add_edge(static_cast<VertexId>(u), static_cast<VertexId>(v));
      }
      p = q;
      ++v;
    }
  }
  return builder.build();
}

Graph barabasi_albert(std::size_t n, std::size_t k, Rng& rng) {
  if (k == 0 || n == 0) return GraphBuilder(n).build();
  k = std::min(k, n > 1 ? n - 1 : std::size_t{0});
  GraphBuilder builder(n);
  // repeated-endpoints list for preferential attachment
  std::vector<VertexId> targets;
  const std::size_t seed_size = std::max<std::size_t>(k, 1);
  // Seed: clique on the first seed_size+1 vertices (or fewer).
  const std::size_t s = std::min(n, seed_size + 1);
  for (std::size_t u = 0; u < s; ++u) {
    for (std::size_t v = u + 1; v < s; ++v) {
      builder.add_edge(static_cast<VertexId>(u), static_cast<VertexId>(v));
      targets.push_back(static_cast<VertexId>(u));
      targets.push_back(static_cast<VertexId>(v));
    }
  }
  for (std::size_t u = s; u < n; ++u) {
    std::unordered_set<VertexId> picked;
    while (picked.size() < k) {
      const VertexId t = targets[rng.next_below(targets.size())];
      picked.insert(t);
    }
    for (const VertexId t : picked) {
      builder.add_edge(static_cast<VertexId>(u), t);
      targets.push_back(static_cast<VertexId>(u));
      targets.push_back(t);
    }
  }
  return builder.build();
}

Graph random_bipartite(std::size_t left, std::size_t right, double p,
                       Rng& rng) {
  GraphBuilder builder(left + right);
  if (p <= 0.0 || left == 0 || right == 0) return builder.build();
  if (p >= 1.0) return complete_bipartite(left, right);
  // Geometric skipping over the left x right grid.
  const double log_q = std::log1p(-p);
  const std::uint64_t total = static_cast<std::uint64_t>(left) * right;
  std::uint64_t idx = 0;
  while (true) {
    const double r = rng.next_double();
    const double skip = std::floor(std::log(1.0 - r) / log_q);
    idx += static_cast<std::uint64_t>(std::min(skip, 1e18)) + 1;
    if (idx > total) break;
    const std::uint64_t kk = idx - 1;
    const auto u = static_cast<VertexId>(kk / right);
    const auto v = static_cast<VertexId>(left + (kk % right));
    builder.add_edge(u, v);
  }
  return builder.build();
}

Graph rmat(std::size_t scale, std::size_t edges, double a, double b, double c,
           Rng& rng) {
  const std::size_t n = std::size_t{1} << scale;
  GraphBuilder builder(n);
  const double d = 1.0 - a - b - c;
  if (d < -1e-9) throw std::invalid_argument("rmat: a+b+c must be <= 1");
  builder.reserve(edges);
  for (std::size_t e = 0; e < edges; ++e) {
    std::uint64_t u = 0;
    std::uint64_t v = 0;
    for (std::size_t bit = 0; bit < scale; ++bit) {
      const double r = rng.next_double();
      u <<= 1;
      v <<= 1;
      if (r < a) {
        // top-left: no bits
      } else if (r < a + b) {
        v |= 1;
      } else if (r < a + b + c) {
        u |= 1;
      } else {
        u |= 1;
        v |= 1;
      }
    }
    if (u != v) {
      builder.add_edge(static_cast<VertexId>(u), static_cast<VertexId>(v));
    }
  }
  return builder.build();
}

Graph random_geometric(std::size_t n, double radius, Rng& rng) {
  std::vector<double> xs(n);
  std::vector<double> ys(n);
  for (std::size_t i = 0; i < n; ++i) {
    xs[i] = rng.next_double();
    ys[i] = rng.next_double();
  }
  const double r2 = radius * radius;
  GraphBuilder builder(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const double dx = xs[i] - xs[j];
      const double dy = ys[i] - ys[j];
      if (dx * dx + dy * dy <= r2) {
        builder.add_edge(static_cast<VertexId>(i), static_cast<VertexId>(j));
      }
    }
  }
  return builder.build();
}

Graph path_graph(std::size_t n) {
  GraphBuilder builder(n);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    builder.add_edge(static_cast<VertexId>(i), static_cast<VertexId>(i + 1));
  }
  return builder.build();
}

Graph cycle_graph(std::size_t n) {
  GraphBuilder builder(n);
  if (n >= 3) {
    for (std::size_t i = 0; i < n; ++i) {
      builder.add_edge(static_cast<VertexId>(i),
                       static_cast<VertexId>((i + 1) % n));
    }
  } else if (n == 2) {
    builder.add_edge(0, 1);
  }
  return builder.build();
}

Graph complete_graph(std::size_t n) {
  GraphBuilder builder(n);
  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t v = u + 1; v < n; ++v) {
      builder.add_edge(static_cast<VertexId>(u), static_cast<VertexId>(v));
    }
  }
  return builder.build();
}

Graph star_graph(std::size_t n) {
  GraphBuilder builder(n);
  for (std::size_t v = 1; v < n; ++v) {
    builder.add_edge(0, static_cast<VertexId>(v));
  }
  return builder.build();
}

Graph grid_graph(std::size_t rows, std::size_t cols) {
  GraphBuilder builder(rows * cols);
  const auto id = [cols](std::size_t r, std::size_t c) {
    return static_cast<VertexId>(r * cols + c);
  };
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      if (c + 1 < cols) builder.add_edge(id(r, c), id(r, c + 1));
      if (r + 1 < rows) builder.add_edge(id(r, c), id(r + 1, c));
    }
  }
  return builder.build();
}

Graph clique_union(std::size_t count, std::size_t size) {
  GraphBuilder builder(count * size);
  for (std::size_t q = 0; q < count; ++q) {
    const std::size_t base = q * size;
    for (std::size_t u = 0; u < size; ++u) {
      for (std::size_t v = u + 1; v < size; ++v) {
        builder.add_edge(static_cast<VertexId>(base + u),
                         static_cast<VertexId>(base + v));
      }
    }
  }
  return builder.build();
}

Graph complete_bipartite(std::size_t a, std::size_t b) {
  GraphBuilder builder(a + b);
  for (std::size_t u = 0; u < a; ++u) {
    for (std::size_t v = 0; v < b; ++v) {
      builder.add_edge(static_cast<VertexId>(u),
                       static_cast<VertexId>(a + v));
    }
  }
  return builder.build();
}

std::vector<double> uniform_weights(const Graph& g, double lo, double hi,
                                    Rng& rng) {
  std::vector<double> w(g.num_edges());
  for (auto& wi : w) wi = rng.next_in(lo, hi);
  return w;
}

std::vector<double> exponential_weights(const Graph& g, double mean,
                                        Rng& rng) {
  std::vector<double> w(g.num_edges());
  for (auto& wi : w) {
    wi = -mean * std::log(1.0 - rng.next_double());
  }
  return w;
}

}  // namespace mpcg
