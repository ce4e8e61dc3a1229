// Golden regression for the residual-graph / flat-exchange refactor: the
// MIS and matching drivers were ported from full edge-list rescans onto
// ResidualGraph, and mpc::Engine from a dense outbox matrix onto flat
// per-sender buffers. Those are representation changes only — outputs AND
// engine metrics must be byte-identical to the pre-refactor implementation.
// The constants below were produced by the pre-refactor code at commit
// "PR 0" for these exact (graph, options) pairs; a mismatch means observable
// behavior changed, which must be deliberate.
//
// The configurations are chosen to exercise every stage: rank phases, the
// sparsified local-MIS stage, the final gather, and (for matching) both the
// phase loop and the direct-simulation tail.
#include <gtest/gtest.h>

#include "core/matching_mpc.h"
#include "core/mis_cclique.h"
#include "core/mis_mpc.h"
#include "gen/families.h"

namespace mpcg {
namespace {

std::uint64_t fnv1a(const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = 1469598103934665603ULL;
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

TEST(ResidualRegression, MisAllStagesUnchanged) {
  // 1 rank phase + 5 sparsified iterations + final gather.
  const Graph g = graph_family("gnp_sparse", 1200, 5);
  ASSERT_EQ(g.num_edges(), 3578U);
  MisMpcOptions opt;
  opt.seed = 42;
  opt.gather_budget = 60;
  opt.degree_switch = 12;
  const auto r = mis_mpc(g, opt);

  EXPECT_EQ(r.mis.size(), 414U);
  EXPECT_EQ(fnv1a(r.mis.data(), r.mis.size() * sizeof(VertexId)),
            12023237254008437413ULL);
  EXPECT_EQ(r.rank_phases, 1U);
  EXPECT_EQ(r.sparsified_iterations, 5U);
  EXPECT_EQ(r.final_gather_edges, 22U);

  EXPECT_EQ(r.metrics.rounds, 49U);
  EXPECT_EQ(r.metrics.max_sent_words, 1200U);
  EXPECT_EQ(r.metrics.max_received_words, 1200U);
  EXPECT_EQ(r.metrics.peak_storage_words, 5448U);
  EXPECT_EQ(r.metrics.violations, 0U);
  EXPECT_EQ(r.metrics.total_words, 7312U);
}

TEST(ResidualRegression, MisExactModeUnchanged) {
  // 4 rank phases + final gather, sparsified stage disabled (the lossless
  // sequential-greedy simulation).
  const Graph g = graph_family("power_law", 900, 11);
  ASSERT_EQ(g.num_edges(), 3552U);
  MisMpcOptions opt;
  opt.seed = 7;
  opt.use_sparsified_stage = false;
  opt.gather_budget = 300;
  const auto r = mis_mpc(g, opt);

  EXPECT_EQ(r.mis.size(), 384U);
  EXPECT_EQ(fnv1a(r.mis.data(), r.mis.size() * sizeof(VertexId)),
            11790637052838931498ULL);
  EXPECT_EQ(r.rank_phases, 4U);
  EXPECT_EQ(r.final_gather_edges, 272U);

  EXPECT_EQ(r.metrics.rounds, 31U);
  EXPECT_EQ(r.metrics.max_sent_words, 900U);
  EXPECT_EQ(r.metrics.max_received_words, 900U);
  EXPECT_EQ(r.metrics.peak_storage_words, 5624U);
  EXPECT_EQ(r.metrics.violations, 0U);
  EXPECT_EQ(r.metrics.total_words, 2969U);
}

// The CONGESTED-CLIQUE driver on the MPC rows' graphs and options: the
// same decisions (the MIS hashes are the MPC rows' own) and pinned clique
// Metrics, so moving either model's transport cannot shift the other.
TEST(ResidualRegression, MisCcliqueAllStagesUnchanged) {
  const Graph g = graph_family("gnp_sparse", 1200, 5);
  ASSERT_EQ(g.num_edges(), 3578U);
  MisCcliqueOptions opt;
  opt.seed = 42;
  opt.gather_budget = 60;
  opt.degree_switch = 12;
  const auto r = mis_cclique(g, opt);

  EXPECT_EQ(r.mis.size(), 414U);
  EXPECT_EQ(fnv1a(r.mis.data(), r.mis.size() * sizeof(VertexId)),
            12023237254008437413ULL);
  EXPECT_EQ(r.rank_phases, 1U);
  EXPECT_EQ(r.sparsified_iterations, 5U);
  EXPECT_EQ(r.final_gather_edges, 22U);

  EXPECT_EQ(r.metrics.rounds, 37U);
  EXPECT_EQ(r.metrics.total_words, 11592260U);
  EXPECT_EQ(r.metrics.lenzen_batches, 2U);
  EXPECT_EQ(r.metrics.max_player_sent, 1199U);
  EXPECT_EQ(r.metrics.max_player_received, 67U);
  EXPECT_EQ(r.metrics.violations, 0U);
}

TEST(ResidualRegression, MisCcliqueExactModeUnchanged) {
  const Graph g = graph_family("power_law", 900, 11);
  ASSERT_EQ(g.num_edges(), 3552U);
  MisCcliqueOptions opt;
  opt.seed = 7;
  opt.use_sparsified_stage = false;
  opt.gather_budget = 300;
  const auto r = mis_cclique(g, opt);

  EXPECT_EQ(r.mis.size(), 384U);
  EXPECT_EQ(fnv1a(r.mis.data(), r.mis.size() * sizeof(VertexId)),
            11790637052838931498ULL);
  EXPECT_EQ(r.rank_phases, 4U);
  EXPECT_EQ(r.sparsified_iterations, 0U);
  EXPECT_EQ(r.final_gather_edges, 272U);

  EXPECT_EQ(r.metrics.rounds, 32U);
  EXPECT_EQ(r.metrics.total_words, 4837576U);
  EXPECT_EQ(r.metrics.lenzen_batches, 5U);
  EXPECT_EQ(r.metrics.max_player_sent, 899U);
  EXPECT_EQ(r.metrics.max_player_received, 272U);
  EXPECT_EQ(r.metrics.violations, 0U);
}

TEST(ResidualRegression, MatchingUnchangedIncludingFloatingPoint) {
  // 6 phases + 23 tail iterations. The x-vector hash covers the exact bit
  // patterns of the fractional weights: the refactor must preserve
  // floating-point summation order (stable alive_arcs), not just the
  // rounded values.
  const Graph g = graph_family("gnp_dense", 700, 3);
  ASSERT_EQ(g.num_edges(), 8290U);
  MatchingMpcOptions opt;
  opt.eps = 0.1;
  opt.seed = 9;
  opt.threshold_seed = 10;
  const auto r = matching_mpc(g, opt);

  EXPECT_EQ(r.phases, 6U);
  EXPECT_EQ(r.total_iterations, 54U);
  EXPECT_EQ(r.tail_iterations, 23U);
  EXPECT_EQ(r.cover.size(), 651U);
  EXPECT_EQ(fnv1a(r.cover.data(), r.cover.size() * sizeof(VertexId)),
            6501912623358857769ULL);
  EXPECT_EQ(fnv1a(r.x.data(), r.x.size() * sizeof(double)),
            1566749819145939052ULL);

  EXPECT_EQ(r.metrics.rounds, 72U);
  EXPECT_EQ(r.metrics.max_sent_words, 4420U);
  EXPECT_EQ(r.metrics.max_received_words, 332U);
  EXPECT_EQ(r.metrics.peak_storage_words, 871U);
  EXPECT_EQ(r.metrics.violations, 0U);
  EXPECT_EQ(r.metrics.total_words, 26339U);
}

}  // namespace
}  // namespace mpcg
