#include <tuple>

#include <gtest/gtest.h>

#include "baselines/greedy_mis.h"
#include "core/mis_cclique.h"
#include "core/mis_mpc.h"
#include "graph/validation.h"
#include "test_util.h"
#include "util/permutation.h"
#include "util/rng.h"

namespace mpcg {
namespace {

using testing::kFamilies;
using testing::make_family;

TEST(MisMpc, EmptyAndTrivialGraphs) {
  const Graph empty = GraphBuilder(0).build();
  EXPECT_TRUE(mis_mpc(empty, {}).mis.empty());

  const Graph isolated = GraphBuilder(5).build();
  const auto r = mis_mpc(isolated, {});
  EXPECT_EQ(r.mis.size(), 5U);  // all isolated vertices join
  EXPECT_TRUE(is_maximal_independent_set(isolated, r.mis));
}

TEST(MisMpc, ExactlySimulatesSequentialGreedy) {
  // With the sparsified stage disabled, the simulation is lossless: same
  // permutation => identical MIS, in identical join order.
  for (const char* family : kFamilies) {
    const Graph g = make_family(family, 400, 77);
    MisMpcOptions opt;
    opt.seed = 1234;
    opt.use_sparsified_stage = false;
    const auto mpc_result = mis_mpc(g, opt);

    Rng rng(opt.seed);
    const auto perm = random_permutation(g.num_vertices(), rng);
    const auto reference = greedy_mis(g, perm);
    EXPECT_EQ(mpc_result.mis, reference) << "family " << family;
  }
}

TEST(MisMpc, DefaultConfigProducesValidMis) {
  for (const char* family : kFamilies) {
    const Graph g = make_family(family, 500, 9);
    const auto r = mis_mpc(g, {});
    EXPECT_TRUE(is_maximal_independent_set(g, r.mis)) << family;
  }
}

TEST(MisMpc, NoCapacityViolationsAtDefaultSizing) {
  Rng rng(3);
  const Graph g = erdos_renyi_gnp(2000, 16.0 / 2000.0, rng);
  MisMpcOptions opt;
  opt.strict = true;  // throws on violation
  const auto r = mis_mpc(g, opt);
  EXPECT_EQ(r.metrics.violations, 0U);
  EXPECT_TRUE(is_maximal_independent_set(g, r.mis));
}

TEST(MisMpc, WindowEdgesStayLinear) {
  // Lemma 3.1 / Eq.(1): each phase's gathered window subgraph has O(n)
  // edges. Check a generous constant.
  Rng rng(4);
  const std::size_t n = 4000;
  const Graph g = erdos_renyi_gnp(n, 32.0 / static_cast<double>(n), rng);
  const auto r = mis_mpc(g, {});
  for (const std::size_t edges : r.window_edges_per_phase) {
    EXPECT_LE(edges, 4 * n);
  }
}

TEST(MisMpc, PeakStorageWithinBudget) {
  Rng rng(5);
  const std::size_t n = 3000;
  const Graph g = erdos_renyi_gnp(n, 12.0 / static_cast<double>(n), rng);
  const auto r = mis_mpc(g, {});
  EXPECT_LE(r.metrics.peak_storage_words, r.words_per_machine_used);
}

TEST(MisMpc, DeterministicPerSeed) {
  const Graph g = make_family("gnp_dense", 300, 5);
  MisMpcOptions opt;
  opt.seed = 42;
  EXPECT_EQ(mis_mpc(g, opt).mis, mis_mpc(g, opt).mis);
}

TEST(MisMpc, DifferentSeedsUsuallyDiffer) {
  const Graph g = make_family("gnp_dense", 300, 5);
  MisMpcOptions a;
  a.seed = 1;
  MisMpcOptions b;
  b.seed = 2;
  EXPECT_NE(mis_mpc(g, a).mis, mis_mpc(g, b).mis);
}

TEST(MisMpc, RankPhasesTrackLogLogDelta) {
  // Doubling the exponent of Delta should add roughly O(1) phases.
  Rng rng(6);
  const std::size_t n = 4096;
  const Graph low = erdos_renyi_gnp(n, 8.0 / n, rng);
  const Graph high = erdos_renyi_gnp(n, 128.0 / n, rng);
  MisMpcOptions opt;
  opt.use_sparsified_stage = true;
  const auto rl = mis_mpc(low, opt);
  const auto rh = mis_mpc(high, opt);
  // More degree -> possibly more phases, but only by a few.
  EXPECT_LE(rh.rank_phases, rl.rank_phases + 6);
  EXPECT_LE(rh.rank_phases, 12U);
}

TEST(MisMpc, ExplicitSizingRespected) {
  const Graph g = make_family("gnp_sparse", 200, 7);
  MisMpcOptions opt;
  opt.num_machines = 5;
  opt.words_per_machine = 4096;
  const auto r = mis_mpc(g, opt);
  EXPECT_EQ(r.machines_used, 5U);
  EXPECT_EQ(r.words_per_machine_used, 4096U);
  EXPECT_TRUE(is_maximal_independent_set(g, r.mis));
}

TEST(MisCclique, ProducesValidMis) {
  for (const char* family : kFamilies) {
    const Graph g = make_family(family, 300, 11);
    const auto r = mis_cclique(g, {});
    EXPECT_TRUE(is_maximal_independent_set(g, r.mis)) << family;
  }
}

TEST(MisCclique, MatchesMpcDecisionForDecision) {
  // Same seed + same thresholds => the two models simulate one process and
  // must emit identical MIS sets in identical order.
  for (const char* family : {"gnp_sparse", "gnp_dense", "power_law"}) {
    const Graph g = make_family(family, 350, 21);
    const std::size_t budget = 4 * g.num_vertices();

    MisMpcOptions mopt;
    mopt.seed = 99;
    mopt.gather_budget = budget;
    MisCcliqueOptions copt;
    copt.seed = 99;
    copt.gather_budget = budget;

    const auto mr = mis_mpc(g, mopt);
    const auto cr = mis_cclique(g, copt);
    EXPECT_EQ(mr.mis, cr.mis) << family;
    EXPECT_EQ(mr.rank_phases, cr.rank_phases) << family;
    EXPECT_EQ(mr.sparsified_iterations, cr.sparsified_iterations) << family;
    EXPECT_EQ(mr.window_edges_per_phase, cr.window_edges_per_phase) << family;
    EXPECT_EQ(mr.final_gather_edges, cr.final_gather_edges) << family;
  }
}

TEST(MisCclique, ExactGreedyWhenSparsifiedDisabled) {
  const Graph g = make_family("rmat", 256, 3);
  MisCcliqueOptions opt;
  opt.seed = 5;
  opt.use_sparsified_stage = false;
  const auto r = mis_cclique(g, opt);
  Rng rng(opt.seed);
  const auto perm = random_permutation(g.num_vertices(), rng);
  EXPECT_EQ(r.mis, greedy_mis(g, perm));
}

TEST(MisCclique, LenzenTrafficWithinPerPlayerBounds) {
  Rng rng(8);
  const std::size_t n = 600;
  const Graph g = erdos_renyi_gnp(n, 10.0 / n, rng);
  const auto r = mis_cclique(g, {});
  EXPECT_TRUE(is_maximal_independent_set(g, r.mis));
  EXPECT_EQ(r.metrics.violations, 0U);
}

class MisSweep
    : public ::testing::TestWithParam<std::tuple<const char*, std::uint64_t>> {
};

TEST_P(MisSweep, MpcMisValidAcrossSeeds) {
  const auto [family, seed] = GetParam();
  const Graph g = make_family(family, 256, seed);
  MisMpcOptions opt;
  opt.seed = seed;
  const auto r = mis_mpc(g, opt);
  EXPECT_TRUE(is_maximal_independent_set(g, r.mis));
  EXPECT_EQ(r.metrics.violations, 0U);
}

INSTANTIATE_TEST_SUITE_P(
    Families, MisSweep,
    ::testing::Combine(::testing::ValuesIn(kFamilies),
                       ::testing::Values(1ULL, 2ULL, 3ULL)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param)) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace mpcg
