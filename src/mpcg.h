// Umbrella header: the full public API of the mpcg library.
//
// Layering (each group only depends on the ones above it):
//   util     — RNG, permutations, statistics
//   graph    — CSR graphs, subgraphs, algorithms, I/O, output oracles
//   gen      — synthetic workload generators and the family catalogue
//   mpc      — the MPC model simulator and collectives
//   cclique  — the CONGESTED-CLIQUE model simulator
//   baselines— comparison algorithms and exact solvers
//   core     — the paper's algorithms (Theorems 1.1, 1.2; Corollaries 1.3,
//              1.4; Lemmas 4.1/4.2/5.1)
#ifndef MPCG_MPCG_H
#define MPCG_MPCG_H

#include "util/bitset.h"
#include "util/permutation.h"
#include "util/rng.h"
#include "util/stats.h"

#include "graph/graph.h"
#include "graph/graph_algos.h"
#include "graph/io.h"
#include "graph/subgraph.h"
#include "graph/validation.h"

#include "gen/families.h"
#include "gen/generators.h"

#include "mpc/engine.h"
#include "mpc/partition.h"
#include "mpc/primitives.h"
#include "mpc/sort.h"

#include "cclique/engine.h"

#include "fault/checkpoint.h"
#include "fault/fault_plan.h"
#include "fault/reprovision.h"
#include "fault/round_harness.h"

#include "baselines/blossom.h"
#include "baselines/brute_force.h"
#include "baselines/greedy_matching.h"
#include "baselines/greedy_mis.h"
#include "baselines/hopcroft_karp.h"
#include "baselines/israeli_itai.h"
#include "baselines/lmsv_filtering.h"
#include "baselines/local_mis.h"
#include "baselines/luby.h"

#include "core/central.h"
#include "core/integral_matching.h"
#include "core/line_graph_matching.h"
#include "core/matching_mpc.h"
#include "core/mis_cclique.h"
#include "core/mis_mpc.h"
#include "core/one_plus_eps.h"
#include "core/rounding.h"
#include "core/vertex_cover.h"
#include "core/weighted_matching.h"

#endif  // MPCG_MPCG_H
