// Theorem 1.1, CONGESTED-CLIQUE part — MIS in O(log log Delta) rounds.
//
// Same rank-phase schedule as the MPC algorithm (core/mis_mpc.h), realized
// with clique communication exactly as Section 3.2 describes:
//   * the leader (player 0, standing in for the minimum-id vertex) draws
//     the permutation, tells every player its rank, and players broadcast
//     their ranks so the order is common knowledge;
//   * per phase, players with ranks in the window ship their window-induced
//     residual edges to the leader with Lenzen's routing scheme (O(n)
//     messages, O(1) rounds), the leader plays greedy through the window,
//     members broadcast their membership, and killed players broadcast
//     their deaths;
//   * the low-degree tail runs the sparsified local-MIS dynamics with
//     per-iteration broadcasts, and the O(n)-edge leftover is routed to the
//     leader and finished there.
//
// Both models run one driver (core/mis_driver.h): core/mis_cclique.cpp
// supplies only the clique transport (rank notices, broadcasts and Lenzen
// routes). Given identical options (seed, alpha, degree_switch, gather
// budget), this algorithm therefore makes exactly the same decisions as
// mis_mpc — the two models simulate one process — which the test suite
// checks output-for-output.
#ifndef MPCG_CORE_MIS_CCLIQUE_H
#define MPCG_CORE_MIS_CCLIQUE_H

#include "cclique/engine.h"
#include "core/mis_common.h"

namespace mpcg {

/// The clique has no cluster shape to choose: one player per vertex.
struct MisCcliqueOptions : MisCommonOptions {};

struct MisCcliqueResult : MisCommonResult {
  cclique::Metrics metrics;
};

[[nodiscard]] MisCcliqueResult mis_cclique(const Graph& g,
                                           const MisCcliqueOptions& options);

}  // namespace mpcg

#endif  // MPCG_CORE_MIS_CCLIQUE_H
