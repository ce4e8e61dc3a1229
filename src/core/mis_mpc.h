// Theorem 1.1 — MIS in O(log log Delta) MPC rounds with O(n) words per
// machine (paper, Section 3).
//
// The algorithm simulates the sequential randomized greedy MIS: phase i
// gathers the residual subgraph induced by ranks [r_{i-1}, r_i),
// r_i = n / Delta^{alpha^i} with alpha = 3/4, onto the leader machine
// (O(n) edges w.h.p., Lemma 3.1 / Eq. (1)), the leader plays greedy
// through those ranks, and the cluster removes the new MIS members'
// neighborhoods. Once the residual maximum degree is small the algorithm
// switches to a sparsified local-MIS stage ([Gha17]-style dynamics, see
// DESIGN.md substitutions) and finally gathers the leftover O(n)-edge graph
// onto one machine.
//
// All communication is charged through mpc::Engine; the result carries the
// engine metrics plus the per-phase loads the memory experiments need. The
// schedule, the leader's greedy, the sparsified stage and the checkpoint
// providers are the shared driver's (core/mis_driver.h), which mis_cclique
// runs too; core/mis_mpc.cpp supplies only the MPC transport (homes,
// gathers to machine 0, broadcasts and all-reduces).
//
// Determinism: the run is a pure function of (graph, options.seed); with
// `use_sparsified_stage = false` the output is *exactly* the sequential
// greedy MIS of the permutation drawn from the seed (tested), because rank
// phases plus the rank-ordered final gather are a lossless simulation.
#ifndef MPCG_CORE_MIS_MPC_H
#define MPCG_CORE_MIS_MPC_H

#include "core/mis_common.h"
#include "mpc/engine.h"

namespace mpcg {

/// The MPC model adds the cluster's shape to the shared options.
struct MisMpcOptions : MisCommonOptions {
  /// Words of memory per machine, S. 0 = auto: 8n.
  std::size_t words_per_machine = 0;

  /// Number of machines, m. 0 = auto: enough that adjacency shards fit
  /// comfortably (about 4m_edges / S), at least 2.
  std::size_t num_machines = 0;
};

struct MisMpcResult : MisCommonResult {
  /// Engine metrics: rounds, peak per-round words, peak storage.
  mpc::Metrics metrics;

  /// Derived sizing actually used.
  std::size_t machines_used = 0;
  std::size_t words_per_machine_used = 0;
};

/// Runs the Theorem 1.1 algorithm.
[[nodiscard]] MisMpcResult mis_mpc(const Graph& g, const MisMpcOptions& options);

}  // namespace mpcg

#endif  // MPCG_CORE_MIS_MPC_H
