// Option and result fields shared by the two Theorem 1.1 MIS algorithms,
// mis_mpc (core/mis_mpc.h) and mis_cclique (core/mis_cclique.h). Both run
// one driver (core/mis_driver.h) over two transports; each model's option
// and result types derive from these and add only what its model has.
#ifndef MPCG_CORE_MIS_COMMON_H
#define MPCG_CORE_MIS_COMMON_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "fault/durable.h"
#include "graph/graph.h"

namespace mpcg::fault {
class FaultPlan;
}  // namespace mpcg::fault

namespace mpcg {

struct MisCommonOptions {
  std::uint64_t seed = 1;

  /// Rank-schedule exponent; the paper fixes alpha = 3/4.
  double alpha = 0.75;

  /// Switch to the sparsified stage once the residual max degree is at most
  /// this. Stands in for the paper's log^10 n, which exceeds n at
  /// laptop scale (see DESIGN.md).
  std::size_t degree_switch = 16;

  /// If false, rank phases (plus the rank-ordered final gather) run the
  /// greedy process to completion — the exact sequential-greedy simulation.
  bool use_sparsified_stage = true;

  /// Gather the whole residual graph onto the leader once its edge count is
  /// at most this. 0 = auto: S / 2 on MPC, n on the clique (one Lenzen
  /// batch).
  std::size_t gather_budget = 0;

  /// Throw CapacityError on budget violations (else count them).
  bool strict = true;

  /// Ignored; kept only because perfbench/perfbench.cpp assigns it.
  std::size_t threads = 1;

  /// Deterministic fault schedule consulted by the engine at round
  /// boundaries (borrowed; must outlive the run). nullptr = fault-free.
  const fault::FaultPlan* fault_plan = nullptr;
  /// With a plan attached: recover crashes/drops by rolling back to the
  /// round checkpoint (driver state included — permutation, MIS members,
  /// residual aliveness) and replaying, so outputs stay bit-identical to
  /// the fault-free run; false lets crashed machines go dark instead.
  bool fault_recovery = true;
  /// Per-sender stream checksums + detect->retransmit for injected payload
  /// corruption (see mpc::Config::integrity).
  bool integrity = false;
  /// Per-round conservation-invariant audit (see mpc::Config::audit).
  bool audit = false;
  /// Proactive durable-store scrub every `scrub_interval` rounds (0 =
  /// never; requires integrity — see mpc::Config::scrub_interval).
  std::size_t scrub_interval = 0;
  /// On-disk checkpoint persistence and resume (see fault/durable.h and
  /// fault::RoundHarness::set_durability). Off while `durable.dir` is
  /// empty.
  fault::DurableOptions durable;
};

struct MisCommonResult {
  std::vector<VertexId> mis;

  /// Rank phases executed (the O(log log Delta) driver).
  std::size_t rank_phases = 0;
  /// Iterations of the sparsified local-MIS stage.
  std::size_t sparsified_iterations = 0;
  /// Residual edges gathered by the final single-machine step.
  std::size_t final_gather_edges = 0;

  /// Window-induced edge count gathered in each rank phase (Lemma 3.1 /
  /// Eq. (1) say O(n) each).
  std::vector<std::size_t> window_edges_per_phase;
};

}  // namespace mpcg

#endif  // MPCG_CORE_MIS_COMMON_H
