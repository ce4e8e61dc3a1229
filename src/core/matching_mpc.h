// Section 4.3 `MPC-Simulation` — fractional matching and vertex cover in
// O(log log n) MPC rounds (Lemma 4.2).
//
// Phase structure (paper, Line (3)):
//   * the active graph G' (edges with both endpoints unfrozen, both still
//     in V') has max degree <= d (Lemma 4.6);
//   * V' is partitioned uniformly at random over m = sqrt(d) machines; each
//     machine receives its induced active subgraph G'[V_i] (O(n) edges
//     w.h.p., Lemma 4.7 — measured and enforced by the engine here);
//   * each machine locally simulates I iterations of Central-Rand on its
//     subgraph, estimating vertex loads by y~ = m * (local incident
//     weight) + y_old and freezing against the shared random thresholds
//     T_{v,t};
//   * phase end (Lines (f)-(j)): d <- d (1-eps)^I, edge weights are
//     reconciled to x_e = w0 / (1-eps)^{t'} with t' the last iteration both
//     endpoints were active, vertices with load > 1 are removed into the
//     cover, vertices with load > 1-2eps are frozen.
// Once d falls below the tail threshold the remaining iterations of
// Central-Rand are simulated directly (Line (4)).
//
// Implementation note: because every active edge at global iteration t has
// weight exactly w0 / (1-eps)^t, the entire weight state is a pure function
// of per-vertex freeze iterations; the algorithm stores those and derives
// x. This is precisely the paper's Line (g) reconstruction.
//
// Pacing: the paper's I = log(m)/(10 log 5) is < 1 for every feasible
// machine count at laptop scale (it is a proof constant), so the default
// schedule follows Section 4.2's idealized pacing — run each phase until
// the active degree bound drops to d^beta (beta = 0.9). Set
// `paper_iteration_schedule` to use the literal formula (clamped to >= 1).
#ifndef MPCG_CORE_MATCHING_MPC_H
#define MPCG_CORE_MATCHING_MPC_H

#include <cstdint>
#include <limits>
#include <vector>

#include "graph/graph.h"
#include "mpc/engine.h"

namespace mpcg::fault {
class FaultPlan;
}  // namespace mpcg::fault

namespace mpcg {

struct MatchingMpcOptions {
  double eps = 0.1;
  std::uint64_t seed = 1;
  /// Seed of the shared threshold stream T_{v,t}; a Central-Rand run with
  /// the same threshold_seed and w0 = (1-2eps)/n is the coupled process of
  /// the paper's analysis.
  std::uint64_t threshold_seed = 1;
  /// Per-phase degree shrink target: d -> d^beta (Section 4.2 pacing).
  double beta = 0.9;
  /// Switch to direct simulation once d <= this (paper: log^20 n).
  std::size_t tail_degree_switch = 32;
  /// Use the literal I = log(m)/(10 log 5) schedule (clamped to >= 1).
  bool paper_iteration_schedule = false;
  /// The paper's key fix (Section 4.2): draw T_{v,t} uniform in
  /// [1-4eps, 1-2eps] instead of the fixed 1-2eps. Turning this *off*
  /// reproduces the "Issue with the Direct Simulation" the paper warns
  /// about — the ablation experiment E15 measures exactly that.
  bool use_random_thresholds = true;
  /// Record per-iteration load estimates (coupling experiment E7).
  bool record_trace = false;
  /// Collect MatchingMpcResult::support (the nonzero-x edge ids) during
  /// the output sweep. Off by default: callers that never round (vertex
  /// cover, the benches) should not pay the extra store per surviving
  /// edge; the integral pipeline turns it on.
  bool collect_support = false;
  /// Words of memory per machine; 0 = auto (8n).
  std::size_t words_per_machine = 0;
  bool strict = true;
  /// Ignored; kept only because perfbench/perfbench.cpp assigns it.
  std::size_t threads = 1;
  /// Deterministic fault schedule consulted by the engine at round
  /// boundaries (borrowed; must outlive the run). nullptr = fault-free.
  const fault::FaultPlan* fault_plan = nullptr;
  /// With a plan attached: recover crashes/drops by rolling back to the
  /// round checkpoint and replaying (outputs stay bit-identical to the
  /// fault-free run); false lets crashed machines go dark instead.
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

struct MatchingMpcResult {
  /// Fractional matching on G (0 on edges incident to removed vertices).
  std::vector<double> x;
  /// The surviving support of x: the edge ids with x > 0 (exactly the
  /// edges with neither endpoint removed), ascending. Collected during the
  /// output sweep (only with MatchingMpcOptions::collect_support), so
  /// downstream rounding sweeps (integral_matching's heavy-vertex and
  /// proposal passes) can stop at the support instead of rescanning the
  /// full edge list — the same frontier-proportional bookkeeping the
  /// per-phase counters below expose.
  std::vector<EdgeId> support;
  /// Vertex cover: all frozen vertices plus all removed (load > 1)
  /// vertices.
  std::vector<VertexId> cover;
  /// Heavy vertices removed at Line (i).
  std::vector<char> removed_heavy;
  /// Global iteration at which each vertex froze; kActive if it never did.
  std::vector<std::uint32_t> freeze_iteration;

  std::size_t phases = 0;
  std::size_t total_iterations = 0;
  std::size_t tail_iterations = 0;

  /// Per phase: machines used (sqrt(d)) and the largest induced subgraph
  /// any machine received, in edges (Lemma 4.7 says O(n)).
  std::vector<std::size_t> machines_per_phase;
  std::vector<std::size_t> max_local_edges_per_phase;
  /// Per phase: active (alive and unfrozen) vertices at phase start — the
  /// residual frontier the phase's work is proportional to.
  std::vector<std::size_t> active_per_phase;
  /// Per phase: frontier-internal (active-active) edges at phase start —
  /// what the distribute loop actually scans (ActiveArcs); the per-phase
  /// edge work is proportional to this, not to all alive edges.
  std::vector<std::size_t> frontier_edges_per_phase;

  mpc::Metrics metrics;

  /// y_tilde_trace[t][v] = the estimate the simulation used for v at global
  /// iteration t (NaN for vertices not being simulated then). Only with
  /// record_trace.
  std::vector<std::vector<double>> y_tilde_trace;

  static constexpr std::uint32_t kActive =
      std::numeric_limits<std::uint32_t>::max();
};

[[nodiscard]] MatchingMpcResult matching_mpc(const Graph& g,
                                             const MatchingMpcOptions& options);

}  // namespace mpcg

#endif  // MPCG_CORE_MATCHING_MPC_H
