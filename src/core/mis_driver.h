// The Theorem 1.1 MIS driver, written once for both models (paper,
// Section 3; Section 3.2 changes only the transport).
//
// MisDriver owns everything mis_mpc and mis_cclique share: the random
// order, the ResidualGraph (aliveness is common knowledge, so it is stored
// once), the rank-phase loop and its safe points, the sparsified stage, the
// leader's greedy over a CsrScratch with a flat killed array, the death
// bookkeeping, and the "permutation", "mis-members", "aliveness" and
// "loop" checkpoint providers. A model derives from it (CRTP) and supplies
// only how each step communicates:
//
//   engine()                  its engine (resume, safe points, fault plan,
//                             metrics);
//   announce_order()          make the drawn order common knowledge and
//                             fill rank_of_, its inverse;
//   count_alive_edges(),      the alive-alive edge count and the residual
//   max_alive_degree()        maximum degree, each charged as one step;
//   stage_gather(lo, hi, window)
//                             stage a gather at the leader — ranks [lo, hi)
//                             of a rank phase's window, or (window false)
//                             every alive edge — and return its word count;
//   for_each_leader_word(fn)  deliver it and feed fn each word the leader
//                             holds;
//   announce_members(mis_new, from_leader), note_death(v),
//   announce_deaths()         a commit: the members, then each dying
//                             vertex in ascending id order, then the
//                             round that announces the deaths;
//   exchange_marks()          one sparsified-stage round.
//
// The driver calls those in the order each model's own driver did, with
// the same provider state at every engine call, so outputs, Metrics, fault
// accounting and on-disk checkpoints are those of the two former drivers.
#ifndef MPCG_CORE_MIS_DRIVER_H
#define MPCG_CORE_MIS_DRIVER_H

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "baselines/local_mis.h"
#include "core/mis_common.h"
#include "fault/checkpoint.h"
#include "fault/fault_plan.h"
#include "graph/residual.h"
#include "util/permutation.h"
#include "util/rng.h"

namespace mpcg::mis_detail {

using Word = std::uint64_t;

inline Word encode_pair(VertexId a, VertexId b) noexcept {
  return (static_cast<Word>(a) << 32) | b;
}

inline std::pair<VertexId, VertexId> decode_pair(Word w) noexcept {
  return {static_cast<VertexId>(w >> 32),
          static_cast<VertexId>(w & 0xffffffffULL)};
}

/// All per-phase work is residual-proportional: aliveness, residual
/// degrees and the alive-edge count are maintained incrementally by
/// ResidualGraph and the kills in commit(), and every residual iteration
/// order (alive_vertices ascending, alive_arcs / alive_upper_arcs
/// ascending by neighbor) matches the filtered full scans it replaced.
template <class Net, class Result>
class MisDriver {
 public:
  Result run() {
    if (n_ == 0) return std::move(result_);

    // Resume reinstates every provider (permutation, MIS members,
    // aliveness, loop cursor) and the engine's metrics; the preamble
    // below already happened in the interrupted process.
    if (!net().engine().try_resume()) {
      // The leader draws the order (paper: "all vertices agree on a
      // uniform random order"); the model makes it common knowledge.
      Rng rng(options_.seed);
      perm_ = random_permutation(n_, rng);
      net().announce_order();
    }

    const double delta0 = std::max<double>(2.0, static_cast<double>(
                                                    g_.max_degree()));
    const double log_delta = std::log2(delta0);

    while (true) {
      // Safe point: provider state is self-consistent and the message
      // plane is quiescent here, so this loop boundary is where durable
      // generations persist (and where a resumed process re-enters).
      net().engine().checkpoint_boundary();
      if (net().count_alive_edges() <= gather_budget_) break;
      if (options_.use_sparsified_stage &&
          net().max_alive_degree() <= options_.degree_switch) {
        sparsified_stage();
        break;
      }
      // Next rank phase: process ranks [next_rank, n / Delta^{alpha^i}).
      ++result_.rank_phases;
      const double exponent =
          std::pow(options_.alpha, static_cast<double>(result_.rank_phases));
      auto upper = static_cast<std::size_t>(
          std::llround(static_cast<double>(n_) *
                       std::pow(2.0, -exponent * log_delta)));
      upper = std::clamp(upper, next_rank_ + 1, n_);
      rank_phase(next_rank_, upper);
      next_rank_ = upper;
    }
    final_gather();

    result_.metrics = net().engine().metrics();
    result_.mis = std::move(mis_);
    return std::move(result_);
  }

 protected:
  MisDriver(const Graph& g, const MisCommonOptions& options)
      : g_(g), options_(options), n_(g.num_vertices()), residual_(g),
        window_csr_(n_), killed_(n_, 0), dying_(n_, 0) {}

  /// Attaches the fault plan and the checkpoint registry the engine
  /// captures around faults and persists at safe points. A model calls it
  /// once its engine exists (with durability armed, if asked for).
  void attach_recovery() {
    const bool durable = options_.durable.enabled();
    const bool plan_active =
        options_.fault_plan != nullptr && !options_.fault_plan->empty();
    if (!plan_active && !durable) return;
    if (options_.durable.generations != 0) {
      registry_.emplace(options_.durable.generations);
    } else {
      registry_.emplace();
    }
    register_checkpoint_state();
    // The loop provider exists only for durability: keeping it out of
    // plan-only runs keeps their in-memory checkpoint accounting
    // (Metrics::checkpoint_bytes) exactly as the fault suites pin it.
    if (durable) register_loop_state();
    net().engine().set_fault_plan(plan_active ? options_.fault_plan : nullptr,
                                  &*registry_, options_.fault_recovery);
  }

  /// The vertices a gather stages from, in staging order: a rank phase's
  /// window in rank order (dead ones included; stagers skip them), or
  /// every alive vertex in id order for the final gather. The latter span
  /// is valid until the next alive_vertices() call.
  std::span<const VertexId> gather_sources(std::size_t lo, std::size_t hi,
                                           bool window) {
    if (window) return std::span<const VertexId>(perm_).subspan(lo, hi - lo);
    return residual_.alive_vertices();
  }

  /// Whether a source's alive upper arc to `u` is gathered: a rank phase
  /// keeps the edges inside its window, the final gather every one.
  [[nodiscard]] bool gathered(VertexId u, std::size_t lo, std::size_t hi,
                              bool window) const noexcept {
    return !window || (rank_of_[u] >= lo && rank_of_[u] < hi);
  }

  const Graph& g_;
  const MisCommonOptions& options_;
  std::size_t n_;
  std::size_t gather_budget_ = 0;
  ResidualGraph residual_;
  std::vector<std::uint32_t> perm_;
  std::vector<std::uint32_t> rank_of_;
  /// Accumulating result, a member so the "loop" provider can serialize
  /// its counters at safe points.
  Result result_;

 private:
  Net& net() { return static_cast<Net&>(*this); }

  /// Registers the driver's durable per-round state with the checkpoint
  /// registry the engine captures/restores around injected faults (see
  /// matching_mpc.cpp for the shared contract: capture and restore happen
  /// at the same quiescent point inside one exchange, so derived state is
  /// rebuilt on restore or stays valid because its inputs round-trip).
  void register_checkpoint_state() {
    auto& reg = *registry_;
    // The shared random order; rank_of_ is derived, recomputed on restore.
    // Empty until run() draws it — the first exchange (the announcement)
    // captures it already assigned.
    reg.register_state(
        "permutation",
        [this](std::vector<Word>& out) {
          out.push_back(perm_.size());
          for (const std::uint32_t r : perm_) out.push_back(r);
        },
        [this](std::span<const Word> in) {
          perm_.assign(in.begin() + 1,
                       in.begin() + 1 + static_cast<std::ptrdiff_t>(in[0]));
          rank_of_ = perm_.empty() ? std::vector<std::uint32_t>{}
                                   : invert_permutation(perm_);
        });
    // MIS members committed so far (append-only).
    reg.register_state(
        "mis-members",
        [this](std::vector<Word>& out) {
          out.push_back(mis_.size());
          for (const VertexId v : mis_) out.push_back(v);
        },
        [this](std::span<const Word> in) {
          mis_.assign(in.begin() + 1,
                      in.begin() + 1 + static_cast<std::ptrdiff_t>(in[0]));
        });
    // Residual aliveness, bit-packed. Aliveness only shrinks, so restore
    // reconciles by killing any vertex alive now but dead in the
    // checkpoint (the reverse cannot happen at a same-round restore).
    reg.register_state(
        "aliveness",
        [this](std::vector<Word>& out) {
          const std::size_t base = out.size();
          out.resize(base + (n_ + 63) / 64, 0);
          for (VertexId v = 0; v < n_; ++v) {
            if (residual_.alive(v)) out[base + v / 64] |= Word{1} << (v % 64);
          }
        },
        [this](std::span<const Word> in) {
          std::vector<VertexId> to_kill;
          for (VertexId v = 0; v < n_; ++v) {
            const bool want = ((in[v / 64] >> (v % 64)) & Word{1}) != 0;
            if (!want && residual_.alive(v)) to_kill.push_back(v);
          }
          if (!to_kill.empty()) residual_.kill_batch(to_kill);
        });
  }

  /// The run-loop cursor (registered only for durability — see
  /// attach_recovery): the next rank to process plus the result counters
  /// accumulated so far, so a resumed process re-enters the phase loop
  /// exactly where the persisted safe point left it.
  void register_loop_state() {
    registry_->register_state(
        "loop",
        [this](std::vector<Word>& out) {
          out.push_back(next_rank_);
          out.push_back(result_.rank_phases);
          out.push_back(result_.sparsified_iterations);
          out.push_back(result_.final_gather_edges);
          out.push_back(result_.window_edges_per_phase.size());
          for (const std::size_t e : result_.window_edges_per_phase) {
            out.push_back(e);
          }
        },
        [this](std::span<const Word> in) {
          std::size_t at = 0;
          next_rank_ = static_cast<std::size_t>(in[at++]);
          result_.rank_phases = static_cast<std::size_t>(in[at++]);
          result_.sparsified_iterations = static_cast<std::size_t>(in[at++]);
          result_.final_gather_edges = static_cast<std::size_t>(in[at++]);
          const std::size_t phases = static_cast<std::size_t>(in[at++]);
          result_.window_edges_per_phase.assign(
              in.begin() + static_cast<std::ptrdiff_t>(at),
              in.begin() + static_cast<std::ptrdiff_t>(at + phases));
        });
  }

  /// Announces the new members, lets every vertex decide whether it dies
  /// (member or neighbor of one), and announces the deaths in ascending id
  /// order so aliveness stays common knowledge. Deaths are found from the
  /// members' residual neighborhoods, not a full-vertex sweep.
  void commit(const std::vector<VertexId>& mis_new, bool from_leader) {
    if (mis_new.empty()) return;
    net().announce_members(mis_new, from_leader);
    for (const VertexId v : mis_new) dying_[v] = 1;
    for (const VertexId v : mis_new) {
      for (const Arc& a : residual_.alive_arcs(v)) dying_[a.to] = 1;
    }
    std::vector<VertexId> died;
    for (const VertexId v : residual_.alive_vertices()) {
      if (!dying_[v]) continue;
      net().note_death(v);
      died.push_back(v);
    }
    net().announce_deaths();
    residual_.kill_batch(died);
    for (const VertexId v : died) dying_[v] = 0;
    mis_.insert(mis_.end(), mis_new.begin(), mis_new.end());
  }

  /// Plays sequential greedy over the delivered gather (leader-side):
  /// builds its adjacency in the reusable CSR scratch, walks ranks
  /// [lo, hi), and returns the joiners. The only materialization is the
  /// decoded pair list. A word naming an id >= n cannot be an edge: only
  /// undetected wire corruption (integrity off) delivers one, and it is
  /// dropped; in-range flips still reach the output.
  std::vector<VertexId> leader_greedy(std::size_t words, std::size_t lo,
                                      std::size_t hi) {
    pairs_scratch_.clear();
    pairs_scratch_.reserve(words);
    net().for_each_leader_word([&](Word w) {
      const auto [a, b] = decode_pair(w);
      if (a < n_ && b < n_) pairs_scratch_.emplace_back(a, b);
    });
    window_csr_.build(pairs_scratch_);
    std::vector<VertexId> mis_new;
    for (std::size_t r = lo; r < hi; ++r) {
      const VertexId v = perm_[r];
      if (!residual_.alive(v) || killed_[v]) continue;
      mis_new.push_back(v);
      for (const VertexId u : window_csr_.neighbors(v)) killed_[u] = 1;
    }
    for (const VertexId t : window_csr_.touched()) killed_[t] = 0;
    window_csr_.clear();
    return mis_new;
  }

  /// One rank phase: gather the window-induced residual subgraph at the
  /// leader, play greedy through the window ranks, commit the members.
  /// (The leader knows ranks and aliveness — both common knowledge.)
  void rank_phase(std::size_t lo, std::size_t hi) {
    const std::size_t words = net().stage_gather(lo, hi, /*window=*/true);
    result_.window_edges_per_phase.push_back(words);
    commit(leader_greedy(words, lo, hi), /*from_leader=*/true);
  }

  /// Sparsified stage: Ghaffari-style local dynamics on the low-degree
  /// residual graph, one mark exchange plus a commit per iteration.
  void sparsified_stage() {
    // Snapshot the driver's residual view (bulk copy): the dynamics evolve
    // their own aliveness, which the driver mirrors through the announced
    // commits.
    LocalMisState state(residual_, mix64(options_.seed, 0x5fa1, 1));
    while (net().count_alive_edges() > gather_budget_) {
      net().exchange_marks();
      const auto joined = state.step();
      ++result_.sparsified_iterations;
      commit(joined, /*from_leader=*/false);
      if (state.alive_count() == 0) break;
    }
  }

  /// Gathers every remaining alive-alive edge at the leader, which finishes
  /// the greedy process in rank order and commits the members.
  void final_gather() {
    const std::size_t words = net().stage_gather(0, n_, /*window=*/false);
    result_.final_gather_edges = words;
    commit(leader_greedy(words, 0, n_), /*from_leader=*/true);
  }

  /// Round-level checkpoint providers; engaged only when a fault plan or
  /// durability is attached (see attach_recovery).
  std::optional<fault::CheckpointRegistry> registry_;
  CsrScratch window_csr_;
  std::vector<std::pair<VertexId, VertexId>> pairs_scratch_;
  std::vector<char> killed_;
  /// Commit scratch: zeroed after each commit.
  std::vector<char> dying_;
  std::vector<VertexId> mis_;
  /// Run-loop cursor, promoted to a member for the "loop" provider.
  std::size_t next_rank_ = 0;
};

}  // namespace mpcg::mis_detail

#endif  // MPCG_CORE_MIS_DRIVER_H
