#include "core/integral_matching.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <type_traits>

#include "baselines/lmsv_filtering.h"
#include "core/rounding.h"
#include "fault/checkpoint.h"
#include "fault/durable.h"
#include "graph/active_set.h"
#include "graph/subgraph.h"
#include "graph/validation.h"
#include "util/rng.h"

namespace mpcg {

IntegralMatchingResult integral_matching(
    const Graph& g, const IntegralMatchingOptions& options) {
  IntegralMatchingResult result;
  const std::size_t n = g.num_vertices();

  std::size_t max_iterations = options.max_iterations;
  if (max_iterations == 0) {
    // ceil(log_{150/149}(1/eps)), capped: early exit dominates in practice.
    const double raw =
        std::ceil(std::log(1.0 / options.eps) / std::log(150.0 / 149.0));
    max_iterations = static_cast<std::size_t>(
        std::min(raw, 60.0));
  }

  // --- Small-matching path (Section 4.4.5): LMSV filtering. ---
  // A resumed process re-runs it unconditionally — it is deterministic and
  // its round charge is already inside the restored total_rounds, which the
  // outer-cursor install below overwrites.
  const std::size_t lmsv_memory =
      options.small_path_memory != 0 ? options.small_path_memory
                                     : 8 * std::max<std::size_t>(n, 64);
  const auto small = lmsv_maximal_matching(g, lmsv_memory,
                                           mix64(options.seed, 0x5a11, 3));
  result.small_path_size = small.matching.size();
  result.total_rounds += small.rounds;

  // --- Main path: iterate algorithm A. ---
  std::vector<EdgeId> a_matching;
  // Unmatched frontier, maintained incrementally: each rounded edge
  // deactivates its endpoints, so building the iteration's residual costs
  // O(remaining) instead of an O(n) rescan.
  ActiveSet remaining_set(n);
  std::vector<VertexId> remaining;
  std::size_t start_iter = 0;

  // --- Outer durability: the A-iteration cursor, one hand-built section
  // in its own two-slot ring under <dir>/outer. Each iteration's inner
  // MPC-Simulation run carries its own ring under <dir>/inner (per-round
  // granularity); the outer cursor persists at every iteration boundary,
  // so an interrupt lands on [outer cursor at iter i] + [inner ring with
  // iteration i's intra-run progress] and resume replays bit-exactly.
  static_assert(std::has_unique_object_representations_v<mpc::Metrics>);
  static_assert(sizeof(mpc::Metrics) % sizeof(std::uint64_t) == 0);
  constexpr std::size_t kMetricsWords =
      sizeof(mpc::Metrics) / sizeof(std::uint64_t);
  const bool durable = options.durable.enabled();
  std::optional<fault::DurableRing> outer_ring;
  std::string outer_scope;
  if (durable) {
    if (options.durable.every == 0) {
      throw std::invalid_argument(
          "integral_matching: durable.every must be >= 1");
    }
    // Configuration signature: any differently-shaped run reads as "no
    // checkpoint" and resume starts fresh (eps enters bit-exactly).
    outer_scope = "integral:" + std::to_string(n) + ":" +
                  std::to_string(g.num_edges()) + ":" +
                  std::to_string(options.seed) + ":" +
                  std::to_string(std::bit_cast<std::uint64_t>(options.eps)) +
                  ":" + std::to_string(max_iterations) + ":" +
                  std::to_string(options.rounding_retries) + ":" +
                  std::to_string(lmsv_memory);
    outer_ring.emplace(options.durable.dir + "/outer");
    if (!options.durable.resume) outer_ring->reset();
  }

  const auto persist_outer = [&](std::size_t next_iter) {
    std::vector<std::uint64_t> w;
    w.push_back(next_iter);
    w.push_back(a_matching.size());
    for (const EdgeId e : a_matching) w.push_back(e);
    const std::size_t pack_words = (n + 63) / 64;
    const std::size_t base = w.size();
    w.resize(base + pack_words, 0);
    for (VertexId v = 0; v < n; ++v) {
      if (remaining_set.active(v)) {
        w[base + v / 64] |= std::uint64_t{1} << (v % 64);
      }
    }
    w.push_back(result.cover.size());
    for (const VertexId v : result.cover) w.push_back(v);
    w.push_back(result.iterations);
    w.push_back(result.total_rounds);
    w.push_back(result.first_run_rounds);
    w.push_back(std::bit_cast<std::uint64_t>(result.first_fractional_weight));
    const std::size_t mbase = w.size();
    w.resize(mbase + kMetricsWords);
    std::memcpy(w.data() + mbase, &result.first_run_metrics,
                sizeof(mpc::Metrics));
    std::vector<fault::DurableSection> sections;
    sections.push_back({"outer", std::move(w)});
    outer_ring->save(next_iter, outer_scope, sections);
  };

  if (durable && options.durable.resume) {
    const auto loaded = outer_ring->load(outer_scope);
    if (loaded) {
      const fault::DurableSection* sec = nullptr;
      for (const auto& s : loaded->checkpoint.sections) {
        if (s.name == "outer") sec = &s;
      }
      if (sec == nullptr) {
        throw fault::CheckpointError(
            "integral_matching resume: checkpoint has no 'outer' section");
      }
      const auto& w = sec->payload;
      std::size_t at = 0;
      start_iter = static_cast<std::size_t>(w[at++]);
      const auto alen = static_cast<std::size_t>(w[at++]);
      a_matching.assign(w.begin() + static_cast<std::ptrdiff_t>(at),
                        w.begin() + static_cast<std::ptrdiff_t>(at + alen));
      at += alen;
      for (VertexId v = 0; v < n; ++v) {
        const bool want = ((w[at + v / 64] >> (v % 64)) & 1) != 0;
        if (!want) remaining_set.deactivate(v);
      }
      at += (n + 63) / 64;
      const auto clen = static_cast<std::size_t>(w[at++]);
      result.cover.assign(w.begin() + static_cast<std::ptrdiff_t>(at),
                          w.begin() + static_cast<std::ptrdiff_t>(at + clen));
      at += clen;
      result.iterations = static_cast<std::size_t>(w[at++]);
      result.total_rounds = static_cast<std::size_t>(w[at++]);
      result.first_run_rounds = static_cast<std::size_t>(w[at++]);
      result.first_fractional_weight = std::bit_cast<double>(w[at++]);
      std::memcpy(static_cast<void*>(&result.first_run_metrics),
                  w.data() + at, sizeof(mpc::Metrics));
    }
  }

  for (std::size_t iter = start_iter; iter < max_iterations; ++iter) {
    if (durable) {
      // Iteration boundary — the outer safe point (see above).
      persist_outer(iter);
      if (options.durable.stop_flag != nullptr &&
          options.durable.stop_flag->load(std::memory_order_relaxed)) {
        throw fault::ResumableInterrupt(
            "integral_matching: stopped at an iteration boundary after "
            "flushing the outer cursor (relaunch with --resume)");
      }
    }
    // Residual graph on the unmatched vertices.
    const auto actives = remaining_set.actives();
    remaining.assign(actives.begin(), actives.end());
    const InducedSubgraph sub = induced_subgraph(g, remaining);
    if (sub.graph.num_edges() == 0) break;

    MatchingMpcOptions sim = options.simulation;
    sim.eps = options.eps;
    sim.seed = mix64(options.seed, 0xa1, iter);
    sim.threshold_seed = mix64(options.seed, 0xa2, iter);
    sim.collect_support = true;  // the rounding sweeps below run over it
    if (durable) {
      sim.durable = options.durable;
      sim.durable.dir = options.durable.dir + "/inner";
      // Only the interrupted iteration resumes; later iterations reset the
      // inner ring and start fresh (their scope differs anyway — the
      // simulation seeds are per-iteration).
      sim.durable.resume = options.durable.resume && iter == start_iter;
    }
    const MatchingMpcResult frac = matching_mpc(sub.graph, sim);
    result.total_rounds += frac.metrics.rounds;
    if (iter == 0) {
      result.cover.reserve(frac.cover.size());
      for (const VertexId lv : frac.cover) {
        result.cover.push_back(sub.to_parent_vertex[lv]);
      }
      result.first_fractional_weight = fractional_weight(frac.x);
      result.first_run_rounds = frac.metrics.rounds;
      result.first_run_metrics = frac.metrics;
    }

    // Round (Lemma 5.1) with C~ = loads >= 1 - 5 eps; retry with fresh
    // seeds if a trial lands empty (each trial is independent). The heavy
    // sweep runs over the surviving support matching_mpc hands back —
    // the same frontier-proportional bookkeeping as its per-phase
    // counters — instead of rescanning the residual's full edge list;
    // an empty support (or empty C~) can never round an edge, so the
    // retries are skipped outright.
    const auto candidates = heavy_vertices(
        sub.graph, frac.x, 1.0 - 5.0 * options.eps, frac.support);
    std::vector<EdgeId> rounded;
    for (std::size_t retry = 0;
         !candidates.empty() && retry < options.rounding_retries; ++retry) {
      rounded = round_fractional_matching(
          sub.graph, frac.x, candidates,
          mix64(options.seed, 0xb000 + retry, iter));
      if (!rounded.empty()) break;
    }
    ++result.iterations;
    if (rounded.empty()) break;  // nothing extractable anymore

    for (const EdgeId le : rounded) {
      const Edge ed = sub.graph.edge(le);
      a_matching.push_back(sub.to_parent_edge[le]);
      remaining_set.deactivate(sub.to_parent_vertex[ed.u]);
      remaining_set.deactivate(sub.to_parent_vertex[ed.v]);
    }
  }
  result.a_path_size = a_matching.size();

  // Paper: output the larger of the two methods' matchings.
  result.matching = result.a_path_size >= result.small_path_size
                        ? std::move(a_matching)
                        : small.matching;
  return result;
}

}  // namespace mpcg
