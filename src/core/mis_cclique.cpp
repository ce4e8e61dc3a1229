#include "core/mis_cclique.h"

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "core/mis_driver.h"

namespace mpcg {

namespace {

using cclique::Word;
using mis_detail::encode_pair;

/// The CONGESTED-CLIQUE transport of the shared MIS driver: one player per
/// vertex, the leader is player 0, common knowledge travels by broadcasts
/// and gathers by Lenzen routing (paper, Section 3.2).
class MisCcliqueRun
    : public mis_detail::MisDriver<MisCcliqueRun, MisCcliqueResult> {
  using Driver = mis_detail::MisDriver<MisCcliqueRun, MisCcliqueResult>;
  friend Driver;

 public:
  MisCcliqueRun(const Graph& g, const MisCcliqueOptions& options)
      : Driver(g, options),
        engine_(std::max<std::size_t>(n_, 1), options.strict,
                options.integrity, options.audit, options.scrub_interval) {
    gather_budget_ = options.gather_budget != 0 ? options.gather_budget : n_;
    if (options.durable.enabled()) {
      engine_.set_durability(
          options.durable,
          "mis_cc:" + std::to_string(n_) + ":" +
              std::to_string(g.num_edges()) + ":" +
              std::to_string(options.seed));
    }
    attach_recovery();
  }

 private:
  cclique::Engine& engine() { return engine_; }

  /// The leader tells each player its rank (one word each), and every
  /// player broadcasts its rank — the order becomes common knowledge in 2
  /// rounds.
  void announce_order() {
    rank_of_ = invert_permutation(perm_);
    for (VertexId v = 1; v < n_; ++v) {
      engine_.send(0, v, rank_of_[v]);
    }
    engine_.exchange();
    for (VertexId v = 0; v < n_; ++v) {
      engine_.broadcast(v, rank_of_[v]);
    }
    engine_.exchange();
  }

  /// Every alive player broadcasts its alive degree; everybody can then
  /// compute the total edge count (one round). The degrees come from the
  /// residual graph's maintained counters — no adjacency scan.
  std::uint64_t count_alive_edges() {
    std::uint64_t sum = 0;
    for (const VertexId v : residual_.alive_vertices()) {
      const std::uint64_t d = residual_.residual_degree(v);
      engine_.broadcast(v, d);
      sum += d;
    }
    engine_.exchange();
    return sum / 2;
  }

  std::uint64_t max_alive_degree() {
    for (const VertexId v : residual_.alive_vertices()) {
      engine_.broadcast(v, residual_.residual_degree(v));
    }
    engine_.exchange();
    return residual_.max_alive_degree();
  }

  /// Run-length staging for the Lenzen route to the leader: each vertex's
  /// gathered edges all flow v -> leader, so a burst is one run descriptor
  /// over the word stream instead of a 16-byte Message record per edge.
  std::size_t stage_gather(std::size_t lo, std::size_t hi, bool window) {
    const std::span<const VertexId> sources = gather_sources(lo, hi, window);
    route_stream_.clear();
    for (const VertexId v : sources) {
      if (!residual_.alive(v)) continue;
      for (const Arc& a : residual_.alive_upper_arcs(v)) {
        if (gathered(a.to, lo, hi, window)) {
          route_stream_.append(v, 0, encode_pair(v, a.to));
        }
      }
    }
    return route_stream_.size();
  }

  /// Routes the staged gather (Lenzen) and walks the leader's segments.
  template <class Fn>
  void for_each_leader_word(Fn&& fn) {
    const auto& delivered = engine_.lenzen_route_view(route_stream_);
    for (const cclique::RouteSegment& seg : delivered[0].segments()) {
      for (std::uint32_t i = 0; i < seg.count; ++i) fn(seg.words[i]);
    }
  }

  /// After a gather the leader first tells each new member it joined (one
  /// round); then members broadcast their membership (one round).
  void announce_members(const std::vector<VertexId>& mis_new,
                        bool from_leader) {
    if (from_leader) {
      for (const VertexId v : mis_new) {
        if (v != 0) engine_.send(0, v, 1);
      }
      engine_.exchange();
    }
    for (const VertexId v : mis_new) {
      engine_.broadcast(v, v);
    }
    engine_.exchange();
  }

  /// The dying broadcast their deaths (one round).
  void note_death(VertexId v) { engine_.broadcast(v, v); }
  void announce_deaths() { engine_.exchange(); }

  /// Each alive player broadcasts its mark and desire level (the dynamics
  /// read only neighbors' values; a broadcast certainly delivers them).
  /// One round.
  void exchange_marks() {
    for (const VertexId v : residual_.alive_vertices()) {
      engine_.broadcast(v, v);
    }
    engine_.exchange();
  }

  cclique::Engine engine_;
  /// Run-length staging for the Lenzen gathers (persistent across phases).
  cclique::RouteStream route_stream_;
};

}  // namespace

MisCcliqueResult mis_cclique(const Graph& g, const MisCcliqueOptions& options) {
  MisCcliqueRun run(g, options);
  return run.run();
}

}  // namespace mpcg
