#include "core/mis_mpc.h"

#include <algorithm>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/mis_driver.h"
#include "mpc/primitives.h"
#include "util/rng.h"

namespace mpcg {

namespace {

using mis_detail::encode_pair;
using mpc::Word;

/// The MPC transport of the shared MIS driver. Adjacency is owned by each
/// vertex's home machine and only leaves it through engine pushes; the
/// driver's aliveness is common knowledge across machines (every update is
/// announced through charged gather+broadcast steps), so it is stored once.
class MisMpcRun : public mis_detail::MisDriver<MisMpcRun, MisMpcResult> {
  using Driver = mis_detail::MisDriver<MisMpcRun, MisMpcResult>;
  friend Driver;

 public:
  MisMpcRun(const Graph& g, const MisMpcOptions& options)
      : Driver(g, options) {
    const std::size_t min_words = 64;
    words_ = options.words_per_machine != 0
                 ? options.words_per_machine
                 : 8 * std::max(n_, min_words);
    const std::size_t m_edges = g.num_edges();
    machines_ = options.num_machines != 0
                    ? options.num_machines
                    : std::max<std::size_t>(2, (4 * m_edges + words_ - 1) /
                                                   words_);
    gather_budget_ = options.gather_budget != 0 ? options.gather_budget
                                                : words_ / 2;

    // Resident state per machine: adjacency shard + the permutation (rank
    // table) + the shared alive bitset. In auto-sizing mode, grow the
    // cluster until the (hash-balanced) shards actually fit — dense or
    // skewed graphs need more machines than the average-load estimate.
    const std::size_t fixed_words = n_ + n_ / 64 + 1;
    std::vector<std::size_t> shard_words;
    for (;;) {
      shard_words.assign(machines_, 0);
      home_.resize(n_);
      for (VertexId v = 0; v < n_; ++v) {
        home_[v] = static_cast<std::uint32_t>(
            mix64(options.seed, v, 0x401e) % machines_);
        shard_words[home_[v]] += 1 + g.degree(v);
      }
      const std::size_t max_shard =
          shard_words.empty()
              ? 0
              : *std::max_element(shard_words.begin(), shard_words.end());
      if (options.num_machines != 0 || max_shard + fixed_words <= words_ ||
          machines_ >= 2 * m_edges + 2) {
        break;
      }
      machines_ *= 2;
    }
    mpc::Config cfg{machines_, words_, options.strict};
    cfg.integrity = options.integrity;
    cfg.audit = options.audit;
    cfg.scrub_interval = options.scrub_interval;
    engine_.emplace(cfg);
    if (options.durable.enabled()) {
      // The scope is the configuration signature: a checkpoint written by
      // any differently-shaped run (including a reprovisioned rescale)
      // reads as "no checkpoint" and resume starts fresh.
      engine_->set_durability(
          options.durable, "mis:" + std::to_string(n_) + ":" +
                               std::to_string(g.num_edges()) + ":" +
                               std::to_string(machines_) + ":" +
                               std::to_string(words_) + ":" +
                               std::to_string(options.seed));
    }
    for (std::size_t i = 0; i < machines_; ++i) {
      engine_->note_storage(i, shard_words[i] + fixed_words);
    }
    dead_parts_.resize(machines_);
    attach_recovery();
    result_.machines_used = machines_;
    result_.words_per_machine_used = words_;
  }

 private:
  mpc::Engine& engine() { return *engine_; }

  /// The leader broadcasts the drawn order; every machine inverts it.
  void announce_order() {
    {
      std::vector<Word> payload(perm_.begin(), perm_.end());
      mpc::broadcast_view(*engine_, 0, payload);
    }
    rank_of_ = invert_permutation(perm_);
  }

  /// Alive-alive edge count: every home contributes its local shard's
  /// count and the values are all-reduced (3 charged rounds — the engine
  /// sees one word per machine either way). The simulator reads the total
  /// from the residual graph's maintained counter instead of materializing
  /// the per-home splits, so no edge rescan happens.
  std::uint64_t count_alive_edges() {
    std::vector<Word> per(machines_, 0);
    per[0] = residual_.alive_edge_count();
    return mpc::all_reduce_sum(*engine_, per);
  }

  /// Maximum alive degree, computed per home and all-reduced. O(alive
  /// vertices) via the maintained residual degrees.
  std::uint64_t max_alive_degree() {
    std::vector<Word> per(machines_, 0);
    for (const VertexId v : residual_.alive_vertices()) {
      per[home_[v]] = std::max<Word>(per[home_[v]],
                                     residual_.residual_degree(v));
    }
    return mpc::all_reduce_max(*engine_, per);
  }

  /// Homes stream the gathered alive edges (deduped at the lower vertex
  /// id) to the leader: one outbox per vertex burst — every word flows
  /// home_[v] -> 0, so a burst stages as a single run.
  std::size_t stage_gather(std::size_t lo, std::size_t hi, bool window) {
    const std::span<const VertexId> sources = gather_sources(lo, hi, window);
    for (const VertexId v : sources) {
      if (!residual_.alive(v)) continue;
      mpc::Outbox ob = engine_->outbox(home_[v]);
      for (const Arc& a : residual_.alive_upper_arcs(v)) {
        if (gathered(a.to, lo, hi, window)) {
          ob.append(0, encode_pair(v, a.to));
        }
      }
    }
    engine_->exchange();
    return engine_->inbox_view(0).size();
  }

  /// Reads the leader's inbox through the zero-copy view.
  template <class Fn>
  void for_each_leader_word(Fn&& fn) {
    for (const Word w : engine_->inbox_view(0)) fn(w);
  }

  void announce_members(const std::vector<VertexId>& mis_new,
                        bool /*from_leader*/) {
    std::vector<Word> payload(mis_new.begin(), mis_new.end());
    mpc::broadcast_view(*engine_, 0, payload);
  }

  /// Each home reports its dying vertices to the leader, which broadcasts
  /// them. The parts are released afterwards, sized as they are by one
  /// commit's deaths.
  void note_death(VertexId v) { dead_parts_[home_[v]].push_back(v); }
  void announce_deaths() {
    const auto gathered_deaths = mpc::gather_to(*engine_, 0, dead_parts_);
    mpc::broadcast_view(*engine_, 0, gathered_deaths);
    dead_parts_.clear();
    dead_parts_.resize(machines_);
  }

  /// Neighbors exchange their mark bit and desire level: one word each
  /// way per alive edge. The forward words all leave home_[v], so they
  /// ride one outbox per vertex; the replies come from the neighbor's
  /// home and stay on the per-word wrapper.
  void exchange_marks() {
    for (const VertexId v : residual_.alive_vertices()) {
      mpc::Outbox ob = engine_->outbox(home_[v]);
      for (const Arc& a : residual_.alive_upper_arcs(v)) {
        ob.append(home_[a.to], encode_pair(v, a.to));
        engine_->push(home_[a.to], home_[v], encode_pair(a.to, v));
      }
    }
    engine_->exchange();
  }

  std::size_t machines_ = 0;
  std::size_t words_ = 0;
  std::optional<mpc::Engine> engine_;
  std::vector<std::uint32_t> home_;
  /// The current commit's dying vertices, per home.
  std::vector<std::vector<Word>> dead_parts_;
};

}  // namespace

MisMpcResult mis_mpc(const Graph& g, const MisMpcOptions& options) {
  MisMpcRun run(g, options);
  return run.run();
}

}  // namespace mpcg
