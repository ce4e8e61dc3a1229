// CONGESTED-CLIQUE model simulator.
//
// The model (paper, Section 1.1.2): n players, synchronous rounds, and in
// each round every player may send O(log n) bits — one machine word here —
// to every other player. Players are identified with the vertices of the
// input graph; initially each player knows only its own incident edges.
//
// Two communication services are provided:
//   * per-round point-to-point sends and one-to-all broadcasts, enforced to
//     at most one word per ordered pair per round;
//   * Lenzen's routing scheme [Len13]: any multiset of messages in which
//     every player sends at most n and receives at most n words is
//     delivered in O(1) rounds (charged as 2 rounds per feasible batch;
//     infeasible loads are split into feasible batches and charged
//     accordingly, so overloads are visible in the round count).
//
// Broadcasts are stored once and shared by all receivers (every player's
// view of a broadcast is identical), which keeps the simulator's memory
// O(messages) instead of O(n * messages) without changing any player's
// knowledge.
#ifndef MPCG_CCLIQUE_ENGINE_H
#define MPCG_CCLIQUE_ENGINE_H

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "fault/round_harness.h"
#include "util/fnv.h"

namespace mpcg::cclique {

using Word = std::uint64_t;
using PlayerId = std::uint32_t;

class CongestionError : public std::runtime_error {
 public:
  explicit CongestionError(const std::string& what)
      : std::runtime_error(what) {}
};

/// A detected payload or broadcast-store corruption could not be repaired
/// (see fault::IntegrityError).
using IntegrityError = fault::IntegrityError;

/// The runtime audit found a conservation violation: point-to-point or
/// broadcast words that vanished or appeared between staging and delivery,
/// or a Lenzen batch split that lost words.  An AuditError is a simulator
/// bug, never an expected outcome of an injected fault.  Mirrors
/// mpc::AuditError.
class AuditError : public std::logic_error {
 public:
  explicit AuditError(const std::string& what) : std::logic_error(what) {}
};

struct Message {
  PlayerId from;
  PlayerId to;
  Word word;
};

/// Run-length staged message multiset for Engine::lenzen_route_view — the
/// same span/run form the MPC engine's streamed outboxes use. A driver
/// appends words (or whole word runs) instead of materializing 16-byte
/// Message records; consecutive appends sharing a (from, to) pair extend
/// one run descriptor over the contiguous word stream, so a vertex's burst
/// to the leader stages as one descriptor + its words. Reusable: clear()
/// between route calls keeps the buffers warm.
class RouteStream {
 public:
  void clear() noexcept {
    runs_.clear();
    words_.clear();
  }
  [[nodiscard]] bool empty() const noexcept { return words_.empty(); }
  /// Number of staged messages (words).
  [[nodiscard]] std::size_t size() const noexcept { return words_.size(); }

  void append(PlayerId from, PlayerId to, Word word) {
    words_.push_back(word);
    if (!runs_.empty() && runs_.back().from == from &&
        runs_.back().to == to && runs_.back().count != kMaxCount) {
      ++runs_.back().count;
    } else {
      runs_.push_back(Run{from, to, 1});
    }
  }

  /// Stages a whole word run for one (from, to) pair: one bulk copy plus
  /// one descriptor (merging with an open run to the same pair).
  void append_run(PlayerId from, PlayerId to, std::span<const Word> words) {
    if (words.empty()) return;
    words_.insert(words_.end(), words.begin(), words.end());
    std::size_t left = words.size();
    if (!runs_.empty() && runs_.back().from == from &&
        runs_.back().to == to) {
      const std::size_t room = kMaxCount - runs_.back().count;
      const std::size_t take = left < room ? left : room;
      runs_.back().count += static_cast<std::uint32_t>(take);
      left -= take;
    }
    while (left > 0) {
      const std::size_t take = left < kMaxCount ? left : kMaxCount;
      runs_.push_back(Run{from, to, static_cast<std::uint32_t>(take)});
      left -= take;
    }
  }

 private:
  friend class Engine;
  struct Run {
    PlayerId from;
    PlayerId to;
    std::uint32_t count;
  };
  static constexpr std::uint32_t kMaxCount = 0xffffffffu;
  std::vector<Run> runs_;
  std::vector<Word> words_;
};

/// One delivered stretch of a routed stream: `count` consecutive words
/// from one sender, aliasing the caller's RouteStream word storage (valid
/// while the stream outlives the view and is not mutated).
struct RouteSegment {
  PlayerId from;
  const Word* words;
  std::uint32_t count;
};

/// Segmented per-player delivery view for Engine::lenzen_route_view — the
/// cclique analogue of mpc::InboxView. The view holds one RouteSegment per
/// delivered batch run: O(runs) descriptors over the already-resident
/// stream words, zero per-word expansion. Segments are in delivery order
/// (batch-major, then batch-run order).
class RouteView {
 public:
  /// Words delivered to this player.
  [[nodiscard]] std::size_t size() const noexcept { return words_; }
  [[nodiscard]] bool empty() const noexcept { return words_ == 0; }
  [[nodiscard]] std::span<const RouteSegment> segments() const noexcept {
    return segs_;
  }

 private:
  friend class Engine;
  std::vector<RouteSegment> segs_;
  std::size_t words_ = 0;
};

/// The logical counters; the fault and durability overhead counters (and
/// their layout on disk) come from fault::FaultMetrics.
struct Metrics : fault::FaultMetrics {
  std::size_t rounds = 0;
  /// Peak point-to-point words sent by one player in one round (excluding
  /// broadcasts, which cost one word per recipient by definition).
  std::size_t max_player_sent = 0;
  std::size_t max_player_received = 0;
  std::size_t violations = 0;
  std::size_t total_words = 0;
  /// Number of Lenzen batches executed.
  std::size_t lenzen_batches = 0;
};

class Engine final : private fault::RoundTransport {
 public:
  /// `integrity` arms per-player FNV-1a checksums over the point-to-point
  /// words, folded incrementally at send() time and verified before every
  /// delivery; a mismatch triggers the detect->retransmit protocol (see
  /// FaultKind::kCorruptPayload).  Broadcasts are excluded: the broadcast
  /// store holds one durable shared copy, the cclique analogue of the MPC
  /// engine's payload store.  `audit` checks conservation invariants every
  /// round — staged point-to-point and broadcast words each equal their
  /// deliveries (net of injected drops/dups/delays), and Lenzen batch
  /// splits preserve the routed word total — throwing AuditError on any
  /// violation.  `scrub_interval` arms the opt-in round-boundary scrub
  /// (every scrub_interval-th round; 0 = never): a pure verification sweep
  /// over the point-to-point streams, the broadcast store, and the
  /// checkpoint generations, observable on a clean run only as
  /// Metrics::scrub_passes.  Inert without `integrity` (no digests exist).
  explicit Engine(std::size_t num_players, bool strict = true,
                  bool integrity = false, bool audit = false,
                  std::size_t scrub_interval = 0);

  [[nodiscard]] std::size_t num_players() const noexcept { return n_; }
  [[nodiscard]] const Metrics& metrics() const noexcept { return metrics_; }

  /// Queues one word from `from` to `to` for the next exchange. At most one
  /// word per ordered pair per round (checked at exchange()).
  void send(PlayerId from, PlayerId to, Word word);

  /// Queues a one-to-all broadcast (one word from `from` to every other
  /// player) for the next exchange.
  void broadcast(PlayerId from, Word word);

  /// Executes one round: delivers queued sends/broadcasts, enforcing the
  /// one-word-per-ordered-pair budget.
  void exchange();

  /// Point-to-point words delivered to `player` in the last exchange.
  [[nodiscard]] const std::vector<Message>& inbox(PlayerId player) const;

  /// Broadcast words delivered in the last exchange (identical for every
  /// player).
  [[nodiscard]] const std::vector<Message>& broadcast_inbox() const noexcept {
    return bcast_inbox_;
  }

  /// Routes a run-length staged message multiset with Lenzen's scheme.
  /// Each feasible batch (<= n per sender and per receiver) costs 2 rounds;
  /// batching bookkeeping is paid per *run chunk*, not per word, and
  /// delivery is segmented: each player's view holds O(batch runs)
  /// descriptors aliasing the caller's stream words — no per-word Message
  /// materialization at all. The views live in engine-owned persistent
  /// scratch (valid until the next routing call, while `stream` is alive
  /// and unmutated) — a call costs O(runs + batches), not O(words) or
  /// O(players), after warm-up. Any sends/broadcasts already queued must
  /// be flushed (exchange()d) first; mixing throws.
  const std::vector<RouteView>& lenzen_route_view(const RouteStream& stream);

  /// Opaque copy of the staged round (pending sends, broadcast queue) plus
  /// Metrics; the cclique analogue of mpc::Engine::Snapshot.
  class Snapshot {
   public:
    Snapshot() = default;
    [[nodiscard]] std::size_t words() const noexcept;

   private:
    friend class Engine;
    std::vector<Message> pending;
    std::vector<PlayerId> pending_broadcasts;
    std::vector<Message> bcast_staging;
    std::vector<std::uint64_t> csums;
    std::uint64_t bcast_csum = 0;
    Metrics metrics{};
  };

  [[nodiscard]] Snapshot snapshot() const;
  void restore(const Snapshot& snap);

  /// Attaches a deterministic fault schedule (see
  /// fault::RoundHarness::attach; "machine" means player here).
  /// lenzen_route_view treats every fault in a batch's two rounds as
  /// recovered: the scheme's batch structure is its own retransmission
  /// unit.
  void set_fault_plan(const fault::FaultPlan* plan,
                      fault::CheckpointRegistry* registry = nullptr,
                      bool recover = true) {
    harness_.attach(plan, registry, recover);
  }

  [[nodiscard]] std::size_t crashes_recovered() const noexcept {
    return harness_.crashes_recovered();
  }

  /// Arms on-disk durability (see fault::RoundHarness::set_durability).
  /// No-op when `options.dir` is empty.
  void set_durability(const fault::DurableOptions& options,
                      std::string scope) {
    harness_.set_durability(options, std::move(scope));
  }

  /// Driver-announced safe point: fault::RoundHarness::safe_point.
  void checkpoint_boundary() { harness_.safe_point(); }

  /// Resume attempt (see fault::RoundHarness::try_resume; call once,
  /// after registering providers and attaching any fault plan).
  bool try_resume() { return harness_.try_resume(); }

 private:
  // fault::RoundTransport: the verbs the shared fault harness drives (see
  // fault/round_harness.h for each contract), over this engine's staging.
  [[nodiscard]] std::size_t round() const override { return metrics_.rounds; }
  std::size_t capture_round() override;
  void rollback_round() override { restore(round_ckpt_); }
  void release_round() override { round_ckpt_ = Snapshot{}; }
  /// Point-to-point words plus n-1 per staged broadcast.
  [[nodiscard]] std::size_t staged_words(std::size_t player) const override;
  /// Erases the player's sends and broadcasts (resyncing the store digest).
  void lose_flush(std::size_t player, bool stands) override;
  /// Every pair the player used is now used twice — exactly a congestion
  /// breach of the 1-word/pair budget, so the model detects it on its own.
  void duplicate_flush(std::size_t player) override;
  /// Holds the player's point-to-point sends back to the next exchange.
  void delay_flush(std::size_t player) override;
  /// Retains the player's pristine words (aligned with its messages in
  /// pending_ order), then flips bits among them.
  std::size_t corrupt_wire(std::size_t player, std::size_t round,
                           std::size_t ordinal) override;
  [[nodiscard]] bool wire_ok(std::size_t player) const override;
  /// Serves the retained words back; the accumulator already holds the
  /// pristine digest (corruption touched only the words).
  std::size_t retransmit(std::size_t player) override;
  [[nodiscard]] std::size_t wire_words(std::size_t player) const override {
    return staged_p2p(player);
  }
  /// Retains the player's staged broadcast words (aligned with its entries
  /// in bcast_staging_ order), then flips bits among them.
  std::size_t corrupt_store(std::size_t player, std::size_t round,
                            std::size_t ordinal) override;
  [[nodiscard]] bool store_ok() const override { return bcast_store_ok(); }
  std::size_t repair_store() override;
  /// Non-destructive: the accumulators keep folding until the round
  /// actually delivers.
  void verify_at_rest() override {
    verify_streams(/*scrub=*/true);
    verify_bcast_store(/*scrub=*/true);
  }
  /// The round execution proper (exchange() minus the fault consultation).
  void deliver() override;
  /// The point-to-point inbox plus the round's broadcasts (stored once,
  /// re-read from there).
  [[nodiscard]] std::size_t refetch_words(std::size_t player) const override {
    return inbox_[player].size() + bcast_inbox_.size();
  }
  /// Point-to-point deliveries are lost. The broadcast store is durable
  /// (one shared copy), matching the MPC engine's payload store.
  void go_dark(std::size_t player) override { inbox_[player].clear(); }
  /// Metrics and delayed sends; staging and the broadcast store do not
  /// straddle a safe point (safe points are quiescent).
  void save_engine_state(std::vector<Word>& out) const override;
  void load_engine_state(fault::SectionReader& in) override;

  /// Point-to-point messages currently staged by `player`.
  [[nodiscard]] std::size_t staged_p2p(std::size_t player) const;
  /// Broadcast words currently staged by `player` (n-1 per broadcast).
  [[nodiscard]] std::size_t staged_bcast(std::size_t player) const;
  /// Recomputes csums_[player] from the staged stream (after a fault path
  /// mangled it behind the accumulator's back).
  void resync_player_checksum(std::size_t player);
  /// Folds every staged word into its sender's scratch digest (one sweep
  /// over pending_, in send order) and compares against the accumulators;
  /// throws IntegrityError on mismatch.  At delivery (`scrub` false) the
  /// verified accumulators reset for the next round; a scrub leaves them.
  void verify_streams(bool scrub);
  /// Does the broadcast store (all staged broadcast words, in staging
  /// order) match its publish-time digest accumulator?
  [[nodiscard]] bool bcast_store_ok() const;
  /// Throws IntegrityError unless bcast_store_ok().
  void verify_bcast_store(bool scrub) const;
  /// Recomputes bcast_csum_ from the staged broadcast store (after a fault
  /// path mutated it behind the accumulator's back).
  void resync_bcast_checksum();
  void begin_audit();
  /// Closes the conservation equations for the round just delivered.
  void finish_audit() const;
  /// Charges recovery metrics for fault events scheduled inside a Lenzen
  /// batch's two rounds.
  void lenzen_batch_faults(std::size_t first_round, std::size_t batch);

  std::size_t n_;
  bool strict_;
  bool integrity_;
  bool audit_;
  std::size_t scrub_interval_;
  Metrics metrics_;
  std::vector<Message> pending_;
  std::vector<PlayerId> pending_broadcasts_;
  std::vector<Message> bcast_staging_;
  std::vector<std::vector<Message>> inbox_;
  std::vector<Message> bcast_inbox_;
  /// Persistent per-player scratch (zeroed selectively after each round, so
  /// an exchange costs O(messages) — not O(players) — in the common
  /// broadcast-only rounds of the drivers).
  std::vector<char> broadcasting_;
  std::vector<std::uint32_t> sent_;
  std::vector<std::uint32_t> received_;
  /// Inboxes filled by the last exchange (the only ones that need
  /// clearing next round).
  std::vector<PlayerId> inbox_touched_;
  /// One batch-assigned chunk of a staged run: `count` words starting at
  /// `offset` in the routed stream, all from -> to.
  struct BatchRun {
    PlayerId from;
    PlayerId to;
    std::uint32_t count;
    std::size_t offset;
  };
  /// lenzen_route_view scratch, persistent across calls: per-destination
  /// segmented views (touched-only clearing), per-batch run chunks, and
  /// per-batch sender/receiver load counters (touched entries reset after
  /// routing), so a call allocates nothing after warm-up.
  std::vector<RouteView> route_view_;
  std::vector<PlayerId> route_touched_;
  std::vector<std::vector<BatchRun>> route_batches_;
  std::vector<std::size_t> route_batch_words_;
  std::vector<std::vector<std::uint32_t>> route_send_load_;
  std::vector<std::vector<std::uint32_t>> route_recv_load_;

  /// The fault and durability harness; drives this engine as its
  /// transport.
  fault::RoundHarness harness_{*this, metrics_, {"player", "broadcast store"},
                               n_, integrity_};
  /// The rollback point of the faulty round in flight (capture_round).
  Snapshot round_ckpt_;
  /// Point-to-point sends held back by a non-recovered kDelayFlush,
  /// re-staged at the next exchange.
  std::vector<Message> delayed_;

  // Integrity layer (sized n_ only when integrity_ is on).
  /// Per-player FNV-1a accumulator over point-to-point words, in send
  /// order.
  std::vector<std::uint64_t> csums_;
  /// verify_streams scratch: per-player recomputed digest + touched list.
  std::vector<std::uint64_t> csum_check_;
  std::vector<PlayerId> csum_touched_;
  /// Pristine words retained by corrupt_wire, aligned with the player's
  /// staged messages in pending_ order; valid within one faulty round.
  std::vector<Word> retained_words_;
  /// FNV-1a accumulator over the broadcast store (all staged broadcast
  /// words in staging order), folded at broadcast() time — the store half
  /// of the integrity layer; reset when the staging ships.
  std::uint64_t bcast_csum_ = Fnv::kOffset;
  /// Pristine broadcast words retained by corrupt_store, aligned with the
  /// player's entries in bcast_staging_ order; valid for
  /// retained_bcast_from_ within one faulty round.
  std::vector<Word> retained_bcast_words_;
  std::size_t retained_bcast_from_ = static_cast<std::size_t>(-1);

  // Audit scratch: what this round staged (measured before fault events)
  // plus fault-path adjustments, so finish_audit() can close the
  // conservation equations.
  std::size_t audit_staged_ = 0;
  std::size_t audit_bcast_staged_ = 0;
  std::size_t audit_dropped_ = 0;
  std::size_t audit_bcast_dropped_ = 0;
  std::size_t audit_duped_ = 0;
  std::size_t audit_delayed_ = 0;
};

}  // namespace mpcg::cclique

#endif  // MPCG_CCLIQUE_ENGINE_H
