// Massively Parallel Computation (MPC) model simulator.
//
// The model (paper, Section 1.1.1): m machines, each with S words of local
// memory, computing in synchronous rounds. Within a round machines compute
// locally; at the round boundary they exchange messages, and every machine
// may send and receive at most S words per round.
//
// This engine is the *accounting authority* for every algorithm in
// `src/core`: algorithms move data only through the staging API
// (`outbox`/`push`/`exchange`, or the collectives in primitives.h built on
// them), the engine counts rounds and enforces capacities, and the
// experiment harness reads the metrics from here. Algorithms have no way to
// increment the round counter except by actually communicating.
//
// Message plane. Two kinds of traffic flow through an exchange:
//   * unicast words, staged through an `Outbox` (one handle per sender,
//     one up-front machine check, run-length `(to, count)` descriptors over
//     a contiguous per-sender word stream) or the legacy per-word `push`,
//     which is a thin wrapper over a one-entry outbox; and
//   * shared payloads (`stage_payload` + `push_broadcast` / `push_gather`),
//     stored ONCE per staging and delivered as (payload, offset, length)
//     descriptors — a broadcast of k words to f machines costs O(k + f)
//     simulator work instead of O(k * f) copies.
// Inboxes are exposed as ordered segment views (`inbox_view`): each shared
// payload appears as one segment aliasing the single stored copy, and
// unicast words as segments into the receiver's inbox buffer.
// Zero-copy changes *simulation* cost only: metrics (rounds, sent/received
// words, violations) account shared payloads at full per-destination size,
// exactly as if every receiver got its own copy.
#ifndef MPCG_MPC_ENGINE_H
#define MPCG_MPC_ENGINE_H

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "fault/round_harness.h"
#include "util/fnv.h"

namespace mpcg::mpc {

using Word = std::uint64_t;

/// Handle to a payload staged for the next exchange (see
/// Engine::stage_payload). Valid until that exchange() runs.
using PayloadId = std::uint32_t;

/// Thrown (in strict mode) when a machine exceeds its per-round send or
/// receive budget, or when a collective cannot fit in machine memory.
class CapacityError : public std::runtime_error {
 public:
  explicit CapacityError(const std::string& what) : std::runtime_error(what) {}
};

/// Thrown when integrity checking (Config::integrity) detects a stream
/// checksum or store digest mismatch it cannot repair (see
/// fault::IntegrityError).
using IntegrityError = fault::IntegrityError;

/// Thrown when audit mode (Config::audit) finds a broken invariant — a
/// conservation violation, an untallied capacity breach, or an inbox view
/// whose segments disagree with the delivered word count.  An AuditError is
/// a simulator bug (or memory corruption), never an expected outcome of an
/// injected fault.
class AuditError : public std::logic_error {
 public:
  explicit AuditError(const std::string& what) : std::logic_error(what) {}
};

struct Config {
  /// Number of machines, m.
  std::size_t num_machines = 1;
  /// Words of memory per machine, S. Also the per-round send/receive cap.
  std::size_t words_per_machine = 1 << 20;
  /// If true, capacity violations throw CapacityError; otherwise they are
  /// tallied in Metrics::violations (useful for measuring how close an
  /// algorithm runs to the budget).
  bool strict = true;
  /// End-to-end message integrity: every sender's staged word stream
  /// carries a 64-bit FNV-1a checksum, folded in incrementally at append
  /// time (one xor-multiply per word behind a null-pointer test that is
  /// perfectly predicted when this is off) and verified against a
  /// recomputation at every flush (one branch per flush when off).  A
  /// mismatch — a kCorruptPayload fault, or real memory corruption — is
  /// detected before delivery and repaired by retransmitting the sender's
  /// retained stream (see FaultPlan::retransmit_budget for the escalation
  /// contract).
  bool integrity = false;
  /// Runtime audit mode: after every exchange the engine checks
  /// conservation (words staged == delivered + dropped - duplicated
  /// + delayed, with fault adjustments), that capacity breaches were
  /// tallied, and that inbox-view segments cover exactly the delivered
  /// words inside engine-owned buffers.  Costs one staging sweep per round
  /// (O(machines + shared sends)); throws AuditError on any violation.
  bool audit = false;
  /// Opt-in round-boundary scrub of the durable stores: every
  /// `scrub_interval`-th round (0 = never) the engine re-digests the
  /// payload store and every sender's wire stream, and re-verifies the
  /// retained checkpoint generations, *before* any reader touches the
  /// round's deliveries.  Requires `integrity` (silently inert without it —
  /// there are no digests to check).  The scrub is pure verification: on a
  /// fault-free run its only observable is Metrics::scrub_passes, and rot
  /// that escaped the repair path throws IntegrityError (see DESIGN.md,
  /// "Determinism contract").
  std::size_t scrub_interval = 0;
};

/// Logical counters first-class; the fault and durability overhead
/// counters (and their layout on disk) come from fault::FaultMetrics.
struct Metrics : fault::FaultMetrics {
  /// Communication rounds executed so far.
  std::size_t rounds = 0;
  /// Peak words sent by any machine in any single round.
  std::size_t max_sent_words = 0;
  /// Peak words received by any machine in any single round.
  std::size_t max_received_words = 0;
  /// Peak resident storage reported by any machine (via note_storage) or
  /// implied by a gather.
  std::size_t peak_storage_words = 0;
  /// Number of capacity violations observed (non-strict mode).
  std::size_t violations = 0;
  /// Total words moved across the cluster over all rounds.
  std::size_t total_words = 0;
};

/// Run-length tag encoding of the staging. Each sender's staged words
/// form one contiguous stream described by a stream of 4-byte *tags*, one
/// per maximal same-destination stretch: a tag is the destination id, and
/// its kExtFlag bit says whether the stretch is a single word (clear — the
/// overwhelmingly common case in scattered traffic) or its length lives in
/// the sender's side count stream (set). Singleton stretches therefore
/// stage at exactly the cost of a per-word destination tag — one 4-byte
/// store — while a burst of k words to one machine compresses to one tag +
/// one count, and delivery is a counting sort over tags, not words.
/// The per-sender stream checksum of the integrity layer (see
/// Config::integrity) — shared with the congested-clique engine.
using Fnv = mpcg::Fnv;

struct RunTag {
  static constexpr std::uint32_t kExtFlag = 0x80000000u;
  static constexpr std::uint32_t kDestMask = 0x7fffffffu;
  /// Extended runs saturate at 2^32-1 words and spill into a fresh tag —
  /// only reachable far beyond any realistic per-round budget (delivery
  /// walks runs in order, so the split is invisible).
  static constexpr std::uint32_t kMaxCount = 0xffffffffu;
  /// "No open run" marker for the per-sender open-destination table (it
  /// has the high bit set, so it can never equal a masked destination).
  static constexpr std::uint32_t kNoDest = 0xffffffffu;
};

/// Streamed outbox: a per-sender staging handle for unicast words. Open one
/// per round (`Engine::outbox`) — the sender id is checked once there — and
/// append words or whole runs; only the destination is range-checked per
/// append (one compare). Appends write the sender's contiguous word stream
/// plus run-length descriptors. A handle is valid until the next
/// exchange(); several handles for the same sender may coexist (they stage
/// into the same stream).
class Outbox {
 public:
  Outbox() = default;

  /// Appends one word for machine `to`.
  ///
  /// The run-merge test reads the per-sender *open destination* table
  /// (`open_to_`, one word per sender — cache-resident), never the tag
  /// stream's tail: scattered cross-sender traffic pays exactly the
  /// stores a per-word destination tag costs (one 4-byte tag + the word),
  /// while the (load-latency) run extension is reserved for actual
  /// same-destination bursts.
  void append(std::size_t to, Word word) {
    if (to >= num_machines_) [[unlikely]] {
      throw_bad_dest(to);
    }
    words_->push_back(word);
    // Integrity layer: fold the word into the sender's stream checksum.
    // With integrity off csum_ is null and this branch is never taken —
    // a perfectly predicted test, the staging cost the bench pins at 0%.
    if (csum_ != nullptr) [[unlikely]] {
      *csum_ = Fnv::fold(*csum_, word);
    }
    if (*open_to_ == to) {
      std::uint32_t& back = tos_->back();
      if ((back & RunTag::kExtFlag) == 0) {
        // Second word of a stretch: promote the singleton tag to an
        // extended run of 2.
        back |= RunTag::kExtFlag;
        counts_->push_back(2);
        return;
      }
      if (counts_->back() != RunTag::kMaxCount) [[likely]] {
        ++counts_->back();
        return;
      }
    }
    *open_to_ = static_cast<std::uint32_t>(to);
    tos_->push_back(static_cast<std::uint32_t>(to));
  }

  /// Appends a whole word run for machine `to` (one tag + one count + one
  /// bulk copy; merges with an open run to the same machine).
  void append_run(std::size_t to, std::span<const Word> words) {
    if (to >= num_machines_) [[unlikely]] {
      throw_bad_dest(to);
    }
    if (words.empty()) return;
    words_->insert(words_->end(), words.begin(), words.end());
    if (csum_ != nullptr) [[unlikely]] {
      std::uint64_t h = *csum_;
      for (const Word w : words) h = Fnv::fold(h, w);
      *csum_ = h;
    }
    std::size_t left = words.size();
    if (*open_to_ == to) {
      std::uint32_t& back = tos_->back();
      if ((back & RunTag::kExtFlag) == 0) {
        back |= RunTag::kExtFlag;
        counts_->push_back(1);
      }
      const std::size_t room = RunTag::kMaxCount - counts_->back();
      const std::size_t take = left < room ? left : room;
      counts_->back() += static_cast<std::uint32_t>(take);
      left -= take;
    }
    *open_to_ = static_cast<std::uint32_t>(to);
    while (left > 0) {
      if (left == 1) {
        tos_->push_back(static_cast<std::uint32_t>(to));
        break;
      }
      const std::size_t take =
          left < RunTag::kMaxCount ? left : RunTag::kMaxCount;
      tos_->push_back(static_cast<std::uint32_t>(to) | RunTag::kExtFlag);
      counts_->push_back(static_cast<std::uint32_t>(take));
      left -= take;
    }
  }

  /// Pre-reserves stream capacity for `words` more words.
  void reserve(std::size_t words) {
    if (words_ != nullptr) words_->reserve(words_->size() + words);
  }

 private:
  friend class Engine;
  Outbox(std::vector<std::uint32_t>* tos, std::vector<std::uint32_t>* counts,
         std::vector<Word>* words, std::uint32_t* open_to,
         std::size_t num_machines, std::uint64_t* csum)
      : tos_(tos), counts_(counts), words_(words), open_to_(open_to),
        num_machines_(num_machines), csum_(csum) {}
  /// Out of line: the exception-string construction must not be inlined
  /// into every append call site (it bloats the hot staging loops).
  [[noreturn]] void throw_bad_dest(std::size_t to) const;
  /// The sender's run-tag/count streams + contiguous word stream + its
  /// slot in the engine's open-destination table (the masked destination
  /// of tos_->back(), or RunTag::kNoDest when no run is open).
  std::vector<std::uint32_t>* tos_ = nullptr;
  std::vector<std::uint32_t>* counts_ = nullptr;
  std::vector<Word>* words_ = nullptr;
  std::uint32_t* open_to_ = nullptr;
  std::size_t num_machines_ = 0;
  /// The sender's incremental stream-checksum accumulator, or nullptr when
  /// integrity checking is off (the hot-path appends test this once).
  std::uint64_t* csum_ = nullptr;
};

/// Read-only, zero-copy view of one machine's inbox after an exchange: an
/// ordered list of word segments whose concatenation is the inbox contents
/// (sender ids ascending; each sender's words in push order, unicast and
/// shared interleaved chronologically). Segments alias engine-owned storage:
/// a view is valid until the next exchange() or clear_inboxes(), which
/// invalidate it (dangling — do not hold across rounds).
///
/// Segment structure is guaranteed only as far as: every shared payload
/// delivered to this machine appears as exactly one contiguous segment, in
/// its contract position. Unicast words may be split across one or more
/// segments. Word-level iteration (begin()/end()) hides the seams.
class InboxView {
 public:
  InboxView() = default;

  [[nodiscard]] std::size_t size() const noexcept { return words_; }
  [[nodiscard]] bool empty() const noexcept { return words_ == 0; }

  [[nodiscard]] std::size_t num_segments() const noexcept {
    return segs_ != nullptr ? segs_->size() : (single_.empty() ? 0 : 1);
  }
  [[nodiscard]] std::span<const Word> segment(std::size_t i) const noexcept {
    return segs_ != nullptr ? (*segs_)[i] : single_;
  }

  /// Appends the full inbox contents to `out` (one bulk copy per segment).
  void append_to(std::vector<Word>& out) const {
    out.reserve(out.size() + words_);
    for (std::size_t s = 0; s < num_segments(); ++s) {
      const auto seg = segment(s);
      out.insert(out.end(), seg.begin(), seg.end());
    }
  }
  [[nodiscard]] std::vector<Word> to_vector() const {
    std::vector<Word> out;
    append_to(out);
    return out;
  }

  /// Forward word iterator over the concatenated segments.
  class iterator {
   public:
    using value_type = Word;
    using difference_type = std::ptrdiff_t;

    iterator() = default;
    iterator(const InboxView* view, std::size_t seg) : view_(view), seg_(seg) {
      settle();
    }
    Word operator*() const noexcept { return view_->segment(seg_)[off_]; }
    iterator& operator++() noexcept {
      ++off_;
      settle();
      return *this;
    }
    iterator operator++(int) noexcept {
      iterator old = *this;
      ++*this;
      return old;
    }
    friend bool operator==(const iterator& a, const iterator& b) noexcept {
      return a.seg_ == b.seg_ && a.off_ == b.off_;
    }

   private:
    void settle() noexcept {
      while (view_ != nullptr && seg_ < view_->num_segments() &&
             off_ >= view_->segment(seg_).size()) {
        ++seg_;
        off_ = 0;
      }
    }
    const InboxView* view_ = nullptr;
    std::size_t seg_ = 0;
    std::size_t off_ = 0;
  };
  [[nodiscard]] iterator begin() const noexcept { return {this, 0}; }
  [[nodiscard]] iterator end() const noexcept {
    return {this, num_segments()};
  }

 private:
  friend class Engine;
  /// Fast path: a view that is one contiguous unicast range.
  std::span<const Word> single_{};
  /// Segmented path: borrowed from the engine (nullptr on the fast path).
  const std::vector<std::span<const Word>>* segs_ = nullptr;
  std::size_t words_ = 0;
};

class Engine final : private fault::RoundTransport {
  /// One queued shared-payload delivery. `seq` snapshots how many unicast
  /// words the sender had queued in total when the shared push happened —
  /// the splice position that keeps per-sender chronological order in the
  /// inbox.
  /// (Declared ahead of the public section so Snapshot can hold them.)
  struct SharedSend {
    std::uint32_t from;
    std::uint32_t to;
    PayloadId payload;
    std::uint64_t seq;
  };

 public:
  explicit Engine(Config config);

  [[nodiscard]] std::size_t num_machines() const noexcept {
    return config_.num_machines;
  }
  [[nodiscard]] std::size_t capacity() const noexcept {
    return config_.words_per_machine;
  }
  [[nodiscard]] bool strict() const noexcept { return config_.strict; }
  [[nodiscard]] const Metrics& metrics() const noexcept { return metrics_; }

  /// Opens a streamed outbox for machine `from` — the one up-front sender
  /// check; appends through the handle pay a single destination compare
  /// each. Valid until the next exchange(). This is how the hot producers
  /// stage their home->machine record streams; the per-word push below
  /// wraps it.
  [[nodiscard]] Outbox outbox(std::size_t from) {
    if (from >= config_.num_machines) [[unlikely]] {
      throw_bad_machine(from);
    }
    return Outbox(&out_tos_[from], &out_counts_[from], &out_words_[from],
                  &out_open_to_[from], config_.num_machines,
                  config_.integrity ? &out_csums_[from] : nullptr);
  }

  /// Queues one word from machine `from` to machine `to` for the next
  /// exchange. Legacy entry point: a thin wrapper over a one-entry outbox
  /// (baselines and tests compile unchanged; hot drivers hold an Outbox).
  void push(std::size_t from, std::size_t to, Word word) {
    outbox(from).append(to, word);
  }

  /// Queues a word span (one run descriptor + one bulk copy).
  void push(std::size_t from, std::size_t to, std::span<const Word> words);

  /// Stores one copy of `words` for the next exchange and returns a handle
  /// any machine may push_broadcast against — so a relay round where many
  /// senders forward the same payload stores it once, total. The handle
  /// dies at the next exchange(); re-stage per round.
  PayloadId stage_payload(std::span<const Word> words);

  /// Queues the staged payload from `from` to every machine in `dests`:
  /// O(|dests|) descriptors, zero word copies. Accounting is unchanged from
  /// |dests| equivalent span pushes (|payload| words charged per
  /// destination). An empty payload is a no-op (as an empty push would be).
  void push_broadcast(std::size_t from, std::span<const std::size_t> dests,
                      PayloadId payload);

  /// Convenience: stage_payload + push_broadcast in one call.
  PayloadId push_broadcast(std::size_t from,
                           std::span<const std::size_t> dests,
                           std::span<const Word> payload);

  /// Queues `words` from `from` to `to` as one shared-payload segment (one
  /// stored copy; the receiver's view aliases it instead of re-copying into
  /// the inbox buffer). The gather half of the message plane: each
  /// contributed part arrives as exactly one segment.
  void push_gather(std::size_t from, std::size_t to,
                   std::span<const Word> words);

  /// Executes one communication round: delivers all queued words, enforces
  /// per-machine send/receive budgets, updates metrics, and makes inboxes
  /// readable. Queued outboxes are cleared; views, payloads, and Outbox
  /// handles from the previous round are invalidated.
  void exchange();

  /// Zero-copy view of the words delivered to `machine` by the most recent
  /// exchange (see InboxView for the ordering contract and lifetime).
  [[nodiscard]] InboxView inbox_view(std::size_t machine) const;

  /// The stored words of a payload delivered by the most recent exchange(),
  /// addressed by the PayloadId stage_payload returned before it. Aliases
  /// engine-owned storage: valid until the next exchange() or
  /// clear_inboxes(). This is how span-returning collectives
  /// (mpc::broadcast_view) hand out the delivered payload without a copy.
  [[nodiscard]] std::span<const Word> delivered_payload(PayloadId id) const {
    return delivered_payloads_.at(id);
  }

  /// Reports `words` of resident state on `machine` for peak-storage
  /// accounting (e.g. an adjacency shard or a gathered subgraph). In strict
  /// mode exceeding S throws.
  void note_storage(std::size_t machine, std::size_t words);

  /// Clears all inboxes (outboxes are cleared by exchange()). Invalidates
  /// outstanding views.
  void clear_inboxes();

  /// Opaque copy of the *staged* message plane — run-tag streams, the
  /// payload store, splice descriptors — plus Metrics, taken at a round
  /// boundary.  Restoring puts the engine back exactly as it was about to
  /// exchange.  Delivered inboxes are NOT captured: their segment views
  /// alias engine buffers and are invalidated by a rollback anyway
  /// (drivers re-read them from the replayed round).
  class Snapshot {
   public:
    Snapshot() = default;
    /// Words of checkpoint payload held — the engine's contribution to
    /// Metrics::checkpoint_bytes.
    [[nodiscard]] std::size_t words() const noexcept;

   private:
    friend class Engine;
    std::vector<std::vector<std::uint32_t>> out_tos;
    std::vector<std::vector<std::uint32_t>> out_counts;
    std::vector<std::vector<Word>> out_words;
    std::vector<std::uint32_t> out_open_to;
    std::vector<std::uint64_t> out_csums;
    std::vector<std::vector<Word>> staged_payloads;
    std::vector<std::uint64_t> staged_digests;
    std::vector<SharedSend> shared_sends;
    Metrics metrics{};
  };

  /// Captures the staged message plane (see Snapshot).  The fault
  /// machinery takes one just before applying a scheduled event
  /// (copy-on-fault — fault-free rounds never pay for it); tests may also
  /// call it directly.
  [[nodiscard]] Snapshot snapshot() const;
  /// Reinstates a snapshot taken on this engine (same machine count).
  /// Outstanding views and Outbox handles are invalidated.
  void restore(const Snapshot& snap);

  /// Attaches a deterministic fault schedule (see
  /// fault::RoundHarness::attach): `registry`, when given, is the driver's
  /// checkpoint registry, captured alongside the engine snapshot at faulty
  /// rounds and restored on crash rollback.  Passing nullptr (or an empty
  /// plan) detaches.
  void set_fault_plan(const fault::FaultPlan* plan,
                      fault::CheckpointRegistry* registry = nullptr,
                      bool recover = true) {
    harness_.attach(plan, registry, recover);
  }

  /// Crashes absorbed by recovery so far (checked against the plan's
  /// crash_budget).
  [[nodiscard]] std::size_t crashes_recovered() const noexcept {
    return harness_.crashes_recovered();
  }

  /// Arms on-disk durability (see fault::RoundHarness::set_durability):
  /// every `options.every`-th safe point persists one generation under
  /// `options.dir`, signed with `scope`.  No-op when `options.dir` is empty.
  void set_durability(const fault::DurableOptions& options,
                      std::string scope) {
    harness_.set_durability(options, std::move(scope));
  }

  /// Driver-announced safe point (a driver loop boundary where the
  /// registered providers' state is self-consistent and the message plane
  /// is quiescent): polls the stop flag and persists
  /// (fault::RoundHarness::safe_point).  Drivers call it unconditionally at
  /// their loop tops.
  void checkpoint_boundary() { harness_.safe_point(); }

  /// Resume attempt (call once, after registering checkpoint providers and
  /// before the first round; see fault::RoundHarness::try_resume).  The
  /// engine's own section restores Metrics and delayed flushes.  True when
  /// a checkpoint was loaded.
  bool try_resume() { return harness_.try_resume(); }

 private:
  void check_budget(std::size_t machine, std::size_t words, const char* dir);
  void check_machine(std::size_t machine) const;
  [[noreturn]] void throw_bad_machine(std::size_t machine) const;

  void drop_last_round();

  // fault::RoundTransport: the verbs the shared fault harness drives (see
  // fault/round_harness.h for each contract), over this engine's staging.
  [[nodiscard]] std::size_t round() const override { return metrics_.rounds; }
  std::size_t capture_round() override;
  void rollback_round() override { restore(round_ckpt_); }
  void release_round() override { round_ckpt_ = Snapshot{}; }
  /// Unicast words plus the machine's share of shared payload deliveries.
  [[nodiscard]] std::size_t staged_words(std::size_t machine) const override;
  /// Destroys the machine's staged run streams and its queued shared-payload
  /// sends. The payload *store* survives: stage_payload models a durable
  /// blob store, the per-machine flush is what a fault destroys.
  void lose_flush(std::size_t machine, bool stands) override;
  /// Doubles the staged unicast traffic (receivers see every word twice
  /// and congestion accounting trips).
  void duplicate_flush(std::size_t machine) override;
  /// Holds the staged unicast traffic back one round; inject_delayed()
  /// re-appends it to the next round's staging.
  void delay_flush(std::size_t machine) override;
  /// Copies the staged stream aside (sender-side retention) and flips bits
  /// in the live staged words.
  std::size_t corrupt_wire(std::size_t machine, std::size_t round,
                           std::size_t ordinal) override;
  [[nodiscard]] bool wire_ok(std::size_t machine) const override {
    return sender_stream_ok(machine);
  }
  std::size_t retransmit(std::size_t machine) override;
  [[nodiscard]] std::size_t wire_words(std::size_t machine) const override {
    return out_words_[machine].size();
  }
  /// Copies a payload blob aside (the publisher's retained pristine copy)
  /// and flips bits in it.  The blob is picked word-weighted across the
  /// store, so a non-empty store always takes a hit.
  std::size_t corrupt_store(std::size_t machine, std::size_t round,
                            std::size_t ordinal) override;
  [[nodiscard]] bool store_ok() const override {
    return store_blob_ok(retained_blob_id_);
  }
  std::size_t repair_store() override;
  void verify_at_rest() override {
    verify_store();
    verify_streams();
  }
  /// The round execution proper (exchange() minus the fault consultation).
  void deliver() override;
  [[nodiscard]] std::size_t refetch_words(std::size_t machine) const override {
    return received_words(machine);
  }
  /// Blanks what the machine received this round. Send-side metrics keep
  /// the words — they were sent, they just hit a dead host.
  void go_dark(std::size_t machine) override;
  /// Metrics and delayed flushes.  Staging and the
  /// payload store are NOT serialized — safe points are quiescent, and a
  /// fresh process's empty staging is exactly right.
  void save_engine_state(std::vector<Word>& out) const override;
  void load_engine_state(fault::SectionReader& in) override;

  /// Words machine `m` received in the round just executed.
  [[nodiscard]] std::size_t received_words(std::size_t machine) const;
  void inject_delayed();
  /// Clears one sender's staged stream (tags, counts, words, open-run
  /// table, checksum accumulator).
  void clear_sender_staging(std::size_t from);
  /// Resets the sender's checksum accumulator to the digest of its current
  /// staged stream (after a non-append mutation: duplicate, delayed
  /// re-injection, restore).
  void resync_sender_checksum(std::size_t from);
  /// True iff the sender's accumulated checksum matches a recomputation
  /// over its staged stream — the receiver-side verification.
  [[nodiscard]] bool sender_stream_ok(std::size_t from) const;
  /// Flush-time verification of every sender's stream (one branch per
  /// flush reaches here only with Config::integrity on).  A mismatch at
  /// this point escaped the detect->retransmit protocol — real memory
  /// corruption, not an injected fault — and throws IntegrityError.
  void verify_streams() const;
  /// True iff the blob's stored words still match the digest folded at
  /// stage_payload time — the reader-side store verification.
  [[nodiscard]] bool store_blob_ok(PayloadId id) const;
  /// Flush-time verification of every staged payload blob against its
  /// stage-time digest (reached only with Config::integrity on) — the
  /// reader-side guarantee that inbox_view / broadcast_view splices never
  /// alias rotted store bytes.  A mismatch here escaped the repair
  /// protocol and throws IntegrityError.
  void verify_store() const;
  /// Audit mode: records the staged word total (post delayed-injection,
  /// pre fault events) and the fault adjustments baseline for this round.
  void begin_audit();
  /// Audit mode: checks conservation, capacity tallies, and segment bounds
  /// for the round just delivered; throws AuditError on violation.
  void finish_audit() const;
  void exchange_plain_flat(std::size_t m);
  void exchange_shared(std::size_t m);
  /// Delivers one sender's staged runs into the inboxes (and, with
  /// `emit_segs`, interleaved segment lists for shared-round receivers):
  /// one bulk copy per run, except scattered big senders (many short runs)
  /// which take a word-level counting sort through the scatter buffer so a
  /// receiver gets one append instead of one per run. Clears the sender's
  /// staging.
  void deliver_flat_sender(std::size_t from, std::size_t m, bool emit_segs);
  /// Appends one sender's `unicast` words for `to` to inbox_[to] split
  /// around this pair's shared sends (whose seq fields hold within-pair
  /// splice offsets, chronological order), emitting interleaved segments
  /// into in_segs_[to].
  void deliver_pair_with_shared(std::size_t to, std::span<const Word> unicast,
                                std::span<const SharedSend> sends);
  std::vector<std::span<const Word>>& touch_segs(std::size_t to);

  Config config_;
  Metrics metrics_;
  /// Per-sender outboxes: out_words_[from] is the sender's staged words in
  /// push order, described by the run tags in
  /// out_tos_[from] (one per maximal same-destination stretch; extended
  /// tags index into out_counts_[from] in order — see RunTag). A round of
  /// exchange() costs O(tags + machines) bookkeeping plus one bulk copy
  /// per run (scattered senders fall back to a word-level counting sort —
  /// see deliver_flat_sender).
  std::vector<std::vector<std::uint32_t>> out_tos_;
  std::vector<std::vector<std::uint32_t>> out_counts_;
  std::vector<std::vector<Word>> out_words_;
  /// Destination of each sender's open (last) run, or RunTag::kNoDest.
  /// The compact mirror of out_tos_[from].back()'s destination that keeps
  /// the append-side merge test off the tag vectors' scattered tails.
  std::vector<std::uint32_t> out_open_to_;
  /// Per-sender incremental FNV-1a stream checksums (allocated only with
  /// Config::integrity; reset to Fnv::kOffset whenever the stream clears).
  std::vector<std::uint64_t> out_csums_;
  /// Unicast words delivered to each machine (shared payloads are viewed in
  /// place, never copied here).
  std::vector<std::vector<Word>> inbox_;

  // Shared-payload plane. Staged payloads become `delivered_payloads_` at
  // exchange and stay alive (aliased by views) until the next exchange or
  // clear_inboxes.
  std::vector<std::vector<Word>> staged_payloads_;
  /// Per-blob FNV-1a digests folded at stage_payload time (parallel to
  /// staged_payloads_; maintained only with Config::integrity on) — the
  /// store half of the integrity layer.
  std::vector<std::uint64_t> staged_digests_;
  std::vector<std::vector<Word>> delivered_payloads_;
  std::vector<SharedSend> shared_sends_;
  /// Per-machine ordered segments for the current round; only filled for
  /// machines that received at least one shared payload (others use the
  /// single-span fast path). `seg_touched_` lists the filled machines for
  /// O(touched) teardown.
  std::vector<std::vector<std::span<const Word>>> in_segs_;
  std::vector<std::size_t> seg_touched_;
  /// Words received this round per machine (unicast + shared), valid for
  /// machines in seg_touched_.
  std::vector<std::size_t> recv_total_;
  bool shared_round_ = false;

  /// Per-receiver word counts for the current exchange (scratch).
  std::vector<std::size_t> recv_count_;
  /// Per-machine shared sent/received word totals (scratch, shared rounds).
  std::vector<std::size_t> shared_sent_;
  std::vector<std::size_t> shared_recv_;
  /// Counting-sort scratch for scattered senders (see deliver_flat_sender).
  std::vector<std::size_t> bucket_count_;
  std::vector<std::size_t> bucket_cursor_;
  std::vector<Word> scatter_;
  /// Shared-round scratch: one sender's shared sends in chronological
  /// order, with seq rewritten to the within-pair splice offset.
  std::vector<SharedSend> sender_sends_;

  /// The fault and durability harness (plan, budgets, the faulty-round
  /// protocol, scrub, safe points); drives this engine as its transport.
  fault::RoundHarness harness_{*this, metrics_, {"machine", "payload store"},
                               config_.num_machines, config_.integrity};
  /// The rollback point of the faulty round in flight (capture_round).
  Snapshot round_ckpt_;
  /// A flush held back by a non-recovered kDelayFlush: the sender's run
  /// descriptors and words, re-appended to its next round's stream.
  struct DelayedFlush {
    std::size_t from = 0;
    std::vector<std::uint32_t> tos;
    std::vector<std::uint32_t> counts;
    std::vector<Word> words;
  };
  std::vector<DelayedFlush> delayed_;
  /// Sender-side retention for the detect->retransmit protocol: the
  /// pristine copy of the stream a kCorruptPayload event is about to
  /// mangle (valid within one faulty round).
  struct RetainedStream {
    std::vector<std::uint32_t> tos;
    std::vector<std::uint32_t> counts;
    std::vector<Word> words;
    std::uint32_t open_to = RunTag::kNoDest;
    std::uint64_t csum = 0;
  };
  RetainedStream retained_;
  /// Publisher-side retention for the store-repair protocol: the pristine
  /// copy of the payload blob a kCorruptStore event is about to mangle
  /// (valid for the blob named by retained_blob_id_ within one faulty
  /// round).
  std::vector<Word> retained_blob_;
  PayloadId retained_blob_id_ = static_cast<PayloadId>(-1);

  // Audit-mode per-round scratch (see Config::audit): the staged total at
  // round entry and the word-count adjustments unrecovered faults made to
  // the staging, so finish_audit() can close the conservation equation.
  std::size_t audit_staged_ = 0;
  std::size_t audit_dropped_ = 0;
  std::size_t audit_duped_ = 0;
  std::size_t audit_delayed_ = 0;
  std::size_t audit_violations_at_ = 0;
};

}  // namespace mpcg::mpc

#endif  // MPCG_MPC_ENGINE_H
