// The fault and durability harness both engines share.
//
// The paper states its results in two models, MPC and the CONGESTED
// CLIQUE, so the library has two engines (mpc::Engine, cclique::Engine).
// Their fault and durability layer is model-agnostic: a machine and a
// player are the same thing to a fault plan, and a payload blob and a
// broadcast are the same thing to a store digest.  RoundHarness holds that
// layer once:
//
//   * plan attachment and the crash budget;
//   * the faulty-round protocol: capture, per-event dispatch, retransmit
//     budgets with per-(node, round) attempt ordinals, escalation to a
//     checkpoint rollback, then the round itself, then settlement of the
//     overhead counters (a rollback restores Metrics wholesale, so the
//     tallies settle only after the round, and the round capture is
//     released there);
//   * the verified registry restore with generation fallback;
//   * the scrub's cadence and its checkpoint-generation sweep;
//   * the safe-point stop/persist cadence, resume, and
//     faults_skipped_on_resume;
//   * the 1-3 bit-flip picker every injected corruption uses.
//
// Each engine keeps only its transport (RoundTransport below: verbs over
// its own staging), its Snapshot and its audits.  The harness never
// branches on which engine it serves; the only per-engine data are the
// nouns in error messages ("machine"/"player", "payload store"/"broadcast
// store").
#ifndef MPCG_FAULT_ROUND_HARNESS_H
#define MPCG_FAULT_ROUND_HARNESS_H

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "fault/durable.h"
#include "fault/fault_plan.h"

namespace mpcg::fault {

class CheckpointRegistry;

/// Thrown when integrity checking detects a stream checksum or store digest
/// mismatch it cannot repair: a corruption whose retransmit budget is
/// exhausted with recovery disabled, or a mismatch at delivery (or in a
/// scrub) that no detect->retransmit cycle handled.  mpc::IntegrityError
/// and cclique::IntegrityError name this type.
class IntegrityError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// The fault and durability counters both engines' Metrics lead with.  All
/// are *overhead* counters: the logical fields of each engine's Metrics
/// stay bit-identical to the fault-free run when recovery is on.  Layout
/// matters: Metrics is memcpy'd into the durable "__engine" section (and
/// integral_matching's outer cursor), so these 17 words come first there.
struct FaultMetrics {
  // Fault recovery (all zero unless a FaultPlan is attached).
  /// Rounds replayed by crash/drop recovery or stalled for a late flush
  /// (not counted in `rounds`, which stays the logical round count).
  std::size_t rounds_replayed = 0;
  /// Words retransmitted during recovery: lost outbound flushes replayed
  /// from sender-side retention, plus the deliveries a crashed node
  /// re-fetched after its rollback.
  std::size_t words_resent = 0;
  /// Bytes serialized into round-level checkpoints (engine snapshot +
  /// registered driver state), materialized copy-on-fault.
  std::size_t checkpoint_bytes = 0;
  /// Fault events applied from the attached plan.
  std::size_t faults_injected = 0;
  /// kCorruptPayload events that flipped at least one staged bit (events
  /// landing on an empty stream corrupt nothing and are not counted here,
  /// though they still count in faults_injected).
  std::size_t corruptions_injected = 0;
  /// Corruptions caught by the integrity layer's checksum verification.
  /// Equals corruptions_injected whenever integrity is on.
  std::size_t corruptions_detected = 0;
  /// Words re-delivered from sender-side retention by the detect->
  /// retransmit protocol (including the re-delivery after a budget-blown
  /// corruption escalated to checkpoint rollback).
  std::size_t words_retransmitted = 0;
  /// kCorruptStore events that flipped at least one stored bit (events
  /// landing on an empty store corrupt nothing and are not counted here,
  /// though they still count in faults_injected).
  std::size_t store_corruptions_injected = 0;
  /// Store corruptions caught by the store digests.  Equals
  /// store_corruptions_injected whenever integrity is on.
  std::size_t store_corruptions_detected = 0;
  /// Words reinstated from the publisher's retained pristine copy by the
  /// in-place store repair (budget-blown store corruptions roll the round
  /// back instead and are charged to rounds_replayed).
  std::size_t store_words_repaired = 0;
  /// Checkpoint restores that found the newest generation rotted and fell
  /// back to an older verified one (charging the replayed rounds between
  /// the two generation tags to rounds_replayed).
  std::size_t checkpoint_fallbacks = 0;
  /// Proactive durable-store scrub sweeps executed (scrub interval).
  std::size_t scrub_passes = 0;

  // On-disk durability (all zero unless durability is armed — clean
  // non-persistent runs never touch the disk).
  /// Durable generations persisted (checkpoint files atomically published).
  std::size_t disk_checkpoints_written = 0;
  /// Total 64-bit words written across those files (headers + payloads).
  std::size_t disk_checkpoint_words = 0;
  /// Successful --resume loads from an on-disk generation.
  std::size_t resume_loads = 0;
  /// Resume loads that skipped past a rotted/torn newer on-disk generation
  /// to an older verified one.
  std::size_t disk_fallbacks = 0;
  /// FaultPlan events scheduled before the resume point and therefore not
  /// re-injected by the resumed process (they already fired — and were
  /// absorbed — before the persisted safe point).
  std::size_t faults_skipped_on_resume = 0;
};

/// The bit flips of one injected corruption: 1-3 (word, bit) positions
/// over a target of `words` words, drawn statelessly from mix64(a, b, c)
/// like every other random decision in the library.  A draw that repeats
/// an earlier one is dropped: an even number of flips of one bit would
/// cancel, and every injected corruption must genuinely differ from the
/// pristine words (detected == injected whenever integrity is on).
struct BitFlips {
  std::size_t count = 0;
  std::size_t word[3] = {};
  unsigned bit[3] = {};
};
[[nodiscard]] BitFlips pick_flips(std::uint64_t a, std::uint64_t b,
                                  std::uint64_t c, std::size_t words);

/// Bounds-checked word cursor over an engine's durable "__engine" section;
/// running off the end throws the typed CheckpointError.
class SectionReader {
 public:
  explicit SectionReader(std::span<const std::uint64_t> words)
      : words_(words) {}
  std::uint64_t take();
  /// Reads a raw-copyable value (an engine's Metrics) stored by append_raw.
  template <class T>
  void take_raw(T& out) {
    static_assert(std::has_unique_object_representations_v<T>);
    static_assert(sizeof(T) % sizeof(std::uint64_t) == 0);
    const std::size_t n = sizeof(T) / sizeof(std::uint64_t);
    if (words_.size() - at_ < n) truncated();
    std::memcpy(static_cast<void*>(&out), words_.data() + at_, sizeof(T));
    at_ += n;
  }

 private:
  [[noreturn]] static void truncated();
  std::span<const std::uint64_t> words_;
  std::size_t at_ = 0;
};

/// Appends a raw-copyable value as whole words.  The guards keep a padded
/// or non-trivial field from silently breaking the on-disk format.
template <class T>
void append_raw(std::vector<std::uint64_t>& out, const T& value) {
  static_assert(std::has_unique_object_representations_v<T>);
  static_assert(sizeof(T) % sizeof(std::uint64_t) == 0);
  const std::size_t base = out.size();
  out.resize(base + sizeof(T) / sizeof(std::uint64_t));
  std::memcpy(out.data() + base, &value, sizeof(T));
}

/// What an engine exposes to the harness: verbs over its own staging, each
/// a function the engine already has.  Called only on rounds that carry
/// fault events, in scrubs and at safe points — never on the fault-free
/// hot path.  "Node" is a machine (MPC) or a player (clique).
class RoundTransport {
 public:
  /// Rounds completed so far: the round index of the next exchange.
  [[nodiscard]] virtual std::size_t round() const = 0;

  // Round capture and rollback.
  /// Captures the staged round (and Metrics) as the rollback point;
  /// returns the words captured.
  virtual std::size_t capture_round() = 0;
  /// Reinstates the captured round, Metrics included.
  virtual void rollback_round() = 0;
  /// Frees the capture once the round has settled.
  virtual void release_round() = 0;

  // Flushes.
  /// Words `node` has staged for the exchange — what a lost flush costs.
  [[nodiscard]] virtual std::size_t staged_words(std::size_t node) const = 0;
  /// Destroys `node`'s staged outbound flush.  `stands`: no rollback will
  /// bring it back, so the audit charges the loss.
  virtual void lose_flush(std::size_t node, bool stands) = 0;
  /// The flush hits the wire twice (no recovery).
  virtual void duplicate_flush(std::size_t node) = 0;
  /// The flush misses the barrier and lands with the next round (no
  /// recovery).
  virtual void delay_flush(std::size_t node) = 0;

  // Wire integrity.
  /// Retains `node`'s pristine staged stream, then flips pick_flips(round,
  /// node, ordinal) bits in it; returns the bits flipped (0 when empty).
  virtual std::size_t corrupt_wire(std::size_t node, std::size_t round,
                                   std::size_t ordinal) = 0;
  /// Does `node`'s staged stream match its append-time checksum?
  [[nodiscard]] virtual bool wire_ok(std::size_t node) const = 0;
  /// Serves the retained pristine stream back; returns the words resent.
  virtual std::size_t retransmit(std::size_t node) = 0;
  /// Words in `node`'s staged stream (the re-delivery a rollback owes).
  [[nodiscard]] virtual std::size_t wire_words(std::size_t node) const = 0;

  // Store integrity.
  /// Retains the store entry `node`'s event hits, then flips bits in it;
  /// returns the bits flipped (0 when there is nothing stored).
  virtual std::size_t corrupt_store(std::size_t node, std::size_t round,
                                    std::size_t ordinal) = 0;
  /// Does the entry the last corrupt_store hit match its digest?
  [[nodiscard]] virtual bool store_ok() const = 0;
  /// Reinstates the retained entry in place; returns the words restored.
  virtual std::size_t repair_store() = 0;
  /// The scrub's verification of the store and the staged streams; throws
  /// IntegrityError on rot that escaped repair.
  virtual void verify_at_rest() = 0;

  // Delivery.
  /// Runs the round: verifies, delivers, counts.
  virtual void deliver() = 0;
  /// Words a recovered crashed node re-fetches after the round.
  [[nodiscard]] virtual std::size_t refetch_words(std::size_t node) const = 0;
  /// Blanks what a dark (crashed, unrecovered) node received.
  virtual void go_dark(std::size_t node) = 0;

  // The engine's own durable section: Metrics first, then whatever else
  // straddles a safe point.  The harness appends its crash count.
  virtual void save_engine_state(std::vector<std::uint64_t>& out) const = 0;
  virtual void load_engine_state(SectionReader& in) = 0;

 protected:
  ~RoundTransport() = default;
};

/// The nouns an engine's error messages use.
struct HarnessNouns {
  const char* node;   ///< "machine" / "player"
  const char* store;  ///< "payload store" / "broadcast store"
};

class RoundHarness {
 public:
  RoundHarness(RoundTransport& transport, FaultMetrics& metrics,
               HarnessNouns nouns, std::size_t num_nodes, bool integrity);
  RoundHarness(const RoundHarness&) = delete;
  RoundHarness& operator=(const RoundHarness&) = delete;

  /// Attaches a deterministic fault schedule, consulted at every round
  /// boundary (round index = Metrics::rounds at entry).  `registry`, when
  /// given, is the driver's checkpoint registry: it is captured alongside
  /// the engine's round capture at faulty rounds, restored on rollback,
  /// swept by the scrub and persisted at safe points — kept even with a
  /// null or empty plan, since durability persists through it.  With
  /// `recover` false nothing rolls back: crashed nodes go dark for the
  /// round and duplicated or delayed flushes hit the wire as such.  The
  /// plan must outlive the engine's use of it.
  void attach(const FaultPlan* plan, CheckpointRegistry* registry,
              bool recover);

  /// The attached plan (nullptr when none or empty).
  [[nodiscard]] const FaultPlan* plan() const noexcept { return plan_; }
  [[nodiscard]] CheckpointRegistry* registry() const noexcept {
    return registry_;
  }
  /// Crashes absorbed by recovery so far (checked against the plan's
  /// crash_budget).
  [[nodiscard]] std::size_t crashes_recovered() const noexcept {
    return crashes_recovered_;
  }

  /// The faulty-round protocol for a round whose `events` are non-empty:
  /// capture (copy-on-fault), apply each event in order, run the round,
  /// settle the overhead counters.  Replaces the transport's deliver() for
  /// that round.
  void run_faulty_round(std::span<const FaultEvent> events);

  /// Absorbs one recovered crash against the plan's crash budget; throws
  /// FaultBudgetError naming the node and round once the budget is spent.
  /// `where` qualifies the round in the message (e.g. " (lenzen batch)").
  void absorb_crash(std::size_t node, std::size_t round,
                    std::string_view where = {});

  /// The opt-in proactive scrub, every `interval`-th round (0 = never):
  /// the transport's verification of the store and the streams, then a
  /// re-verification of every retained checkpoint generation.  Pure
  /// verification — inert on a clean run except for
  /// FaultMetrics::scrub_passes.  Call only with integrity on.
  void maybe_scrub(std::size_t round, std::size_t interval) {
    if (interval != 0 && (round + 1) % interval == 0) scrub();
  }

  /// Arms on-disk durability (see fault/durable.h): a DurableRing is
  /// opened (and wiped unless `options.resume`) under `options.dir`, and
  /// `scope` becomes the configuration signature baked into every file —
  /// a resume loads only checkpoints whose scope matches exactly.  No-op
  /// when `options.dir` is empty.
  void set_durability(const DurableOptions& options, std::string scope);

  /// A driver-announced safe point (the registered providers' state is
  /// self-consistent and the message plane quiescent).  With durability
  /// armed: polls the stop flag (flushing a final generation and throwing
  /// ResumableInterrupt when stopping) and persists one durable generation
  /// every `every`-th call.  No-op without durability.
  void safe_point();

  /// Resume attempt (once, after the providers are registered and any plan
  /// attached, before the first round): loads the newest verified on-disk
  /// generation for the scope, reinstates every provider and the engine's
  /// "__engine" section, and counts plan events at already-completed
  /// rounds into faults_skipped_on_resume.  True when a checkpoint was
  /// loaded; false on a fresh start (durability off, no resume asked,
  /// nothing on disk, or a scope mismatch).  Throws CheckpointError when
  /// files exist for this scope but every generation fails verification.
  bool try_resume();

 private:
  /// Per-round overhead tallies, settled into FaultMetrics after the round
  /// (a rollback mid-round restores Metrics wholesale).
  struct Tally {
    std::size_t replays = 0;
    std::size_t resent = 0;
    std::size_t applied = 0;
    std::size_t corrupted = 0;
    std::size_t detected = 0;
    std::size_t retransmitted = 0;
    std::size_t store_corrupted = 0;
    std::size_t store_detected = 0;
    std::size_t store_repaired = 0;
    std::size_t fallbacks = 0;
    std::size_t ckpt_rot = 0;
  };

  /// Rolls the round back for `node`'s fault at `round`: the transport's
  /// round capture, then the verified registry restore.
  void roll_back(std::size_t node, std::size_t round, Tally& tally);
  /// Verified checkpoint restore with generation fallback: restores the
  /// newest registry generation if it verifies; otherwise falls back to
  /// the next older verified one — deterministic replay from it would
  /// reconstruct exactly the live provider state, so the newest image is
  /// recaptured from live state and the replayed rounds are charged — and
  /// throws CheckpointError naming `node` and `round` when every
  /// generation is bad.
  void restore_registry(std::size_t node, std::size_t round, Tally& tally);
  /// A detected corruption of `what` past the retransmit budget: rolls the
  /// round back, or throws IntegrityError when recovery is off.
  void escalate(std::size_t node, std::size_t round, const char* what,
                Tally& tally);
  void scrub();
  /// Persists one durable generation (provider sections + "__engine").
  void persist();

  RoundTransport& transport_;
  FaultMetrics& metrics_;
  HarnessNouns nouns_;
  std::size_t num_nodes_;
  bool integrity_;

  // Fault machinery (see attach). Pointers are borrowed.
  const FaultPlan* plan_ = nullptr;
  CheckpointRegistry* registry_ = nullptr;
  bool recover_ = true;
  std::size_t crashes_recovered_ = 0;
  /// Per-faulty-round scratch: nodes whose lost deliveries recovery
  /// re-fetches / nodes that went dark without recovery.
  std::vector<std::size_t> crashed_;
  std::vector<std::size_t> dark_;

  // On-disk durability (see set_durability).
  DurableOptions durable_;
  std::string scope_;
  std::optional<DurableRing> ring_;
  /// Safe points announced this process (not persisted: it only paces the
  /// persistence cadence).
  std::size_t safe_points_ = 0;
  /// Serialization scratch recycled across persists (provider sections
  /// followed by one "__engine" section), its payload buffers swapped with
  /// the ring's previous generation on every save.
  std::vector<DurableSection> scratch_;
};

}  // namespace mpcg::fault

#endif  // MPCG_FAULT_ROUND_HARNESS_H
