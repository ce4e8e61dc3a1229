// Driver-side round-level checkpointing with verified generations.
//
// The engine's Snapshot covers the *message plane*; the driver's logical
// state (y values, freeze levels, the active frontier, ...) lives outside
// the engine and must be captured alongside it for a crash rollback to be
// sound.  Drivers register named save/restore callbacks here; the engine
// calls capture() just before applying a fault event and restore() when a
// crash forces a round replay.
//
// Checkpoints are materialized copy-on-fault: because the FaultPlan is
// deterministic and known up front, the engine only asks for a capture at
// rounds that actually carry a fault event, so fault-free rounds pay one
// branch and zero copies (see DESIGN.md, "Fault model & recovery").
//
// Captures after the first are charged *incrementally*: the registry keeps
// the newest generation's per-provider images and diffs the fresh
// serialization against them, so a capture costs (and reports) only the
// dirty ranges — two header words plus the changed words per maximal
// differing stretch, never more than a full re-serialization.  Each
// retained image is always the full fresh state, so restore() stays a
// bit-identical full reinstatement; the delta encoding changes only what a
// capture is *charged* in Metrics::checkpoint_bytes, which is exactly what
// a real system would ship to stable storage.
//
// The registry retains a small ring of *generations* (default 2): every
// capture() pushes a new newest generation and evicts the oldest past the
// ring capacity.  Each generation carries per-provider FNV-1a checksums
// folded at capture time, so the images themselves are no longer trusted
// blindly: restore() verifies the newest generation and falls back to the
// next older verified one when storage rot (FaultKind::kCorruptCheckpoint)
// has flipped bits in it — a fallback restore hands back strictly older
// state, so the caller owes the replay of the rounds in between.  Only
// when *every* retained generation fails verification does restore() throw
// CheckpointError: the cluster has lost its last good copy.
#ifndef MPCG_FAULT_CHECKPOINT_H
#define MPCG_FAULT_CHECKPOINT_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "fault/durable.h"

namespace mpcg::fault {

/// Thrown when a checkpoint restore finds no generation that passes its
/// per-provider checksums — every retained image has rotted and the
/// cluster is unrecoverable.  Engines decorate the message with the
/// machine and round of the fault that forced the restore.
class CheckpointError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// The one diff engine behind both the registry's incremental capture
/// charge and the on-disk delta records (fault/durable.h): walks the
/// maximal stretches where `now` differs from `prev` (same length) and
/// returns their cost, two header words (offset, length) plus the changed
/// words per stretch, capped at now.size() — a full re-serialization.
/// Each stretch is appended to `ranges` when given; once the cap is hit
/// the walk stops early and the appended stretches are incomplete.
std::size_t dirty_range_cost(std::span<const std::uint64_t> prev,
                             std::span<const std::uint64_t> now,
                             std::vector<DirtyRange>* ranges = nullptr);

/// A registry of named state providers.  capture() serializes every
/// provider into one flat word buffer (a new ring generation); restore()
/// hands each provider back exactly the words it wrote, from the newest
/// generation that verifies.
class CheckpointRegistry {
 public:
  using Word = std::uint64_t;
  /// Appends the provider's state to the buffer.
  using SaveFn = std::function<void(std::vector<Word>&)>;
  /// Reinstates the provider's state from the words it saved.
  using RestoreFn = std::function<void(std::span<const Word>)>;

  /// Generations retained by default: the newest image plus one fallback.
  static constexpr std::size_t kDefaultGenerations = 2;

  CheckpointRegistry() = default;
  /// A ring holding up to `generations` images (clamped to at least 1).
  explicit CheckpointRegistry(std::size_t generations)
      : generations_(generations == 0 ? 1 : generations) {}

  void register_state(std::string name, SaveFn save, RestoreFn restore);

  /// Serializes all providers (in registration order) into a new newest
  /// generation tagged with `round`, evicting the oldest past the ring
  /// capacity.  Returns the number of words this capture is charged: the
  /// full serialization the first time or whenever a provider's size
  /// changes, and the dirty-range delta against the previous newest
  /// generation otherwise (capped at a full save).
  std::size_t capture(std::size_t round = 0);

  /// Replays the newest generation that passes verification into every
  /// provider.  Restoring from an older generation (because newer ones
  /// rotted) counts toward fallback_restores() and leaves the caller owing
  /// the replay of the rounds between the two generation tags.  Throws
  /// CheckpointError when every retained generation fails verification.
  /// No-op if capture() has never run.
  void restore();

  /// Recomputes per-provider checksums of the generation `age` steps below
  /// the newest (0 = newest).  False once kCorruptCheckpoint has flipped a
  /// bit in the image.
  [[nodiscard]] bool generation_ok(std::size_t age) const;

  /// Deterministic bit rot (FaultKind::kCorruptCheckpoint): flips 1–3
  /// deduplicated bits in generation `age`'s image, positions drawn from
  /// mix64(a, b, c·) like every other injected corruption.  Returns the
  /// number of bits flipped (0 when the image is empty).
  std::size_t corrupt_generation(std::size_t age, std::uint64_t a,
                                 std::uint64_t b, std::uint64_t c);

  /// Re-serializes the live providers into the newest generation in place
  /// (round tag kept), recomputing its checksums.  This is how an engine
  /// repairs a rotted newest image after verifying an older generation:
  /// deterministic replay from that older generation would reconstruct
  /// exactly the live state, so the live state *is* the newest image.
  void recapture_newest();

  /// Fresh-serializes every provider into one named DurableSection each,
  /// in registration order, into a caller-owned scratch vector: the first
  /// num_providers() entries are (re)filled, reusing their payload
  /// capacity, and entries beyond that (e.g. an engine's trailing
  /// "__engine" section) are left untouched.  Independent of capture(): it
  /// touches neither the generation ring nor the capture/delta counters,
  /// so persisting to disk never perturbs the in-memory checkpoint
  /// accounting.
  void save_sections_into(std::vector<DurableSection>& out);

  /// Reinstates every registered provider from the same-named section.
  /// Sections with no matching provider (e.g. an engine's "__engine"
  /// payload) are ignored; a registered provider with no section means the
  /// file was written by a differently-shaped run and throws
  /// CheckpointError naming the missing provider.
  void install_sections(std::span<const DurableSection> sections);

  /// Loads the newest verified on-disk generation for `scope` and installs
  /// the provider sections.  Returns the full load (so the caller can
  /// consume engine-owned sections and the round tag), or nullopt on a
  /// clean fresh start.  Propagates DurableRing::load's typed errors.
  std::optional<DurableLoad> load_from(DurableRing& ring,
                                       const std::string& scope);

  /// Names of the providers whose images fail verification in generation
  /// `age` (0 = newest); empty when the generation verifies.
  [[nodiscard]] std::vector<std::string> rotted_providers(
      std::size_t age) const;

  [[nodiscard]] bool has_checkpoint() const noexcept { return !ring_.empty(); }
  /// Ring capacity.
  [[nodiscard]] std::size_t generations() const noexcept {
    return generations_;
  }
  /// Generations currently retained (≤ generations()).
  [[nodiscard]] std::size_t generations_held() const noexcept {
    return ring_.size();
  }
  /// Round tag of generation `age` (0 = newest).
  [[nodiscard]] std::size_t generation_round(std::size_t age) const {
    return gen(age).round;
  }
  /// Words held by the newest generation — the full retained image, not
  /// the incremental charge capture() returned.
  [[nodiscard]] std::size_t checkpoint_words() const noexcept {
    return ring_.empty() ? 0 : ring_.back().buffer.size();
  }
  /// Words the most recent capture() was charged (0 before any capture).
  [[nodiscard]] std::size_t last_capture_words() const noexcept {
    return last_capture_words_;
  }
  /// Captures that were charged as dirty-range deltas rather than full
  /// serializations.
  [[nodiscard]] std::size_t delta_captures() const noexcept {
    return delta_captures_;
  }
  [[nodiscard]] std::size_t captures() const noexcept { return captures_; }
  [[nodiscard]] std::size_t restores() const noexcept { return restores_; }
  /// Restores that skipped past at least one corrupt newer generation.
  [[nodiscard]] std::size_t fallback_restores() const noexcept {
    return fallback_restores_;
  }
  /// Round tag of the generation the last restore() replayed (0 before
  /// any restore).
  [[nodiscard]] std::size_t last_restored_round() const noexcept {
    return last_restored_round_;
  }
  [[nodiscard]] std::size_t num_providers() const noexcept {
    return providers_.size();
  }

 private:
  struct Provider {
    std::string name;
    SaveFn save;
    RestoreFn restore;
  };
  /// One provider's slice of a generation's buffer, with the checksum
  /// folded over it at capture time.
  struct Image {
    std::size_t offset = 0;
    std::size_t words = 0;
    Word csum = 0;
  };
  /// One retained checkpoint: the full flat serialization of every
  /// provider as of round `round`.
  struct Generation {
    std::vector<Word> buffer;
    std::vector<Image> images;  ///< Parallel to providers_ at capture time.
    std::size_t round = 0;
  };

  [[nodiscard]] const Generation& gen(std::size_t age) const {
    return ring_[ring_.size() - 1 - age];
  }
  [[nodiscard]] Generation& gen(std::size_t age) {
    return ring_[ring_.size() - 1 - age];
  }

  std::size_t generations_ = kDefaultGenerations;
  std::vector<Provider> providers_;
  /// ring_.back() is the newest generation; eviction pops the front.
  std::vector<Generation> ring_;
  /// Scratch recycled from evicted generations, so steady-state captures
  /// allocate nothing.
  std::vector<Word> fresh_;
  std::size_t captures_ = 0;
  std::size_t restores_ = 0;
  std::size_t fallback_restores_ = 0;
  std::size_t last_restored_round_ = 0;
  std::size_t last_capture_words_ = 0;
  std::size_t delta_captures_ = 0;
};

}  // namespace mpcg::fault

#endif  // MPCG_FAULT_CHECKPOINT_H
