// On-disk checkpoint durability: the process-boundary extension of the
// verified generation ring (see fault/checkpoint.h).
//
// A slot file holds one *chain* of generations, all 64-bit little-endian
// words: one full *base* followed by append-only *delta records*.
//
// The base is one complete checkpoint:
//
//   [0] magic "MPCGCKPT"      [1] format version (kVersion)
//   [2] seq (monotonic)       [3] round tag
//   [4] scope length (bytes)  [..] scope string, zero-padded to words
//   [k] section count
//   per section: name length (bytes), padded name words,
//                payload word count, payload FNV-1a digest
//   concatenated section payloads
//   trailer: FNV-1a digest over every preceding word of the base
//
// Each record is the next generation as dirty ranges against the one
// before it (the encoding CheckpointRegistry charges; see
// dirty_range_cost):
//
//   [0] magic "MPCGDLTA"      [1] seq (previous + 1)
//   [2] round tag             [3] record length (words, seal included)
//   [4] header seal: FNV-1a over words 0-3
//   per section (the base's sections, in order): payload word count,
//     then either kWholeSection and the whole payload (a resized section,
//     or one whose ranges would cost more), or a range count and, per
//     maximal dirty stretch, its offset, its length and the changed words
//   seal: FNV-1a over every preceding word of the record
//
// A base is written to a temp name and published with one atomic
// std::rename, so a base is never torn; records are appended in place.
// A chain loads as its base plus its longest verified record prefix: a
// complete record that fails verification ends the chain there (a
// fallback when that chain is the one loaded: the newest generations are
// lost), while a record cut short at end of file — a kill mid-append —
// ends it silently.  `seq` orders
// generations across process restarts (round tags are not monotonic
// across nested drivers, e.g. the integral-matching inner runs restart
// engine rounds).  The scope string doubles as a configuration signature:
// a checkpoint written by a different driver / graph / cluster shape never
// hijacks a resume — it reads as "no checkpoint", a clean fresh start.
//
// DurableRing keeps two chains, one per slot, and mirrors the in-memory
// generation ring: the newest chain grows by records, and a new base goes
// into the other slot whenever the newest chain's log would outgrow its
// base, so one rotted generation always has an older verified one behind
// it.  load() takes the chain with the highest verified seq, and throws
// the typed CheckpointError (naming file, round, and the failing provider
// sections) only when no slot of the requested scope verifies.
#ifndef MPCG_FAULT_DURABLE_H
#define MPCG_FAULT_DURABLE_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace mpcg::fault {

/// Thrown out of a run that was asked to stop (SIGTERM/SIGINT via a stop
/// flag, or the stop_after_safe_points test hook) after one final durable
/// generation was flushed: the process may exit and be relaunched with
/// --resume. Distinct from CheckpointError — nothing is wrong.
class ResumableInterrupt : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// One named payload inside a durable checkpoint file — a provider's
/// serialized state, or an engine's own "__engine" section.
struct DurableSection {
  std::string name;
  std::vector<std::uint64_t> payload;
};

/// One maximal stretch of words in which two same-length section payloads
/// differ: the unit of a delta record (see dirty_range_cost in
/// fault/checkpoint.h).
struct DirtyRange {
  std::size_t offset = 0;
  std::size_t length = 0;
};

/// One generation: a parsed (or to-be-written) checkpoint.
struct DurableCheckpoint {
  std::uint64_t seq = 0;
  std::uint64_t round = 0;
  std::string scope;
  std::vector<DurableSection> sections;
};

/// Serializes and atomically publishes `ckpt` at `path` as a base (temp
/// file + std::rename), replacing any chain there. Throws CheckpointError
/// on I/O failure. Returns the number of 64-bit words written (header +
/// payloads + trailer).
std::size_t write_checkpoint_file(const std::string& path,
                                  const DurableCheckpoint& ckpt);

/// Same, without materializing a DurableCheckpoint: payloads stream from
/// `sections` (borrowed, not consumed) straight into the file.
std::size_t write_checkpoint_file(const std::string& path, std::uint64_t seq,
                                  std::uint64_t round,
                                  const std::string& scope,
                                  const std::vector<DurableSection>& sections);

/// A loaded generation.
struct DurableLoad {
  DurableCheckpoint checkpoint;
  /// From read_checkpoint_file: a complete record failed verification, so
  /// the chain was cut before it. From DurableRing::load: some slot's base
  /// failed, or the loaded chain itself was cut — so an older verified
  /// generation may have been used instead of the newest one written.
  bool fallback = false;
  /// Delta records replayed onto the loaded chain's base.
  std::size_t records = 0;
};

/// Reads a slot file's chain: verifies its base and replays the longest
/// verified record prefix. Throws CheckpointError — naming the file, the
/// round tag when recoverable, and the failing section (provider) names on
/// payload rot — when the base is anything short of bit-exact: bad magic,
/// unsupported (stale) version, truncation at any boundary, per-section
/// digest mismatch, trailer mismatch.
[[nodiscard]] DurableLoad read_checkpoint_file(const std::string& path);

/// Two-chain on-disk generation ring under one directory.
class DurableRing {
 public:
  static constexpr std::size_t kSlots = 2;

  /// Creates `dir` if missing and scans the existing slots so subsequent
  /// saves continue the sequence. Call reset() right after construction for
  /// a fresh (non-resume) start, or load() for a resume.
  explicit DurableRing(std::string dir);

  /// Unlinks both slots (and stray temp files): a fresh durable run must
  /// never let a stale same-scope file from a previous run outrank its own
  /// checkpoints by sequence number.
  void reset();

  /// Persists one generation (seq = newest seen + 1): a delta record
  /// appended to the newest chain when this ring wrote that chain and the
  /// other slot holds an older verified generation, else a new base in the
  /// other slot. Takes the payload buffers: the ring keeps this generation
  /// to diff the next save against, and hands back in `sections` the
  /// previous generation's buffers (stale contents, reusable capacity), so
  /// a caller refilling the same scratch allocates nothing. Returns the
  /// number of words written to disk.
  std::size_t save(std::uint64_t round, const std::string& scope,
                   std::vector<DurableSection>& sections);

  /// Newest-verified-first load of a checkpoint matching `scope`.
  /// Returns nullopt when no slot file exists, or when every readable slot
  /// belongs to a different scope (both are clean fresh starts). Throws
  /// CheckpointError aggregating the per-file reasons when files exist but
  /// none verifies for this scope. After a load the ring never appends to
  /// the loaded chain: the next save starts a base in the other slot.
  [[nodiscard]] std::optional<DurableLoad> load(const std::string& scope);

  [[nodiscard]] const std::string& dir() const noexcept { return dir_; }
  [[nodiscard]] std::string slot_path(std::size_t slot) const;

 private:
  void rescan();
  /// Appends `sections` to the newest chain as a delta record against
  /// prev_; returns 0, writing nothing, when the record would make the
  /// chain's log outgrow its base.
  std::size_t append_record(std::uint64_t round,
                            const std::vector<DurableSection>& sections);

  std::string dir_;
  std::uint64_t next_seq_ = 1;
  /// Slot of the newest chain; the next base goes into the other one.
  std::size_t newest_ = kSlots - 1;
  /// Per slot: holds a verified generation of this ring's scope, written
  /// by this ring or loaded by it.
  bool verified_[kSlots] = {false, false};
  /// This ring wrote the newest chain and prev_ is its newest generation,
  /// so records may extend it.
  bool appendable_ = false;
  /// Words of the newest chain's base and of the records after it.
  std::size_t base_words_ = 0;
  std::size_t log_words_ = 0;
  /// The generation most recently saved (the next record's diff base).
  DurableCheckpoint prev_;
  /// Diff scratch: every section's dirty stretches, back to back.
  std::vector<DirtyRange> ranges_;
};

/// Driver-facing durability options, carried by every flagship driver's
/// option struct. Durability is off while `dir` is empty; everything else
/// is then ignored.
struct DurableOptions {
  /// Checkpoint directory (the DurableRing lives here). Empty = off.
  std::string dir;
  /// Persist every K-th safe point (driver loop boundary). 1 = every one.
  std::size_t every = 1;
  /// In-memory CheckpointRegistry ring depth; 0 = the registry default.
  std::size_t generations = 0;
  /// Resume from the newest verified on-disk generation instead of
  /// starting fresh (a scope mismatch still starts fresh).
  bool resume = false;
  /// Graceful-stop flag (set by a SIGTERM/SIGINT handler): polled at every
  /// safe point; when set, one final generation is flushed and
  /// ResumableInterrupt is thrown.
  const std::atomic<bool>* stop_flag = nullptr;
  /// Test hook: behave as if the stop flag was set at the N-th safe point
  /// (0 = never) — deterministic kill points for resume coupling tests.
  std::size_t stop_after_safe_points = 0;

  [[nodiscard]] bool enabled() const noexcept { return !dir.empty(); }
};

}  // namespace mpcg::fault

#endif  // MPCG_FAULT_DURABLE_H
