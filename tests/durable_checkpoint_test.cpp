// On-disk checkpoint durability (fault/durable.h): file-format round-trip,
// the corruption-safety property (a load after ANY single-bit flip or any
// truncation must fall back to an older verified generation or throw the
// typed CheckpointError — never silently hand back corrupt state), the
// two-slot ring semantics, and driver-level stop/resume bit-identity via
// the deterministic stop_after_safe_points kill point.
//
// The process-boundary version of the same contract (real fork + SIGKILL +
// --resume) lives in tools/mpcg_chaos --kill-storms; these tests cover the
// in-process seams deterministically.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/integral_matching.h"
#include "core/matching_mpc.h"
#include "core/mis_cclique.h"
#include "core/mis_mpc.h"
#include "fault/checkpoint.h"
#include "fault/durable.h"
#include "fault/fault_plan.h"
#include "fault/reprovision.h"
#include "graph/validation.h"
#include "test_util.h"
#include "util/fnv.h"

namespace mpcg {
namespace {

using fault::CheckpointError;
using fault::DurableCheckpoint;
using fault::DurableRing;
using fault::DurableSection;
using fault::ResumableInterrupt;
using testing::make_family;

/// Self-cleaning scratch directory for ring/file tests.
struct TempDir {
  std::string path;
  TempDir() {
    const char* base = std::getenv("TMPDIR");
    std::string tmpl =
        std::string(base != nullptr && *base != '\0' ? base : "/tmp") +
        "/mpcg_durable_test.XXXXXX";
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    if (mkdtemp(buf.data()) == nullptr) {
      throw std::runtime_error("mkdtemp failed");
    }
    path = buf.data();
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
};

std::vector<char> slurp(const std::string& p) {
  std::ifstream in(p, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void spit(const std::string& p, const std::vector<char>& bytes) {
  std::ofstream out(p, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

DurableCheckpoint sample_checkpoint() {
  DurableCheckpoint c;
  c.seq = 7;
  c.round = 42;
  c.scope = "test:scope:1";
  c.sections.push_back({"alpha", {1, 2, 3, 0xdeadbeefULL}});
  c.sections.push_back({"__engine", {9, 8, 7, 6, 5}});
  c.sections.push_back({"empty", {}});
  return c;
}

bool same_checkpoint(const DurableCheckpoint& a, const DurableCheckpoint& b) {
  if (a.seq != b.seq || a.round != b.round || a.scope != b.scope ||
      a.sections.size() != b.sections.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.sections.size(); ++i) {
    if (a.sections[i].name != b.sections[i].name ||
        a.sections[i].payload != b.sections[i].payload) {
      return false;
    }
  }
  return true;
}

/// Generation `seq` of a small evolving provider state: a fixed-size
/// section with a few changed stretches per generation (shipped as dirty
/// ranges), a growing section (resized, so shipped whole), an engine-like
/// section whose ranges would cost more than the section (shipped whole)
/// and an empty one.
DurableCheckpoint generation(std::uint64_t seq) {
  std::vector<std::uint64_t> fixed(128);
  for (std::size_t i = 0; i < fixed.size(); ++i) fixed[i] = i * 1000;
  for (std::uint64_t k = 1; k <= seq; ++k) {
    fixed[(k * 37) % 128] += k;
    fixed[(k * 37 + 1) % 128] ^= k << 8;
    fixed[(k * 11 + 5) % 128] += 1;
  }
  std::vector<std::uint64_t> grow(seq);
  for (std::uint64_t k = 0; k < seq; ++k) grow[k] = k * k + seq;
  DurableCheckpoint c;
  c.seq = seq;
  c.round = 10 * seq;
  c.scope = "s";
  c.sections.push_back({"fixed", std::move(fixed)});
  c.sections.push_back({"grow", std::move(grow)});
  c.sections.push_back({"__engine", {seq, seq * 2, 7}});
  c.sections.push_back({"empty", {}});
  return c;
}

/// Persists generation(seq) through `ring`; returns the words written.
std::size_t save_generation(DurableRing& ring, std::uint64_t seq) {
  DurableCheckpoint c = generation(seq);
  return ring.save(c.round, c.scope, c.sections);
}

/// The slot holding the chain whose newest verified generation has the
/// highest seq.
std::size_t newest_slot(const DurableRing& ring) {
  std::size_t best = 0;
  std::uint64_t best_seq = 0;
  for (std::size_t slot = 0; slot < DurableRing::kSlots; ++slot) {
    std::error_code ec;
    if (!std::filesystem::exists(ring.slot_path(slot), ec)) continue;
    const auto c = fault::read_checkpoint_file(ring.slot_path(slot));
    if (c.checkpoint.seq > best_seq) {
      best_seq = c.checkpoint.seq;
      best = slot;
    }
  }
  return best;
}

/// A fresh ring under `dir` holding generations 1-5: bases of 1 and 2 in
/// the two slots, then generations 3-5 appended to 2's chain as records.
/// Returns the path of that newest chain (one base plus three records).
std::string five_generations(const std::string& dir) {
  DurableRing ring(dir);
  ring.reset();
  for (std::uint64_t seq = 1; seq <= 5; ++seq) save_generation(ring, seq);
  const std::string newest = ring.slot_path(newest_slot(ring));
  const auto chain = fault::read_checkpoint_file(newest);
  EXPECT_EQ(chain.checkpoint.seq, 5U);
  EXPECT_EQ(chain.records, 3U);
  return newest;
}

/// Words of the base at the head of the chain file `bytes`.
std::size_t base_words(const std::vector<char>& bytes) {
  std::vector<std::uint64_t> w(bytes.size() / sizeof(std::uint64_t));
  std::memcpy(w.data(), bytes.data(), w.size() * sizeof(std::uint64_t));
  std::size_t at = 5 + (w[4] + 7) / 8;  // header words and scope
  const std::uint64_t sections = w[at++];
  std::uint64_t payload = 0;
  for (std::uint64_t i = 0; i < sections; ++i) {
    at += 1 + (w[at] + 7) / 8;  // name
    payload += w[at];
    at += 2;  // word count, digest
  }
  return at + payload + 1;  // payloads, trailer
}

// ------------------------------------------------------------ file format

TEST(DurableCheckpoint, FileRoundTripIsBitExact) {
  TempDir td;
  const std::string path = td.path + "/ck.mpcg";
  const DurableCheckpoint c = sample_checkpoint();
  const std::size_t words = fault::write_checkpoint_file(path, c);
  EXPECT_GT(words, 0U);
  EXPECT_EQ(std::filesystem::file_size(path), words * sizeof(std::uint64_t));
  const auto back = fault::read_checkpoint_file(path);
  EXPECT_TRUE(same_checkpoint(c, back.checkpoint));
  EXPECT_FALSE(back.fallback);
  EXPECT_EQ(back.records, 0U);
}

TEST(DurableCheckpoint, ChainReplaysEveryRecordBitExactly) {
  // The ring's records against the previous generation rebuild every
  // generation exactly, dirty ranges and whole sections alike.
  TempDir td;
  DurableRing ring(td.path + "/ck");
  ring.reset();
  for (std::uint64_t seq = 1; seq <= 5; ++seq) {
    const std::size_t words = save_generation(ring, seq);
    const auto chain = fault::read_checkpoint_file(
        ring.slot_path(newest_slot(ring)));
    EXPECT_TRUE(same_checkpoint(chain.checkpoint, generation(seq)))
        << "generation " << seq;
    EXPECT_FALSE(chain.fallback);
    // Generations 1 and 2 are bases; 3-5 are records, far smaller.
    EXPECT_EQ(chain.records, seq <= 2 ? 0U : seq - 2);
    if (seq > 2) EXPECT_LT(words, 64U) << "generation " << seq;
  }
}

TEST(DurableCheckpoint, EverySingleBitFlipIsDetected) {
  // The corruption-safety property at file granularity, over a chain of
  // one base plus three records: flip one bit at EVERY byte position. A
  // flip in the base must throw the typed error; a flip in a record must
  // end the chain before it, flagged, and load the strictly older
  // generation bit-identically. The damaged generation never loads.
  TempDir td;
  const std::string path = five_generations(td.path + "/ck");
  const std::string mut = td.path + "/mut.mpcg";
  const std::vector<char> good = slurp(path);
  const std::size_t base_bytes = base_words(good) * sizeof(std::uint64_t);
  ASSERT_LT(base_bytes, good.size());
  for (std::size_t i = 0; i < good.size(); ++i) {
    std::vector<char> bad = good;
    bad[i] = static_cast<char>(bad[i] ^ (1 << (i % 8)));
    spit(mut, bad);
    if (i < base_bytes) {
      EXPECT_THROW((void)fault::read_checkpoint_file(mut), CheckpointError)
          << "flip at byte " << i << " was not detected";
      continue;
    }
    const auto loaded = fault::read_checkpoint_file(mut);
    EXPECT_TRUE(loaded.fallback) << "flip at byte " << i;
    EXPECT_LT(loaded.checkpoint.seq, 5U) << "flip at byte " << i;
    EXPECT_TRUE(same_checkpoint(loaded.checkpoint,
                                generation(loaded.checkpoint.seq)))
        << "flip at byte " << i;
  }
}

TEST(DurableCheckpoint, TruncationAtEveryBoundaryIsDetected) {
  // Truncate a chain of one base plus three records at every word
  // boundary (including the empty file) and at a ragged offset inside
  // every word. A cut inside the base must throw — bases are published by
  // rename, so a short one is rot, not a torn write. A cut after the base
  // is a kill mid-append: the chain loads its complete records, unflagged,
  // and a cut inside the last record loads the one before it.
  TempDir td;
  const std::string path = five_generations(td.path + "/ck");
  const std::string mut = td.path + "/mut.mpcg";
  const std::vector<char> good = slurp(path);
  const std::size_t word = sizeof(std::uint64_t);
  const std::size_t base = base_words(good);
  // Record ends (in words), from the chain's own length fields.
  std::vector<std::size_t> ends;
  {
    std::vector<std::uint64_t> w(good.size() / word);
    std::memcpy(w.data(), good.data(), good.size());
    for (std::size_t at = base; at < w.size(); at += w[at + 3]) {
      ends.push_back(at + w[at + 3]);
    }
    ASSERT_EQ(ends.size(), 3U);
    ASSERT_EQ(ends.back(), w.size());
  }
  for (std::size_t bytes = 0; bytes < good.size(); ++bytes) {
    if (bytes % word != 0 && bytes % word != 3) continue;
    spit(mut, std::vector<char>(good.begin(),
                                good.begin() +
                                    static_cast<std::ptrdiff_t>(bytes)));
    if (bytes < base * word) {
      EXPECT_THROW((void)fault::read_checkpoint_file(mut), CheckpointError)
          << "truncation to " << bytes << " bytes was not detected";
      continue;
    }
    std::uint64_t complete = 0;
    while (complete < ends.size() && ends[complete] * word <= bytes) {
      ++complete;
    }
    const auto loaded = fault::read_checkpoint_file(mut);
    EXPECT_FALSE(loaded.fallback) << "truncation to " << bytes << " bytes";
    EXPECT_EQ(loaded.records, complete);
    EXPECT_EQ(loaded.checkpoint.seq, 2U + complete);
    EXPECT_TRUE(same_checkpoint(loaded.checkpoint,
                                generation(loaded.checkpoint.seq)))
        << "truncation to " << bytes << " bytes";
  }
}

TEST(DurableCheckpoint, StaleVersionIsRejectedEvenWithValidTrailer) {
  // A future/stale format version must be rejected on its own — even when
  // the file is otherwise internally consistent (trailer recomputed).
  TempDir td;
  const std::string path = td.path + "/ck.mpcg";
  fault::write_checkpoint_file(path, sample_checkpoint());
  std::vector<char> bytes = slurp(path);
  const std::size_t words = bytes.size() / sizeof(std::uint64_t);
  std::vector<std::uint64_t> w(words);
  std::memcpy(w.data(), bytes.data(), bytes.size());
  w[1] -= 1;  // version word
  w[words - 1] =
      Fnv::digest(std::span<const std::uint64_t>(w.data(), words - 1));
  std::memcpy(bytes.data(), w.data(), bytes.size());
  spit(path, bytes);
  try {
    (void)fault::read_checkpoint_file(path);
    FAIL() << "stale version was accepted";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported checkpoint version 3 "
                                         "(want 4)"),
              std::string::npos)
        << e.what();
  }
}

// ------------------------------------------------------------- slot ring

TEST(DurableRing, ScopeMismatchIsACleanFreshStart) {
  TempDir td;
  DurableRing ring(td.path + "/ck");
  std::vector<DurableSection> sections = {{"s", {1, 2, 3}}};
  ring.save(1, "scope-a", sections);
  EXPECT_FALSE(ring.load("scope-b").has_value());
  EXPECT_TRUE(ring.load("scope-a").has_value());
}

TEST(DurableRing, EmptyDirectoryLoadsNothing) {
  TempDir td;
  DurableRing ring(td.path + "/ck");
  EXPECT_FALSE(ring.load("any").has_value());
}

TEST(DurableRing, NewestRotFallsBackForEveryBytePosition) {
  // The ring-level corruption-safety property: with a base of generation 1
  // in one slot and a chain of 2's base plus records 3-5 in the other,
  // flip one bit at EVERY byte position of the newest chain — every load
  // must come back as a strictly older generation with the fallback flag
  // set, bit-identical to what was saved: generation 1 for a flip in the
  // base, the record before the flipped one otherwise. No flip may surface
  // the damaged generation or escape unflagged.
  TempDir td;
  const std::string newest = five_generations(td.path + "/ck");
  DurableRing ring(td.path + "/ck");
  const std::vector<char> good = slurp(newest);
  const std::size_t base_bytes = base_words(good) * sizeof(std::uint64_t);

  for (std::size_t i = 0; i < good.size(); ++i) {
    std::vector<char> bad = good;
    bad[i] = static_cast<char>(bad[i] ^ (1 << (i % 8)));
    spit(newest, bad);
    const auto loaded = ring.load("s");
    ASSERT_TRUE(loaded.has_value()) << "flip at byte " << i;
    EXPECT_TRUE(loaded->fallback) << "flip at byte " << i;
    const std::uint64_t seq = loaded->checkpoint.seq;
    EXPECT_LT(seq, 5U) << "flip at byte " << i;
    if (i < base_bytes) EXPECT_EQ(seq, 1U) << "flip at byte " << i;
    EXPECT_TRUE(same_checkpoint(loaded->checkpoint, generation(seq)))
        << "flip at byte " << i;
  }
  spit(newest, good);  // restore
  const auto clean = ring.load("s");
  ASSERT_TRUE(clean.has_value());
  EXPECT_FALSE(clean->fallback);
  EXPECT_EQ(clean->records, 3U);
  EXPECT_TRUE(same_checkpoint(clean->checkpoint, generation(5)));
}

TEST(DurableRing, RollsOverToANewBaseInTheOtherSlot) {
  // Once the newest chain's log would outgrow its base, the next
  // generation is a new base in the other slot, replacing the older chain
  // (temp file + rename); the chain it rolled over from stays behind it as
  // the verified fallback.
  TempDir td;
  DurableRing ring(td.path + "/ck");
  ring.reset();
  std::uint64_t seq = 1;
  std::optional<std::size_t> found;
  for (; seq <= 40 && !found; ++seq) {
    const std::size_t before = newest_slot(ring);
    save_generation(ring, seq);
    const std::size_t after = newest_slot(ring);
    if (seq > 2 && after != before) found = after;
  }
  ASSERT_TRUE(found.has_value()) << "the chain never rolled over";
  const std::size_t rolled = *found;
  const std::uint64_t base_seq = seq - 1;
  EXPECT_GT(base_seq, 5U);
  const auto fresh = fault::read_checkpoint_file(ring.slot_path(rolled));
  EXPECT_EQ(fresh.records, 0U);
  EXPECT_TRUE(same_checkpoint(fresh.checkpoint, generation(base_seq)));
  const auto behind = fault::read_checkpoint_file(ring.slot_path(1 - rolled));
  EXPECT_EQ(behind.records, base_seq - 3);  // 3 .. base_seq-1
  EXPECT_TRUE(same_checkpoint(behind.checkpoint, generation(base_seq - 1)));
  EXPECT_FALSE(std::filesystem::exists(ring.slot_path(rolled) + ".tmp"));

  // The new chain grows by records again.
  save_generation(ring, base_seq + 1);
  const auto grown = fault::read_checkpoint_file(ring.slot_path(rolled));
  EXPECT_EQ(grown.records, 1U);
  EXPECT_TRUE(same_checkpoint(grown.checkpoint, generation(base_seq + 1)));

  // Rot in the new base falls back to the end of the older chain.
  std::vector<char> bytes = slurp(ring.slot_path(rolled));
  bytes[40] = static_cast<char>(bytes[40] ^ 0x04);
  spit(ring.slot_path(rolled), bytes);
  const auto loaded = ring.load("s");
  ASSERT_TRUE(loaded.has_value());
  EXPECT_TRUE(loaded->fallback);
  EXPECT_TRUE(same_checkpoint(loaded->checkpoint, generation(base_seq - 1)));
}

TEST(DurableRing, ResumeWritesItsFirstGenerationAsABaseInTheOtherSlot) {
  // A ring never appends to a chain another process wrote: after loading,
  // its next generation is a base in the slot that does not hold the
  // loaded one, with a strictly larger seq — also when the loaded chain
  // ended in a record torn by a kill mid-append, or in a rotted one. The
  // rotted record counts a fallback at that load only: once a newer
  // generation is on disk, the cut chain behind it has lost nothing newer.
  enum class Tail { kIntact, kTorn, kRotted };
  for (const Tail tail : {Tail::kIntact, Tail::kTorn, Tail::kRotted}) {
    SCOPED_TRACE("tail " + std::to_string(static_cast<int>(tail)));
    TempDir td;
    const std::string dir = td.path + "/ck";
    const std::string newest = five_generations(dir);
    std::vector<char> bytes = slurp(newest);
    if (tail == Tail::kTorn) bytes.resize(bytes.size() - 12);
    if (tail == Tail::kRotted) bytes[bytes.size() - 12] ^= 0x10;
    spit(newest, bytes);
    const std::uint64_t want = tail == Tail::kIntact ? 5 : 4;
    DurableRing resumed(dir);
    const auto loaded = resumed.load("s");
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->fallback, tail == Tail::kRotted);
    EXPECT_TRUE(same_checkpoint(loaded->checkpoint, generation(want)));

    const std::size_t loaded_slot = newest_slot(resumed);
    save_generation(resumed, want + 1);
    const std::string other = resumed.slot_path(1 - loaded_slot);
    const auto base = fault::read_checkpoint_file(other);
    EXPECT_EQ(base.records, 0U);
    EXPECT_TRUE(same_checkpoint(base.checkpoint, generation(want + 1)));
    // The loaded chain is left exactly as it was.
    EXPECT_EQ(slurp(newest), bytes);

    // A fresh load returns the newer generation, unflagged; the ring then
    // extends its own chain by records.
    DurableRing again(dir);
    const auto reloaded = again.load("s");
    ASSERT_TRUE(reloaded.has_value());
    EXPECT_FALSE(reloaded->fallback);
    EXPECT_TRUE(same_checkpoint(reloaded->checkpoint, generation(want + 1)));
    save_generation(resumed, want + 2);
    EXPECT_EQ(fault::read_checkpoint_file(other).records, 1U);
  }
}

TEST(DurableRing, AllSlotsRottenThrowsAggregateError) {
  TempDir td;
  DurableRing ring(td.path + "/ck");
  save_generation(ring, 1);
  save_generation(ring, 2);
  for (std::size_t slot = 0; slot < DurableRing::kSlots; ++slot) {
    std::vector<char> bytes = slurp(ring.slot_path(slot));
    bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 1);
    spit(ring.slot_path(slot), bytes);
  }
  try {
    (void)ring.load("s");
    FAIL() << "load with every slot rotted did not throw";
  } catch (const CheckpointError& e) {
    // The aggregate error names the slot files it rejected.
    EXPECT_NE(std::string(e.what()).find("ckpt-"), std::string::npos)
        << e.what();
  }
}

TEST(DurableRing, ResetDropsStaleFiles) {
  TempDir td;
  {
    DurableRing ring(td.path + "/ck");
    save_generation(ring, 1);
  }
  DurableRing ring(td.path + "/ck");
  ring.reset();
  EXPECT_FALSE(ring.load("s").has_value());
}

// ----------------------------------------------- driver stop/resume seams

TEST(DurableResume, MatchingStopsAndResumesBitIdentically) {
  // Stop 1 resumes from a lone base, stop 2 from the second slot's base,
  // and stop 6 from a chain that ends in records (the resumed process
  // writes its first generation as a base in the other slot).
  const Graph g = make_family("gnp_sparse", 1500, 5);
  MatchingMpcOptions opt;
  opt.seed = 5;
  const auto clean = matching_mpc(g, opt);
  for (const std::size_t stop_after : {1U, 2U, 6U}) {
    TempDir td;
    MatchingMpcOptions d = opt;
    d.durable.dir = td.path + "/ck";
    d.durable.stop_after_safe_points = stop_after;
    bool stopped = false;
    try {
      (void)matching_mpc(g, d);
    } catch (const ResumableInterrupt&) {
      stopped = true;
    }
    if (stop_after == 6) {
      const DurableRing ring(td.path + "/ck");
      const auto chain =
          fault::read_checkpoint_file(ring.slot_path(newest_slot(ring)));
      EXPECT_EQ(chain.checkpoint.seq, 6U);
      EXPECT_GE(chain.records, 2U);
    }
    MatchingMpcOptions r = opt;
    r.durable.dir = td.path + "/ck";
    r.durable.resume = true;
    const auto res = matching_mpc(g, r);
    EXPECT_EQ(res.x, clean.x) << "stop_after=" << stop_after;
    EXPECT_EQ(res.cover, clean.cover) << "stop_after=" << stop_after;
    EXPECT_EQ(res.freeze_iteration, clean.freeze_iteration);
    EXPECT_EQ(res.phases, clean.phases);
    EXPECT_EQ(res.total_iterations, clean.total_iterations);
    EXPECT_EQ(res.tail_iterations, clean.tail_iterations);
    if (stopped) EXPECT_EQ(res.metrics.resume_loads, 1U);
    EXPECT_TRUE(is_fractional_matching(g, res.x));
  }
}

TEST(DurableResume, MatchingResumesAtBoundariesWithFrozenState) {
  // Regression: phase boundaries on skewed (rmat) graphs carry nonzero
  // frozen/removed state, and the checkpoint stores y_old_cache_ values
  // that were *stale* in the interrupted process (their pending-refresh
  // dirty_ bits are not persisted). A resumed process that trusted them
  // froze fewer vertices in the re-entered phase and diverged; the fix
  // marks every vertex dirty in rebuild_after_resume so the caches
  // recompute from the restored flags. The late stop points below land on
  // exactly those dirty boundaries (the early ones are covered above).
  const Graph g = make_family("rmat", 3000, 9);
  MatchingMpcOptions opt;
  opt.seed = 9;
  const auto clean = matching_mpc(g, opt);
  for (const std::size_t stop_after : {4U, 5U, 6U, 7U, 8U, 9U}) {
    TempDir td;
    MatchingMpcOptions d = opt;
    d.durable.dir = td.path + "/ck";
    d.durable.stop_after_safe_points = stop_after;
    try {
      (void)matching_mpc(g, d);
    } catch (const ResumableInterrupt&) {
    }
    MatchingMpcOptions r = opt;
    r.durable.dir = td.path + "/ck";
    r.durable.resume = true;
    const auto res = matching_mpc(g, r);
    EXPECT_EQ(res.x, clean.x) << "stop_after=" << stop_after;
    EXPECT_EQ(res.cover, clean.cover) << "stop_after=" << stop_after;
    EXPECT_EQ(res.freeze_iteration, clean.freeze_iteration)
        << "stop_after=" << stop_after;
    EXPECT_EQ(res.total_iterations, clean.total_iterations);
    EXPECT_EQ(res.metrics.rounds, clean.metrics.rounds);
  }
}

TEST(DurableResume, MisStopsAndResumesBitIdentically) {
  const Graph g = make_family("rmat", 1200, 9);
  MisMpcOptions opt;
  opt.seed = 9;
  const auto clean = mis_mpc(g, opt);
  for (const std::size_t stop_after : {1U, 2U, 4U}) {
    TempDir td;
    MisMpcOptions d = opt;
    d.durable.dir = td.path + "/ck";
    d.durable.stop_after_safe_points = stop_after;
    bool stopped = false;
    try {
      (void)mis_mpc(g, d);
    } catch (const ResumableInterrupt&) {
      stopped = true;
    }
    MisMpcOptions r = opt;
    r.durable.dir = td.path + "/ck";
    r.durable.resume = true;
    const auto res = mis_mpc(g, r);
    EXPECT_EQ(res.mis, clean.mis) << "stop_after=" << stop_after;
    EXPECT_EQ(res.rank_phases, clean.rank_phases);
    EXPECT_EQ(res.sparsified_iterations, clean.sparsified_iterations);
    EXPECT_EQ(res.metrics.rounds, clean.metrics.rounds);
    EXPECT_EQ(res.metrics.total_words, clean.metrics.total_words);
    if (stopped) EXPECT_EQ(res.metrics.resume_loads, 1U);
    EXPECT_TRUE(is_maximal_independent_set(g, res.mis));
  }
}

TEST(DurableResume, MisCcliqueStopsAndResumesBitIdentically) {
  const Graph g = make_family("gnp_sparse", 700, 13);
  MisCcliqueOptions opt;
  opt.seed = 13;
  const auto clean = mis_cclique(g, opt);
  for (const std::size_t stop_after : {1U, 3U}) {
    TempDir td;
    MisCcliqueOptions d = opt;
    d.durable.dir = td.path + "/ck";
    d.durable.stop_after_safe_points = stop_after;
    bool stopped = false;
    try {
      (void)mis_cclique(g, d);
    } catch (const ResumableInterrupt&) {
      stopped = true;
    }
    MisCcliqueOptions r = opt;
    r.durable.dir = td.path + "/ck";
    r.durable.resume = true;
    const auto res = mis_cclique(g, r);
    EXPECT_EQ(res.mis, clean.mis) << "stop_after=" << stop_after;
    EXPECT_EQ(res.rank_phases, clean.rank_phases);
    EXPECT_EQ(res.metrics.rounds, clean.metrics.rounds);
    EXPECT_EQ(res.metrics.total_words, clean.metrics.total_words);
    if (stopped) EXPECT_EQ(res.metrics.resume_loads, 1U);
    EXPECT_TRUE(is_maximal_independent_set(g, res.mis));
  }
}

TEST(DurableResume, IntegralMatchingStopsAndResumesBitIdentically) {
  // The two-level ring: the inner MPC-Simulation run stops at its k-th
  // safe point (small k lands in iteration 0; larger k lands the stop in a
  // later A-iteration, exercising the outer cursor at iter > 0).
  const Graph g = make_family("gnp_sparse", 900, 17);
  IntegralMatchingOptions opt;
  opt.seed = 17;
  const auto clean = integral_matching(g, opt);
  for (const std::size_t stop_after : {1U, 3U, 8U}) {
    TempDir td;
    IntegralMatchingOptions d = opt;
    d.durable.dir = td.path + "/ck";
    d.durable.stop_after_safe_points = stop_after;
    bool stopped = false;
    try {
      (void)integral_matching(g, d);
    } catch (const ResumableInterrupt&) {
      stopped = true;
    }
    IntegralMatchingOptions r = opt;
    r.durable.dir = td.path + "/ck";
    r.durable.resume = true;
    const auto res = integral_matching(g, r);
    EXPECT_EQ(res.matching, clean.matching)
        << "stop_after=" << stop_after << " stopped=" << stopped;
    EXPECT_EQ(res.cover, clean.cover);
    EXPECT_EQ(res.iterations, clean.iterations);
    EXPECT_EQ(res.a_path_size, clean.a_path_size);
    EXPECT_EQ(res.small_path_size, clean.small_path_size);
    EXPECT_EQ(res.total_rounds, clean.total_rounds);
    EXPECT_TRUE(is_matching(g, res.matching));
  }
}

TEST(DurableResume, IntegralMatchingOuterStopFlagFlushesTheCursor) {
  // A stop flag that is already set stops at the very first outer
  // iteration boundary — after the cursor flush — and the resume replays
  // the whole run bit-identically from that (empty-progress) cursor.
  const Graph g = make_family("gnp_sparse", 600, 21);
  IntegralMatchingOptions opt;
  opt.seed = 21;
  const auto clean = integral_matching(g, opt);
  TempDir td;
  std::atomic<bool> stop{true};
  IntegralMatchingOptions d = opt;
  d.durable.dir = td.path + "/ck";
  d.durable.stop_flag = &stop;
  EXPECT_THROW((void)integral_matching(g, d), ResumableInterrupt);
  IntegralMatchingOptions r = opt;
  r.durable.dir = td.path + "/ck";
  r.durable.resume = true;
  const auto res = integral_matching(g, r);
  EXPECT_EQ(res.matching, clean.matching);
  EXPECT_EQ(res.iterations, clean.iterations);
}

// ----------------------------------------------- corruption on the resume

TEST(DurableResume, ResumeFallsBackPastARottedOnDiskGeneration) {
  // Stop late enough that two generations exist on disk, rot the newest,
  // and resume: the load must fall back to the older verified generation
  // (disk_fallbacks tick) and the longer replay must still end
  // bit-identical. matching_mpc has a safe point per phase/tail iteration
  // (dozens at this size), so stop 5 fills both ring slots.
  const Graph g = make_family("gnp_sparse", 1200, 25);
  MatchingMpcOptions opt;
  opt.seed = 25;
  const auto clean = matching_mpc(g, opt);
  TempDir td;
  MatchingMpcOptions d = opt;
  d.durable.dir = td.path + "/ck";
  d.durable.stop_after_safe_points = 5;
  bool stopped = false;
  try {
    (void)matching_mpc(g, d);
  } catch (const ResumableInterrupt&) {
    stopped = true;
  }
  ASSERT_TRUE(stopped) << "run finished before 5 safe points; shrink n";
  const DurableRing ring(td.path + "/ck");
  const std::string newest = ring.slot_path(newest_slot(ring));
  ASSERT_TRUE(std::filesystem::exists(newest));
  std::vector<char> bytes = slurp(newest);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x10);
  spit(newest, bytes);

  MatchingMpcOptions r = opt;
  r.durable.dir = td.path + "/ck";
  r.durable.resume = true;
  const auto res = matching_mpc(g, r);
  EXPECT_EQ(res.x, clean.x);
  EXPECT_EQ(res.cover, clean.cover);
  EXPECT_EQ(res.freeze_iteration, clean.freeze_iteration);
  EXPECT_EQ(res.metrics.rounds, clean.metrics.rounds);
  EXPECT_EQ(res.metrics.resume_loads, 1U);
  EXPECT_GE(res.metrics.disk_fallbacks, 1U);
}

// -------------------------------------------------------- metric hygiene

TEST(DurableMetrics, AllDiskMetricsZeroWhenPersistenceOff) {
  const Graph g = make_family("gnp_sparse", 800, 3);
  {
    MisMpcOptions opt;
    opt.seed = 3;
    const auto r = mis_mpc(g, opt);
    EXPECT_EQ(r.metrics.disk_checkpoints_written, 0U);
    EXPECT_EQ(r.metrics.disk_checkpoint_words, 0U);
    EXPECT_EQ(r.metrics.resume_loads, 0U);
    EXPECT_EQ(r.metrics.disk_fallbacks, 0U);
    EXPECT_EQ(r.metrics.faults_skipped_on_resume, 0U);
  }
  {
    MatchingMpcOptions opt;
    opt.seed = 3;
    const auto r = matching_mpc(g, opt);
    EXPECT_EQ(r.metrics.disk_checkpoints_written, 0U);
    EXPECT_EQ(r.metrics.disk_checkpoint_words, 0U);
    EXPECT_EQ(r.metrics.resume_loads, 0U);
    EXPECT_EQ(r.metrics.disk_fallbacks, 0U);
    EXPECT_EQ(r.metrics.faults_skipped_on_resume, 0U);
  }
  {
    MisCcliqueOptions opt;
    opt.seed = 3;
    const auto r = mis_cclique(g, opt);
    EXPECT_EQ(r.metrics.disk_checkpoints_written, 0U);
    EXPECT_EQ(r.metrics.disk_checkpoint_words, 0U);
    EXPECT_EQ(r.metrics.resume_loads, 0U);
    EXPECT_EQ(r.metrics.disk_fallbacks, 0U);
    EXPECT_EQ(r.metrics.faults_skipped_on_resume, 0U);
  }
}

TEST(DurableMetrics, PersistentRunCountsItsDiskWrites) {
  const Graph g = make_family("gnp_sparse", 800, 3);
  TempDir td;
  MisMpcOptions opt;
  opt.seed = 3;
  opt.durable.dir = td.path + "/ck";
  const auto r = mis_mpc(g, opt);
  EXPECT_GE(r.metrics.disk_checkpoints_written, 1U);
  EXPECT_GT(r.metrics.disk_checkpoint_words, 0U);
  EXPECT_EQ(r.metrics.resume_loads, 0U);  // fresh start, nothing loaded
  // Persistence must not perturb the in-memory checkpoint accounting
  // (PR 6–8 pins): no plan, no captures.
  EXPECT_EQ(r.metrics.checkpoint_bytes, 0U);
}

// ------------------------------------------- fault-plan interop (resume)

TEST(DurableResume, ResumeSkipsFaultsFromAlreadyCompletedRounds) {
  // run_with_reprovision interop: the durable run rides inside the
  // reprovision wrapper (a ResumableInterrupt is not under-provisioning
  // and must propagate), and the resumed process must not re-inject plan
  // events from rounds before the resume point — they already fired and
  // were absorbed before the persisted safe point.
  const Graph g = make_family("gnp_sparse", 1024, 31);
  MatchingMpcOptions opt;
  opt.seed = 31;
  const auto clean = matching_mpc(g, opt);
  ASSERT_GT(clean.metrics.rounds, 8U);

  fault::FaultPlan plan;
  plan.add_crash(0, 2);
  plan.add_crash(1, clean.metrics.rounds - 2);
  MatchingMpcOptions faulty = opt;
  faulty.fault_plan = &plan;
  const auto ref = matching_mpc(g, faulty);
  EXPECT_EQ(ref.x, clean.x);

  TempDir td;
  MatchingMpcOptions d = faulty;
  d.durable.dir = td.path + "/ck";
  d.durable.stop_after_safe_points = 8;
  const fault::ReprovisionPolicy policy;
  bool stopped = false;
  try {
    (void)fault::run_with_reprovision(
        policy, [&](std::size_t) { return matching_mpc(g, d); },
        [](const MatchingMpcResult&) { return true; });
  } catch (const ResumableInterrupt&) {
    stopped = true;
  }
  ASSERT_TRUE(stopped) << "run finished before 8 safe points; shrink n";

  MatchingMpcOptions r = faulty;
  r.durable.dir = td.path + "/ck";
  r.durable.resume = true;
  const auto outcome = fault::run_with_reprovision(
      policy, [&](std::size_t) { return matching_mpc(g, r); },
      [](const MatchingMpcResult&) { return true; });
  ASSERT_TRUE(outcome.ok());
  const auto& res = *outcome.result;
  EXPECT_EQ(res.x, clean.x);
  EXPECT_EQ(res.cover, clean.cover);
  EXPECT_EQ(res.metrics.rounds, clean.metrics.rounds);
  EXPECT_EQ(res.metrics.resume_loads, 1U);
  // The round-2 crash fired before the stop point; the resumed process
  // counts it as skipped instead of replaying it.
  EXPECT_GE(res.metrics.faults_skipped_on_resume, 1U);
  EXPECT_TRUE(is_fractional_matching(g, res.x));
}

}  // namespace
}  // namespace mpcg
