#include "fault/durable.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <span>

#include "fault/checkpoint.h"
#include "util/fnv.h"

namespace mpcg::fault {

namespace {

using Word = std::uint64_t;

/// The byte string "MPCGCKPT" read as one little-endian word: a base.
constexpr Word kMagic = 0x54504b434743504dULL;
/// The byte string "MPCGDLTA": a delta record.
constexpr Word kRecordMagic = 0x41544c444743504dULL;
/// 4: a slot file holds a chain, one base followed by delta records,
/// instead of one generation.  3: engine Metrics (memcpy'd into "__engine"
/// sections and integral_matching's outer cursor) lead with
/// fault::FaultMetrics, the harness's crash count trails each "__engine"
/// section, and the MPC engine's section lost the two exchange-
/// representation words that version 2 had.  An older file is rejected,
/// never misread.
constexpr Word kVersion = 4;

/// Record header words: magic, seq, round, length, header seal.
constexpr std::size_t kRecordHeader = 5;
/// Range-count word of a section a record ships whole.
constexpr Word kWholeSection = ~Word{0};

/// Guard rails for parsing garbage: any well-formed file the library
/// writes stays far below these.
constexpr Word kMaxScopeBytes = 1 << 16;
constexpr Word kMaxNameBytes = 1 << 12;
constexpr Word kMaxSections = 1 << 12;

std::size_t padded_words(std::size_t bytes) { return (bytes + 7) / 8; }

void append_string(std::vector<Word>& out, const std::string& s) {
  out.push_back(s.size());
  const std::size_t base = out.size();
  out.resize(base + padded_words(s.size()), 0);
  std::memcpy(out.data() + base, s.data(), s.size());
}

[[noreturn]] void bad_file(const std::string& path, const std::string& why) {
  throw CheckpointError("durable checkpoint " + path + ": " + why);
}

/// Buffered word writer that folds an FNV-1a digest over every word it
/// writes. Small puts gather in a fixed buffer and large spans go straight
/// to the file, so a generation streams from the caller's buffers without
/// ever being assembled in memory.
class WordSink {
 public:
  WordSink(const std::string& path, const char* mode)
      : f_(std::fopen(path.c_str(), mode)) {
    if (f_ == nullptr) bad_file(path, "cannot open for writing");
    std::setvbuf(f_, nullptr, _IONBF, 0);  // buffered here instead
  }
  ~WordSink() {
    if (f_ != nullptr) std::fclose(f_);
  }
  WordSink(const WordSink&) = delete;
  WordSink& operator=(const WordSink&) = delete;

  void put(Word w) {
    if (used_ == kBuffer) flush();
    buf_[used_++] = w;
    digest_ = Fnv::fold(digest_, w);
  }
  void put(std::span<const Word> ws) {
    for (const Word w : ws) digest_ = Fnv::fold(digest_, w);
    if (ws.size() > kBuffer - used_) {
      flush();
      if (ws.size() >= kBuffer) {
        write(ws.data(), ws.size());
        return;
      }
    }
    if (!ws.empty()) {
      std::memcpy(buf_.data() + used_, ws.data(), ws.size() * sizeof(Word));
    }
    used_ += ws.size();
  }
  /// Seals what was written so far: appends the digest of every preceding
  /// word (and folds it in, so a later seal covers this one too).
  void seal() { put(digest_); }
  [[nodiscard]] std::size_t words() const noexcept { return written_ + used_; }
  /// Flushes and closes the file; false when any write fell short.
  [[nodiscard]] bool finish() {
    flush();
    const bool closed = std::fclose(f_) == 0;
    f_ = nullptr;
    return ok_ && closed;
  }

 private:
  static constexpr std::size_t kBuffer = 4096;  // 32 KiB

  void flush() {
    write(buf_.data(), used_);
    used_ = 0;
  }
  void write(const Word* w, std::size_t n) {
    if (n == 0) return;
    ok_ &= std::fwrite(w, sizeof(Word), n, f_) == n;
    written_ += n;
  }

  std::FILE* f_;
  std::array<Word, kBuffer> buf_{};
  std::size_t used_ = 0;
  std::size_t written_ = 0;
  Word digest_ = Fnv::kOffset;
  bool ok_ = true;
};

/// Bounds-checked word cursor over a base.
struct Cursor {
  const std::string& path;
  std::span<const Word> words;
  std::size_t at = 0;

  Word take() {
    if (at >= words.size()) bad_file(path, "truncated checkpoint file");
    return words[at++];
  }
  std::span<const Word> take_span(std::size_t count) {
    if (count > words.size() - at) {
      bad_file(path, "truncated checkpoint file");
    }
    const auto s = words.subspan(at, count);
    at += count;
    return s;
  }
  std::string take_string(Word max_bytes) {
    const Word bytes = take();
    if (bytes > max_bytes) bad_file(path, "malformed string length");
    const auto body = take_span(padded_words(bytes));
    std::string s(bytes, '\0');
    std::memcpy(s.data(), body.data(), bytes);
    return s;
  }
};

/// Replays one sealed record body onto `sections`. The body is checked
/// whole before any word is applied, so a malformed one (false) leaves
/// `sections` untouched.
bool apply_record(std::span<const Word> body,
                  std::vector<DurableSection>& sections) {
  for (const bool apply : {false, true}) {
    std::size_t at = 0;
    for (DurableSection& s : sections) {
      if (body.size() - at < 2) return false;
      const Word words = body[at];
      const Word count = body[at + 1];
      at += 2;
      if (count == kWholeSection) {
        if (words > body.size() - at) return false;
        const auto whole = body.subspan(at, words);
        if (apply) s.payload.assign(whole.begin(), whole.end());
        at += words;
        continue;
      }
      if (words != s.payload.size()) return false;
      Word end = 0;
      for (Word r = 0; r < count; ++r) {
        if (body.size() - at < 2) return false;
        const Word offset = body[at];
        const Word length = body[at + 1];
        at += 2;
        if (offset < end || offset > words || length == 0 ||
            length > words - offset || length > body.size() - at) {
          return false;
        }
        if (apply) {
          std::copy_n(body.begin() + static_cast<std::ptrdiff_t>(at), length,
                      s.payload.begin() + static_cast<std::ptrdiff_t>(offset));
        }
        at += length;
        end = offset + length;
      }
    }
    if (at != body.size()) return false;
  }
  return true;
}

}  // namespace

std::size_t write_checkpoint_file(const std::string& path, std::uint64_t seq,
                                  std::uint64_t round,
                                  const std::string& scope,
                                  const std::vector<DurableSection>& sections) {
  // Only the header is materialized; payloads stream straight from the
  // sections into the file, and the trailer is folded in the same pass.
  std::vector<Word> header;
  header.push_back(kMagic);
  header.push_back(kVersion);
  header.push_back(seq);
  header.push_back(round);
  append_string(header, scope);
  header.push_back(sections.size());
  for (const DurableSection& s : sections) {
    append_string(header, s.name);
    header.push_back(s.payload.size());
    header.push_back(Fnv::digest(s.payload));
  }

  // Temp file + atomic rename: a reader never sees a torn base.
  const std::string tmp = path + ".tmp";
  std::size_t total = 0;
  {
    WordSink out(tmp, "wb");
    out.put(header);
    for (const DurableSection& s : sections) out.put(s.payload);
    out.seal();
    total = out.words();
    if (!out.finish()) {
      std::remove(tmp.c_str());
      bad_file(tmp, "short write");
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    bad_file(path, "cannot publish (rename failed)");
  }
  return total;
}

std::size_t write_checkpoint_file(const std::string& path,
                                  const DurableCheckpoint& ckpt) {
  return write_checkpoint_file(path, ckpt.seq, ckpt.round, ckpt.scope,
                               ckpt.sections);
}

DurableLoad read_checkpoint_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) bad_file(path, "cannot open for reading");
  std::fseek(f, 0, SEEK_END);
  const long bytes = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  if (bytes < 0) {
    std::fclose(f);
    bad_file(path, "cannot size the file");
  }
  // A ragged tail can only be a record torn by a kill mid-append; the
  // whole words before it are all there is to read.
  std::vector<Word> words(static_cast<std::size_t>(bytes) / sizeof(Word));
  const std::size_t got = std::fread(words.data(), sizeof(Word),
                                     words.size(), f);
  std::fclose(f);
  if (got != words.size()) bad_file(path, "short read");
  if (words.size() < 7) bad_file(path, "truncated checkpoint file");

  if (words.front() != kMagic) bad_file(path, "bad magic");
  if (words[1] != kVersion) {
    bad_file(path, "unsupported checkpoint version " +
                       std::to_string(words[1]) + " (want " +
                       std::to_string(kVersion) + ")");
  }

  // The base.
  Cursor c{path, words, 2};
  DurableLoad load;
  DurableCheckpoint& ckpt = load.checkpoint;
  ckpt.seq = c.take();
  ckpt.round = c.take();
  ckpt.scope = c.take_string(kMaxScopeBytes);
  const Word nsections = c.take();
  if (nsections > kMaxSections) bad_file(path, "malformed section count");
  struct Header {
    std::string name;
    Word payload_words;
    Word fnv;
  };
  std::vector<Header> headers;
  headers.reserve(nsections);
  for (Word i = 0; i < nsections; ++i) {
    Header h;
    h.name = c.take_string(kMaxNameBytes);
    h.payload_words = c.take();
    h.fnv = c.take();
    headers.push_back(std::move(h));
  }
  std::string rotted;
  const std::string round_tag = " (round " + std::to_string(ckpt.round) + ")";
  for (Header& h : headers) {
    const auto payload = c.take_span(h.payload_words);
    DurableSection s;
    s.name = std::move(h.name);
    s.payload.assign(payload.begin(), payload.end());
    if (Fnv::digest(s.payload) != h.fnv) {
      rotted += rotted.empty() ? "" : ", ";
      rotted += s.name;
    }
    ckpt.sections.push_back(std::move(s));
  }
  const std::size_t sealed = c.at;
  const Word trailer = c.take();
  if (!rotted.empty()) {
    bad_file(path, "provider(s) failing verification: " + rotted + round_tag);
  }
  if (Fnv::digest({words.data(), sealed}) != trailer) {
    bad_file(path, "base digest mismatch" + round_tag);
  }

  // The longest verified record prefix.
  std::span<const Word> rest = std::span<const Word>(words).subspan(c.at);
  while (rest.size() >= kRecordHeader) {
    const Word length = rest[3];
    if (Fnv::digest(rest.first(4)) != rest[4] || rest[0] != kRecordMagic ||
        rest[1] != ckpt.seq + 1 || length <= kRecordHeader) {
      load.fallback = true;
      break;
    }
    if (length > rest.size()) break;  // cut short at end of file
    const auto record = rest.first(length);
    if (Fnv::digest(record.first(length - 1)) != record[length - 1] ||
        !apply_record(record.subspan(kRecordHeader, length - kRecordHeader - 1),
                      ckpt.sections)) {
      load.fallback = true;
      break;
    }
    ckpt.seq = record[1];
    ckpt.round = record[2];
    ++load.records;
    rest = rest.subspan(length);
  }
  return load;
}

DurableRing::DurableRing(std::string dir) : dir_(std::move(dir)) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) {
    throw CheckpointError("durable checkpoint dir " + dir_ +
                          ": cannot create (" + ec.message() + ")");
  }
  rescan();
}

std::string DurableRing::slot_path(std::size_t slot) const {
  return dir_ + "/ckpt-" + std::to_string(slot) + ".mpcg";
}

void DurableRing::rescan() {
  // Peek the seq word of each slot's base; an unreadable or garbage slot
  // counts as seq 0 so the next base overwrites it first.
  Word seqs[kSlots] = {0, 0};
  for (std::size_t slot = 0; slot < kSlots; ++slot) {
    std::FILE* f = std::fopen(slot_path(slot).c_str(), "rb");
    if (f == nullptr) continue;
    Word head[3] = {0, 0, 0};
    const std::size_t got = std::fread(head, sizeof(Word), 3, f);
    std::fclose(f);
    if (got == 3 && head[0] == kMagic && head[1] == kVersion) {
      seqs[slot] = head[2];
    }
  }
  next_seq_ = std::max(seqs[0], seqs[1]) + 1;
  newest_ = seqs[0] <= seqs[1] ? 1 : 0;
}

void DurableRing::reset() {
  for (std::size_t slot = 0; slot < kSlots; ++slot) {
    std::remove(slot_path(slot).c_str());
    std::remove((slot_path(slot) + ".tmp").c_str());
    verified_[slot] = false;
  }
  next_seq_ = 1;
  newest_ = kSlots - 1;
  appendable_ = false;
}

std::size_t DurableRing::append_record(
    std::uint64_t round, const std::vector<DurableSection>& sections) {
  // Size the record first: the header names its length. Each section
  // ships its dirty stretches against the previous generation, or whole
  // when it resized or when the stretches would cost more.
  ranges_.clear();
  std::vector<Word> counts(sections.size(), kWholeSection);
  std::size_t words = kRecordHeader + 1;  // header and seal
  for (std::size_t i = 0; i < sections.size(); ++i) {
    const std::vector<Word>& before = prev_.sections[i].payload;
    const std::vector<Word>& now = sections[i].payload;
    std::size_t body = now.size();
    if (before.size() == now.size()) {
      const std::size_t first = ranges_.size();
      const std::size_t cost = dirty_range_cost(before, now, &ranges_);
      if (cost < now.size()) {
        body = cost;
        counts[i] = ranges_.size() - first;
      } else {
        ranges_.resize(first);
      }
    }
    words += 2 + body;
  }
  if (log_words_ + words > base_words_) return 0;

  const std::string path = slot_path(newest_);
  WordSink out(path, "ab");
  const Word header[] = {kRecordMagic, next_seq_, round, words};
  out.put(std::span<const Word>(header));
  out.seal();
  const DirtyRange* range = ranges_.data();
  for (std::size_t i = 0; i < sections.size(); ++i) {
    const std::span<const Word> now = sections[i].payload;
    out.put(now.size());
    out.put(counts[i]);
    if (counts[i] == kWholeSection) {
      out.put(now);
      continue;
    }
    for (Word r = 0; r < counts[i]; ++r, ++range) {
      out.put(range->offset);
      out.put(range->length);
      out.put(now.subspan(range->offset, range->length));
    }
  }
  out.seal();
  if (!out.finish()) bad_file(path, "short append");
  return words;
}

std::size_t DurableRing::save(std::uint64_t round, const std::string& scope,
                              std::vector<DurableSection>& sections) {
  const std::size_t older = (newest_ + 1) % kSlots;
  const auto same_name = [](const DurableSection& a,
                            const DurableSection& b) {
    return a.name == b.name;
  };
  // A record may only extend a chain this ring wrote, and only while the
  // other slot still holds an older verified generation behind it.
  const bool extend = appendable_ && verified_[older] &&
                      prev_.scope == scope &&
                      std::equal(prev_.sections.begin(), prev_.sections.end(),
                                 sections.begin(), sections.end(), same_name);
  std::size_t words = extend ? append_record(round, sections) : 0;
  if (words != 0) {
    log_words_ += words;
  } else {
    words = write_checkpoint_file(slot_path(older), next_seq_, round, scope,
                                  sections);
    newest_ = older;
    verified_[older] = true;
    appendable_ = true;
    base_words_ = words;
    log_words_ = 0;
    prev_.scope = scope;
    prev_.sections.resize(sections.size());
    for (std::size_t i = 0; i < sections.size(); ++i) {
      prev_.sections[i].name = sections[i].name;
    }
  }
  // Keep this generation as the next diff base by swapping buffers: the
  // caller gets the previous generation's allocations back to refill.
  prev_.seq = next_seq_++;
  prev_.round = round;
  for (std::size_t i = 0; i < sections.size(); ++i) {
    prev_.sections[i].payload.swap(sections[i].payload);
  }
  return words;
}

std::optional<DurableLoad> DurableRing::load(const std::string& scope) {
  std::optional<DurableLoad> best;
  std::size_t best_slot = 0;
  std::string errors;
  std::size_t existing = 0;
  std::size_t failed = 0;
  for (std::size_t slot = 0; slot < kSlots; ++slot) {
    if (!std::filesystem::exists(slot_path(slot))) continue;
    ++existing;
    try {
      DurableLoad got = read_checkpoint_file(slot_path(slot));
      next_seq_ = std::max(next_seq_, got.checkpoint.seq + 1);
      if (got.checkpoint.scope != scope) continue;  // another run's leftovers
      if (!best || got.checkpoint.seq > best->checkpoint.seq) {
        best = std::move(got);
        best_slot = slot;
      }
    } catch (const CheckpointError& e) {
      ++failed;
      errors += errors.empty() ? "" : "; ";
      errors += e.what();
    }
  }
  if (best) {
    // Only a cut in the loaded chain itself loses generations newer than
    // `best`. The other chain's verified prefix ends below it, so a record
    // failing there is older, or was abandoned by the resume that first
    // cut the chain there (and counted it then).
    best->fallback |= failed != 0;
    // Never append to a chain another process wrote: the next save starts
    // a base in the other slot, with the loaded chain behind it.
    newest_ = best_slot;
    for (std::size_t slot = 0; slot < kSlots; ++slot) {
      verified_[slot] = slot == best_slot;
    }
    appendable_ = false;
    return best;
  }
  if (failed != 0) {
    throw CheckpointError(
        "no loadable checkpoint generation (" + std::to_string(failed) +
        " of " + std::to_string(existing) +
        " on-disk generation(s) fail verification): " + errors);
  }
  return std::nullopt;  // nothing on disk for this scope: fresh start
}

}  // namespace mpcg::fault
