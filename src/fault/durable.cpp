#include "fault/durable.h"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <span>

#include "fault/checkpoint.h"
#include "util/fnv.h"

namespace mpcg::fault {

namespace {

using Word = std::uint64_t;

/// The byte string "MPCGCKPT" read as one little-endian word.
constexpr Word kMagic = 0x54504b434743504dULL;
/// 3: engine Metrics (memcpy'd into "__engine" sections and
/// integral_matching's outer cursor) lead with fault::FaultMetrics, the
/// harness's crash count trails each "__engine" section, and the MPC
/// engine's section no longer carries the two exchange-representation
/// words that version 2 had.  An older file is rejected, never misread.
constexpr Word kVersion = 3;

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

/// Bounds-checked word cursor over the file body (trailer excluded).
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

}  // namespace

std::size_t write_checkpoint_file(const std::string& path, std::uint64_t seq,
                                  std::uint64_t round,
                                  const std::string& scope,
                                  const std::vector<DurableSection>& sections) {
  // Only the header is materialized; payloads stream straight from the
  // sections into the stdio buffer, and the whole-file trailer is folded
  // incrementally in the same pass. A persist therefore never builds a
  // second in-memory copy of the provider state (the naive
  // concatenate-then-digest version cost ~2x the payload bytes in copies
  // per safe point — visible in E06_DiskCheckpointOverhead).
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

  std::uint64_t trailer = Fnv::kOffset;
  for (const Word w : header) trailer = Fnv::fold(trailer, w);
  std::size_t total = header.size();
  for (const DurableSection& s : sections) {
    for (const Word w : s.payload) trailer = Fnv::fold(trailer, w);
    total += s.payload.size();
  }
  total += 1;  // trailer word

  // Temp file + atomic rename: a reader never sees a torn write.
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) bad_file(tmp, "cannot open for writing");
  std::size_t wrote =
      std::fwrite(header.data(), sizeof(Word), header.size(), f);
  for (const DurableSection& s : sections) {
    if (s.payload.empty()) continue;  // fwrite forbids a null source
    wrote += std::fwrite(s.payload.data(), sizeof(Word), s.payload.size(), f);
  }
  wrote += std::fwrite(&trailer, sizeof(Word), 1, f);
  const bool flushed = std::fclose(f) == 0;
  if (wrote != total || !flushed) {
    std::remove(tmp.c_str());
    bad_file(tmp, "short write");
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

DurableCheckpoint read_checkpoint_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) bad_file(path, "cannot open for reading");
  std::fseek(f, 0, SEEK_END);
  const long bytes = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  if (bytes < 0 || bytes % 8 != 0 || static_cast<std::size_t>(bytes) < 7 * 8) {
    std::fclose(f);
    bad_file(path, "truncated checkpoint file");
  }
  std::vector<Word> words(static_cast<std::size_t>(bytes) / 8);
  const std::size_t got = std::fread(words.data(), sizeof(Word),
                                     words.size(), f);
  std::fclose(f);
  if (got != words.size()) bad_file(path, "short read");

  if (words.front() != kMagic) bad_file(path, "bad magic");
  if (words[1] != kVersion) {
    bad_file(path, "unsupported checkpoint version " +
                       std::to_string(words[1]) + " (want " +
                       std::to_string(kVersion) + ")");
  }

  // Parse the body (everything but the trailer word).
  Cursor c{path, std::span<const Word>(words).first(words.size() - 1), 2};
  DurableCheckpoint ckpt;
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
  if (c.at != c.words.size()) bad_file(path, "trailing garbage" + round_tag);
  if (!rotted.empty()) {
    bad_file(path, "provider(s) failing verification: " + rotted + round_tag);
  }
  if (Fnv::digest({words.data(), words.size() - 1}) != words.back()) {
    bad_file(path, "whole-file digest mismatch" + round_tag);
  }
  return ckpt;
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
  // Peek the seq word of each slot header; an unreadable or garbage slot
  // counts as seq 0 so the next save overwrites it first.
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
  write_slot_ = seqs[0] <= seqs[1] ? 0 : 1;
}

void DurableRing::reset() {
  for (std::size_t slot = 0; slot < kSlots; ++slot) {
    std::remove(slot_path(slot).c_str());
    std::remove((slot_path(slot) + ".tmp").c_str());
  }
  next_seq_ = 1;
  write_slot_ = 0;
}

std::size_t DurableRing::save(std::uint64_t round, const std::string& scope,
                              const std::vector<DurableSection>& sections) {
  const std::size_t words = write_checkpoint_file(
      slot_path(write_slot_), next_seq_, round, scope, sections);
  ++next_seq_;
  write_slot_ = (write_slot_ + 1) % kSlots;
  return words;
}

std::optional<DurableLoad> DurableRing::load(const std::string& scope) const {
  std::optional<DurableCheckpoint> best;
  std::string errors;
  std::size_t existing = 0;
  std::size_t failed = 0;
  for (std::size_t slot = 0; slot < kSlots; ++slot) {
    if (!std::filesystem::exists(slot_path(slot))) continue;
    ++existing;
    try {
      DurableCheckpoint ckpt = read_checkpoint_file(slot_path(slot));
      if (ckpt.scope != scope) continue;  // another run's leftovers
      if (!best || ckpt.seq > best->seq) best = std::move(ckpt);
    } catch (const CheckpointError& e) {
      ++failed;
      errors += errors.empty() ? "" : "; ";
      errors += e.what();
    }
  }
  if (best) {
    DurableLoad loaded;
    loaded.checkpoint = std::move(*best);
    loaded.fallback = failed != 0;
    return loaded;
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
