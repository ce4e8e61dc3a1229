#include "mpc/engine.h"

#include <algorithm>
#include <cstring>
#include <functional>

#include "util/rng.h"

namespace mpcg::mpc {

namespace {

/// Bulk word copy with a short-run fast path: scattered traffic stages
/// mostly single-word runs, and a libc memmove call per word would cost
/// more than the copy itself.
inline void copy_run(Word* dst, const Word* src, std::size_t count) {
  if (count <= 4) {
    for (std::size_t i = 0; i < count; ++i) dst[i] = src[i];
  } else {
    std::memcpy(dst, src, count * sizeof(Word));
  }
}

/// Decodes one sender's run-tag/count streams, invoking fn(to, count) per
/// run in staging order — the single source for the side-effecting count
/// cursor walk (extended tags consume the next side-stream count;
/// singleton tags are a run of one).
template <typename Fn>
inline void for_each_run(const std::vector<std::uint32_t>& tos,
                         const std::uint32_t* counts, Fn&& fn) {
  std::size_t ci = 0;
  for (const std::uint32_t tag : tos) {
    fn(static_cast<std::size_t>(tag & RunTag::kDestMask),
       (tag & RunTag::kExtFlag) != 0
           ? static_cast<std::size_t>(counts[ci++])
           : std::size_t{1});
  }
}

/// Appends a run to an inbox whose exact capacity was reserved up front
/// (the append can never reallocate — segment spans alias the buffer).
/// Single-word runs — the bulk of scattered traffic — skip the insert
/// machinery.
inline void append_run_to(std::vector<Word>& in, const Word* src,
                          std::size_t count) {
  if (count == 1) {
    in.push_back(*src);
    return;
  }
  in.insert(in.end(), src, src + count);
}

}  // namespace

Engine::Engine(Config config) : config_(config) {
  if (config_.num_machines == 0) {
    throw std::invalid_argument("Engine: need at least one machine");
  }
  const std::size_t m = config_.num_machines;
  out_tos_.assign(m, {});
  out_counts_.assign(m, {});
  out_words_.assign(m, {});
  out_open_to_.assign(m, RunTag::kNoDest);
  if (config_.integrity) out_csums_.assign(m, Fnv::kOffset);
  inbox_.assign(m, {});
  in_segs_.assign(m, {});
  recv_total_.assign(m, 0);
  recv_count_.assign(m, 0);
}

void Outbox::throw_bad_dest(std::size_t to) const {
  throw std::out_of_range("Outbox: machine id " + std::to_string(to) +
                          " out of range (have " +
                          std::to_string(num_machines_) + ")");
}

void Engine::check_machine(std::size_t machine) const {
  if (machine >= config_.num_machines) {
    throw std::out_of_range("Engine: machine id " + std::to_string(machine) +
                            " out of range (have " +
                            std::to_string(config_.num_machines) + ")");
  }
}

void Engine::throw_bad_machine(std::size_t machine) const {
  check_machine(machine);
  throw std::out_of_range("Engine: unreachable");
}

void Engine::push(std::size_t from, std::size_t to,
                  std::span<const Word> words) {
  outbox(from).append_run(to, words);
}

PayloadId Engine::stage_payload(std::span<const Word> words) {
  staged_payloads_.emplace_back(words.begin(), words.end());
  // Store half of the integrity layer: the publisher folds the blob's
  // digest at stage time; readers re-verify it before any view aliases
  // the stored words (verify_store).
  if (config_.integrity) staged_digests_.push_back(Fnv::digest(words));
  return static_cast<PayloadId>(staged_payloads_.size() - 1);
}

void Engine::push_broadcast(std::size_t from,
                            std::span<const std::size_t> dests,
                            PayloadId payload) {
  check_machine(from);
  if (payload >= staged_payloads_.size()) {
    throw std::out_of_range(
        "Engine: unknown payload id (staged payloads die at exchange; "
        "re-stage per round)");
  }
  const bool empty = staged_payloads_[payload].empty();
  for (const std::size_t to : dests) {
    check_machine(to);
    if (empty) continue;  // an empty payload delivers nothing, like push({})
    shared_sends_.push_back(SharedSend{static_cast<std::uint32_t>(from),
                                       static_cast<std::uint32_t>(to), payload,
                                       out_words_[from].size()});
  }
}

PayloadId Engine::push_broadcast(std::size_t from,
                                 std::span<const std::size_t> dests,
                                 std::span<const Word> payload) {
  const PayloadId pid = stage_payload(payload);
  push_broadcast(from, dests, pid);
  return pid;
}

void Engine::push_gather(std::size_t from, std::size_t to,
                         std::span<const Word> words) {
  check_machine(from);
  check_machine(to);
  if (words.empty()) return;
  const PayloadId pid = stage_payload(words);
  shared_sends_.push_back(SharedSend{static_cast<std::uint32_t>(from),
                                     static_cast<std::uint32_t>(to), pid,
                                     out_words_[from].size()});
}

void Engine::check_budget(std::size_t machine, std::size_t words,
                          const char* dir) {
  if (words > config_.words_per_machine) {
    ++metrics_.violations;
    if (config_.strict) {
      throw CapacityError("machine " + std::to_string(machine) + " " + dir +
                          " " + std::to_string(words) + " words in round " +
                          std::to_string(metrics_.rounds) + ": requested " +
                          std::to_string(words) + ", available " +
                          std::to_string(config_.words_per_machine));
    }
  }
}

void Engine::drop_last_round() {
  if (!shared_round_) return;
  for (const std::size_t t : seg_touched_) in_segs_[t].clear();
  seg_touched_.clear();
  delivered_payloads_.clear();
  shared_round_ = false;
}

void Engine::exchange() {
  if (!delayed_.empty()) inject_delayed();
  if (config_.audit) begin_audit();
  if (const fault::FaultPlan* plan = harness_.plan(); plan != nullptr) {
    // Round index = rounds completed so far; events scheduled for it fire
    // against this exchange's staged traffic.
    const auto events = plan->events_at(metrics_.rounds);
    if (!events.empty()) {
      harness_.run_faulty_round(events);
      return;
    }
  }
  deliver();
}

void Engine::deliver() {
  const std::size_t m = config_.num_machines;
  // The one integrity branch per flush: every sender's staged stream is
  // verified against its append-time checksum — and every staged payload
  // blob against its stage-time digest — before anything delivers.
  if (config_.integrity) {
    harness_.maybe_scrub(metrics_.rounds, config_.scrub_interval);
    verify_streams();
    verify_store();
  }
  drop_last_round();
  // Orphaned payloads — staged blobs whose every send descriptor was
  // destroyed by unrecovered fault corruption — still publish through the
  // shared path: the blob store is durable (receivers address blobs by
  // PayloadId), only the inbox deliveries are lost. Unreachable without a
  // fault plan: drivers never stage without pushing.
  if (shared_sends_.empty() &&
      (harness_.plan() == nullptr || staged_payloads_.empty())) {
    // Payloads staged but never pushed die here, per the lifetime contract.
    staged_payloads_.clear();
    staged_digests_.clear();
    exchange_plain_flat(m);
  } else {
    // Shared-payload rounds splice store-aliasing segments between unicast
    // stretches per (sender, receiver) pair (broadcast/gather rounds move
    // O(n) words through O(m) descriptors — never the hot surface).
    exchange_shared(m);
  }
  if (config_.audit) finish_audit();
  ++metrics_.rounds;
}

void Engine::deliver_flat_sender(std::size_t from, std::size_t m,
                                 bool emit_segs) {
  const auto& tos = out_tos_[from];
  const std::uint32_t* counts = out_counts_[from].data();
  const Word* words = out_words_[from].data();
  const std::size_t nw = out_words_[from].size();
  if (nw >= 2 * m && 2 * tos.size() >= nw) {
    // Scattered big sender (runs are mostly single words): a word-level
    // counting sort through the scatter buffer, so each receiver gets one
    // bulk append instead of one per run. Worth the O(machines)
    // bookkeeping once the sender moved at least that many words.
    bucket_count_.assign(m, 0);
    for_each_run(tos, counts, [&](std::size_t to, std::size_t count) {
      bucket_count_[to] += count;
    });
    bucket_cursor_.resize(m);
    std::size_t acc = 0;
    for (std::size_t to = 0; to < m; ++to) {
      bucket_cursor_[to] = acc;
      acc += bucket_count_[to];
    }
    scatter_.resize(nw);
    std::size_t pos = 0;
    for_each_run(tos, counts, [&](std::size_t to, std::size_t count) {
      if (count == 1) {
        scatter_[bucket_cursor_[to]++] = words[pos++];
      } else {
        copy_run(scatter_.data() + bucket_cursor_[to], words + pos, count);
        bucket_cursor_[to] += count;
        pos += count;
      }
    });
    pos = 0;
    for (std::size_t to = 0; to < m; ++to) {
      const std::size_t count = bucket_count_[to];
      if (count > 0) {
        const std::size_t base = inbox_[to].size();
        append_run_to(inbox_[to], scatter_.data() + pos, count);
        if (emit_segs && shared_recv_[to] > 0) {
          in_segs_[to].emplace_back(inbox_[to].data() + base, count);
        }
      }
      pos += count;
    }
  } else {
    // Run-length delivery: one bulk copy per descriptor. This is the whole
    // point of the streamed staging — bulky record streams deliver in
    // O(runs), never re-scanning per word.
    std::size_t pos = 0;
    for_each_run(tos, counts, [&](std::size_t to, std::size_t count) {
      const std::size_t base = inbox_[to].size();
      append_run_to(inbox_[to], words + pos, count);
      if (emit_segs && shared_recv_[to] > 0) {
        in_segs_[to].emplace_back(inbox_[to].data() + base, count);
      }
      pos += count;
    });
  }
  clear_sender_staging(from);
}

void Engine::clear_sender_staging(std::size_t from) {
  out_tos_[from].clear();
  out_counts_[from].clear();
  out_words_[from].clear();
  out_open_to_[from] = RunTag::kNoDest;
  if (config_.integrity) out_csums_[from] = Fnv::kOffset;
}

void Engine::exchange_plain_flat(std::size_t m) {
  // Sending side first.
  for (std::size_t from = 0; from < m; ++from) {
    const std::size_t sent = out_words_[from].size();
    metrics_.max_sent_words = std::max(metrics_.max_sent_words, sent);
    metrics_.total_words += sent;
    check_budget(from, sent, "sent");
  }
  // Counting pass over the run descriptors — O(runs + machines), not
  // O(words) — then one stable delivery sweep in sender order (sender ids
  // ascending, each sender's words in push order — the inbox contract).
  std::fill(recv_count_.begin(), recv_count_.end(), 0);
  for (std::size_t from = 0; from < m; ++from) {
    for_each_run(out_tos_[from], out_counts_[from].data(),
                 [&](std::size_t to, std::size_t count) {
                   recv_count_[to] += count;
                 });
  }
  for (std::size_t to = 0; to < m; ++to) {
    inbox_[to].clear();
    inbox_[to].reserve(recv_count_[to]);
  }
  for (std::size_t from = 0; from < m; ++from) {
    deliver_flat_sender(from, m, /*emit_segs=*/false);
  }
  // Receiving side.
  for (std::size_t to = 0; to < m; ++to) {
    const std::size_t received = recv_count_[to];
    metrics_.max_received_words = std::max(metrics_.max_received_words,
                                           received);
    check_budget(to, received, "received");
    // Whatever a machine received is resident until it processes it.
    metrics_.peak_storage_words = std::max(metrics_.peak_storage_words,
                                           received);
  }
}

std::vector<std::span<const Word>>& Engine::touch_segs(std::size_t to) {
  if (in_segs_[to].empty()) seg_touched_.push_back(to);
  return in_segs_[to];
}

void Engine::deliver_pair_with_shared(std::size_t to,
                                      std::span<const Word> unicast,
                                      std::span<const SharedSend> sends) {
  // Interleave this pair's unicast words with its shared payloads at the
  // recorded splice offsets; payload segments alias the stored copy.
  auto& segs = in_segs_[to];
  auto& in = inbox_[to];
  const std::size_t base = in.size();
  std::size_t cursor = 0;
  for (const SharedSend& s : sends) {
    const std::size_t split = std::min<std::size_t>(
        static_cast<std::size_t>(s.seq), unicast.size());
    if (split > cursor) {
      in.insert(in.end(),
                unicast.begin() + static_cast<std::ptrdiff_t>(cursor),
                unicast.begin() + static_cast<std::ptrdiff_t>(split));
      segs.emplace_back(in.data() + base + cursor, split - cursor);
      cursor = split;
    }
    const auto& payload = delivered_payloads_[s.payload];
    segs.emplace_back(payload.data(), payload.size());
  }
  if (unicast.size() > cursor) {
    in.insert(in.end(), unicast.begin() + static_cast<std::ptrdiff_t>(cursor),
              unicast.end());
    segs.emplace_back(in.data() + base + cursor, unicast.size() - cursor);
  }
}

void Engine::exchange_shared(std::size_t m) {
  shared_round_ = true;
  delivered_payloads_ = std::move(staged_payloads_);
  staged_payloads_.clear();
  // The blobs were verified against these digests just above
  // (verify_store); delivered blobs cannot rot afterwards — faults fire
  // only at round boundaries — so the digests die with the staging.
  staged_digests_.clear();
  // Take the queue by value first: a strict-mode CapacityError below must
  // not leave stale sends behind — their payload ids would dangle into a
  // later round's payload store.
  std::vector<SharedSend> sends = std::move(shared_sends_);
  shared_sends_.clear();
  // Sort sends by (sender, receiver); stable keeps each pair's sends in
  // chronological (push) order, and seq is non-decreasing within a pair.
  std::stable_sort(sends.begin(), sends.end(),
                   [](const SharedSend& a, const SharedSend& b) {
                     return a.from < b.from ||
                            (a.from == b.from && a.to < b.to);
                   });
  shared_sent_.assign(m, 0);
  shared_recv_.assign(m, 0);
  for (const SharedSend& s : sends) {
    const std::size_t len = delivered_payloads_[s.payload].size();
    shared_sent_[s.from] += len;
    shared_recv_[s.to] += len;
  }

  // Sending side: unicast + shared, charged at full per-destination size.
  for (std::size_t from = 0; from < m; ++from) {
    const std::size_t sent = shared_sent_[from] + out_words_[from].size();
    metrics_.max_sent_words = std::max(metrics_.max_sent_words, sent);
    metrics_.total_words += sent;
    check_budget(from, sent, "sent");
  }

  // Unicast receive counts (for exact inbox reservation — segment spans
  // alias the inbox buffers, so they must never reallocate mid-delivery),
  // walking run descriptors, not words.
  std::fill(recv_count_.begin(), recv_count_.end(), 0);
  for (std::size_t from = 0; from < m; ++from) {
    for_each_run(out_tos_[from], out_counts_[from].data(),
                 [&](std::size_t to, std::size_t count) {
                   recv_count_[to] += count;
                 });
  }

  // Receiving side metrics; register segment lists for machines that get
  // shared payloads (all other machines keep the single-span fast path).
  for (std::size_t to = 0; to < m; ++to) {
    inbox_[to].clear();
    inbox_[to].reserve(recv_count_[to]);
    const std::size_t received = recv_count_[to] + shared_recv_[to];
    metrics_.max_received_words = std::max(metrics_.max_received_words,
                                           received);
    check_budget(to, received, "received");
    metrics_.peak_storage_words = std::max(metrics_.peak_storage_words,
                                           received);
    recv_total_[to] = received;
    if (shared_recv_[to] > 0) touch_segs(to);
  }

  // Delivery, sender-major so every receiver's segments arrive
  // sender-ascending.
  const std::size_t ns = sends.size();
  std::size_t send_idx = 0;
  for (std::size_t from = 0; from < m; ++from) {
    const auto& tos = out_tos_[from];
    const std::uint32_t* counts = out_counts_[from].data();
    const Word* words = out_words_[from].data();
    const std::size_t nw = out_words_[from].size();
    const std::size_t first = send_idx;
    while (send_idx < ns && sends[send_idx].from == from) {
      ++send_idx;
    }
    if (first == send_idx) {
      // No shared traffic from this sender: the plain run-length
      // delivery, plus segment emission for receivers that need segment
      // lists.
      deliver_flat_sender(from, m, /*emit_segs=*/true);
      continue;
    }
    if (nw == 0) {
      // Broadcast-only sender (the relay-tree shape): no unicast words,
      // every splice is trivially 0 — skip the counting sort and emit
      // the payload segments directly, O(sends) instead of O(machines).
      sender_sends_.assign(
          sends.begin() + static_cast<std::ptrdiff_t>(first),
          sends.begin() + static_cast<std::ptrdiff_t>(send_idx));
      std::stable_sort(sender_sends_.begin(), sender_sends_.end(),
                       [](const SharedSend& a, const SharedSend& b) {
                         return a.to < b.to;
                       });
      for (const SharedSend& s : sender_sends_) {
        const auto& payload = delivered_payloads_[s.payload];
        in_segs_[s.to].emplace_back(payload.data(), payload.size());
      }
    } else {
      // Shared sender: counting-sort the unicast runs so each pair is
      // one contiguous bucket, compute the within-pair splice offset of
      // every shared send, then deliver pair by pair.
      sender_sends_.assign(
          sends.begin() + static_cast<std::ptrdiff_t>(first),
          sends.begin() + static_cast<std::ptrdiff_t>(send_idx));
      std::stable_sort(sender_sends_.begin(), sender_sends_.end(),
                       [](const SharedSend& a, const SharedSend& b) {
                         return a.seq < b.seq;
                       });
      bucket_count_.assign(m, 0);
      std::size_t sp = 0;
      const std::size_t nsend = sender_sends_.size();
      // seq was the sender-stream position; rewrite it to "how many
      // unicast words to this dest came before", the splice. One pass
      // over the runs: a send splicing at stream position s (with
      // word_pos <= s < word_pos + count) has bucket_count_[its dest]
      // words of earlier runs before it, plus the s - word_pos words of
      // the current run when that run shares its destination.
      std::size_t word_pos = 0;
      for_each_run(tos, counts, [&](std::size_t rto, std::size_t count) {
        while (sp < nsend &&
               sender_sends_[sp].seq <
                   static_cast<std::uint64_t>(word_pos) + count) {
          SharedSend& s = sender_sends_[sp];
          const std::size_t mid =
              s.to == rto ? static_cast<std::size_t>(s.seq) - word_pos : 0;
          s.seq = bucket_count_[s.to] + mid;
          ++sp;
        }
        bucket_count_[rto] += count;
        word_pos += count;
      });
      while (sp < nsend) {
        sender_sends_[sp].seq = bucket_count_[sender_sends_[sp].to];
        ++sp;
      }
      bucket_cursor_.resize(m);
      std::size_t acc = 0;
      for (std::size_t to = 0; to < m; ++to) {
        bucket_cursor_[to] = acc;
        acc += bucket_count_[to];
      }
      scatter_.resize(nw);
      std::size_t pos = 0;
      for_each_run(tos, counts, [&](std::size_t rto, std::size_t count) {
        if (count == 1) {
          scatter_[bucket_cursor_[rto]++] = words[pos++];
        } else {
          copy_run(scatter_.data() + bucket_cursor_[rto], words + pos,
                   count);
          bucket_cursor_[rto] += count;
          pos += count;
        }
      });
      // Stable by receiver: within a pair, splice offsets stay in
      // chronological (non-decreasing) order.
      std::stable_sort(sender_sends_.begin(), sender_sends_.end(),
                       [](const SharedSend& a, const SharedSend& b) {
                         return a.to < b.to;
                       });
      pos = 0;
      std::size_t sidx = 0;
      for (std::size_t to = 0; to < m; ++to) {
        const std::size_t count = bucket_count_[to];
        const std::size_t sfirst = sidx;
        while (sidx < nsend && sender_sends_[sidx].to == to) ++sidx;
        if (sfirst == sidx) {
          if (count > 0) {
            const std::size_t base = inbox_[to].size();
            inbox_[to].insert(inbox_[to].end(), scatter_.data() + pos,
                              scatter_.data() + pos + count);
            if (shared_recv_[to] > 0) {
              in_segs_[to].emplace_back(inbox_[to].data() + base, count);
            }
          }
        } else {
          deliver_pair_with_shared(
              to, std::span<const Word>{scatter_.data() + pos, count},
              std::span<const SharedSend>{sender_sends_.data() + sfirst,
                                          sidx - sfirst});
        }
        pos += count;
      }
    }
    clear_sender_staging(from);
  }
}

InboxView Engine::inbox_view(std::size_t machine) const {
  check_machine(machine);
  InboxView v;
  if (shared_round_ && !in_segs_[machine].empty()) {
    v.segs_ = &in_segs_[machine];
    v.words_ = recv_total_[machine];
  } else {
    const auto& in = inbox_[machine];
    v.single_ = {in.data(), in.size()};
    v.words_ = in.size();
  }
  return v;
}

void Engine::note_storage(std::size_t machine, std::size_t words) {
  metrics_.peak_storage_words = std::max(metrics_.peak_storage_words, words);
  check_budget(machine, words, "stores");
}

void Engine::clear_inboxes() {
  drop_last_round();
  for (auto& in : inbox_) in.clear();
}

// ---------------------------------------------------------------------------
// The fault harness's transport (see fault/round_harness.h): round capture
// and rollback, staged-flush faults, wire and store corruption.

std::size_t Engine::Snapshot::words() const noexcept {
  std::size_t w = 0;
  for (const auto& v : out_words) w += v.size();
  for (const auto& v : out_tos) w += (v.size() + 1) / 2;
  for (const auto& v : out_counts) w += (v.size() + 1) / 2;
  w += (out_open_to.size() + 1) / 2;
  w += out_csums.size();
  for (const auto& p : staged_payloads) w += p.size();
  w += staged_digests.size();
  w += shared_sends.size() * (sizeof(SharedSend) / sizeof(Word));
  w += sizeof(Metrics) / sizeof(Word);
  return w;
}

Engine::Snapshot Engine::snapshot() const {
  Snapshot s;
  s.out_tos = out_tos_;
  s.out_counts = out_counts_;
  s.out_words = out_words_;
  s.out_open_to = out_open_to_;
  s.out_csums = out_csums_;
  s.staged_payloads = staged_payloads_;
  s.staged_digests = staged_digests_;
  s.shared_sends = shared_sends_;
  s.metrics = metrics_;
  return s;
}

void Engine::restore(const Snapshot& snap) {
  out_tos_ = snap.out_tos;
  out_counts_ = snap.out_counts;
  out_words_ = snap.out_words;
  out_open_to_ = snap.out_open_to;
  out_csums_ = snap.out_csums;
  staged_payloads_ = snap.staged_payloads;
  staged_digests_ = snap.staged_digests;
  shared_sends_ = snap.shared_sends;
  metrics_ = snap.metrics;
}

std::size_t Engine::capture_round() {
  round_ckpt_ = snapshot();
  return round_ckpt_.words();
}

// ---------------------------------------------------------------------------
// On-disk durability: the engine's own "__engine" section.

void Engine::save_engine_state(std::vector<Word>& out) const {
  fault::append_raw(out, metrics_);
  // Delayed flushes straddle the round boundary (a kDelayFlush holds a
  // flush back into the *next* round), so they are part of the safe-point
  // state.
  out.push_back(delayed_.size());
  for (const DelayedFlush& d : delayed_) {
    out.push_back(d.from);
    out.push_back(d.tos.size());
    out.push_back(d.counts.size());
    out.push_back(d.words.size());
    for (const std::uint32_t t : d.tos) out.push_back(t);
    for (const std::uint32_t c : d.counts) out.push_back(c);
    out.insert(out.end(), d.words.begin(), d.words.end());
  }
}

void Engine::load_engine_state(fault::SectionReader& in) {
  in.take_raw(metrics_);
  delayed_.clear();
  const Word ndelayed = in.take();
  for (Word i = 0; i < ndelayed; ++i) {
    DelayedFlush d;
    d.from = static_cast<std::size_t>(in.take());
    const Word ntos = in.take();
    const Word ncounts = in.take();
    const Word nwords = in.take();
    d.tos.reserve(ntos);
    for (Word k = 0; k < ntos; ++k) {
      d.tos.push_back(static_cast<std::uint32_t>(in.take()));
    }
    d.counts.reserve(ncounts);
    for (Word k = 0; k < ncounts; ++k) {
      d.counts.push_back(static_cast<std::uint32_t>(in.take()));
    }
    d.words.reserve(nwords);
    for (Word k = 0; k < nwords; ++k) d.words.push_back(in.take());
    delayed_.push_back(std::move(d));
  }
}

std::size_t Engine::staged_words(std::size_t machine) const {
  std::size_t w = out_words_[machine].size();
  for (const SharedSend& s : shared_sends_) {
    if (s.from == machine) w += staged_payloads_[s.payload].size();
  }
  return w;
}

std::size_t Engine::received_words(std::size_t machine) const {
  return shared_round_ ? recv_total_[machine] : recv_count_[machine];
}

void Engine::lose_flush(std::size_t machine, bool stands) {
  if (stands && config_.audit) audit_dropped_ += staged_words(machine);
  clear_sender_staging(machine);
  std::erase_if(shared_sends_, [machine](const SharedSend& s) {
    return s.from == machine;
  });
}

void Engine::duplicate_flush(std::size_t machine) {
  const std::vector<std::uint32_t> tos = out_tos_[machine];
  const std::vector<std::uint32_t> counts = out_counts_[machine];
  const std::vector<Word> words = out_words_[machine];
  out_tos_[machine].insert(out_tos_[machine].end(), tos.begin(), tos.end());
  out_counts_[machine].insert(out_counts_[machine].end(), counts.begin(),
                              counts.end());
  out_words_[machine].insert(out_words_[machine].end(), words.begin(),
                             words.end());
  // open_to_ still names the destination of the (duplicated) last run.
  // The checksum accumulator, however, covered only one copy.
  if (config_.integrity) resync_sender_checksum(machine);
  audit_duped_ += words.size();
}

void Engine::delay_flush(std::size_t machine) {
  DelayedFlush d;
  d.from = machine;
  d.tos = std::move(out_tos_[machine]);
  d.counts = std::move(out_counts_[machine]);
  d.words = std::move(out_words_[machine]);
  clear_sender_staging(machine);
  audit_delayed_ += d.words.size();
  if (!d.words.empty()) delayed_.push_back(std::move(d));
}

void Engine::inject_delayed() {
  // Late flushes are appended after the new round's own staging, so any
  // splice offsets already recorded for this round's shared sends stay
  // valid (the stream prefix is untouched).
  for (const DelayedFlush& d : delayed_) {
    out_tos_[d.from].insert(out_tos_[d.from].end(), d.tos.begin(),
                            d.tos.end());
    out_counts_[d.from].insert(out_counts_[d.from].end(), d.counts.begin(),
                               d.counts.end());
    out_words_[d.from].insert(out_words_[d.from].end(), d.words.begin(),
                              d.words.end());
    out_open_to_[d.from] = d.tos.back() & RunTag::kDestMask;
    if (config_.integrity) {
      // The late words appended to the stream tail; continue the fold.
      std::uint64_t h = out_csums_[d.from];
      for (const Word w : d.words) h = Fnv::fold(h, w);
      out_csums_[d.from] = h;
    }
  }
  delayed_.clear();
}

void Engine::go_dark(std::size_t machine) {
  inbox_[machine].clear();
  if (shared_round_) {
    in_segs_[machine].clear();
    recv_total_[machine] = 0;
  }
}

// ---------------------------------------------------------------------------
// Message integrity: per-sender FNV-1a stream checksums (see Config::integrity).

bool Engine::sender_stream_ok(std::size_t from) const {
  return Fnv::digest({out_words_[from].data(), out_words_[from].size()}) ==
         out_csums_[from];
}

void Engine::verify_streams() const {
  const std::size_t m = config_.num_machines;
  for (std::size_t from = 0; from < m; ++from) {
    if (!sender_stream_ok(from)) {
      throw IntegrityError(
          "machine " + std::to_string(from) + " flush (" +
          std::to_string(out_words_[from].size()) +
          " words) fails its stream checksum in round " +
          std::to_string(metrics_.rounds) +
          ": corruption was not repaired before delivery");
    }
  }
}

void Engine::resync_sender_checksum(std::size_t from) {
  out_csums_[from] =
      Fnv::digest({out_words_[from].data(), out_words_[from].size()});
}

std::size_t Engine::corrupt_wire(std::size_t machine, std::size_t round,
                                 std::size_t ordinal) {
  auto& words = out_words_[machine];
  if (words.empty()) return 0;
  // Retain the pristine stream before touching it — the sender keeps its
  // flush until the receiver acks, so a detected mismatch can be served
  // from retention.
  retained_.tos = out_tos_[machine];
  retained_.counts = out_counts_[machine];
  retained_.words = words;
  retained_.open_to = out_open_to_[machine];
  retained_.csum = config_.integrity ? out_csums_[machine] : Fnv::kOffset;
  const fault::BitFlips f =
      fault::pick_flips(round, machine, ordinal, words.size());
  for (std::size_t i = 0; i < f.count; ++i) {
    words[f.word[i]] ^= Word{1} << f.bit[i];
  }
  return f.count;
}

std::size_t Engine::retransmit(std::size_t machine) {
  // Serve the ack-retained pristine flush back into staging, replacing the
  // corrupted stream wholesale.
  out_tos_[machine] = retained_.tos;
  out_counts_[machine] = retained_.counts;
  out_words_[machine] = retained_.words;
  out_open_to_[machine] = retained_.open_to;
  if (config_.integrity) out_csums_[machine] = retained_.csum;
  return retained_.words.size();
}

// ---------------------------------------------------------------------------
// Durable-store integrity: per-blob digests and retained-copy repair (the
// harness runs the scrub and the verified checkpoint generations; see
// DESIGN.md, "Durable-store integrity & verified checkpoints").

std::size_t Engine::corrupt_store(std::size_t machine, std::size_t round,
                                  std::size_t ordinal) {
  std::size_t total = 0;
  for (const auto& p : staged_payloads_) total += p.size();
  if (total == 0) return 0;
  // Word-weighted blob choice: pick a word uniformly across the store and
  // rot the blob holding it, so a non-empty store always takes a hit and
  // big blobs rot proportionally more often.
  std::size_t pick = mix64(round, machine, ordinal * 8 + 3) % total;
  PayloadId blob = 0;
  while (pick >= staged_payloads_[blob].size()) {
    pick -= staged_payloads_[blob].size();
    ++blob;
  }
  auto& words = staged_payloads_[blob];
  // The publisher retains the pristine blob before the rot lands — the
  // repair source the detect path serves from.
  retained_blob_ = words;
  retained_blob_id_ = blob;
  const fault::BitFlips f =
      fault::pick_flips(round, machine, ordinal, words.size());
  for (std::size_t i = 0; i < f.count; ++i) {
    words[f.word[i]] ^= Word{1} << f.bit[i];
  }
  return f.count;
}

bool Engine::store_blob_ok(PayloadId id) const {
  const auto& words = staged_payloads_[id];
  return Fnv::digest({words.data(), words.size()}) == staged_digests_[id];
}

std::size_t Engine::repair_store() {
  staged_payloads_[retained_blob_id_] = retained_blob_;
  return retained_blob_.size();
}

void Engine::verify_store() const {
  for (std::size_t id = 0; id < staged_digests_.size(); ++id) {
    if (!store_blob_ok(static_cast<PayloadId>(id))) {
      throw IntegrityError(
          "payload blob " + std::to_string(id) + " (" +
          std::to_string(staged_payloads_[id].size()) +
          " words) fails its store digest in round " +
          std::to_string(metrics_.rounds) +
          ": corruption was not repaired before delivery");
    }
  }
}

// ---------------------------------------------------------------------------
// Runtime audit: conservation invariants checked every round (Config::audit).

void Engine::begin_audit() {
  std::size_t staged = 0;
  for (const auto& words : out_words_) staged += words.size();
  for (const SharedSend& s : shared_sends_) {
    staged += staged_payloads_[s.payload].size();
  }
  audit_staged_ = staged;
  audit_dropped_ = 0;
  audit_duped_ = 0;
  audit_delayed_ = 0;
  audit_violations_at_ = metrics_.violations;
}

void Engine::finish_audit() const {
  const std::size_t m = config_.num_machines;
  // Conservation: every word staged this round (plus fault duplicates,
  // minus fault drops and delays) must surface in exactly one inbox.
  std::size_t delivered = 0;
  for (std::size_t to = 0; to < m; ++to) delivered += received_words(to);
  const std::size_t expect =
      audit_staged_ + audit_duped_ - audit_dropped_ - audit_delayed_;
  if (delivered != expect) {
    throw AuditError(
        "audit: round " + std::to_string(metrics_.rounds) + " delivered " +
        std::to_string(delivered) + " words, expected " +
        std::to_string(expect) + " (staged " + std::to_string(audit_staged_) +
        " + duped " + std::to_string(audit_duped_) + " - dropped " +
        std::to_string(audit_dropped_) + " - delayed " +
        std::to_string(audit_delayed_) + ")");
  }
  // Capacity accounting: in non-strict mode breaches must still have been
  // tallied — a breach the engine failed to count is an accounting bug.
  if (!config_.strict) {
    for (std::size_t to = 0; to < m; ++to) {
      if (received_words(to) > config_.words_per_machine &&
          metrics_.violations == audit_violations_at_) {
        throw AuditError("audit: machine " + std::to_string(to) +
                         " received " + std::to_string(received_words(to)) +
                         " words over its budget of " +
                         std::to_string(config_.words_per_machine) +
                         " without a violations tally");
      }
    }
  }
  // Inbox-view segment bounds: every segment of a shared-round receiver
  // must alias either its inbox buffer or a delivered payload, and the
  // segment words must sum to the recorded receive total.
  if (!shared_round_) return;
  const std::less<const Word*> before;  // defined ordering across buffers
  for (const std::size_t to : seg_touched_) {
    std::size_t seg_words = 0;
    for (const auto seg : in_segs_[to]) {
      seg_words += seg.size();
      if (seg.empty()) continue;
      const Word* lo = seg.data();
      const Word* hi = seg.data() + seg.size();
      const auto& in = inbox_[to];
      bool inside = !before(lo, in.data()) &&
                    !before(in.data() + in.size(), hi);
      for (std::size_t p = 0; !inside && p < delivered_payloads_.size();
           ++p) {
        const auto& pay = delivered_payloads_[p];
        inside = !before(lo, pay.data()) &&
                 !before(pay.data() + pay.size(), hi);
      }
      if (!inside) {
        throw AuditError("audit: machine " + std::to_string(to) +
                         " has an inbox-view segment outside every "
                         "delivered buffer in round " +
                         std::to_string(metrics_.rounds));
      }
    }
    if (seg_words != recv_total_[to]) {
      throw AuditError(
          "audit: machine " + std::to_string(to) + " segment words (" +
          std::to_string(seg_words) + ") disagree with its receive total (" +
          std::to_string(recv_total_[to]) + ") in round " +
          std::to_string(metrics_.rounds));
    }
  }
}

}  // namespace mpcg::mpc
