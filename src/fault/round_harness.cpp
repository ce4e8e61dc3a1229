#include "fault/round_harness.h"

#include <algorithm>

#include "fault/checkpoint.h"
#include "util/rng.h"

namespace mpcg::fault {

BitFlips pick_flips(std::uint64_t a, std::uint64_t b, std::uint64_t c,
                    std::size_t words) {
  BitFlips f;
  if (words == 0) return f;
  const std::size_t draws = 1 + mix64(a, b, c * 8 + 5) % 3;
  for (std::size_t d = 0; d < draws; ++d) {
    const std::size_t word = mix64(a, b * 8 + d, c * 8 + 6) % words;
    const auto bit = static_cast<unsigned>(mix64(a, b * 8 + d, c * 8 + 7) % 64);
    bool fresh = true;
    for (std::size_t k = 0; k < f.count; ++k) {
      fresh &= !(f.word[k] == word && f.bit[k] == bit);
    }
    if (!fresh) continue;
    f.word[f.count] = word;
    f.bit[f.count] = bit;
    ++f.count;
  }
  return f;
}

std::uint64_t SectionReader::take() {
  if (at_ >= words_.size()) truncated();
  return words_[at_++];
}

void SectionReader::truncated() {
  throw CheckpointError(
      "durable checkpoint restore: truncated __engine section");
}

RoundHarness::RoundHarness(RoundTransport& transport, FaultMetrics& metrics,
                           HarnessNouns nouns, std::size_t num_nodes,
                           bool integrity)
    : transport_(transport), metrics_(metrics), nouns_(nouns),
      num_nodes_(num_nodes), integrity_(integrity) {}

void RoundHarness::attach(const FaultPlan* plan, CheckpointRegistry* registry,
                          bool recover) {
  plan_ = (plan != nullptr && !plan->empty()) ? plan : nullptr;
  registry_ = registry;
  recover_ = recover;
}

void RoundHarness::absorb_crash(std::size_t node, std::size_t round,
                                std::string_view where) {
  if (crashes_recovered_ >= plan_->crash_budget) {
    throw FaultBudgetError(std::string(nouns_.node) + " " +
                           std::to_string(node) + " crashed in round " +
                           std::to_string(round) + std::string(where) +
                           ": crash budget of " +
                           std::to_string(plan_->crash_budget) + " exhausted");
  }
  ++crashes_recovered_;
}

namespace {

/// Attempt ordinal of events[ei]: how many times this node's flush (or
/// store entry) has taken an event of the same kind this round.
std::size_t attempt(std::span<const FaultEvent> events, std::size_t ei) {
  std::size_t n = 1;
  for (std::size_t j = 0; j < ei; ++j) {
    n += events[j].kind == events[ei].kind &&
         events[j].machine == events[ei].machine;
  }
  return n;
}

}  // namespace

void RoundHarness::run_faulty_round(std::span<const FaultEvent> events) {
  const std::size_t round = transport_.round();
  // Copy-on-fault checkpoint: materialized only because this round carries
  // events. The capture happens before any corruption — it is the state a
  // rollback returns to — and is released once the round has settled (or
  // unwound).
  std::size_t ckpt_words = 0;
  if (recover_) {
    if (registry_ != nullptr) ckpt_words += registry_->capture(round);
    ckpt_words += transport_.capture_round();
  }
  struct Release {
    RoundTransport& t;
    ~Release() { t.release_round(); }
  } release{transport_};
  Tally tally;
  crashed_.clear();
  dark_.clear();
  for (std::size_t ei = 0; ei < events.size(); ++ei) {
    const FaultEvent& ev = events[ei];
    const std::size_t node = ev.machine;
    // Plans written for a larger cluster (reprovisioning shrinks nothing,
    // but node counts are derived) may name nodes we don't have.
    if (node >= num_nodes_) continue;
    ++tally.applied;
    switch (ev.kind) {
      case FaultKind::kCrash:
        if (recover_) {
          absorb_crash(node, round);
          // The crash destroys the node's flush and its local state;
          // recovery retransmits from sender-side retention and reinstates
          // the checkpoint. The destroy-then-restore order makes the round
          // capture genuinely load-bearing: a broken rollback diverges the
          // coupling tests.
          tally.resent += transport_.staged_words(node);
          transport_.lose_flush(node, false);
          roll_back(node, round, tally);
          crashed_.push_back(node);
        } else {
          transport_.lose_flush(node, true);
          dark_.push_back(node);
        }
        break;
      case FaultKind::kDropFlush:
        if (recover_) {
          tally.resent += transport_.staged_words(node);
          transport_.lose_flush(node, false);
          transport_.rollback_round();
          ++tally.replays;
        } else {
          transport_.lose_flush(node, true);
        }
        break;
      case FaultKind::kDuplicateFlush:
        // With recovery, (round, sequence) deduplication discards the
        // second copy before delivery — only the event count records it.
        if (!recover_) transport_.duplicate_flush(node);
        break;
      case FaultKind::kDelayFlush:
        if (recover_) {
          ++tally.replays;  // the barrier stalls one round for the late flush
        } else {
          transport_.delay_flush(node);
        }
        break;
      case FaultKind::kCorruptPayload:
        // Silent in-transit corruption of the staged wire stream.  The
        // sender retains its pristine stream first (real shuffle layers
        // keep the flush until the receiver acks), then bits flip in the
        // live staged words.
        if (transport_.corrupt_wire(node, round, ei) == 0) break;
        ++tally.corrupted;
        if (!integrity_) break;  // undetected: propagates silently
        if (transport_.wire_ok(node)) break;  // 2^-64 digest collision
        ++tally.detected;
        // The detect->retransmit protocol, budgeted per (node, round).
        if (attempt(events, ei) > plan_->retransmit_budget) {
          // Budget blown: the link is hopeless; roll the round back.
          escalate(node, round, "flush", tally);
          tally.retransmitted += transport_.wire_words(node);
        } else {
          tally.retransmitted += transport_.retransmit(node);
        }
        break;
      case FaultKind::kCorruptStore:
        // Silent rot in the durable store that every reader's view
        // aliases.  The publisher retains a pristine copy of the entry
        // first — the store's repair source.
        if (transport_.corrupt_store(node, round, ei) == 0) break;
        ++tally.store_corrupted;
        if (!integrity_) break;  // undetected: every view aliases rot
        if (transport_.store_ok()) break;  // 2^-64 digest collision
        ++tally.store_detected;
        // Same escalation contract as the wire.
        if (attempt(events, ei) > plan_->retransmit_budget) {
          escalate(node, round, nouns_.store, tally);
        } else {
          tally.store_repaired += transport_.repair_store();
        }
        break;
      case FaultKind::kCorruptCheckpoint:
        // Bit rot in a retained checkpoint image.  Nothing observable
        // happens at injection time; the damage surfaces at the next
        // restore, which verifies generations and falls back.  The first
        // rot event of a round hits the newest generation, later ones walk
        // down the ring — so one event models newest-image rot and stacked
        // events can rot the whole ring.
        if (registry_ == nullptr || !registry_->has_checkpoint()) break;
        registry_->corrupt_generation(
            tally.ckpt_rot % registry_->generations_held(), round, node, ei);
        ++tally.ckpt_rot;
        break;
    }
  }
  transport_.deliver();
  // A recovered crash also re-fetches the deliveries the node lost.
  for (const std::size_t node : crashed_) {
    tally.resent += transport_.refetch_words(node);
  }
  for (const std::size_t node : dark_) transport_.go_dark(node);
  metrics_.rounds_replayed += tally.replays;
  metrics_.words_resent += tally.resent;
  metrics_.checkpoint_bytes += ckpt_words * sizeof(std::uint64_t);
  metrics_.faults_injected += tally.applied;
  metrics_.corruptions_injected += tally.corrupted;
  metrics_.corruptions_detected += tally.detected;
  metrics_.words_retransmitted += tally.retransmitted;
  metrics_.store_corruptions_injected += tally.store_corrupted;
  metrics_.store_corruptions_detected += tally.store_detected;
  metrics_.store_words_repaired += tally.store_repaired;
  metrics_.checkpoint_fallbacks += tally.fallbacks;
}

void RoundHarness::roll_back(std::size_t node, std::size_t round,
                             Tally& tally) {
  transport_.rollback_round();
  restore_registry(node, round, tally);
  ++tally.replays;
}

void RoundHarness::escalate(std::size_t node, std::size_t round,
                            const char* what, Tally& tally) {
  if (!recover_) {
    throw IntegrityError(std::string(nouns_.node) + " " +
                         std::to_string(node) + " " + what +
                         " corrupted in round " + std::to_string(round) +
                         ": retransmit budget of " +
                         std::to_string(plan_->retransmit_budget) +
                         " exhausted and recovery is off");
  }
  roll_back(node, round, tally);
}

void RoundHarness::restore_registry(std::size_t node, std::size_t round,
                                    Tally& tally) {
  if (registry_ == nullptr || !registry_->has_checkpoint()) return;
  if (!registry_->generation_ok(0)) {
    // The newest image rotted in retention.  Find the next older verified
    // generation — the cluster's last good copy.
    const std::size_t held = registry_->generations_held();
    std::size_t age = 1;
    while (age < held && !registry_->generation_ok(age)) ++age;
    if (age == held) {
      // Name the rotted providers so the operator knows which state lost
      // its last good copy.
      std::vector<std::string> seen;
      std::string rotted;
      for (std::size_t a = 0; a < held; ++a) {
        for (std::string& name : registry_->rotted_providers(a)) {
          if (std::find(seen.begin(), seen.end(), name) != seen.end()) {
            continue;
          }
          rotted += rotted.empty() ? "" : ", ";
          rotted += name;
          seen.push_back(std::move(name));
        }
      }
      throw CheckpointError(
          std::string(nouns_.node) + " " + std::to_string(node) + ": all " +
          std::to_string(held) +
          " retained checkpoint generation(s) fail verification in round " +
          std::to_string(round) + " (rotted provider(s): " + rotted +
          "): the cluster is unrecoverable");
    }
    // Deterministic replay from the verified generation reconstructs
    // exactly the state the newest capture serialized — which is the live
    // provider state, untouched since the capture at this round's entry.
    // Recapture it into the newest slot (the simulated replay's result)
    // and charge the rounds between the two generation tags.
    tally.replays += round - registry_->generation_round(age);
    ++tally.fallbacks;
    registry_->recapture_newest();
  }
  registry_->restore();
}

void RoundHarness::scrub() {
  // Store or stream rot that escaped the repair path is fatal here exactly
  // as it would be at delivery; checkpoint rot is left for restore-time
  // fallback (repairing it in place would silently mask the generation
  // ring's retention contract).
  transport_.verify_at_rest();
  if (registry_ != nullptr) {
    for (std::size_t age = 0; age < registry_->generations_held(); ++age) {
      (void)registry_->generation_ok(age);
    }
  }
  ++metrics_.scrub_passes;
}

// ---------------------------------------------------------------------------
// On-disk durability (see fault/durable.h).

void RoundHarness::set_durability(const DurableOptions& options,
                                  std::string scope) {
  if (!options.enabled()) return;
  if (options.every == 0) {
    throw std::invalid_argument("Engine: checkpoint every must be >= 1");
  }
  durable_ = options;
  scope_ = std::move(scope);
  ring_.emplace(durable_.dir);
  // A fresh durable run must never let a previous run's same-scope files
  // outrank its own checkpoints by sequence number.
  if (!durable_.resume) ring_->reset();
}

void RoundHarness::persist() {
  // Scratch layout: provider sections, then one trailing "__engine"
  // section. The ring keeps the written generation to diff the next one
  // against and hands its previous buffers back in exchange, so the
  // steady state reserializes in place instead of reallocating the
  // provider state or copying it.
  const std::size_t nprov =
      registry_ != nullptr ? registry_->num_providers() : 0;
  scratch_.resize(nprov + 1);
  if (registry_ != nullptr) registry_->save_sections_into(scratch_);
  DurableSection& engine = scratch_[nprov];
  engine.name = "__engine";
  engine.payload.clear();
  transport_.save_engine_state(engine.payload);
  engine.payload.push_back(crashes_recovered_);
  const std::size_t words = ring_->save(transport_.round(), scope_, scratch_);
  ++metrics_.disk_checkpoints_written;
  metrics_.disk_checkpoint_words += words;
}

void RoundHarness::safe_point() {
  if (!ring_) return;
  ++safe_points_;
  const bool stop =
      (durable_.stop_flag != nullptr &&
       durable_.stop_flag->load(std::memory_order_relaxed)) ||
      (durable_.stop_after_safe_points != 0 &&
       safe_points_ >= durable_.stop_after_safe_points);
  if (stop) {
    // Graceful stop: the in-flight round already finished (we are at a
    // driver loop boundary) — flush one final generation and unwind.
    persist();
    throw ResumableInterrupt(
        "stopped at a safe point after flushing a final durable generation "
        "(relaunch with --resume)");
  }
  if (safe_points_ % durable_.every == 0) persist();
}

bool RoundHarness::try_resume() {
  if (!ring_ || !durable_.resume) return false;
  std::optional<DurableLoad> loaded =
      registry_ != nullptr ? registry_->load_from(*ring_, scope_)
                           : ring_->load(scope_);
  if (!loaded) return false;  // nothing on disk (or another run's): fresh
  const DurableSection* engine = nullptr;
  for (const DurableSection& s : loaded->checkpoint.sections) {
    if (s.name == "__engine") {
      engine = &s;
      break;
    }
  }
  if (engine == nullptr) {
    throw CheckpointError("durable checkpoint restore: no __engine section");
  }
  SectionReader in(engine->payload);
  transport_.load_engine_state(in);
  crashes_recovered_ = static_cast<std::size_t>(in.take());
  ++metrics_.resume_loads;
  metrics_.disk_fallbacks += loaded->fallback ? 1 : 0;
  // Plan events scheduled before the resume point already fired (and were
  // absorbed) before this checkpoint was persisted: the resumed process
  // starts at the restored round and never consults them again.
  if (plan_ != nullptr) {
    const std::size_t round = transport_.round();
    for (const FaultEvent& ev : plan_->events()) {
      if (ev.round < round) ++metrics_.faults_skipped_on_resume;
    }
  }
  return true;
}

}  // namespace mpcg::fault
