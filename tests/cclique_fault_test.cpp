// Engine-level fault paths of the CONGESTED-CLIQUE engine, driven directly
// on a small clique: recovery leaves the delivered words and the logical
// Metrics untouched, and every unrecoverable case throws its typed error
// naming the player ("player N") and what failed.  The driver-level
// coupling suites (integrity, durable_store) reach these paths only
// through mis_cclique; these cases pin them without a driver in the way.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cclique/engine.h"
#include "fault/checkpoint.h"
#include "fault/fault_plan.h"

namespace mpcg::cclique {
namespace {

constexpr std::size_t kPlayers = 5;

/// Three rounds of mixed traffic: point-to-point sends from every player
/// plus one broadcaster per round (on a pair the sends leave free).
void stage_round(Engine& e, std::size_t r) {
  for (PlayerId p = 0; p < kPlayers; ++p) {
    if (p == r % kPlayers) {
      e.broadcast(p, 1000 + 10 * r + p);
      continue;
    }
    const auto to = static_cast<PlayerId>((p + 1 + r) % kPlayers);
    if (to == p) continue;
    e.send(p, to, 100 * r + p);
  }
}

struct Delivered {
  std::vector<std::vector<Word>> inbox;
  std::vector<Word> bcast;
};

Delivered delivered(const Engine& e) {
  Delivered d;
  d.inbox.resize(kPlayers);
  for (PlayerId p = 0; p < kPlayers; ++p) {
    for (const Message& msg : e.inbox(p)) {
      d.inbox[p].push_back((Word{msg.from} << 48) ^ msg.word);
    }
  }
  for (const Message& msg : e.broadcast_inbox()) {
    d.bcast.push_back((Word{msg.from} << 48) ^ msg.word);
  }
  return d;
}

void expect_same_logical_metrics(const Metrics& a, const Metrics& b) {
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.max_player_sent, b.max_player_sent);
  EXPECT_EQ(a.max_player_received, b.max_player_received);
  EXPECT_EQ(a.violations, b.violations);
  EXPECT_EQ(a.total_words, b.total_words);
  EXPECT_EQ(a.lenzen_batches, b.lenzen_batches);
}

TEST(CcliqueFault, RecoveredCrashAndDropMatchACleanEngine) {
  Engine clean(kPlayers, true, /*integrity=*/true, /*audit=*/true);
  Engine faulty(kPlayers, true, /*integrity=*/true, /*audit=*/true);
  std::vector<Word> state = {7, 8, 9};
  fault::CheckpointRegistry registry;
  registry.register_state(
      "state", [&](std::vector<Word>& out) {
        out.insert(out.end(), state.begin(), state.end());
      },
      [&](std::span<const Word> in) { state.assign(in.begin(), in.end()); });
  fault::FaultPlan plan;
  plan.add_crash(1, 1).add_drop(2, 2).add_crash(0, 2);
  faulty.set_fault_plan(&plan, &registry);
  for (std::size_t r = 0; r < 3; ++r) {
    stage_round(clean, r);
    stage_round(faulty, r);
    clean.exchange();
    faulty.exchange();
    const Delivered want = delivered(clean);
    const Delivered got = delivered(faulty);
    EXPECT_EQ(got.inbox, want.inbox) << "round " << r;
    EXPECT_EQ(got.bcast, want.bcast) << "round " << r;
  }
  expect_same_logical_metrics(faulty.metrics(), clean.metrics());
  EXPECT_EQ(state, (std::vector<Word>{7, 8, 9}));
  EXPECT_EQ(faulty.crashes_recovered(), 2U);
  EXPECT_EQ(faulty.metrics().faults_injected, 3U);
  EXPECT_EQ(faulty.metrics().rounds_replayed, 3U);
  EXPECT_GT(faulty.metrics().words_resent, 0U);
  EXPECT_GT(faulty.metrics().checkpoint_bytes, 0U);
  EXPECT_EQ(clean.metrics().faults_injected, 0U);
  EXPECT_EQ(clean.metrics().rounds_replayed, 0U);
}

TEST(CcliqueFault, CrashBudgetExhaustionNamesThePlayer) {
  Engine e(kPlayers);
  fault::FaultPlan plan;
  plan.crash_budget = 1;
  plan.add_crash(2, 0).add_crash(3, 1);
  e.set_fault_plan(&plan);
  stage_round(e, 0);
  e.exchange();  // the first crash fits the budget
  EXPECT_EQ(e.crashes_recovered(), 1U);
  stage_round(e, 1);
  try {
    e.exchange();
    FAIL() << "second crash did not exhaust the budget";
  } catch (const fault::FaultBudgetError& err) {
    const std::string what = err.what();
    EXPECT_NE(what.find("player 3"), std::string::npos) << what;
    EXPECT_NE(what.find("round 1"), std::string::npos) << what;
    EXPECT_NE(what.find("crash budget of 1 exhausted"), std::string::npos)
        << what;
  }
}

TEST(CcliqueFault, LenzenBatchCrashesShareTheBudget) {
  // Both rounds of one Lenzen batch carry a crash; the batch absorbs the
  // first and the second exhausts the same budget exchange() draws on.
  Engine e(kPlayers);
  fault::FaultPlan plan;
  plan.crash_budget = 1;
  plan.add_crash(1, 0).add_crash(2, 1);
  e.set_fault_plan(&plan);
  RouteStream stream;
  for (PlayerId p = 0; p < kPlayers; ++p) stream.append(p, 0, p);
  try {
    (void)e.lenzen_route_view(stream);
    FAIL() << "second crash in the batch did not exhaust the budget";
  } catch (const fault::FaultBudgetError& err) {
    const std::string what = err.what();
    EXPECT_NE(what.find("player 2 crashed in round 1 (lenzen batch)"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("crash budget of 1 exhausted"), std::string::npos)
        << what;
  }
  EXPECT_EQ(e.crashes_recovered(), 1U);
}

TEST(CcliqueFault, CorruptionPastBudgetWithRecoveryOffThrows) {
  Engine e(kPlayers, true, /*integrity=*/true);
  fault::FaultPlan plan;  // budget 2: the third corrupt of one flush
  plan.add_corrupt(1, 0).add_corrupt(1, 0).add_corrupt(1, 0);
  e.set_fault_plan(&plan, nullptr, /*recover=*/false);
  e.send(1, 2, 7);
  e.send(1, 3, 8);
  try {
    e.exchange();
    FAIL() << "third corruption of one flush did not throw";
  } catch (const IntegrityError& err) {
    const std::string what = err.what();
    EXPECT_NE(what.find("player 1 flush corrupted"), std::string::npos)
        << what;
    EXPECT_NE(what.find("retransmit budget of 2 exhausted"),
              std::string::npos)
        << what;
  }
}

TEST(CcliqueFault, StoreRotPastBudgetWithRecoveryOffThrows) {
  Engine e(kPlayers, true, /*integrity=*/true);
  fault::FaultPlan plan;
  plan.retransmit_budget = 1;
  plan.add_corrupt_store(0, 0).add_corrupt_store(0, 0);
  e.set_fault_plan(&plan, nullptr, /*recover=*/false);
  e.broadcast(0, 31);
  try {
    e.exchange();
    FAIL() << "second store rot did not throw";
  } catch (const IntegrityError& err) {
    const std::string what = err.what();
    EXPECT_NE(what.find("player 0 broadcast store corrupted"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("retransmit budget"), std::string::npos) << what;
  }
}

TEST(CcliqueFault, RottingEveryGenerationIsUnrecoverable) {
  // Round 1's crash seeds an older generation; in round 3 two rot events
  // walk the whole ring before the crash asks for a verified restore.
  Engine e(kPlayers, true, /*integrity=*/true);
  std::vector<Word> state = {1, 2, 3, 4};
  fault::CheckpointRegistry registry;
  registry.register_state(
      "state", [&](std::vector<Word>& out) {
        out.insert(out.end(), state.begin(), state.end());
      },
      [&](std::span<const Word> in) { state.assign(in.begin(), in.end()); });
  fault::FaultPlan plan;
  plan.add_crash(0, 1);
  plan.add_corrupt_checkpoint(0, 3).add_corrupt_checkpoint(1, 3);
  plan.add_crash(2, 3);
  e.set_fault_plan(&plan, &registry);
  for (std::size_t r = 0; r < 3; ++r) {
    stage_round(e, r);
    e.exchange();
  }
  stage_round(e, 3);
  try {
    e.exchange();
    FAIL() << "restore with every generation rotted did not throw";
  } catch (const fault::CheckpointError& err) {
    const std::string what = err.what();
    EXPECT_NE(what.find("player 2: all"), std::string::npos) << what;
    EXPECT_NE(what.find("round 3"), std::string::npos) << what;
    EXPECT_NE(what.find("rotted provider(s): state"), std::string::npos)
        << what;
    EXPECT_NE(what.find("unrecoverable"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace mpcg::cclique
