// No-recovery fault semantics of the MPC engine's staged flushes, pinned
// word for word on a 4-machine cluster. With FaultPlan recovery off, a
// dropped flush (unicast and shared sends) is lost, a duplicated flush
// delivers its unicast stream twice, a delayed flush holds its unicast
// stream back to the end of the next round's staging, and a crashed
// machine loses its flush and blanks its own inbox for the round. Every
// round stages single words, a run, a broadcast and a gather per sender,
// so the splice positions of the shared segments are pinned too. Audit
// mode must accept every round and change nothing.
#include <vector>

#include <gtest/gtest.h>

#include "fault/fault_plan.h"
#include "mpc/engine.h"

namespace mpcg::mpc {
namespace {

constexpr std::size_t kMachines = 4;

/// Word `w` of sender `from`'s traffic in round `round`, readable as
/// round|from|w in the pinned inboxes below.
Word tag(std::size_t round, std::size_t from, std::size_t w) {
  return static_cast<Word>(round * 1000 + from * 100 + w);
}

/// One round of traffic from every sender, unicast and shared
/// interleaved: a word to the next machine, a broadcast to its two
/// neighbours, a two-word run across the ring, a gather to machine 0, and
/// one more word to the next machine.
void stage_round(Engine& e, std::size_t round) {
  for (std::size_t from = 0; from < kMachines; ++from) {
    const std::size_t next = (from + 1) % kMachines;
    const std::size_t prev = (from + 3) % kMachines;
    Outbox ob = e.outbox(from);
    ob.append(next, tag(round, from, 1));
    e.push_broadcast(from, std::vector<std::size_t>{next, prev},
                     std::vector<Word>{tag(round, from, 50)});
    ob.append_run((from + 2) % kMachines,
                  std::vector<Word>{tag(round, from, 2), tag(round, from, 3)});
    e.push_gather(
        from, 0, std::vector<Word>{tag(round, from, 60), tag(round, from, 61)});
    ob.append(next, tag(round, from, 4));
  }
}

using Inboxes = std::vector<std::vector<Word>>;

// Round 0 is clean; drop:1@1 loses machine 1's unicast and shared sends;
// dup:2@2 appends a second copy of machine 2's unicast stream after its
// gather; delay:0@3 moves machine 0's unicast words to the tail of its
// round-4 stream; crash:3@4 loses machine 3's sends and leaves machine 3
// with an empty inbox; round 5 is clean again.
const std::vector<Inboxes> kExpected = {
    {{60, 61, 150, 160, 161, 202, 203, 260, 261, 301, 350, 360, 361, 304},
     {1, 50, 4, 250, 302, 303},
     {2, 3, 101, 150, 104, 350},
     {50, 102, 103, 201, 250, 204}},
    {{1060, 1061, 1202, 1203, 1260, 1261, 1301, 1350, 1360, 1361, 1304},
     {1001, 1050, 1004, 1250, 1302, 1303},
     {1002, 1003, 1350},
     {1050, 1201, 1250, 1204}},
    {{2060, 2061, 2150, 2160, 2161, 2202, 2203, 2260, 2261, 2202, 2203, 2301,
      2350, 2360, 2361, 2304},
     {2001, 2050, 2004, 2250, 2302, 2303},
     {2002, 2003, 2101, 2150, 2104, 2350},
     {2050, 2102, 2103, 2201, 2250, 2204, 2201, 2204}},
    {{3060, 3061, 3150, 3160, 3161, 3202, 3203, 3260, 3261, 3301, 3350, 3360,
      3361, 3304},
     {3050, 3250, 3302, 3303},
     {3101, 3150, 3104, 3350},
     {3050, 3102, 3103, 3201, 3250, 3204}},
    {{4060, 4061, 4150, 4160, 4161, 4202, 4203, 4260, 4261},
     {4001, 4050, 4004, 3001, 3004, 4250},
     {4002, 4003, 3002, 3003, 4101, 4150, 4104},
     {}},
    {{5060, 5061, 5150, 5160, 5161, 5202, 5203, 5260, 5261, 5301, 5350, 5360,
      5361, 5304},
     {5001, 5050, 5004, 5250, 5302, 5303},
     {5002, 5003, 5101, 5150, 5104, 5350},
     {5050, 5102, 5103, 5201, 5250, 5204}},
};

/// Parameter: Config::audit.
class NoRecoveryFaults : public ::testing::TestWithParam<bool> {};

TEST_P(NoRecoveryFaults, InboxesAndMetricsArePinned) {
  Config cfg;
  cfg.num_machines = kMachines;
  // Machine 0 receives 14 words in a clean round: over budget, tallied.
  cfg.words_per_machine = 12;
  cfg.strict = false;
  cfg.audit = GetParam();
  Engine e(cfg);
  const fault::FaultPlan plan =
      fault::FaultPlan::parse("drop:1@1,dup:2@2,delay:0@3,crash:3@4");
  e.set_fault_plan(&plan, nullptr, /*recover=*/false);

  for (std::size_t round = 0; round < kExpected.size(); ++round) {
    stage_round(e, round);
    e.exchange();
    for (std::size_t machine = 0; machine < kMachines; ++machine) {
      EXPECT_EQ(e.inbox_view(machine).to_vector(), kExpected[round][machine])
          << "round " << round << " machine " << machine;
    }
  }

  const Metrics& m = e.metrics();
  EXPECT_EQ(m.rounds, 6U);
  EXPECT_EQ(m.max_sent_words, 12U);
  EXPECT_EQ(m.max_received_words, 16U);
  EXPECT_EQ(m.peak_storage_words, 16U);
  EXPECT_EQ(m.violations, 4U);
  EXPECT_EQ(m.total_words, 180U);
  EXPECT_EQ(m.faults_injected, 4U);
  // Without recovery nothing is captured, replayed or resent.
  EXPECT_EQ(m.rounds_replayed, 0U);
  EXPECT_EQ(m.words_resent, 0U);
  EXPECT_EQ(m.checkpoint_bytes, 0U);
  EXPECT_EQ(e.crashes_recovered(), 0U);
}

INSTANTIATE_TEST_SUITE_P(AuditOffAndOn, NoRecoveryFaults, ::testing::Bool(),
                         [](const auto& info) {
                           return info.param ? "audit" : "plain";
                         });

}  // namespace
}  // namespace mpcg::mpc
