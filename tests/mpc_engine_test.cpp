#include <numeric>

#include <gtest/gtest.h>

#include "mpc/engine.h"
#include "mpc/partition.h"
#include "mpc/primitives.h"

namespace mpcg::mpc {
namespace {

Engine small_engine(std::size_t machines = 4, std::size_t words = 64,
                    bool strict = true) {
  return Engine(Config{machines, words, strict});
}

TEST(Engine, DeliversInSenderOrder) {
  Engine e = small_engine();
  e.push(2, 0, Word{22});
  e.push(1, 0, Word{11});
  e.push(1, 0, Word{12});
  e.exchange();
  const auto in = e.inbox_view(0).to_vector();
  ASSERT_EQ(in.size(), 3U);
  EXPECT_EQ(in[0], 11U);  // sender 1 before sender 2
  EXPECT_EQ(in[1], 12U);
  EXPECT_EQ(in[2], 22U);
}

TEST(Engine, RoundsCount) {
  Engine e = small_engine();
  EXPECT_EQ(e.metrics().rounds, 0U);
  e.exchange();
  e.exchange();
  EXPECT_EQ(e.metrics().rounds, 2U);
}

TEST(Engine, SpanPush) {
  Engine e = small_engine();
  const std::vector<Word> payload{1, 2, 3};
  e.push(0, 1, payload);
  e.exchange();
  EXPECT_EQ(e.inbox_view(1).size(), 3U);
}

TEST(Engine, StrictSendOverflowThrows) {
  Engine e = small_engine(2, 4, true);
  for (int i = 0; i < 5; ++i) e.push(0, 1, Word{0});
  EXPECT_THROW(e.exchange(), CapacityError);
}

TEST(Engine, StrictReceiveOverflowThrows) {
  Engine e = small_engine(4, 4, true);
  // Each sender within its budget, receiver over it.
  for (std::size_t from = 1; from < 4; ++from) {
    e.push(from, 0, Word{1});
    e.push(from, 0, Word{2});
  }
  EXPECT_THROW(e.exchange(), CapacityError);
}

TEST(Engine, NonStrictCountsViolations) {
  Engine e = small_engine(2, 4, false);
  for (int i = 0; i < 6; ++i) e.push(0, 1, Word{0});
  e.exchange();
  EXPECT_GE(e.metrics().violations, 1U);
  // Still delivered for observability.
  EXPECT_EQ(e.inbox_view(1).size(), 6U);
}

TEST(Engine, PeakMetricsTrack) {
  Engine e = small_engine(3, 64);
  e.push(0, 1, Word{1});
  e.push(0, 2, Word{2});
  e.push(1, 2, Word{3});
  e.exchange();
  EXPECT_EQ(e.metrics().max_sent_words, 2U);      // machine 0 sent 2
  EXPECT_EQ(e.metrics().max_received_words, 2U);  // machine 2 received 2
  EXPECT_EQ(e.metrics().total_words, 3U);
}

TEST(Engine, NoteStorageEnforced) {
  Engine e = small_engine(2, 16, true);
  e.note_storage(0, 16);
  EXPECT_EQ(e.metrics().peak_storage_words, 16U);
  EXPECT_THROW(e.note_storage(1, 17), CapacityError);
}

TEST(Engine, RejectsZeroMachines) {
  EXPECT_THROW(Engine(Config{0, 8, true}), std::invalid_argument);
}

TEST(Engine, LargeClusterFlatPathKeepsInboxContract) {
  // A large cluster on the per-sender buffers with counting-sort
  // delivery: the observable contract (sender-ascending inbox order,
  // metrics) must hold.
  const std::size_t m = 600;
  Engine e(Config{m, 1 << 16, true});
  // Scattered single words from high and low senders, plus a span: the
  // inbox must concatenate by ascending sender, push order within.
  e.push(599, 0, Word{99});
  e.push(1, 0, Word{11});
  e.push(1, 0, Word{12});
  const std::vector<Word> span{21, 22, 23};
  e.push(2, 0, span);
  e.push(2, 5, Word{77});
  e.exchange();
  EXPECT_EQ(e.inbox_view(0).to_vector(),
            (std::vector<Word>{11, 12, 21, 22, 23, 99}));
  EXPECT_EQ(e.inbox_view(5).to_vector(), (std::vector<Word>{77}));
  EXPECT_EQ(e.metrics().rounds, 1U);
  EXPECT_EQ(e.metrics().max_sent_words, 4U);      // machine 2 sent 4
  EXPECT_EQ(e.metrics().max_received_words, 6U);  // machine 0 received 6
  EXPECT_EQ(e.metrics().total_words, 7U);
  EXPECT_EQ(e.metrics().peak_storage_words, 6U);

  // Second round on reused buffers: scattered traffic dense enough to
  // trigger the per-sender counting-sort path (words >= 2 * machines).
  std::vector<std::vector<Word>> expected(m);
  for (std::size_t i = 0; i < 3 * m; ++i) {
    const std::size_t to = (i * 7) % m;
    e.push(3, to, Word{i});
    expected[to].push_back(Word{i});
  }
  e.exchange();
  for (const std::size_t to : {0UL, 1UL, 7UL, 599UL}) {
    EXPECT_EQ(e.inbox_view(to).to_vector(), expected[to])
        << "machine " << to;
  }
  EXPECT_EQ(e.metrics().rounds, 2U);
  EXPECT_EQ(e.metrics().max_sent_words, 3 * m);
}

TEST(Engine, LargeClusterStrictOverflowStillThrows) {
  Engine e(Config{600, 4, true});
  for (int i = 0; i < 5; ++i) e.push(0, 1, Word{0});
  EXPECT_THROW(e.exchange(), CapacityError);
}

TEST(Broadcast, SmallPayloadOneRound) {
  Engine e = small_engine(4, 64);
  const std::vector<Word> payload{42, 43};
  const auto out = broadcast_view(e, 1, payload);
  EXPECT_EQ(std::vector<Word>(out.begin(), out.end()), payload);
  EXPECT_EQ(e.metrics().rounds, 1U);  // fanout covers all machines
}

TEST(Broadcast, LargePayloadUsesRelayTree) {
  // Payload of 32 words, budget 64 -> fanout 2: informed machines grow
  // 1 -> 3 -> 9, so 8 machines need 2 rounds (vs 1 for a small payload).
  Engine e = small_engine(8, 64);
  std::vector<Word> payload(32);
  std::iota(payload.begin(), payload.end(), 0);
  const auto out = broadcast_view(e, 0, payload);
  EXPECT_EQ(std::vector<Word>(out.begin(), out.end()), payload);
  EXPECT_EQ(e.metrics().rounds, 2U);
  EXPECT_EQ(e.metrics().violations, 0U);
}

TEST(Broadcast, OversizedPayloadThrows) {
  Engine e = small_engine(2, 8);
  std::vector<Word> payload(9);
  EXPECT_THROW(broadcast_view(e, 0, payload), CapacityError);
}

TEST(Broadcast, NonRootOrigin) {
  Engine e = small_engine(5, 64);
  const std::vector<Word> payload{7};
  const auto out = broadcast_view(e, 3, payload);
  EXPECT_EQ(std::vector<Word>(out.begin(), out.end()), payload);
}

TEST(GatherTo, ConcatenatesInMachineOrder) {
  Engine e = small_engine(3, 64);
  std::vector<std::vector<Word>> parts{{1}, {2, 3}, {4}};
  const auto gathered = gather_to(e, 1, parts);
  EXPECT_EQ(gathered, (std::vector<Word>{1, 2, 3, 4}));
  EXPECT_EQ(e.metrics().rounds, 1U);
}

TEST(GatherTo, ChargesRootStorage) {
  Engine e = small_engine(2, 8);
  std::vector<std::vector<Word>> parts{{1, 2, 3}, {4, 5}};
  gather_to(e, 0, parts);
  EXPECT_GE(e.metrics().peak_storage_words, 5U);
}

TEST(AllToAll, RoutesEverything) {
  Engine e = small_engine(3, 64);
  std::vector<std::vector<std::vector<Word>>> out(3,
      std::vector<std::vector<Word>>(3));
  out[0][1] = {1};
  out[1][2] = {2, 3};
  out[2][0] = {4};
  const auto in = all_to_all(e, out);
  EXPECT_EQ(in[0], (std::vector<Word>{4}));
  EXPECT_EQ(in[1], (std::vector<Word>{1}));
  EXPECT_EQ(in[2], (std::vector<Word>{2, 3}));
}

TEST(AllReduce, SumAndMax) {
  Engine e = small_engine(4, 64);
  EXPECT_EQ(all_reduce_sum(e, {1, 2, 3, 4}), 10U);
  EXPECT_EQ(all_reduce_max(e, {5, 9, 2, 9}), 9U);
}

TEST(Partition, RandomAssignmentInRange) {
  Rng rng(31);
  const auto assignment = random_vertex_partition(1000, 7, rng);
  ASSERT_EQ(assignment.size(), 1000U);
  for (const auto machine : assignment) EXPECT_LT(machine, 7U);
  const auto groups = group_by_machine(assignment, 7);
  std::size_t total = 0;
  for (const auto& grp : groups) total += grp.size();
  EXPECT_EQ(total, 1000U);
}

TEST(Partition, RoughlyBalanced) {
  Rng rng(32);
  const auto assignment = random_vertex_partition(7000, 7, rng);
  const auto groups = group_by_machine(assignment, 7);
  for (const auto& grp : groups) {
    EXPECT_GT(grp.size(), 700U);
    EXPECT_LT(grp.size(), 1300U);
  }
}

TEST(Partition, HomeOfStable) {
  for (VertexId v = 0; v < 100; ++v) {
    EXPECT_EQ(home_of(v, 5, 9), home_of(v, 5, 9));
    EXPECT_LT(home_of(v, 5, 9), 5U);
  }
}

}  // namespace
}  // namespace mpcg::mpc
