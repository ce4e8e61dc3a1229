#include <gtest/gtest.h>

#include <span>
#include <utility>
#include <vector>

#include "cclique/engine.h"

namespace mpcg::cclique {
namespace {

TEST(CcEngine, PointToPointDelivery) {
  Engine e(4);
  e.send(1, 2, 77);
  e.exchange();
  ASSERT_EQ(e.inbox(2).size(), 1U);
  EXPECT_EQ(e.inbox(2)[0].from, 1U);
  EXPECT_EQ(e.inbox(2)[0].word, 77U);
  EXPECT_TRUE(e.inbox(1).empty());
  EXPECT_EQ(e.metrics().rounds, 1U);
}

TEST(CcEngine, PairBudgetViolationThrows) {
  Engine e(3);
  e.send(0, 1, 1);
  e.send(0, 1, 2);
  EXPECT_THROW(e.exchange(), CongestionError);
}

TEST(CcEngine, DistinctPairsSameRoundOk) {
  Engine e(4);
  e.send(0, 1, 1);
  e.send(0, 2, 2);
  e.send(0, 3, 3);
  e.send(1, 0, 4);
  EXPECT_NO_THROW(e.exchange());
  EXPECT_EQ(e.metrics().max_player_sent, 3U);
}

TEST(CcEngine, NonStrictCountsViolations) {
  Engine e(3, /*strict=*/false);
  e.send(0, 1, 1);
  e.send(0, 1, 2);
  e.exchange();
  EXPECT_GE(e.metrics().violations, 1U);
}

TEST(CcEngine, BroadcastReachesEveryone) {
  Engine e(5);
  e.broadcast(2, 99);
  e.exchange();
  ASSERT_EQ(e.broadcast_inbox().size(), 1U);
  EXPECT_EQ(e.broadcast_inbox()[0].from, 2U);
  EXPECT_EQ(e.broadcast_inbox()[0].word, 99U);
}

TEST(CcEngine, BroadcastPlusSendSamePairThrows) {
  Engine e(3);
  e.broadcast(0, 1);
  e.send(0, 2, 5);
  EXPECT_THROW(e.exchange(), CongestionError);
}

TEST(CcEngine, DoubleBroadcastThrows) {
  Engine e(3);
  e.broadcast(0, 1);
  e.broadcast(0, 2);
  EXPECT_THROW(e.exchange(), CongestionError);
}

TEST(CcEngine, ManyBroadcastersOneRound) {
  Engine e(6);
  for (PlayerId p = 0; p < 6; ++p) e.broadcast(p, p);
  e.exchange();
  EXPECT_EQ(e.broadcast_inbox().size(), 6U);
  EXPECT_EQ(e.metrics().rounds, 1U);
}

TEST(CcEngine, LenzenFeasibleBatchTwoRounds) {
  Engine e(4);
  RouteStream stream;
  for (PlayerId p = 0; p < 4; ++p) stream.append(p, 0, p);
  const auto& delivered = e.lenzen_route_view(stream);
  EXPECT_EQ(delivered[0].size(), 4U);
  EXPECT_EQ(e.metrics().rounds, 2U);
  EXPECT_EQ(e.metrics().lenzen_batches, 1U);
}

TEST(CcEngine, LenzenOverloadSplitsBatches) {
  Engine e(3);
  // 7 messages to player 0; receiver budget is n=3 per batch.
  RouteStream stream;
  for (int i = 0; i < 7; ++i) {
    stream.append(static_cast<PlayerId>(i % 3), 0, static_cast<Word>(i));
  }
  const auto& delivered = e.lenzen_route_view(stream);
  EXPECT_EQ(delivered[0].size(), 7U);
  EXPECT_EQ(e.metrics().lenzen_batches, 3U);  // ceil(7/3)
  EXPECT_EQ(e.metrics().rounds, 6U);
}

/// A player's delivered (sender, word) sequence, in delivery order.
std::vector<std::pair<PlayerId, Word>> flatten(const RouteView& view) {
  std::vector<std::pair<PlayerId, Word>> out;
  for (const RouteSegment& seg : view.segments()) {
    for (std::uint32_t i = 0; i < seg.count; ++i) {
      out.emplace_back(seg.from, seg.words[i]);
    }
  }
  return out;
}

TEST(CcEngine, LenzenRouteStreamMatchesMessageForm) {
  // Per-word appends and whole-run appends of the same message sequence
  // must route identically: same delivery contents and order, same batch
  // splits, same metrics.
  Engine by_words(3);
  Engine by_runs(3);
  const std::vector<Word> burst{40, 41, 42, 43, 44};
  RouteStream words;
  RouteStream runs;
  for (int i = 0; i < 7; ++i) {
    const auto from = static_cast<PlayerId>(i % 3);
    const Word w = static_cast<Word>(i);
    words.append(from, 0, w);
    runs.append_run(from, 0, std::span<const Word>(&w, 1));
  }
  for (const Word w : burst) words.append(2, 1, w);
  runs.append_run(2, 1, burst);
  EXPECT_EQ(words.size(), runs.size());
  const auto& a = by_words.lenzen_route_view(words);
  const auto& b = by_runs.lenzen_route_view(runs);
  for (PlayerId p = 0; p < 3; ++p) {
    EXPECT_EQ(a[p].segments().size(), b[p].segments().size())
        << "player " << p;
    EXPECT_EQ(flatten(a[p]), flatten(b[p])) << "player " << p;
  }
  // Batch-major delivery: player 0's words in staging order across its
  // three batches, and the burst split over batches without reordering.
  const std::vector<std::pair<PlayerId, Word>> want0{
      {0, 0}, {1, 1}, {2, 2}, {0, 3}, {1, 4}, {2, 5}, {0, 6}};
  const std::vector<std::pair<PlayerId, Word>> want1{
      {2, 40}, {2, 41}, {2, 42}, {2, 43}, {2, 44}};
  EXPECT_EQ(flatten(a[0]), want0);
  EXPECT_EQ(flatten(a[1]), want1);
  EXPECT_EQ(by_words.metrics().rounds, by_runs.metrics().rounds);
  EXPECT_EQ(by_words.metrics().lenzen_batches,
            by_runs.metrics().lenzen_batches);
  EXPECT_EQ(by_words.metrics().total_words, by_runs.metrics().total_words);
  EXPECT_EQ(by_words.metrics().max_player_received,
            by_runs.metrics().max_player_received);
}

TEST(CcEngine, LenzenRejectsWhileSendsQueued) {
  Engine e(3);
  e.send(0, 1, 1);
  const RouteStream empty;
  EXPECT_THROW((void)e.lenzen_route_view(empty), std::logic_error);
}

TEST(CcEngine, OutOfRangePlayersThrow) {
  Engine e(3);
  EXPECT_THROW(e.send(0, 3, 1), std::out_of_range);
  EXPECT_THROW(e.send(3, 0, 1), std::out_of_range);
  EXPECT_THROW(e.broadcast(5, 1), std::out_of_range);
}

TEST(CcEngine, RejectsZeroPlayers) {
  EXPECT_THROW(Engine(0), std::invalid_argument);
}

}  // namespace
}  // namespace mpcg::cclique
