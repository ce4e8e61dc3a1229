// Execution backends (mpc/backend.h): the chunk-partition contract, the
// lowest-slot exception rule, pool quiesce at safe points, and the
// headline determinism pin — every driver, on every graph family, at
// every thread count (including oversubscribing this box), produces
// outputs and logical engine metrics bit-identical to the sequential
// reference, with and without faults/integrity/audit armed, and across a
// durable stop/resume seam.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/integral_matching.h"
#include "core/matching_mpc.h"
#include "core/mis_cclique.h"
#include "core/mis_mpc.h"
#include "core/vertex_cover.h"
#include "fault/durable.h"
#include "fault/fault_plan.h"
#include "graph/validation.h"
#include "mpc/backend.h"
#include "mpc/engine.h"
#include "test_util.h"

namespace mpcg {
namespace {

using fault::ResumableInterrupt;
using mpc::ExecutionBackend;
using mpc::ParallelBackend;
using mpc::SequentialBackend;
using mpc::StageShards;
using testing::make_family;

/// Bitwise metrics equality — Metrics has unique object representations
/// (it is a disk format), so memcmp is exact.
template <typename M>
bool same_metrics(const M& a, const M& b) {
  return std::memcmp(&a, &b, sizeof(M)) == 0;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

struct TempDir {
  std::string path;
  TempDir() {
    const char* base = std::getenv("TMPDIR");
    std::string tmpl =
        std::string(base != nullptr && *base != '\0' ? base : "/tmp") +
        "/mpcg_backend_test.XXXXXX";
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

// ------------------------------------------------------- chunk contract

TEST(Backend, SequentialBackendRunsOneInlineChunk) {
  SequentialBackend b;
  EXPECT_EQ(b.threads(), 1U);
  EXPECT_FALSE(b.parallel());
  std::vector<std::size_t> seen;
  b.run_chunks(3, 11, [&](std::size_t slot, std::size_t lo, std::size_t hi) {
    EXPECT_EQ(slot, 0U);
    for (std::size_t i = lo; i < hi; ++i) seen.push_back(i);
  });
  ASSERT_EQ(seen.size(), 8U);
  for (std::size_t i = 0; i < seen.size(); ++i) EXPECT_EQ(seen[i], 3 + i);
  // Empty range: fn never runs.
  b.run_chunks(5, 5, [](std::size_t, std::size_t, std::size_t) { FAIL(); });
}

TEST(Backend, ChunksPartitionTheRangeContiguouslyAscendingBySlot) {
  for (const std::size_t threads : {2U, 3U, 4U, 8U, 16U}) {
    ParallelBackend b(threads);
    EXPECT_TRUE(b.parallel());
    EXPECT_EQ(b.threads(), threads);
    for (const auto [begin, end] :
         {std::pair<std::size_t, std::size_t>{0, 1},
          {0, 7},
          {5, 5},
          {3, 1000},
          {0, threads - 1},  // fewer items than chunks: empties skipped
          {0, threads}}) {
      std::mutex mu;
      std::vector<std::array<std::size_t, 3>> chunks;
      b.run_chunks(begin, end,
                   [&](std::size_t slot, std::size_t lo, std::size_t hi) {
                     std::lock_guard<std::mutex> lock(mu);
                     chunks.push_back({slot, lo, hi});
                   });
      std::sort(chunks.begin(), chunks.end());
      // Non-empty chunks, sorted by slot, tile [begin, end) exactly.
      std::size_t at = begin;
      for (const auto& c : chunks) {
        EXPECT_LT(c[0], threads);
        EXPECT_EQ(c[1], at) << "begin=" << begin << " end=" << end;
        EXPECT_LT(c[1], c[2]);
        at = c[2];
      }
      EXPECT_EQ(at, std::max(begin, end));
      // The boundaries are the documented pure function of (begin, end, T):
      // chunk k covers [begin + len*k/T, begin + len*(k+1)/T).
      const std::size_t len = end - begin;
      for (const auto& c : chunks) {
        EXPECT_EQ(c[1], begin + len * c[0] / threads);
        EXPECT_EQ(c[2], begin + len * (c[0] + 1) / threads);
      }
    }
  }
}

TEST(Backend, ParallelForMachinesVisitsEveryIndexExactlyOnce) {
  ParallelBackend b(4);
  std::vector<std::atomic<int>> hits(257);
  b.parallel_for_machines(hits.size(),
                          [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Backend, LowestSlotExceptionWins) {
  ParallelBackend b(8);
  // Every chunk throws: slot 0's exception must surface.
  try {
    b.run_chunks(0, 64, [](std::size_t slot, std::size_t, std::size_t) {
      throw std::runtime_error("slot " + std::to_string(slot));
    });
    FAIL() << "run_chunks swallowed the exceptions";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "slot 0");
  }
  // Only high slots throw: the lowest thrower wins.
  try {
    b.run_chunks(0, 64, [](std::size_t slot, std::size_t, std::size_t) {
      if (slot >= 5) throw std::runtime_error("slot " + std::to_string(slot));
    });
    FAIL() << "run_chunks swallowed the exceptions";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "slot 5");
  }
  // The pool survives a throwing job and keeps scheduling.
  std::atomic<std::size_t> count{0};
  b.run_chunks(0, 100, [&](std::size_t, std::size_t lo, std::size_t hi) {
    count.fetch_add(hi - lo);
  });
  EXPECT_EQ(count.load(), 100U);
}

TEST(Backend, QuiesceParksEveryWorker) {
  ParallelBackend b(4);
  for (int round = 0; round < 50; ++round) {
    std::atomic<std::size_t> count{0};
    b.run_chunks(0, 17, [&](std::size_t, std::size_t lo, std::size_t hi) {
      count.fetch_add(hi - lo);
    });
    EXPECT_EQ(count.load(), 17U);
    b.quiesce();
    EXPECT_EQ(b.idle_workers(), 3U);
  }
}

TEST(Backend, MakeBackendGatesOnThreadCount) {
  EXPECT_FALSE(mpc::make_backend(0)->parallel());
  EXPECT_FALSE(mpc::make_backend(1)->parallel());
  const auto par = mpc::make_backend(6);
  EXPECT_TRUE(par->parallel());
  EXPECT_EQ(par->threads(), 6U);
}

TEST(Backend, PoolWidthAboveTheCapThrowsBeforeSpawning) {
  // The check runs before any worker starts, so these construct nothing.
  // (Never build a pool at the cap here: that would start 255 threads.)
  constexpr std::size_t over = ParallelBackend::kMaxThreads + 1;
  EXPECT_THROW(ParallelBackend{over}, std::invalid_argument);
  try {
    (void)mpc::make_backend(over);
    FAIL() << "make_backend(" << over << ") must throw";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(std::to_string(over)), std::string::npos) << what;
    EXPECT_NE(what.find(std::to_string(ParallelBackend::kMaxThreads)),
              std::string::npos)
        << what;
  }
}

TEST(Backend, StageShardsReplaySequentialPerSenderOrder) {
  // Collect the same records sequentially and chunked-in-parallel; every
  // sender must drain the identical word sequence.
  constexpr std::size_t kItems = 1000;
  constexpr std::size_t kSenders = 7;
  const auto sender_of = [](std::size_t i) {
    return static_cast<std::uint32_t>((i * 2654435761U) % kSenders);
  };
  std::vector<std::vector<std::uint64_t>> want(kSenders);
  for (std::size_t i = 0; i < kItems; ++i) {
    want[sender_of(i)].push_back(i * 3 + 1);
  }
  for (const std::size_t threads : {2U, 4U, 8U}) {
    ParallelBackend b(threads);
    StageShards shards;
    shards.reset(b.threads(), kSenders);
    b.run_chunks(0, kItems,
                 [&](std::size_t slot, std::size_t lo, std::size_t hi) {
                   for (std::size_t i = lo; i < hi; ++i) {
                     shards.add(slot, sender_of(i), 0, i * 3 + 1);
                   }
                 });
    std::vector<std::vector<std::uint64_t>> got(kSenders);
    std::mutex mu;
    shards.drain(b, [&](std::uint32_t snd,
                        std::span<const mpc::StageRecord> recs) {
      // Per-sender buckets arrive slot-ascending; distinct senders may be
      // interleaved across threads, so only guard the shared vector.
      std::lock_guard<std::mutex> lock(mu);
      for (const auto& r : recs) got[snd].push_back(r.word);
    });
    EXPECT_EQ(got, want) << "threads=" << threads;
    EXPECT_EQ(shards.drained_senders().size(), kSenders);
  }
}

// -------------------------------------------- engine safe-point quiesce

TEST(Backend, EngineCheckpointBoundaryQuiescesThePool) {
  mpc::Config cfg{4, 1 << 16, true};
  cfg.threads = 4;
  mpc::Engine engine(cfg);
  auto* pool = dynamic_cast<ParallelBackend*>(&engine.backend());
  ASSERT_NE(pool, nullptr);
  for (int round = 0; round < 10; ++round) {
    for (std::size_t from = 0; from < 4; ++from) {
      mpc::Outbox ob = engine.outbox(from);
      for (std::size_t to = 0; to < 4; ++to) {
        for (int k = 0; k < 100; ++k) ob.append(to, from * 1000 + k);
      }
    }
    engine.exchange();
    // No durability configured: checkpoint_boundary still quiesces first.
    engine.checkpoint_boundary();
    EXPECT_EQ(pool->idle_workers(), 3U);
  }
}

TEST(Backend, CcliqueCheckpointBoundaryQuiescesThePool) {
  cclique::Engine engine(64, /*strict=*/true, /*integrity=*/false,
                         /*audit=*/false, /*scrub_interval=*/0,
                         /*threads=*/4);
  auto* pool = dynamic_cast<ParallelBackend*>(&engine.backend());
  ASSERT_NE(pool, nullptr);
  engine.broadcast(0, 42);
  engine.exchange();
  engine.checkpoint_boundary();
  EXPECT_EQ(pool->idle_workers(), 3U);
}

// ------------------------------------------------- driver coupling pins

constexpr const char* kCouplingFamilies[] = {"gnp_sparse", "rmat", "star"};
constexpr std::size_t kThreadCounts[] = {1, 2, 4, 8};

TEST(BackendCoupling, MisMatchesSequentialBitIdentically) {
  for (const char* family : kCouplingFamilies) {
    const Graph g = make_family(family, 900, 11);
    MisMpcOptions opt;
    opt.seed = 11;
    const auto ref = mis_mpc(g, opt);
    ASSERT_TRUE(is_maximal_independent_set(g, ref.mis)) << family;
    for (const std::size_t threads : kThreadCounts) {
      MisMpcOptions par = opt;
      par.threads = threads;
      const auto got = mis_mpc(g, par);
      EXPECT_EQ(got.mis, ref.mis) << family << " t=" << threads;
      EXPECT_EQ(got.rank_phases, ref.rank_phases);
      EXPECT_EQ(got.sparsified_iterations, ref.sparsified_iterations);
      EXPECT_EQ(got.window_edges_per_phase, ref.window_edges_per_phase);
      EXPECT_TRUE(same_metrics(got.metrics, ref.metrics))
          << family << " t=" << threads;
    }
  }
}

TEST(BackendCoupling, MatchingMatchesSequentialBitIdentically) {
  for (const char* family : kCouplingFamilies) {
    const Graph g = make_family(family, 900, 13);
    MatchingMpcOptions opt;
    opt.seed = 13;
    const auto ref = matching_mpc(g, opt);
    for (const std::size_t threads : kThreadCounts) {
      MatchingMpcOptions par = opt;
      par.threads = threads;
      const auto got = matching_mpc(g, par);
      EXPECT_TRUE(same_bits(got.x, ref.x)) << family << " t=" << threads;
      EXPECT_EQ(got.cover, ref.cover) << family << " t=" << threads;
      EXPECT_EQ(got.freeze_iteration, ref.freeze_iteration);
      EXPECT_EQ(got.phases, ref.phases);
      EXPECT_EQ(got.total_iterations, ref.total_iterations);
      EXPECT_EQ(got.max_local_edges_per_phase, ref.max_local_edges_per_phase);
      EXPECT_TRUE(same_metrics(got.metrics, ref.metrics))
          << family << " t=" << threads;
    }
  }
}

TEST(BackendCoupling, VertexCoverMatchesSequentialBitIdentically) {
  for (const char* family : kCouplingFamilies) {
    const Graph g = make_family(family, 700, 17);
    MatchingMpcOptions opt;
    opt.seed = 17;
    const auto ref = minimum_vertex_cover_mpc(g, opt);
    ASSERT_TRUE(is_vertex_cover(g, ref.cover)) << family;
    for (const std::size_t threads : kThreadCounts) {
      MatchingMpcOptions par = opt;
      par.threads = threads;
      const auto got = minimum_vertex_cover_mpc(g, par);
      EXPECT_EQ(got.cover, ref.cover) << family << " t=" << threads;
      EXPECT_EQ(got.rounds, ref.rounds);
      EXPECT_EQ(got.phases, ref.phases);
      const double a = got.dual_certificate;
      const double b = ref.dual_certificate;
      EXPECT_EQ(std::memcmp(&a, &b, sizeof(double)), 0)
          << family << " t=" << threads;
    }
  }
}

TEST(BackendCoupling, MisCcliqueMatchesSequentialBitIdentically) {
  for (const char* family : kCouplingFamilies) {
    const Graph g = make_family(family, 500, 19);
    MisCcliqueOptions opt;
    opt.seed = 19;
    const auto ref = mis_cclique(g, opt);
    ASSERT_TRUE(is_maximal_independent_set(g, ref.mis)) << family;
    for (const std::size_t threads : kThreadCounts) {
      MisCcliqueOptions par = opt;
      par.threads = threads;
      const auto got = mis_cclique(g, par);
      EXPECT_EQ(got.mis, ref.mis) << family << " t=" << threads;
      EXPECT_EQ(got.rank_phases, ref.rank_phases);
      EXPECT_EQ(got.window_edges_per_phase, ref.window_edges_per_phase);
      EXPECT_TRUE(same_metrics(got.metrics, ref.metrics))
          << family << " t=" << threads;
    }
  }
}

TEST(BackendCoupling, ParallelBackendUnderFaultsIntegrityAudit) {
  // The full armed stack on the pool: injected crashes + payload rot with
  // recovery, checksums, audit, and scrub must still be bit-identical to
  // the *sequential* armed run (which PR 6-8 pinned against fault-free).
  const Graph g = make_family("gnp_sparse", 900, 23);
  MisMpcOptions opt;
  opt.seed = 23;
  const auto probe = mis_mpc(g, opt);
  const auto plan = fault::FaultPlan::random_storm(
      mix64(23, 1, 0xc4a05), /*num_machines=*/2, probe.metrics.rounds, 8);
  MisMpcOptions armed = opt;
  armed.fault_plan = &plan;
  armed.integrity = true;
  armed.audit = true;
  armed.scrub_interval = 3;
  const auto ref = mis_mpc(g, armed);
  EXPECT_EQ(ref.mis, probe.mis);
  for (const std::size_t threads : {2U, 4U}) {
    MisMpcOptions par = armed;
    par.threads = threads;
    const auto got = mis_mpc(g, par);
    EXPECT_EQ(got.mis, ref.mis) << "t=" << threads;
    EXPECT_TRUE(same_metrics(got.metrics, ref.metrics)) << "t=" << threads;
  }
}

TEST(BackendCoupling, ParallelDurableStopResumeMatchesSequential) {
  // Durable stop at a safe point with the pool armed: the quiesce at
  // checkpoint_boundary makes the persisted generation worker-silent, and
  // the resumed (still parallel) run must land bit-identical to the
  // uninterrupted sequential reference.
  const Graph g = make_family("gnp_sparse", 1200, 29);
  MisMpcOptions opt;
  opt.seed = 29;
  const auto ref = mis_mpc(g, opt);
  for (const std::size_t stop_after : {1U, 2U}) {
    TempDir td;
    MisMpcOptions d = opt;
    d.threads = 4;
    d.durable.dir = td.path + "/ck";
    d.durable.stop_after_safe_points = stop_after;
    bool stopped = false;
    try {
      (void)mis_mpc(g, d);
    } catch (const ResumableInterrupt&) {
      stopped = true;
    }
    if (stop_after == 1) EXPECT_TRUE(stopped);
    MisMpcOptions r = opt;
    r.threads = 4;
    r.durable.dir = td.path + "/ck";
    r.durable.resume = true;
    const auto res = mis_mpc(g, r);
    EXPECT_EQ(res.mis, ref.mis) << "stop_after=" << stop_after;
    EXPECT_EQ(res.rank_phases, ref.rank_phases);
    EXPECT_EQ(res.metrics.rounds, ref.metrics.rounds);
    EXPECT_EQ(res.metrics.total_words, ref.metrics.total_words);
    if (stopped) EXPECT_EQ(res.metrics.resume_loads, 1U);
  }
}

}  // namespace
}  // namespace mpcg
