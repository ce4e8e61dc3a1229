// Pluggable execution backends for the model simulators.
//
// The MPC model (paper, Section 1.1.1) is defined by m machines computing
// *concurrently* between synchronous exchanges, yet the engines simulate
// every machine on one thread. An ExecutionBackend abstracts that choice:
//   * SequentialBackend runs every chunk inline on the caller's thread and
//     is byte-for-byte the historical behavior — it stays the deterministic
//     reference;
//   * ParallelBackend fans chunks out over a fixed-size std::thread pool
//     (the caller participates, so thread counts may oversubscribe the
//     box without deadlock).
//
// Determinism contract. run_chunks(begin, end, fn) splits [begin, end) into
// exactly threads() contiguous chunks whose boundaries are a pure function
// of (begin, end, threads()) — chunk k covers
// [begin + len*k/T, begin + len*(k+1)/T). Every consumer in this codebase
// writes per-chunk (slot-indexed) state during the parallel region and
// merges it in ascending slot order afterwards, so the merged result equals
// the sequential left-to-right reduction for ANY thread count: the
// concatenation of per-chunk results over a contiguous partition of the
// iteration domain, taken in chunk order, is the sequential order itself.
// Shared state may be read freely inside chunks but written only through a
// slot-private channel.
//
// Exceptions thrown inside a chunk are captured per slot and rethrown on
// the calling thread after the join, lowest slot first — matching the
// sequential path, where the earliest iteration's throw wins.
#ifndef MPCG_MPC_BACKEND_H
#define MPCG_MPC_BACKEND_H

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

namespace mpcg::mpc {

class ExecutionBackend {
 public:
  virtual ~ExecutionBackend() = default;

  /// Number of chunks every run_chunks call is split into (1 for the
  /// sequential backend; the pool size, caller included, for the parallel
  /// one).
  [[nodiscard]] virtual std::size_t threads() const noexcept = 0;

  /// True when chunks may run concurrently — the gate every caller uses to
  /// choose between the historical sequential code path and the
  /// slot-sharded one.
  [[nodiscard]] bool parallel() const noexcept { return threads() > 1; }

  /// fn(slot, lo, hi): process iterations [lo, hi) as chunk `slot`.
  using ChunkFn =
      std::function<void(std::size_t, std::size_t, std::size_t)>;

  /// Blocking fork-join over [begin, end): splits the range into threads()
  /// contiguous chunks (empty chunks are skipped) and runs fn once per
  /// chunk. Returns only after every chunk completed; rethrows the
  /// lowest-slot captured exception, if any. Chunk boundaries are identical
  /// across calls with the same (begin, end), so multi-pass schemes
  /// (histogram, then positional copy) see consistent slots.
  virtual void run_chunks(std::size_t begin, std::size_t end,
                          const ChunkFn& fn) = 0;

  /// Blocks until every pool worker is parked in its idle wait (no-op for
  /// the sequential backend); they stay parked until the next run_chunks.
  /// The engines call this at checkpoint/stop safe points so durable
  /// persistence and process death never race a worker.
  virtual void quiesce() {}

  /// Convenience for loops whose iterations are fully independent: runs
  /// fn(i) for every i in [0, range), chunked as above.
  template <typename Fn>
  void parallel_for_machines(std::size_t range, Fn&& fn) {
    run_chunks(0, range,
               [&fn](std::size_t, std::size_t lo, std::size_t hi) {
                 for (std::size_t i = lo; i < hi; ++i) fn(i);
               });
  }
};

/// The deterministic reference: every chunk runs inline, in order, on the
/// calling thread. threads() == 1, so run_chunks degenerates to one call.
class SequentialBackend final : public ExecutionBackend {
 public:
  [[nodiscard]] std::size_t threads() const noexcept override { return 1; }
  void run_chunks(std::size_t begin, std::size_t end,
                  const ChunkFn& fn) override {
    if (begin < end) fn(0, begin, end);
  }
};

/// Fixed-size shared-memory pool. `threads - 1` workers are spawned; the
/// run_chunks caller claims chunks alongside them, so progress never
/// depends on the scheduler granting the workers a core (this box has one).
class ParallelBackend final : public ExecutionBackend {
 public:
  /// Widest pool accepted (caller included). Every width is a count of OS
  /// threads, so an absurd value (a typo such as 100000) must fail before
  /// any thread starts.
  static constexpr std::size_t kMaxThreads = 256;

  /// Throws std::invalid_argument, starting no thread, when `threads`
  /// exceeds kMaxThreads.
  explicit ParallelBackend(std::size_t threads);
  ~ParallelBackend() override;

  ParallelBackend(const ParallelBackend&) = delete;
  ParallelBackend& operator=(const ParallelBackend&) = delete;

  [[nodiscard]] std::size_t threads() const noexcept override {
    return nthreads_;
  }
  void run_chunks(std::size_t begin, std::size_t end,
                  const ChunkFn& fn) override;
  void quiesce() override;

  /// Workers currently parked in the idle wait (of nthreads_ - 1). Exposed
  /// so the quiesce contract is testable.
  [[nodiscard]] std::size_t idle_workers() const;

 private:
  /// One fork-join. Heap-allocated per run_chunks and snapshotted by the
  /// workers under the mutex, so a straggler from a finished job can only
  /// ever drain its own (exhausted) chunk counter — never a later job's.
  struct Job {
    const ChunkFn* fn;
    std::size_t begin;
    std::size_t end;
    std::size_t nchunks;
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> pending;
    std::vector<std::exception_ptr> errors;
  };

  void worker_loop();
  void drain(Job& job);

  std::size_t nthreads_;
  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::uint64_t generation_ = 0;  // bumped per published job
  bool stopping_ = false;
  std::size_t idle_ = 0;  // workers parked in work_cv_ wait
  std::shared_ptr<Job> job_;
  std::vector<std::thread> pool_;
};

/// threads <= 1 -> SequentialBackend (the reference); otherwise a pool of
/// `threads` (caller included; more than ParallelBackend::kMaxThreads
/// throws).
std::unique_ptr<ExecutionBackend> make_backend(std::size_t threads);

/// One staged word destined for an engine outbox: collect-then-drain
/// sharded staging (below) gathers these per (chunk, sender).
struct StageRecord {
  std::uint32_t to;
  std::uint64_t word;
};

/// Collect-then-drain sharded staging for driver loops whose iterations
/// stage through *colliding* senders (e.g. matching's distribute loop
/// stages vertex v through outbox(home[v]), and homes collide across a
/// chunk). The collect phase runs chunked over the iteration domain, each
/// chunk appending records into its own slot's per-sender buckets; the
/// drain phase walks each touched sender's buckets in ascending slot order
/// and hands them to the caller (which appends them to the engine outbox).
// Per-sender engine staging state is disjoint across senders, so distinct
// senders drain concurrently; one sender's records arrive in slot order =
// iteration order, reproducing the sequential per-sender stream exactly
// (including run merging, which only depends on the per-sender append
// sequence).
class StageShards {
 public:
  /// Prepares `slots` x `senders` buckets, clearing only what the previous
  /// collect touched (buckets stay warm across phases).
  void reset(std::size_t slots, std::size_t senders) {
    if (parts_.size() < slots) parts_.resize(slots);
    if (touched_.size() < slots) touched_.resize(slots);
    for (std::size_t s = 0; s < slots_used_; ++s) {
      for (const std::uint32_t snd : touched_[s]) parts_[s][snd].clear();
      touched_[s].clear();
    }
    for (std::size_t s = 0; s < slots; ++s) {
      if (parts_[s].size() < senders) parts_[s].resize(senders);
    }
    if (seen_.size() < senders) seen_.assign(senders, 0);
    slots_used_ = slots;
  }

  /// Collect-phase append from chunk `slot` (slot-private bucket: no
  /// synchronization).
  void add(std::size_t slot, std::uint32_t sender, std::uint32_t to,
           std::uint64_t word) {
    std::vector<StageRecord>& bucket = parts_[slot][sender];
    if (bucket.empty()) touched_[slot].push_back(sender);
    bucket.push_back(StageRecord{to, word});
  }

  /// Drains every touched sender: fn(sender, records) is invoked once per
  /// non-empty (sender, slot) bucket, slots ascending per sender; distinct
  /// senders run in parallel over `backend`. fn must touch only that
  /// sender's engine state.
  template <typename Fn>
  void drain(ExecutionBackend& backend, Fn&& fn) {
    sender_list_.clear();
    for (std::size_t s = 0; s < slots_used_; ++s) {
      for (const std::uint32_t snd : touched_[s]) {
        if (!seen_[snd]) {
          seen_[snd] = 1;
          sender_list_.push_back(snd);
        }
      }
    }
    backend.run_chunks(
        0, sender_list_.size(),
        [&](std::size_t, std::size_t lo, std::size_t hi) {
          for (std::size_t i = lo; i < hi; ++i) {
            const std::uint32_t snd = sender_list_[i];
            for (std::size_t s = 0; s < slots_used_; ++s) {
              const std::vector<StageRecord>& bucket = parts_[s][snd];
              if (!bucket.empty()) {
                fn(snd, std::span<const StageRecord>(bucket));
              }
            }
          }
        });
    for (const std::uint32_t snd : sender_list_) seen_[snd] = 0;
  }

  /// Senders the last drain visited (first-touched order — fine for
  /// touched-only clearing, not an ordering contract). Valid until the
  /// next reset() or drain().
  [[nodiscard]] std::span<const std::uint32_t> drained_senders()
      const noexcept {
    return sender_list_;
  }

 private:
  std::size_t slots_used_ = 0;
  std::vector<std::vector<std::vector<StageRecord>>> parts_;  // [slot][snd]
  std::vector<std::vector<std::uint32_t>> touched_;           // [slot]
  std::vector<std::uint32_t> sender_list_;                    // drain order
  std::vector<char> seen_;
};

}  // namespace mpcg::mpc

#endif  // MPCG_MPC_BACKEND_H
