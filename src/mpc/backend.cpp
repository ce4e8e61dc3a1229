#include "mpc/backend.h"

namespace mpcg::mpc {

ParallelBackend::ParallelBackend(std::size_t threads)
    : nthreads_(threads < 2 ? 2 : threads) {
  pool_.reserve(nthreads_ - 1);
  for (std::size_t i = 0; i + 1 < nthreads_; ++i) {
    pool_.emplace_back([this] { worker_loop(); });
  }
}

ParallelBackend::~ParallelBackend() {
  {
    std::lock_guard<std::mutex> lg(mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : pool_) t.join();
}

void ParallelBackend::worker_loop() {
  std::uint64_t seen = 0;
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    ++idle_;
    done_cv_.notify_all();  // quiesce() watches idle_
    // Wake only for a job still in flight. A worker signalled for a job the
    // caller finished before it woke stays in the wait, so the idle count
    // quiesce() reads cannot drop once run_chunks has returned.
    work_cv_.wait(lk, [&] {
      return stopping_ || (generation_ != seen && job_ != nullptr);
    });
    --idle_;
    if (stopping_) return;
    seen = generation_;
    // Snapshot the job under the lock: a straggler that re-enters after the
    // caller already published a newer job keeps its own (exhausted) Job
    // and drains nothing.
    std::shared_ptr<Job> job = job_;
    lk.unlock();
    if (job) drain(*job);
    lk.lock();
  }
}

void ParallelBackend::drain(Job& job) {
  const std::size_t len = job.end - job.begin;
  for (;;) {
    const std::size_t slot = job.next.fetch_add(1, std::memory_order_relaxed);
    if (slot >= job.nchunks) return;
    const std::size_t lo = job.begin + len * slot / job.nchunks;
    const std::size_t hi = job.begin + len * (slot + 1) / job.nchunks;
    if (lo < hi) {
      try {
        (*job.fn)(slot, lo, hi);
      } catch (...) {
        job.errors[slot] = std::current_exception();
      }
    }
    if (job.pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      // Last chunk done: wake the caller blocked in run_chunks. The lock
      // orders this notify against the caller entering its wait.
      std::lock_guard<std::mutex> lg(mu_);
      done_cv_.notify_all();
    }
  }
}

void ParallelBackend::run_chunks(std::size_t begin, std::size_t end,
                                 const ChunkFn& fn) {
  if (begin >= end) return;
  std::shared_ptr<Job> job = std::make_shared<Job>();
  job->fn = &fn;
  job->begin = begin;
  job->end = end;
  job->nchunks = nthreads_;
  job->pending.store(nthreads_, std::memory_order_relaxed);
  job->errors.assign(nthreads_, nullptr);
  {
    std::lock_guard<std::mutex> lg(mu_);
    job_ = job;
    ++generation_;
  }
  work_cv_.notify_all();
  drain(*job);  // the caller participates: progress on a one-core box
  {
    std::unique_lock<std::mutex> lk(mu_);
    done_cv_.wait(lk, [&] {
      return job->pending.load(std::memory_order_acquire) == 0;
    });
    if (job_ == job) job_.reset();
  }
  for (std::exception_ptr& e : job->errors) {
    if (e) std::rethrow_exception(e);  // lowest slot wins, like sequential
  }
}

void ParallelBackend::quiesce() {
  std::unique_lock<std::mutex> lk(mu_);
  done_cv_.wait(lk, [&] {
    return (job_ == nullptr ||
            job_->pending.load(std::memory_order_acquire) == 0) &&
           idle_ == pool_.size();
  });
}

std::size_t ParallelBackend::idle_workers() const {
  std::lock_guard<std::mutex> lg(mu_);
  return idle_;
}

std::unique_ptr<ExecutionBackend> make_backend(std::size_t threads) {
  if (threads <= 1) return std::make_unique<SequentialBackend>();
  return std::make_unique<ParallelBackend>(threads);
}

}  // namespace mpcg::mpc
