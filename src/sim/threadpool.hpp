#pragma once
// Fixed-size thread pool with two execution paths:
//
//   submit()/wait_idle() — a plain task queue, used to spread independent
//     Monte-Carlo trials across cores (each trial is seeded independently
//     via net/rng.hpp, so there is no shared mutable state to protect).
//
//   run_chunks() — the core::Executor bulk path used *inside* one CDS
//     computation: the index range is split into a handful of chunks which
//     workers (and the calling thread) claim off a shared atomic counter.
//     One queue task per participating worker, zero per-index allocations,
//     and a distinct scratch lane per concurrent claimant. Chunk boundaries
//     respect the requested alignment so bitset-writing shards never share
//     an output word. The queue is a ring that only ever grows, so a warm
//     pool forks and joins without touching the heap.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "core/parallel.hpp"

namespace pacds {

/// Fixed set of worker threads draining a task queue; also an Executor.
class ThreadPool final : public Executor {
 public:
  /// `threads == 0` means hardware_concurrency (at least 1).
  explicit ThreadPool(std::size_t threads = 0);

  /// Drains remaining tasks, then joins the workers.
  ~ThreadPool() override;

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t thread_count() const noexcept {
    return workers_.size();
  }

  /// Enqueues a task. Tasks must not throw (they run detached from any
  /// future); wrap fallible work yourself. parallel_for and run_chunks
  /// bodies may throw: see run_chunks.
  void submit(std::function<void()> task);

  /// Blocks until every submitted task has finished.
  void wait_idle();

  /// Runs fn(i) for i in [0, count) across the pool and waits. Work is
  /// claimed in chunks off an atomic counter — the number of queued tasks is
  /// bounded by the worker count, not by `count` (no per-index allocation or
  /// queue round-trip; the probe below makes tests able to assert this).
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& fn);

  /// Total tasks ever placed on the queue (submit calls + bulk helper
  /// tasks). Test probe for the chunking guarantee.
  [[nodiscard]] std::size_t tasks_submitted() const noexcept {
    return tasks_submitted_.load(std::memory_order_relaxed);
  }

  // ---- Executor ----------------------------------------------------------

  /// Workers plus the participating caller.
  [[nodiscard]] std::size_t max_lanes() const override {
    return workers_.size() + 1;
  }

  /// Fork/join over [0, count): chunk size is a multiple of `align`
  /// (targeting a few chunks per lane), chunks are claimed off an atomic
  /// counter by up to thread_count() helper tasks plus the calling thread,
  /// and each concurrent claimant holds a distinct lane id. Returns after
  /// every chunk ran. If a body throws, no further chunk is claimed, every
  /// helper finishes its current chunk, and the first exception is
  /// rethrown here; the pool stays usable.
  void run_chunks(std::size_t count, std::size_t align,
                  ChunkFnRef body) override;

 private:
  void worker_loop();
  /// Shared bulk path: runs `body` over [0, count) in `chunk`-sized pieces.
  void bulk_run(std::size_t count, std::size_t chunk, ChunkFnRef body);

  std::vector<std::thread> workers_;
  /// Pending tasks, FIFO from head_: a ring that grows geometrically and
  /// never shrinks (a std::queue would free and reallocate deque blocks as
  /// it cycles).
  std::vector<std::function<void()>> tasks_;
  std::size_t head_ = 0;
  std::size_t queued_ = 0;
  std::mutex mutex_;
  std::condition_variable task_ready_;
  std::condition_variable all_done_;
  std::size_t in_flight_ = 0;
  bool stopping_ = false;
  std::atomic<std::size_t> tasks_submitted_{0};
};

}  // namespace pacds
