#pragma once
// Fixed-size fork/join thread pool with two entry points, both on one bulk
// path: the index range is split into chunks which queued helper tasks and
// the calling thread claim off a shared atomic counter, and the call
// returns once every chunk has run.
//
//   parallel_for() — one index per chunk, for few long items: the
//     Monte-Carlo trials of run_lifetime_trials and the per-tenant groups
//     of one serve compute window (each item owns its state, so nothing
//     shared needs a lock).
//
//   run_chunks() — the core::Executor path used *inside* one CDS
//     computation: a handful of chunks per lane, boundaries respecting the
//     requested alignment so bitset-writing shards never share an output
//     word, and a distinct scratch lane per concurrent claimant.
//
// A call queues at most one helper per worker and allocates nothing per
// index. The queue is a ring that only ever grows, so a warm pool forks and
// joins without touching the heap.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "core/parallel.hpp"

namespace pacds {

/// Fixed set of worker threads that help the calling thread through bulk
/// calls; also an Executor.
class ThreadPool final : public Executor {
 public:
  /// `threads == 0` means hardware_concurrency (at least 1).
  explicit ThreadPool(std::size_t threads = 0);

  /// Joins the workers. Every bulk call has joined its helpers before it
  /// returns, so nothing is left on the queue.
  ~ThreadPool() override;

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t thread_count() const noexcept {
    return workers_.size();
  }

  /// Runs fn(i) for i in [0, count) across the pool and waits. Indices are
  /// claimed one at a time off an atomic counter — the number of queued
  /// tasks is bounded by the worker count, not by `count` (no per-index
  /// allocation or queue round-trip; the probe below makes tests able to
  /// assert this). `fn` may throw, as in run_chunks.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& fn);

  /// Total helper tasks ever placed on the queue. Test probe for the
  /// chunking guarantee; perfbench reports it as sim.pool_tasks.
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
  /// Shared state of one bulk call (defined in threadpool.cpp).
  struct BulkState;
  /// One queued helper: drains `*bulk` holding scratch lane `lane`.
  struct Helper {
    BulkState* bulk = nullptr;
    std::size_t lane = 0;
  };

  void worker_loop();
  /// Shared bulk path: runs `body` over [0, count) in `chunk`-sized pieces.
  void bulk_run(std::size_t count, std::size_t chunk, ChunkFnRef body);
  void enqueue(Helper helper);

  std::vector<std::thread> workers_;
  /// Pending helpers, FIFO from head_: a ring that grows geometrically and
  /// never shrinks (a std::queue would free and reallocate deque blocks as
  /// it cycles).
  std::vector<Helper> tasks_;
  std::size_t head_ = 0;
  std::size_t queued_ = 0;
  std::mutex mutex_;
  std::condition_variable task_ready_;
  bool stopping_ = false;
  std::atomic<std::size_t> tasks_submitted_{0};
};

}  // namespace pacds
