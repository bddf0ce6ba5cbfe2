#include "sim/threadpool.hpp"

#include <algorithm>
#include <exception>

namespace pacds {

/// Shared state of one bulk (run_chunks / parallel_for) invocation. Lives on
/// the caller's stack; helpers hold a pointer only while the caller blocks
/// in bulk_run, so lifetime is guaranteed by the join.
struct ThreadPool::BulkState {
  std::atomic<std::size_t> next{0};
  std::size_t count = 0;
  std::size_t chunk = 1;
  ChunkFnRef body;
  std::mutex mutex;
  std::condition_variable done;
  std::size_t active_helpers = 0;
  std::exception_ptr error;  ///< first exception a chunk threw (mutex)

  explicit BulkState(ChunkFnRef b) : body(b) {}

  /// Claims chunks until the range is exhausted. `lane` is stable for the
  /// whole drain, so chunk bodies may use it to index scratch without locks.
  /// A chunk that throws ends every claimant's drain: its exception is kept
  /// for the caller and the unclaimed chunks never run.
  void drain(std::size_t lane) {
    try {
      while (true) {
        const std::size_t begin =
            next.fetch_add(chunk, std::memory_order_relaxed);
        if (begin >= count) return;
        body(begin, std::min(begin + chunk, count), lane);
      }
    } catch (...) {
      next.store(count, std::memory_order_relaxed);
      const std::lock_guard<std::mutex> lock(mutex);
      if (!error) error = std::current_exception();
    }
  }
};

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  task_ready_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::enqueue(Helper helper) {
  tasks_submitted_.fetch_add(1, std::memory_order_relaxed);
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (queued_ == tasks_.size()) {
      std::vector<Helper> grown(std::max<std::size_t>(8, 2 * tasks_.size()));
      for (std::size_t i = 0; i < queued_; ++i) {
        grown[i] = tasks_[(head_ + i) % tasks_.size()];
      }
      tasks_ = std::move(grown);
      head_ = 0;
    }
    tasks_[(head_ + queued_) % tasks_.size()] = helper;
    ++queued_;
  }
  task_ready_.notify_one();
}

void ThreadPool::bulk_run(std::size_t count, std::size_t chunk,
                          ChunkFnRef body) {
  if (count == 0) return;
  const std::size_t nchunks = (count + chunk - 1) / chunk;
  if (nchunks <= 1 || workers_.empty()) {
    body(0, count, 0);
    return;
  }
  BulkState state(body);
  state.count = count;
  state.chunk = chunk;
  // The caller takes lane 0 and one chunk for sure; at most one helper per
  // remaining chunk is worth waking.
  const std::size_t helpers = std::min(workers_.size(), nchunks - 1);
  state.active_helpers = helpers;
  for (std::size_t h = 0; h < helpers; ++h) enqueue({&state, h + 1});
  state.drain(0);
  std::unique_lock<std::mutex> lock(state.mutex);
  state.done.wait(lock, [&state] { return state.active_helpers == 0; });
  if (state.error) std::rethrow_exception(state.error);
}

void ThreadPool::run_chunks(std::size_t count, std::size_t align,
                            ChunkFnRef body) {
  if (align == 0) align = 1;
  // Target a few chunks per lane: enough slack for dynamic balance, few
  // enough that claim overhead stays invisible; then round the chunk up to
  // the alignment so shards never split an output word.
  const std::size_t lanes = max_lanes();
  std::size_t chunk = (count + lanes * 4 - 1) / (lanes * 4);
  chunk = std::max(chunk, std::size_t{1});
  chunk = (chunk + align - 1) / align * align;
  bulk_run(count, chunk, body);
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& fn) {
  auto body = [&fn](std::size_t begin, std::size_t end, std::size_t /*lane*/) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
  };
  // Chunk of 1: tasks like Monte-Carlo trials are few and long, so per-index
  // claiming gives the best balance while still enqueueing at most
  // thread_count() tasks.
  bulk_run(count, 1, body);
}

void ThreadPool::worker_loop() {
  while (true) {
    Helper helper;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      task_ready_.wait(lock, [this] { return stopping_ || queued_ != 0; });
      if (queued_ == 0) return;  // stopping and drained
      helper = tasks_[head_];
      head_ = (head_ + 1) % tasks_.size();
      --queued_;
    }
    BulkState& bulk = *helper.bulk;
    bulk.drain(helper.lane);
    // Notify while holding the mutex: the caller destroys the state as soon
    // as its wait returns, and the wait cannot return before this unlock —
    // so the cv is never touched after it may have died.
    const std::lock_guard<std::mutex> lock(bulk.mutex);
    --bulk.active_helpers;
    bulk.done.notify_one();
  }
}

}  // namespace pacds
