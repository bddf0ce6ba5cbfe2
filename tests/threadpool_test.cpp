// Tests for the fork/join thread pool.

#include "sim/threadpool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace pacds {
namespace {

TEST(ThreadPoolTest, DefaultHasAtLeastOneThread) {
  ThreadPool pool;
  EXPECT_GE(pool.thread_count(), 1u);
}

TEST(ThreadPoolTest, ExplicitThreadCount) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.thread_count(), 3u);
}

TEST(ThreadPoolTest, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  pool.parallel_for(257, [&hits](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForZeroCount) {
  ThreadPool pool(2);
  pool.parallel_for(0, [](std::size_t) { FAIL(); });
  SUCCEED();
}

TEST(ThreadPoolTest, SequentialReuse) {
  ThreadPool pool(2);
  std::atomic<long> sum{0};
  pool.parallel_for(100, [&sum](std::size_t i) {
    sum.fetch_add(static_cast<long>(i));
  });
  EXPECT_EQ(sum.load(), 4950);
  sum = 0;
  pool.parallel_for(10, [&sum](std::size_t i) {
    sum.fetch_add(static_cast<long>(i));
  });
  EXPECT_EQ(sum.load(), 45);
}

TEST(ThreadPoolTest, ParallelForSubmitsFarFewerTasksThanIndices) {
  // The chunked path must not take one queue round-trip per index: 100k
  // indices may enqueue at most one helper task per worker.
  ThreadPool pool(4);
  const std::size_t before = pool.tasks_submitted();
  std::atomic<long> counter{0};
  pool.parallel_for(100000, [&counter](std::size_t) {
    counter.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(counter.load(), 100000);
  const std::size_t used = pool.tasks_submitted() - before;
  EXPECT_LE(used, pool.thread_count());
  EXPECT_LT(used, 1000u);  // ≪ index count, belt and braces
}

TEST(ThreadPoolTest, HelperTasksPerCallArePinned) {
  // One helper task per worker worth waking: the caller claims a chunk
  // itself, so a call with k chunks queues min(thread_count, k - 1)
  // helpers. This is the count perfbench reports as sim.pool_tasks.
  ThreadPool pool(3);
  const auto helpers_for = [&pool](const auto& call) {
    const std::size_t before = pool.tasks_submitted();
    call();
    return pool.tasks_submitted() - before;
  };
  const auto noop = [](std::size_t) {};
  auto chunk_noop = [](std::size_t, std::size_t, std::size_t) {};
  EXPECT_EQ(helpers_for([&] { pool.parallel_for(100, noop); }), 3u);
  EXPECT_EQ(helpers_for([&] { pool.parallel_for(2, noop); }), 1u);
  EXPECT_EQ(helpers_for([&] { pool.parallel_for(1, noop); }), 0u);
  EXPECT_EQ(helpers_for([&] { pool.parallel_for(0, noop); }), 0u);
  // 4 lanes: chunk = ceil(1000 / 16) rounded up to 64, so 16 chunks.
  EXPECT_EQ(helpers_for([&] { pool.run_chunks(1000, 8, chunk_noop); }), 3u);
  // One aligned chunk covers the range: the caller runs it alone.
  EXPECT_EQ(helpers_for([&] { pool.run_chunks(64, 64, chunk_noop); }), 0u);
}

TEST(ThreadPoolTest, RunChunksCoversRangeWithAlignedBoundaries) {
  ThreadPool pool(3);
  constexpr std::size_t kCount = 1000;
  constexpr std::size_t kAlign = 64;
  std::vector<std::atomic<int>> hits(kCount);
  std::atomic<bool> misaligned{false};
  std::atomic<bool> bad_lane{false};
  auto body = [&](std::size_t begin, std::size_t end, std::size_t lane) {
    if (begin % kAlign != 0 || (end != kCount && end % kAlign != 0)) {
      misaligned.store(true);
    }
    if (lane >= pool.max_lanes()) bad_lane.store(true);
    for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  };
  pool.run_chunks(kCount, kAlign, body);
  for (std::size_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
  EXPECT_FALSE(misaligned.load());
  EXPECT_FALSE(bad_lane.load());
}

TEST(ThreadPoolTest, RunChunksLanesAreExclusive) {
  // Two chunks running concurrently never share a lane, so plain (non-atomic)
  // per-lane accumulators must come out exact. TSAN builds additionally
  // verify the absence of racing writes here.
  ThreadPool pool(4);
  constexpr std::size_t kCount = 4096;
  std::vector<std::size_t> per_lane(pool.max_lanes(), 0);
  auto body = [&per_lane](std::size_t begin, std::size_t end,
                          std::size_t lane) {
    per_lane[lane] += end - begin;
  };
  pool.run_chunks(kCount, 1, body);
  std::size_t total = 0;
  for (const std::size_t c : per_lane) total += c;
  EXPECT_EQ(total, kCount);
}

TEST(ThreadPoolTest, RunChunksZeroCount) {
  ThreadPool pool(2);
  auto body = [](std::size_t, std::size_t, std::size_t) { FAIL(); };
  pool.run_chunks(0, 64, body);
  SUCCEED();
}

TEST(ThreadPoolTest, ParallelForBodyExceptionReachesTheCaller) {
  // A throw on a helper or on the calling thread alike comes back out of
  // parallel_for, after every helper has left the call's state, and the
  // pool takes the next call as if nothing happened.
  ThreadPool pool(2);
  for (const std::size_t bad : {std::size_t{0}, std::size_t{37}}) {
    EXPECT_THROW(pool.parallel_for(100,
                                   [bad](std::size_t i) {
                                     if (i == bad) {
                                       throw std::runtime_error("index");
                                     }
                                   }),
                 std::runtime_error);
  }
  EXPECT_THROW(pool.parallel_for(100,
                                 [](std::size_t) {
                                   throw std::invalid_argument("every index");
                                 }),
               std::invalid_argument);
  std::vector<std::atomic<int>> hits(100);
  pool.parallel_for(100, [&hits](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, RunChunksBodyExceptionReachesTheCaller) {
  ThreadPool pool(2);
  std::atomic<std::size_t> ran{0};
  auto body = [&ran](std::size_t begin, std::size_t end, std::size_t) {
    ran.fetch_add(end - begin);
    if (begin <= 500 && 500 < end) throw std::runtime_error("chunk");
  };
  try {
    pool.run_chunks(1000, 8, body);
    ADD_FAILURE() << "run_chunks returned normally";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "chunk");
  }
  EXPECT_LE(ran.load(), 1000u);
  std::vector<std::atomic<int>> hits(1000);
  auto count_hits = [&hits](std::size_t begin, std::size_t end, std::size_t) {
    for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  };
  pool.run_chunks(1000, 8, count_hits);
  for (std::size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

}  // namespace
}  // namespace pacds
