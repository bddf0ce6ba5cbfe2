// Tests for the discrete-event core.

#include "des/event_queue.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

namespace pacds::des {
namespace {

TEST(EventQueueTest, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(3.0, [&order] { order.push_back(3); });
  q.schedule(1.0, [&order] { order.push_back(1); });
  q.schedule(2.0, [&order] { order.push_back(2); });
  q.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(q.now(), 3.0);
  EXPECT_EQ(q.fired(), 3u);
}

TEST(EventQueueTest, FifoWithinTimestamp) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.schedule(1.0, [&order, i] { order.push_back(i); });
  }
  q.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueueTest, EventsCanScheduleEvents) {
  EventQueue q;
  int count = 0;
  std::function<void()> tick = [&]() {
    ++count;
    if (count < 4) q.schedule(q.now() + 1.0, tick);
  };
  q.schedule(0.0, tick);
  q.run_all();
  EXPECT_EQ(count, 4);
  EXPECT_DOUBLE_EQ(q.now(), 3.0);
}

TEST(EventQueueTest, RunUntilStopsAtDeadline) {
  EventQueue q;
  int fired = 0;
  q.schedule(1.0, [&fired] { ++fired; });
  q.schedule(5.0, [&fired] { ++fired; });
  q.run_until(2.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(q.now(), 2.0);
  EXPECT_EQ(q.pending(), 1u);
  q.run_all();
  EXPECT_EQ(fired, 2);
}

TEST(EventQueueTest, PastSchedulingThrows) {
  EventQueue q;
  q.schedule(2.0, [] {});
  q.run_all();
  EXPECT_THROW(q.schedule(1.0, [] {}), std::invalid_argument);
  EXPECT_NO_THROW(q.schedule(2.0, [] {}));  // now() is allowed
}

TEST(EventQueueTest, RunOneOnEmpty) {
  EventQueue q;
  EXPECT_FALSE(q.run_one());
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, SameTimeEventScheduledDuringRunFires) {
  EventQueue q;
  int fired = 0;
  q.schedule(1.0, [&] { q.schedule(1.0, [&fired] { ++fired; }); });
  q.run_all();
  EXPECT_EQ(fired, 1);
}

/// A thunk that counts how often it is copied (moves are free).
struct CopyCountingThunk {
  int* copies;
  int* fired;
  CopyCountingThunk(int* c, int* f) : copies(c), fired(f) {}
  CopyCountingThunk(const CopyCountingThunk& other)
      : copies(other.copies), fired(other.fired) {
    ++*copies;
  }
  CopyCountingThunk(CopyCountingThunk&&) noexcept = default;
  CopyCountingThunk& operator=(const CopyCountingThunk&) = delete;
  CopyCountingThunk& operator=(CopyCountingThunk&&) = delete;
  ~CopyCountingThunk() = default;
  void operator()() const { ++*fired; }
};

TEST(EventQueueTest, FiringMovesTheEventOutWithoutCopying) {
  // Events carry whole packets and routes; popping one must not copy it,
  // also while the heap reorders around it.
  EventQueue q;
  int copies = 0;
  int fired = 0;
  for (int i = 0; i < 8; ++i) {
    q.schedule(static_cast<SimTime>(8 - i), CopyCountingThunk(&copies, &fired));
  }
  q.run_all();
  EXPECT_EQ(fired, 8);
  EXPECT_EQ(copies, 0);
}

}  // namespace
}  // namespace pacds::des
