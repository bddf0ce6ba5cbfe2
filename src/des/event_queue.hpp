#pragma once
// Deterministic discrete-event core: a time-ordered event queue with FIFO
// tie-breaking (events at equal timestamps fire in scheduling order), so
// simulations are exactly reproducible.

#include <cstdint>
#include <functional>
#include <vector>

namespace pacds::des {

/// Simulation clock type (abstract time units).
using SimTime = double;

/// Min-heap event queue dispatching std::function thunks. A popped event
/// is moved out of the heap, never copied, before it fires.
class EventQueue {
 public:
  /// Schedules `action` at absolute time `when` (must be >= now()).
  void schedule(SimTime when, std::function<void()> action);

  /// Fires the earliest event; returns false when empty.
  bool run_one();

  /// Runs until empty or the clock passes `until`.
  void run_until(SimTime until);

  /// Runs everything.
  void run_all();

  [[nodiscard]] SimTime now() const noexcept { return now_; }
  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  [[nodiscard]] std::size_t pending() const noexcept { return heap_.size(); }
  [[nodiscard]] std::uint64_t fired() const noexcept { return fired_; }

 private:
  struct Entry {
    SimTime when;
    std::uint64_t seq;
    std::function<void()> action;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;  // FIFO within a timestamp
    }
  };

  std::vector<Entry> heap_;  ///< binary heap under Later (earliest on top)
  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t fired_ = 0;
};

}  // namespace pacds::des
