#include "des/event_queue.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace pacds::des {

void EventQueue::schedule(SimTime when, std::function<void()> action) {
  if (when < now_) {
    throw std::invalid_argument("EventQueue::schedule: time in the past");
  }
  heap_.push_back(Entry{when, next_seq_++, std::move(action)});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

bool EventQueue::run_one() {
  if (heap_.empty()) return false;
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  Entry entry = std::move(heap_.back());
  heap_.pop_back();
  now_ = entry.when;
  ++fired_;
  entry.action();
  return true;
}

void EventQueue::run_until(SimTime until) {
  while (!heap_.empty() && heap_.front().when <= until) {
    run_one();
  }
  if (now_ < until) now_ = until;
}

void EventQueue::run_all() {
  while (run_one()) {
  }
}

}  // namespace pacds::des
