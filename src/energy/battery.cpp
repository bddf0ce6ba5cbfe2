#include "energy/battery.hpp"

#include <algorithm>
#include <stdexcept>

namespace pacds {

BatteryBank::BatteryBank(std::size_t n, double initial_level)
    : levels_(n, initial_level), initial_(initial_level) {
  if (!(initial_level > 0.0)) {
    throw std::invalid_argument("BatteryBank: initial level must be positive");
  }
}

double BatteryBank::level(std::size_t host) const {
  if (host >= levels_.size()) {
    throw std::out_of_range("BatteryBank::level: host out of range");
  }
  return levels_[host];
}

bool BatteryBank::alive(std::size_t host) const { return level(host) > 0.0; }

std::size_t BatteryBank::alive_count() const noexcept {
  return levels_.size() - dead_count_;
}

bool BatteryBank::drain(std::size_t host, double amount) {
  if (host >= levels_.size()) {
    throw std::out_of_range("BatteryBank::drain: host out of range");
  }
  if (amount < 0.0) {
    throw std::invalid_argument("BatteryBank::drain: negative amount");
  }
  auto& lvl = levels_[host];
  if (lvl <= 0.0) return false;  // already dead; nothing to drain
  lvl -= amount;
  if (lvl <= 0.0) {
    lvl = 0.0;
    ++dead_count_;
    return true;
  }
  return false;
}

double BatteryBank::min_level() const noexcept {
  if (levels_.empty()) return 0.0;
  return *std::min_element(levels_.begin(), levels_.end());
}

}  // namespace pacds
