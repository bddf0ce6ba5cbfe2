#pragma once
// Per-host battery state. Energy levels start at a uniform initial value
// (the paper uses 100) and are drained once per update interval depending on
// gateway status; a host "ceases to function" when its level reaches zero.

#include <cstddef>
#include <vector>

namespace pacds {

/// Battery bank for n hosts.
class BatteryBank {
 public:
  /// All hosts start at `initial_level` (> 0).
  BatteryBank(std::size_t n, double initial_level);

  [[nodiscard]] std::size_t size() const noexcept { return levels_.size(); }
  [[nodiscard]] double initial_level() const noexcept { return initial_; }

  [[nodiscard]] double level(std::size_t host) const;
  [[nodiscard]] const std::vector<double>& levels() const noexcept {
    return levels_;
  }

  /// True iff the host's level is still above zero.
  [[nodiscard]] bool alive(std::size_t host) const;

  /// Number of hosts with positive energy.
  [[nodiscard]] std::size_t alive_count() const noexcept;

  /// Drains `amount` (>= 0) from one host, clamping at zero. Returns true
  /// if this drain killed the host (crossed from positive to zero).
  bool drain(std::size_t host, double amount);

  /// Lowest level across all hosts (0 if any host is dead).
  [[nodiscard]] double min_level() const noexcept;

  /// True iff some host has zero energy — the paper's network-death event.
  [[nodiscard]] bool any_dead() const noexcept { return dead_count_ > 0; }

 private:
  std::vector<double> levels_;
  double initial_;
  std::size_t dead_count_ = 0;
};

}  // namespace pacds
