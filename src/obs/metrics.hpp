#pragma once
// Low-overhead metrics registry for the CDS pipeline: fixed enums of phase
// timers (steady-clock nanosecond buckets) and monotonic counters, stored in
// plain arrays so recording is an add — no maps, no strings, no locks, no
// heap. A null registry pointer disables everything: PhaseTimer does not even
// read the clock, so the zero-cost-when-off contract is structural (and
// enforced by zero_alloc_test for the allocation half).
//
// The registry has *slice* semantics: the owner (e.g. run_lifetime_trial)
// calls reset() at the start of each interval and snapshots the arrays into
// the IntervalRecord at the end, so every record reports that interval's
// work, not a running total.
//
// Header-only on purpose: core/ instruments through an ExecContext pointer
// without linking anything new; only name tables live in metrics.cpp.

#include <array>
#include <chrono>
#include <cstdint>

namespace pacds::obs {

/// Timed pipeline phases. One bucket per enumerator; kCount_ is the size.
enum class Phase : std::uint8_t {
  kLinkBuild,     ///< unit-disk link construction (grid build / rebuild)
  kMarking,       ///< Wu-Li marking process
  kRules,         ///< Rule 1/2 (+ clique policy) pruning passes
  kDeltaExtract,  ///< position diff -> EdgeDelta (incremental, tiled)
  kDeltaApply,    ///< localized 4-hop re-evaluation of a delta
  kFaultApply,    ///< fault-plan evaluation + injection (degraded mode)
  kCount_,
};

/// Monotonic event counters.
enum class Counter : std::uint8_t {
  kNodesTouched,        ///< nodes whose gateway status was re-evaluated
  kPoolTasksSubmitted,  ///< chunk tasks handed to the thread pool
  kEdgesAdded,          ///< links appearing in an EdgeDelta
  kEdgesRemoved,        ///< links vanishing in an EdgeDelta
  kFullRefreshes,       ///< whole-graph recomputations
  kLocalizedUpdates,    ///< delta-driven incremental advances
  kFaultEvents,         ///< fault events applied this interval
  kHostsDown,           ///< hosts down (crashed or dead) after injection
  kCount_,
};

inline constexpr std::size_t kPhaseCount =
    static_cast<std::size_t>(Phase::kCount_);
inline constexpr std::size_t kCounterCount =
    static_cast<std::size_t>(Counter::kCount_);

using PhaseArray = std::array<std::uint64_t, kPhaseCount>;
using CounterArray = std::array<std::uint64_t, kCounterCount>;

/// Stable snake_case names ("marking", "delta_extract", ...) used as JSONL
/// field stems; defined in metrics.cpp.
[[nodiscard]] const char* phase_name(Phase phase) noexcept;
/// Stable snake_case names ("nodes_touched", ...); defined in metrics.cpp.
[[nodiscard]] const char* counter_name(Counter counter) noexcept;

/// Fixed-size counter + phase-timer store. Not thread-safe by design: the
/// deterministic pipeline records only from the coordinating thread (workers
/// never touch the registry), so recording stays a plain add.
class MetricsRegistry {
 public:
  void add(Counter counter, std::uint64_t delta = 1) noexcept {
    counters_[static_cast<std::size_t>(counter)] += delta;
  }

  void record_phase(Phase phase, std::uint64_t nanoseconds) noexcept {
    phase_ns_[static_cast<std::size_t>(phase)] += nanoseconds;
    ++phase_calls_[static_cast<std::size_t>(phase)];
  }

  [[nodiscard]] std::uint64_t counter(Counter counter) const noexcept {
    return counters_[static_cast<std::size_t>(counter)];
  }
  [[nodiscard]] std::uint64_t phase_ns(Phase phase) const noexcept {
    return phase_ns_[static_cast<std::size_t>(phase)];
  }
  [[nodiscard]] std::uint64_t phase_calls(Phase phase) const noexcept {
    return phase_calls_[static_cast<std::size_t>(phase)];
  }

  [[nodiscard]] const CounterArray& counters() const noexcept {
    return counters_;
  }
  [[nodiscard]] const PhaseArray& phases() const noexcept { return phase_ns_; }

  /// Zeroes every bucket — call at the start of each interval slice.
  void reset() noexcept {
    counters_.fill(0);
    phase_ns_.fill(0);
    phase_calls_.fill(0);
  }

 private:
  CounterArray counters_{};
  PhaseArray phase_ns_{};
  PhaseArray phase_calls_{};
};

/// RAII phase timer. With a null registry the constructor and destructor do
/// nothing at all (no clock read); with one, elapsed steady-clock time lands
/// in the phase's bucket on destruction.
class PhaseTimer {
 public:
  PhaseTimer(MetricsRegistry* registry, Phase phase) noexcept
      : registry_(registry), phase_(phase) {
    if (registry_ != nullptr) start_ = std::chrono::steady_clock::now();
  }

  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

  ~PhaseTimer() {
    if (registry_ == nullptr) return;
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    registry_->record_phase(
        phase_, static_cast<std::uint64_t>(
                    std::chrono::duration_cast<std::chrono::nanoseconds>(
                        elapsed)
                        .count()));
  }

 private:
  MetricsRegistry* registry_;
  Phase phase_;
  std::chrono::steady_clock::time_point start_{};
};

}  // namespace pacds::obs
