#pragma once
// The traced form of one lifetime trial. LifetimeRun hides its layers, so
// the traced run rebuilds the trial from the layers' public calls —
// random_connected_placement, make_lifetime_engine + LifetimeEngine::update
// with an obs::MetricsRegistry attached, gateway_drain + BatteryBank::drain,
// MobilityModel::step — in exactly LifetimeRun's order, recording a span
// around each call. The result must equal the untraced LifetimeRun's
// bit for bit; the traced runs check that.

#include <cstdint>
#include <functional>
#include <vector>

#include "common.hpp"
#include "obs/metrics.hpp"
#include "sim/engine.hpp"
#include "sim/lifetime.hpp"

namespace perfbench {

/// Span names of the layers a trial is made of.
namespace layer {
inline constexpr const char* kTrial = "sim.trial";
inline constexpr const char* kSetup = "sim.setup";
inline constexpr const char* kPlacement = "net.placement";
inline constexpr const char* kEngineBuild = "sim.engine_build";
inline constexpr const char* kFirstStep = "sim.first_step";
inline constexpr const char* kStep = "sim.step";
inline constexpr const char* kUpdate = "sim.update";
inline constexpr const char* kDrain = "energy.drain";
inline constexpr const char* kMobility = "net.mobility";
/// The benchmark's own per-interval checks (not a layer of the program).
inline constexpr const char* kCheck = "bench.check";
}  // namespace layer

/// Span name of each obs::Phase bucket the engines fill.
[[nodiscard]] const char* phase_layer(pacds::obs::Phase phase);

/// Counters summed over a trial's steady intervals (every interval after
/// the first, which belongs to set-up).
struct SteadyCounters {
  long intervals = 0;
  std::uint64_t touched = 0;  ///< LifetimeEngine::last_touched() summed
  pacds::obs::CounterArray counters{};
};

struct AssembledResult {
  pacds::TrialResult result;
  SteadyCounters steady;
};

/// Inputs of one interval as the engine saw them, copied before the drain
/// and the mobility step change them (for shadow comparisons).
struct IntervalInputs {
  std::vector<pacds::Vec2> positions;
  std::vector<double> levels;
};

/// Optional per-interval checks. They run in a bench.check span outside
/// the step, so their time never counts as a layer's.
struct IntervalHooks {
  /// Whether to copy interval `interval`'s inputs for `after`.
  std::function<bool(long interval)> snapshot_at;
  /// Called once the interval's step span has closed. The engine still
  /// holds this interval's graph and gateways; `inputs` is non-null when
  /// snapshot_at asked for a copy.
  std::function<void(const pacds::LifetimeEngine& engine, long interval,
                     const IntervalInputs* inputs)>
      after;
};

/// Runs one fault-free trial of `config` from `seed` with spans in
/// `spans` (under `parent`).
[[nodiscard]] AssembledResult run_assembled_trial(
    const pacds::SimConfig& config, std::uint64_t seed, SpanBuffer& spans,
    int parent = -1, const IntervalHooks* hooks = nullptr);

/// Per-layer totals over many assembled trials.
struct LayerInputs {
  long trials = 0;
  long placement_attempts = 0;
  SteadyCounters steady;
  double host_intervals = 0.0;  ///< n summed over steady intervals

  void add(const AssembledResult& trial, int n_hosts);
};

/// Sets the lifetime layers' per-layer metrics from the trials' spans and
/// counters, and prints the attribution table. `end_to_end_ms` is the
/// time the shares are taken of. Returns sim.unattributed_ms divided by
/// sim.step_ms.
double report_lifetime_layers(Run& run, const SpanBuffer& spans,
                              const LayerInputs& inputs,
                              double end_to_end_ms);

/// Whether two trial results agree bit for bit.
[[nodiscard]] bool same_result(const pacds::TrialResult& a,
                               const pacds::TrialResult& b);

/// Digest input of a trial result.
void add_result(Digest& digest, const pacds::TrialResult& result);

}  // namespace perfbench
