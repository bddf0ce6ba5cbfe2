#include "assembled_trial.hpp"

#include <algorithm>
#include <memory>

#include "energy/battery.hpp"
#include "net/mobility.hpp"
#include "net/rng.hpp"
#include "net/space.hpp"
#include "net/topology.hpp"

namespace perfbench {

using namespace pacds;

const char* phase_layer(obs::Phase phase) {
  switch (phase) {
    case obs::Phase::kLinkBuild:
      return "net.link_build";
    case obs::Phase::kMarking:
      return "core.marking";
    case obs::Phase::kRules:
      return "core.rules";
    case obs::Phase::kDeltaExtract:
      return "net.delta_extract";
    case obs::Phase::kDeltaApply:
      return "core.delta_apply";
    case obs::Phase::kFaultApply:
      return "sim.fault_apply";
    case obs::Phase::kCount_:
      break;
  }
  return "?";
}

AssembledResult run_assembled_trial(const SimConfig& config,
                                    std::uint64_t seed, SpanBuffer& spans,
                                    int parent, const IntervalHooks* hooks) {
  AssembledResult out;
  TrialResult& result = out.result;
  const int trial_span = spans.open(layer::kTrial, parent);
  const int setup_span = spans.open(layer::kSetup, trial_span);

  // Same construction order and RNG use as LifetimeRun's constructor.
  Xoshiro256 rng(seed);
  const Field field(config.field_width, config.field_height,
                    config.field_depth, config.boundary);
  BatteryBank batteries(static_cast<std::size_t>(std::max(config.n_hosts, 1)),
                        config.initial_energy);
  std::vector<Vec2> positions;
  {
    const ScopedSpan span(spans, layer::kPlacement, setup_span);
    if (auto placed = random_connected_placement(
            config.n_hosts, field, config.radius, rng,
            config.connect_retries)) {
      positions = std::move(placed->positions);
      result.placement_attempts = placed->attempts;
    } else {
      positions = random_placement(config.n_hosts, field, rng);
      result.initial_connected = false;
      result.placement_attempts = config.connect_retries;
    }
  }

  std::unique_ptr<MobilityModel> mobility;
  std::unique_ptr<LifetimeEngine> engine;
  obs::MetricsRegistry registry;
  {
    const ScopedSpan span(spans, layer::kEngineBuild, setup_span);
    MobilityParams params = config.mobility_params;
    if (config.mobility_kind == MobilityKind::kPaperJump) {
      params.stay_probability = config.stay_probability;
      params.jump_min = config.jump_min;
      params.jump_max = config.jump_max;
    }
    mobility = make_mobility(config.mobility_kind, params);
    engine = make_lifetime_engine(config);
    engine->set_metrics(&registry);
  }

  double gateway_sum = 0.0;
  double marked_sum = 0.0;
  double churn_sum = 0.0;
  DynBitset prev_gateways;
  DynBitset churn;
  bool have_prev = false;
  bool attrition_stop = false;
  IntervalInputs inputs;

  while (!attrition_stop && result.intervals < config.max_intervals) {
    const bool first = result.intervals == 0;
    const long interval = result.intervals + 1;
    const int step_span = first ? spans.open(layer::kFirstStep, setup_span)
                                : spans.open(layer::kStep, trial_span);
    registry.reset();
    {
      const int update_span = spans.open(layer::kUpdate, step_span);
      engine->update(positions, batteries.levels());
      spans.close(update_span);
      for (std::size_t p = 0; p < obs::kPhaseCount; ++p) {
        const auto phase = static_cast<obs::Phase>(p);
        spans.bucket(phase_layer(phase), update_span,
                     registry.phase_ns(phase));
      }
    }
    const bool snapshot =
        hooks != nullptr && hooks->snapshot_at && hooks->snapshot_at(interval);
    if (snapshot) {
      inputs.positions = positions;
      inputs.levels = batteries.levels();
    }
    const DynBitset& gateways = engine->gateways();
    const IntervalCounts counts = engine->counts();
    gateway_sum += static_cast<double>(counts.gateways);
    marked_sum += static_cast<double>(counts.marked);
    if (have_prev && prev_gateways.size() == gateways.size()) {
      churn = gateways;
      churn ^= prev_gateways;
      churn_sum += static_cast<double>(churn.count());
    }
    prev_gateways = gateways;
    have_prev = true;

    bool someone_died = false;
    {
      const ScopedSpan span(spans, layer::kDrain, step_span);
      const double d = gateway_drain(config.drain_model, batteries.size(),
                                     counts.gateways, config.drain_params);
      const double d_prime = config.drain_params.nongateway_drain;
      for (std::size_t host = 0; host < batteries.size(); ++host) {
        if (batteries.drain(host, gateways.test(host) ? d : d_prime)) {
          someone_died = true;
        }
      }
    }
    ++result.intervals;
    if (!first) {
      SteadyCounters& steady = out.steady;
      ++steady.intervals;
      steady.touched += engine->last_touched();
      for (std::size_t c = 0; c < obs::kCounterCount; ++c) {
        steady.counters[c] += registry.counters()[c];
      }
    }
    if (someone_died) {
      attrition_stop = true;
    } else {
      const ScopedSpan span(spans, layer::kMobility, step_span);
      mobility->step(positions, field, rng);
    }
    spans.close(step_span);
    if (first) spans.close(setup_span);
    if (hooks != nullptr && hooks->after) {
      const ScopedSpan span(spans, layer::kCheck, trial_span);
      hooks->after(*engine, interval, snapshot ? &inputs : nullptr);
    }
  }
  spans.close(trial_span);

  result.hit_cap = !attrition_stop && result.intervals >= config.max_intervals;
  if (result.intervals > 0) {
    const auto intervals = static_cast<double>(result.intervals);
    result.avg_gateways = gateway_sum / intervals;
    result.avg_marked = marked_sum / intervals;
    result.avg_cds_churn = churn_sum / intervals;
  }
  return out;
}

void LayerInputs::add(const AssembledResult& trial, int n_hosts) {
  ++trials;
  placement_attempts += trial.result.placement_attempts;
  steady.intervals += trial.steady.intervals;
  steady.touched += trial.steady.touched;
  for (std::size_t c = 0; c < obs::kCounterCount; ++c) {
    steady.counters[c] += trial.steady.counters[c];
  }
  host_intervals += static_cast<double>(n_hosts) *
                    static_cast<double>(trial.steady.intervals);
}

double report_lifetime_layers(Run& run, const SpanBuffer& spans,
                              const LayerInputs& inputs,
                              double end_to_end_ms) {
  const auto all = aggregate(spans);
  const auto steady = aggregate(spans, layer::kStep);
  const auto total = [](const std::map<std::string, LayerTotals>& totals,
                        const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second.total_ms;
  };
  const auto self = [](const std::map<std::string, LayerTotals>& totals,
                       const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second.self_ms;
  };
  const double trials = static_cast<double>(std::max<long>(inputs.trials, 1));
  const double intervals =
      static_cast<double>(std::max<long>(inputs.steady.intervals, 1));
  const auto counter = [&](obs::Counter c) {
    return static_cast<double>(
        inputs.steady.counters[static_cast<std::size_t>(c)]);
  };

  run.layer("net.placement_ms", total(all, layer::kPlacement) / trials);
  run.layer("net.placement_attempts",
            static_cast<double>(inputs.placement_attempts) / trials);
  run.layer("sim.setup_ms", total(all, layer::kSetup) / trials);
  for (const obs::Phase phase :
       {obs::Phase::kLinkBuild, obs::Phase::kMarking, obs::Phase::kRules,
        obs::Phase::kDeltaExtract, obs::Phase::kDeltaApply}) {
    const char* name = phase_layer(phase);
    run.layer(std::string(name) + "_ms", total(steady, name) / intervals);
  }
  run.layer("net.edges_changed", (counter(obs::Counter::kEdgesAdded) +
                                  counter(obs::Counter::kEdgesRemoved)) /
                                     intervals);
  run.layer("net.mobility_ms", total(steady, layer::kMobility) / intervals);
  run.layer("energy.drain_ms", total(steady, layer::kDrain) / intervals);
  run.layer("core.touched_ratio",
            static_cast<double>(inputs.steady.touched) /
                std::max(inputs.host_intervals, 1.0));
  run.layer("core.full_refreshes",
            counter(obs::Counter::kFullRefreshes) / intervals);
  const double step_ms = total(steady, layer::kStep);
  const double unattributed_ms =
      self(steady, layer::kStep) + self(steady, layer::kUpdate);
  run.layer("sim.step_ms", step_ms / intervals);
  run.layer("sim.unattributed_ms", unattributed_ms / intervals);

  run.line("attribution (self time summed over " +
           std::to_string(inputs.trials) + " trials, " +
           std::to_string(inputs.steady.intervals) +
           " steady intervals; share of the traced end-to-end time):");
  for (const auto& [name, t] : all) {
    run.layer_row(name, t.self_ms, t.self_ms / std::max(end_to_end_ms, 1e-9),
                  std::to_string(t.count) + " spans");
  }
  const double uncovered = step_ms > 0.0 ? unattributed_ms / step_ms : 0.0;
  run.line("named layers cover " + std::to_string(100.0 * (1.0 - uncovered)) +
           "% of sim.step (unattributed: step and update self time)");
  return uncovered;
}

bool same_result(const TrialResult& a, const TrialResult& b) {
  return a.intervals == b.intervals && a.avg_gateways == b.avg_gateways &&
         a.avg_marked == b.avg_marked && a.avg_cds_churn == b.avg_cds_churn &&
         a.hit_cap == b.hit_cap && a.initial_connected == b.initial_connected &&
         a.placement_attempts == b.placement_attempts;
}

void add_result(Digest& digest, const TrialResult& result) {
  digest.add(result.intervals)
      .add(result.avg_gateways)
      .add(result.avg_marked)
      .add(result.avg_cds_churn)
      .add(static_cast<int>(result.hit_cap))
      .add(static_cast<int>(result.initial_connected))
      .add(result.placement_attempts);
}

}  // namespace perfbench
