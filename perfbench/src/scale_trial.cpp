// scale_trial: one LifetimeRun of 10^5 hosts at the paper's density (50
// hosts per 100x100), EL2, simultaneous strategy, paper-jump stay 0.95,
// drain model 1, on the tiled engine with nproc lanes. Grid delta
// extraction, tile stages, intra-interval fork/join and memory dominate;
// the trial pool, the sequential rules and serve sit idle.

#include <algorithm>
#include <cmath>

#include "assembled_trial.hpp"
#include "net/rng.hpp"
#include "sim/engine.hpp"

namespace perfbench {

using namespace pacds;

namespace {

struct ScaleShape {
  int n_hosts = 100000;
  /// Steady intervals per run: p90 needs ten samples beyond it.
  std::size_t min_steady = 110;
  long max_intervals = 200000;
};

ScaleShape shape(const Options& options) {
  if (options.smoke) return {2000, 12, 8};
  return {};
}

SimConfig scale_config(const ScaleShape& shape, int lanes) {
  SimConfig config;
  config.n_hosts = shape.n_hosts;
  // 50 hosts per 100 x 100, the paper's density.
  const double side = 100.0 * std::sqrt(shape.n_hosts / 50.0);
  config.field_width = side;
  config.field_height = side;
  config.rule_set = RuleSet::kEL2;
  config.cds_options.strategy = Strategy::kSimultaneous;
  config.stay_probability = 0.95;
  config.drain_model = DrainModel::kConstantTotal;
  config.engine = SimEngine::kTiled;
  config.threads = lanes;
  // A field this sparse is never connected; retries would only place the
  // hosts again.
  config.connect_retries = 1;
  config.max_intervals = shape.max_intervals;
  return config;
}

/// Canonical instance whose digest is pinned in golden.cpp: the same
/// configuration at n = 10^4 for 20 intervals.
std::string canonical_digest(int lanes) {
  ScaleShape small;
  small.n_hosts = 10000;
  small.max_intervals = 20;
  LifetimeRun run(scale_config(small, lanes), 20010101);
  while (run.step()) {
  }
  Digest digest;
  add_result(digest, run.result());
  return digest.hex();
}

}  // namespace

void run_scale_trial(Run& run) {
  const Options& options = run.options();
  const ScaleShape scale = shape(options);
  const int lanes = options.lanes > 0 ? options.lanes : host_cpus();
  run.guard_threads("scale_trial interval lanes", lanes);
  run.stamp("lanes", std::to_string(lanes));
  const SimConfig config = scale_config(scale, lanes);
  const std::uint64_t seed_a = derive_seed(options.seed, 1);

  if (!options.trace) {
    std::vector<double> setups;
    std::vector<double> steady_ms;
    Digest digest;
    const auto start = Clock::now();
    // Trial A: construction + first interval, then every interval to the
    // first death. Its whole length is the fixed job.
    double wall_s = 0.0;
    {
      LifetimeRun trial(config, seed_a);
      trial.step();
      setups.push_back(s_between(start, Clock::now()));
      while (!trial.finished()) {
        const auto t0 = Clock::now();
        trial.step();
        steady_ms.push_back(ms_between(t0, Clock::now()));
      }
      wall_s = s_between(start, Clock::now());
      add_result(digest, trial.result());
      run.attempted(static_cast<std::uint64_t>(trial.intervals()));
    }
    // Trials B and C: two more set-ups; B adds steady intervals until there
    // are enough for p90 and the time budget is spent.
    for (std::uint64_t k = 2; k <= 3; ++k) {
      const auto t0 = Clock::now();
      LifetimeRun trial(config, derive_seed(options.seed, k));
      trial.step();
      setups.push_back(s_between(t0, Clock::now()));
      add_result(digest, trial.result());
      while (k == 2 && !trial.finished() &&
             (steady_ms.size() < scale.min_steady ||
              s_between(start, Clock::now()) < options.seconds - 2.0)) {
        const auto t1 = Clock::now();
        trial.step();
        steady_ms.push_back(ms_between(t1, Clock::now()));
      }
      run.attempted(static_cast<std::uint64_t>(trial.intervals()));
    }
    {
      const AddElapsed timer(run.check_seconds);
      run.check_golden(canonical_digest(lanes));
    }
    run.e2e("wall_s", wall_s);
    run.e2e("setup_s", median(setups));
    run.e2e("op_ms_p50", median(steady_ms));
    run.e2e("op_ms_p90", percentile(steady_ms, 0.90));
    run.line("scale_trial: n=" + std::to_string(scale.n_hosts) + ", " +
             std::to_string(steady_ms.size()) + " steady intervals, digest " +
             digest.hex());
    run.note("wall_s", "s", wall_s, "trial A, construction to first death");
    run.note("setup_s", "s", median(setups),
             "construction + first interval, median of 3");
    run.note("interval_ms_p50", "ms", median(steady_ms));
    run.note("interval_ms_p90", "ms", percentile(steady_ms, 0.90),
             std::to_string(steady_ms.size()) + " steady intervals");
    return;
  }

  // Traced run: the untraced trial A for reference, then trial A assembled
  // from the layers with spans, shadowed by a full-rebuild engine on a few
  // sampled intervals.
  const double cpu0 = process_cpu_seconds();
  const auto ref_start = Clock::now();
  TrialResult reference;
  {
    LifetimeRun trial(config, seed_a);
    while (trial.step()) {
    }
    reference = trial.result();
  }
  const double ref_wall_s = s_between(ref_start, Clock::now());
  const double cpu_s = process_cpu_seconds() - cpu0;
  run.attempted(static_cast<std::uint64_t>(reference.intervals));

  SimConfig shadow_config = config;
  shadow_config.engine = SimEngine::kFullRebuild;
  FullRebuildEngine shadow(shadow_config);
  long shadowed = 0;
  long mismatches = 0;
  double shadow_s = 0.0;
  IntervalHooks hooks;
  hooks.snapshot_at = [&](long interval) {
    return interval == 1 || interval == 2 ||
           interval == reference.intervals / 2 ||
           interval == reference.intervals - 1;
  };
  hooks.after = [&](const LifetimeEngine& engine, long,
                    const IntervalInputs* inputs) {
    if (inputs == nullptr) return;
    // The simultaneous strategy is documented unsafe, so the tiled
    // gateways are checked for identity with a full rebuild, not with
    // check_cds.
    const AddElapsed timer(shadow_s);
    shadow.update(inputs->positions, inputs->levels);
    DynBitset expected = shadow.gateways();
    if (run.corrupt("tiled_matches_full_shadow") && expected.size() > 0) {
      expected.set(0, !expected.test(0));
    }
    ++shadowed;
    if (!(expected == engine.gateways())) ++mismatches;
  };
  const auto traced_start = Clock::now();
  SpanBuffer spans(traced_start);
  const AssembledResult traced =
      run_assembled_trial(config, seed_a, spans, -1, &hooks);
  const double traced_wall_s =
      s_between(traced_start, Clock::now()) - shadow_s;
  run.check_seconds += shadow_s;
  run.attempted(static_cast<std::uint64_t>(traced.result.intervals));
  {
    const AddElapsed timer(run.check_seconds);
    run.check("assembled_matches_run",
              same_result(reference, traced.result) &&
                  !run.corrupt("assembled_matches_run"),
              "assembled trial differs from LifetimeRun",
              static_cast<std::uint64_t>(traced.result.intervals));
    run.check("tiled_matches_full_shadow", shadowed > 0 && mismatches == 0,
              std::to_string(mismatches) + " of " + std::to_string(shadowed) +
                  " sampled intervals differ from the full rebuild",
              static_cast<std::uint64_t>(mismatches));
  }
  run.save_spans(spans);

  LayerInputs layers;
  layers.add(traced, config.n_hosts);
  report_lifetime_layers(run, spans, layers, traced_wall_s * 1e3);
  run.layer("sim.pool_util",
            cpu_s / (ref_wall_s * static_cast<double>(lanes)));
  const long intervals = std::max<long>(layers.steady.intervals, 1);
  run.layer("sim.pool_tasks",
            static_cast<double>(
                layers.steady.counters[static_cast<std::size_t>(
                    obs::Counter::kPoolTasksSubmitted)]) /
                static_cast<double>(intervals));
  run.layer("bench.trace_overhead", traced_wall_s / ref_wall_s - 1.0);
  run.layer("bench.check_ms", run.check_seconds * 1e3);
}

}  // namespace perfbench
