// Scaling microbenchmark of the tiled engine: cost of one steady-state
// update interval at n far beyond micro_engine's range (10k / 100k / 1M
// hosts at constant density), against the flat incremental engine at the
// sizes where running it is affordable. Same regime as micro_engine — EL2
// keys, Model 1 drain, coarse key buckets, stay probability 0.95 — so the
// n = 10k rows splice onto the n <= 800 curves in BENCH_lifetime.json.
//
// The 1M row doubles as the memory demonstration for DESIGN.md §10: both
// engines keep O(n + m) state on the CSR graph (the tiled engine adds only
// its tiles' owned lists), where a global dense substrate would need
// O(n²) = 125 GB of bits at this size before computing anything.
//
// Iteration counts are pinned for the big rows (one interval is hundreds of
// milliseconds; letting min_time drive would stretch a bench_json regen to
// many minutes on one core).

#include <benchmark/benchmark.h>

#include <cmath>
#include <memory>
#include <vector>

#include "energy/battery.hpp"
#include "net/mobility.hpp"
#include "net/topology.hpp"
#include "sim/engine.hpp"
#include "sim/lifetime.hpp"

namespace {

using namespace pacds;

SimConfig make_config(int n, double stay) {
  SimConfig config;
  config.n_hosts = n;
  const double side = std::sqrt(static_cast<double>(n) / 50.0) * 100.0;
  config.field_width = side;
  config.field_height = side;
  config.rule_set = RuleSet::kEL2;
  config.cds_options.strategy = Strategy::kSimultaneous;
  config.stay_probability = stay;
  config.drain_model = DrainModel::kConstantTotal;
  config.energy_key_quantum = 10.0;
  config.initial_energy = 1.0e9;  // no deaths during the benchmark
  return config;
}

void run_interval(LifetimeEngine& engine, const SimConfig& config,
                  std::vector<Vec2>& positions, BatteryBank& batteries,
                  MobilityModel& mobility, const Field& field,
                  Xoshiro256& rng) {
  engine.update(positions, batteries.levels());
  const double d = gateway_drain(config.drain_model, batteries.size(),
                                 engine.counts().gateways,
                                 config.drain_params);
  for (std::size_t host = 0; host < batteries.size(); ++host) {
    batteries.drain(host, engine.gateways().test(host)
                              ? d
                              : config.drain_params.nongateway_drain);
  }
  mobility.step(positions, field, rng);
}

void bench_engine(benchmark::State& state, SimEngine which) {
  const int n = static_cast<int>(state.range(0));
  const double stay = static_cast<double>(state.range(1)) / 1000.0;
  SimConfig config = make_config(n, stay);
  config.engine = which;

  Xoshiro256 rng(2001);
  const Field field(config.field_width, config.field_height, config.boundary);
  std::vector<Vec2> positions = random_placement(n, field, rng);
  BatteryBank batteries(static_cast<std::size_t>(n), config.initial_energy);
  MobilityParams params;
  params.stay_probability = config.stay_probability;
  params.jump_min = config.jump_min;
  params.jump_max = config.jump_max;
  const auto mobility = make_mobility(MobilityKind::kPaperJump, params);
  const auto engine = make_lifetime_engine(config);

  // Prime: the first update pays one-off initialization (grid + graph +
  // first full CDS over every tile); two more reach the steady state. More
  // priming buys nothing at these sizes and costs seconds per row.
  for (int i = 0; i < 3; ++i) {
    run_interval(*engine, config, positions, batteries, *mobility, field,
                 rng);
  }
  for (auto _ : state) {
    run_interval(*engine, config, positions, batteries, *mobility, field,
                 rng);
    benchmark::DoNotOptimize(engine->gateways());
  }
}

void BM_IntervalTiled(benchmark::State& state) {
  bench_engine(state, SimEngine::kTiled);
}

void BM_IntervalFlatIncremental(benchmark::State& state) {
  bench_engine(state, SimEngine::kIncremental);
}

void BM_IntervalFlatFull(benchmark::State& state) {
  bench_engine(state, SimEngine::kFullRebuild);
}

// Second argument: stay probability in per-mille. At 950 (micro_engine's
// steady state) ~5% of hosts move per interval, which at these sizes dirties
// essentially every tile — the tiled engine degrades to a sharded full
// recompute, and the per-mover-localized incremental engine wins on one
// core. At 999 the mover count drops enough that most tiles stay clean and
// tile locality pays. Both regimes are committed for honesty.
BENCHMARK(BM_IntervalTiled)->Args({10000, 950});
BENCHMARK(BM_IntervalTiled)->Args({100000, 950})->Iterations(3);
BENCHMARK(BM_IntervalTiled)->Args({100000, 999})->Iterations(3);
BENCHMARK(BM_IntervalTiled)->Args({1000000, 950})->Iterations(2);
BENCHMARK(BM_IntervalFlatIncremental)->Args({10000, 950});
BENCHMARK(BM_IntervalFlatIncremental)->Args({100000, 950})->Iterations(3);
BENCHMARK(BM_IntervalFlatIncremental)->Args({100000, 999})->Iterations(3);
BENCHMARK(BM_IntervalFlatFull)->Args({10000, 950});
BENCHMARK(BM_IntervalFlatFull)->Args({100000, 950})->Iterations(2);

}  // namespace

BENCHMARK_MAIN();
