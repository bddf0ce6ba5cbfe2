// Microbenchmarks of unit-disk graph construction: the naive O(n^2) builder
// vs. the grid spatial hash, at constant host density; and the paper's own
// regime (100x100 field, r = 25, so 4x4 radius cells) with one LinkBuilder
// and one Graph reused across builds, as the lifetime engines use them.

#include <benchmark/benchmark.h>

#include <cmath>
#include <vector>

#include "net/rng.hpp"
#include "net/topology.hpp"
#include "net/udg.hpp"

namespace {

using namespace pacds;

std::vector<Vec2> make_points(int n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  const double side = std::sqrt(static_cast<double>(n) / 50.0) * 100.0;
  const Field field(side, side);
  return random_placement(n, field, rng);
}

void BM_BuildNaive(benchmark::State& state) {
  const auto pts = make_points(static_cast<int>(state.range(0)), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(build_udg(pts, kPaperRadius, UdgMethod::kNaive));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BuildNaive)->Arg(100)->Arg(400)->Arg(1000)->Arg(2000);

void BM_BuildGrid(benchmark::State& state) {
  const auto pts = make_points(static_cast<int>(state.range(0)), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(build_udg(pts, kPaperRadius, UdgMethod::kGrid));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BuildGrid)->Arg(100)->Arg(400)->Arg(1000)->Arg(2000)->Arg(5000);

/// A warm rebuild on the paper field: the full-rebuild engine's per-interval
/// link build. Eight placements rotate so no single layout is measured.
void BM_WarmRebuildPaperField(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::vector<std::vector<Vec2>> layouts;
  Xoshiro256 rng(4);
  for (int i = 0; i < 8; ++i) {
    layouts.push_back(random_placement(n, Field::paper_field(), rng));
  }
  LinkBuilder builder;
  Graph g;
  std::size_t i = 0;
  std::size_t edges = 0;
  for (auto _ : state) {
    builder.build(layouts[i++ % layouts.size()], kPaperRadius, g);
    edges += g.num_edges();
    benchmark::DoNotOptimize(g);
    benchmark::ClobberMemory();
  }
  state.counters["edges"] = benchmark::Counter(
      static_cast<double>(edges), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_WarmRebuildPaperField)->Arg(10)->Arg(50)->Arg(100)->Arg(400);

/// Retry-until-connected placement on the paper field; items are placement
/// attempts, so 1 / items_per_second is the cost of one attempt.
void BM_ConnectedPlacement(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Xoshiro256 rng(5);
  std::int64_t attempts = 0;
  for (auto _ : state) {
    const auto placed = random_connected_placement(n, Field::paper_field(),
                                                   kPaperRadius, rng, 500);
    attempts += placed ? placed->attempts : 500;
    benchmark::DoNotOptimize(placed);
  }
  state.SetItemsProcessed(attempts);
}
BENCHMARK(BM_ConnectedPlacement)->Arg(10)->Arg(50);

void BM_GridIndexConstruction(benchmark::State& state) {
  const auto pts = make_points(static_cast<int>(state.range(0)), 2);
  for (auto _ : state) {
    SpatialGrid grid(pts, kPaperRadius);
    benchmark::DoNotOptimize(grid);
  }
}
BENCHMARK(BM_GridIndexConstruction)->Arg(400)->Arg(2000);

void BM_GridQuery(benchmark::State& state) {
  const auto pts = make_points(2000, 3);
  const SpatialGrid grid(pts, kPaperRadius);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        grid.query(pts[i % pts.size()], kPaperRadius,
                   static_cast<NodeId>(i % pts.size())));
    ++i;
  }
}
BENCHMARK(BM_GridQuery);

}  // namespace

BENCHMARK_MAIN();
