// Microbenchmark of the locality claim: applying a small topology delta via
// IncrementalCds vs. recomputing the gateway set from scratch. The paper's
// Section 2.2 argues only hosts near a change re-decide their status; this
// quantifies the speedup on a large network.

#include <benchmark/benchmark.h>

#include <cmath>
#include <vector>

#include "core/incremental.hpp"
#include "net/rng.hpp"
#include "net/topology.hpp"

namespace {

using namespace pacds;

Graph make_graph(int n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  const double side = std::sqrt(static_cast<double>(n) / 50.0) * 100.0;
  const Field field(side, side);
  return build_udg(random_placement(n, field, rng), kPaperRadius);
}

/// Finds an edge to toggle deterministically.
std::pair<NodeId, NodeId> some_edge(const Graph& g) { return g.edges().front(); }

void BM_IncrementalDelta(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  IncrementalCds inc(make_graph(n, 7), RuleSet::kID);
  const auto [u, v] = some_edge(inc.graph());
  bool present = true;
  for (auto _ : state) {
    EdgeDelta delta;
    if (present) {
      delta.removed.emplace_back(u, v);
    } else {
      delta.added.emplace_back(u, v);
    }
    inc.advance(delta, {});
    present = !present;
    benchmark::DoNotOptimize(inc.gateways());
  }
}
BENCHMARK(BM_IncrementalDelta)->Arg(200)->Arg(800)->Arg(2000);

void BM_FullRecompute(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Graph g = make_graph(n, 7);
  const auto [u, v] = some_edge(g);
  CdsOptions options;
  options.strategy = Strategy::kSimultaneous;  // same semantics as the
                                               // incremental updater
  bool present = true;
  for (auto _ : state) {
    if (present) {
      g.remove_edge(u, v);
    } else {
      g.add_edge(u, v);
    }
    present = !present;
    benchmark::DoNotOptimize(compute_cds(g, RuleSet::kID, {}, options));
  }
}
BENCHMARK(BM_FullRecompute)->Arg(200)->Arg(800)->Arg(2000);

}  // namespace

BENCHMARK_MAIN();
