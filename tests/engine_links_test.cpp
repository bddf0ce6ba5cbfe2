// Every lifetime engine must compute against the same links. The full-rebuild
// engine builds each interval's graph from scratch; the incremental and tiled
// engines keep one graph and patch it with an edge delta. This pin drives all
// three with the same positions and levels and checks, after every update:
//
//   * each engine's adjacency rows equal the full rebuild's;
//   * each engine's edges_added / edges_removed counters equal their side of
//     the symmetric difference between consecutive full-rebuild graphs (the
//     SEL churn tracker counts the endpoints of exactly that difference);
//   * the gateway sets are equal.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "net/rng.hpp"
#include "obs/metrics.hpp"
#include "sim/engine.hpp"
#include "sim/faults.hpp"
#include "sim/lifetime.hpp"

namespace pacds {
namespace {

SimConfig base_config() {
  SimConfig config;
  config.n_hosts = 80;
  config.field_width = 200.0;
  config.field_height = 200.0;
  config.cds_options.strategy = Strategy::kSimultaneous;
  config.initial_energy = 1000.0;  // nobody dies within the run
  return config;
}

/// Links present in `after` but not in `before` (added), and the reverse
/// (removed), each pair counted once.
struct LinkChanges {
  std::size_t added = 0;
  std::size_t removed = 0;
};

LinkChanges symmetric_difference(const Graph& before, const Graph& after) {
  LinkChanges changes;
  for (NodeId v = 0; v < after.num_nodes(); ++v) {
    const auto old_row = before.neighbors(v);
    const auto new_row = after.neighbors(v);
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < old_row.size() || j < new_row.size()) {
      if (j == new_row.size() ||
          (i < old_row.size() && old_row[i] < new_row[j])) {
        if (v < old_row[i]) ++changes.removed;
        ++i;
      } else if (i == old_row.size() || new_row[j] < old_row[i]) {
        if (v < new_row[j]) ++changes.added;
        ++j;
      } else {
        ++i;
        ++j;
      }
    }
  }
  return changes;
}

/// Runs the three engines over `intervals` updates of `config`'s hosts. The
/// hosts listed in `parked` sit at their park_position during every other
/// run of five intervals (5-9, 15-19, ...).
void expect_engines_share_links(const SimConfig& config, std::uint64_t seed,
                                int intervals = 60,
                                const std::vector<std::size_t>& parked = {}) {
  Xoshiro256 rng(seed);
  Hosts hosts(config, rng);
  const auto n = static_cast<std::size_t>(config.n_hosts);
  std::vector<double> levels(n, config.initial_energy);

  struct Probe {
    std::unique_ptr<LifetimeEngine> engine;
    obs::MetricsRegistry metrics;
  };
  std::vector<Probe> probes(3);
  const SimEngine kinds[] = {SimEngine::kFullRebuild, SimEngine::kIncremental,
                             SimEngine::kTiled};
  for (std::size_t k = 0; k < probes.size(); ++k) {
    SimConfig engine_config = config;
    engine_config.engine = kinds[k];
    probes[k].engine = make_lifetime_engine(engine_config);
    probes[k].engine->set_metrics(&probes[k].metrics);
  }
  const LifetimeEngine& full = *probes[0].engine;

  Graph previous;
  std::vector<Vec2> positions;
  std::size_t changed = 0;
  for (int t = 0; t < intervals; ++t) {
    positions = hosts.positions;
    if ((t / 5) % 2 == 1) {
      for (const std::size_t host : parked) {
        positions[host] =
            park_position(host, config.field_width, config.radius);
      }
    }
    for (Probe& probe : probes) {
      probe.metrics.reset();
      probe.engine->update(positions, levels);
    }
    const Graph& links = *full.graph();
    const LinkChanges expected =
        t == 0 ? LinkChanges{} : symmetric_difference(previous, links);
    changed += expected.added + expected.removed;
    for (std::size_t k = 1; k < probes.size(); ++k) {
      const LifetimeEngine& engine = *probes[k].engine;
      const std::string where =
          engine.name() + " at interval " + std::to_string(t);
      const Graph* graph = engine.graph();
      ASSERT_NE(graph, nullptr) << where;
      ASSERT_EQ(graph->num_nodes(), links.num_nodes()) << where;
      for (NodeId v = 0; v < links.num_nodes(); ++v) {
        const auto row = graph->neighbors(v);
        const auto want = links.neighbors(v);
        ASSERT_TRUE(std::ranges::equal(row, want))
            << where << ": row of host " << v << " has " << row.size()
            << " links, the full rebuild's has " << want.size();
      }
      EXPECT_EQ(probes[k].metrics.counter(obs::Counter::kEdgesAdded),
                expected.added)
          << where;
      EXPECT_EQ(probes[k].metrics.counter(obs::Counter::kEdgesRemoved),
                expected.removed)
          << where;
      EXPECT_EQ(engine.gateways(), full.gateways()) << where;
    }
    previous = links;
    for (std::size_t host = 0; host < n; ++host) {
      levels[host] -= full.gateways().test(host) ? 2.0 : 1.0;
    }
    hosts.move(rng);
  }
  EXPECT_GT(changed, 0u) << "no link changed in " << intervals << " intervals";
}

TEST(EngineLinksTest, El2UnitDiskBusyMobility) {
  SimConfig config = base_config();
  config.rule_set = RuleSet::kEL2;
  config.stay_probability = 0.5;
  expect_engines_share_links(config, 3u);
}

TEST(EngineLinksTest, El2UnitDiskQuietMobility) {
  SimConfig config = base_config();
  config.rule_set = RuleSet::kEL2;
  config.stay_probability = 0.95;
  expect_engines_share_links(config, 5u);
}

TEST(EngineLinksTest, SelShadowingRadio) {
  SimConfig config = base_config();
  config.rule_set = RuleSet::kSEL;
  config.radio = RadioKind::kShadowing;
  config.radio_params.sigma_db = 4.0;
  config.radio_params.fading_seed = 13;
  expect_engines_share_links(config, 7u);
}

TEST(EngineLinksTest, El1ProbabilisticRadio) {
  SimConfig config = base_config();
  config.rule_set = RuleSet::kEL1;
  config.radio = RadioKind::kProbabilistic;
  config.radio_params.link_prob = 0.7;
  config.radio_params.fading_seed = 17;
  expect_engines_share_links(config, 11u);
}

TEST(EngineLinksTest, NdThreeDField) {
  SimConfig config = base_config();
  config.rule_set = RuleSet::kND;
  config.field_depth = 60.0;
  config.radius = 35.0;
  expect_engines_share_links(config, 19u);
}

TEST(EngineLinksTest, SelGaussMarkov) {
  SimConfig config = base_config();
  config.rule_set = RuleSet::kSEL;
  config.mobility_kind = MobilityKind::kGaussMarkov;
  expect_engines_share_links(config, 23u);
}

TEST(EngineLinksTest, ParkedHostsLeaveAndRejoin) {
  // Three hosts jump off the field and back every five intervals: every
  // one of their links goes at once, and comes back where mobility left
  // them.
  SimConfig config = base_config();
  config.rule_set = RuleSet::kEL2;
  expect_engines_share_links(config, 29u, 60, {4, 40, 79});
}

}  // namespace
}  // namespace pacds
