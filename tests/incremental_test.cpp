// Tests for the localized updater: deltas must reproduce the full
// recomputation exactly (the 4-hop locality guarantee), while touching only
// a bounded region.

#include "core/incremental.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <tuple>

#include "net/mobility.hpp"
#include "net/rng.hpp"
#include "net/topology.hpp"
#include "test_graphs.hpp"

namespace pacds {
namespace {

using testing::figure1_graph;
using testing::path_graph;

/// The incremental updater pins the synchronous (simultaneous) semantics.
CdsOptions simultaneous_options() {
  CdsOptions options;
  options.strategy = Strategy::kSimultaneous;
  return options;
}

/// Recomputes from scratch with the same scheme and compares gateway sets.
void expect_matches_full(const IncrementalCds& inc,
                         const std::vector<double>& energy) {
  const CdsResult full =
      compute_cds(inc.graph(), inc.rule_set(), energy, simultaneous_options());
  EXPECT_EQ(inc.gateways(), full.gateways)
      << "incremental " << inc.gateways().to_string() << " vs full "
      << full.gateways.to_string();
}

TEST(IncrementalTest, InitialStateMatchesFull) {
  const IncrementalCds inc(figure1_graph(), RuleSet::kID);
  expect_matches_full(inc, {});
}

TEST(IncrementalTest, EnergySchemeNeedsEnergy) {
  EXPECT_THROW(IncrementalCds(path_graph(4), RuleSet::kEL1),
               std::invalid_argument);
}

TEST(IncrementalTest, AddEdgeUpdates) {
  IncrementalCds inc(path_graph(6), RuleSet::kID);
  EdgeDelta delta;
  delta.added.emplace_back(0, 5);  // close the cycle
  inc.advance(delta, {});
  expect_matches_full(inc, {});
  EXPECT_TRUE(inc.graph().has_edge(0, 5));
}

TEST(IncrementalTest, RemoveEdgeUpdates) {
  Graph g = path_graph(6);
  g.add_edge(0, 5);
  IncrementalCds inc(std::move(g), RuleSet::kND);
  EdgeDelta delta;
  delta.removed.emplace_back(0, 5);
  inc.advance(delta, {});
  expect_matches_full(inc, {});
}

TEST(IncrementalTest, EmptyDeltaTouchesNothing) {
  IncrementalCds inc(path_graph(6), RuleSet::kID);
  inc.advance(EdgeDelta{}, {});
  EXPECT_EQ(inc.last_touched(), 0u);
  expect_matches_full(inc, {});
}

TEST(IncrementalTest, BadDeltaThrows) {
  IncrementalCds inc(path_graph(4), RuleSet::kID);
  EdgeDelta dup;
  dup.added.emplace_back(0, 1);  // already present
  EXPECT_THROW(inc.advance(dup, {}), std::invalid_argument);
  EdgeDelta missing;
  missing.removed.emplace_back(0, 3);  // absent
  EXPECT_THROW(inc.advance(missing, {}), std::invalid_argument);
}

TEST(IncrementalTest, LocalityOnLongPath) {
  // On a 60-node path, toggling an edge at one end must not touch nodes at
  // the other end (ball radius 4 around the change).
  IncrementalCds inc(path_graph(60), RuleSet::kID);
  EdgeDelta delta;
  delta.added.emplace_back(0, 2);
  inc.advance(delta, {});
  EXPECT_LE(inc.last_touched(), 12u);  // well under 60
  expect_matches_full(inc, {});
}

TEST(IncrementalTest, SetEnergyUpdatesAroundChangedLevels) {
  std::vector<double> energy{5.0, 5.0, 5.0, 5.0, 5.0};
  IncrementalCds inc(path_graph(5), RuleSet::kEL1, energy);
  energy[2] = 1.0;
  inc.advance(EdgeDelta{}, energy);
  EXPECT_EQ(inc.energy(), energy);
  expect_matches_full(inc, energy);
}

TEST(IncrementalTest, SetEnergyWithNoLevelChangeTouchesNothing) {
  const std::vector<double> energy{5.0, 4.0, 5.0, 4.0, 5.0};
  IncrementalCds inc(path_graph(5), RuleSet::kEL1, energy);
  inc.advance(EdgeDelta{}, energy);
  EXPECT_EQ(inc.last_touched(), 0u);
  expect_matches_full(inc, energy);
}

TEST(IncrementalTest, SetEnergyLocalityOnLongPath) {
  // On a 60-node path only one level changes; the re-evaluated region must
  // stay near that node (neighborhood of the dirty key, one hop per stage).
  std::vector<double> energy(60, 5.0);
  IncrementalCds inc(path_graph(60), RuleSet::kEL1, energy);
  energy[30] = 1.0;
  inc.advance(EdgeDelta{}, energy);
  EXPECT_LE(inc.last_touched(), 10u);  // well under 60
  expect_matches_full(inc, energy);
}

TEST(IncrementalTest, AdvanceCombinesDeltaAndEnergy) {
  std::vector<double> energy(8, 5.0);
  IncrementalCds inc(path_graph(8), RuleSet::kEL2, energy);
  EdgeDelta delta;
  delta.added.emplace_back(0, 2);
  energy[6] = 2.0;
  inc.advance(delta, energy);
  EXPECT_TRUE(inc.graph().has_edge(0, 2));
  EXPECT_EQ(inc.energy(), energy);
  expect_matches_full(inc, energy);
}

TEST(IncrementalTest, AdvanceIgnoresEnergyForTopologyOnlySchemes) {
  // For kID the key never reads energy, so advance accepts any vector (even
  // an empty one) and the update is purely topological.
  IncrementalCds inc(path_graph(6), RuleSet::kID);
  EdgeDelta delta;
  delta.added.emplace_back(0, 5);
  inc.advance(delta, {});
  expect_matches_full(inc, {});
}

TEST(IncrementalTest, SetEnergySizeMismatchThrows) {
  IncrementalCds inc(path_graph(5), RuleSet::kEL1,
                     std::vector<double>(5, 1.0));
  EXPECT_THROW(inc.advance(EdgeDelta{}, {1.0}), std::invalid_argument);
}

TEST(IncrementalTest, CliquePolicyMaintained) {
  CdsOptions options = simultaneous_options();
  options.clique_policy = CliquePolicy::kElectMaxKey;
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  IncrementalCds inc(std::move(g), RuleSet::kID, {}, options.clique_policy);
  // Make the component a triangle: marking empties, the policy elects.
  EdgeDelta delta;
  delta.added.emplace_back(0, 2);
  inc.advance(delta, {});
  const CdsResult full = compute_cds(inc.graph(), RuleSet::kID, {}, options);
  EXPECT_EQ(inc.gateways(), full.gateways);
  EXPECT_EQ(inc.gateways().count(), 1u);
}

// ---- Randomized equivalence: dynamic topologies ----------------------------

class IncrementalRandomTest
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t, RuleSet>> {
};

TEST_P(IncrementalRandomTest, DeltasMatchFullRecompute) {
  const auto [n, seed, rs] = GetParam();
  Xoshiro256 rng(seed);
  const Field field = Field::paper_field();
  auto positions = random_placement(n, field, rng);
  Graph g = build_udg(positions, kPaperRadius);

  std::vector<double> energy;
  for (int i = 0; i < n; ++i) {
    energy.push_back(static_cast<double>(rng.uniform_int(1, 4)));
  }
  IncrementalCds inc(g, rs, energy);

  PaperJumpMobility mobility(0.5, 1, 6);
  for (int step = 0; step < 12; ++step) {
    mobility.step(positions, field, rng);
    const Graph next = build_udg(positions, kPaperRadius);
    // Diff the two unit-disk graphs into a delta.
    EdgeDelta delta;
    for (NodeId u = 0; u < inc.graph().num_nodes(); ++u) {
      for (NodeId v = static_cast<NodeId>(u + 1); v < inc.graph().num_nodes();
           ++v) {
        const bool before = inc.graph().has_edge(u, v);
        const bool after = next.has_edge(u, v);
        if (!before && after) delta.added.emplace_back(u, v);
        if (before && !after) delta.removed.emplace_back(u, v);
      }
    }
    // Also perturb a few energy levels so the combined advance() path (the
    // lifetime engine's steady-state entry point) is exercised everywhere.
    for (int hits = 0; hits < 2; ++hits) {
      const auto victim =
          static_cast<std::size_t>(rng.uniform_int(0, n - 1));
      energy[victim] = static_cast<double>(rng.uniform_int(1, 4));
    }
    inc.advance(delta, energy);
    ASSERT_EQ(inc.graph(), next);
    const CdsResult full = compute_cds(next, rs, energy,
                                       simultaneous_options());
    ASSERT_EQ(inc.gateways(), full.gateways)
        << "step " << step << " n=" << n << " seed=" << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    DynamicTopologies, IncrementalRandomTest,
    ::testing::Combine(::testing::Values(15, 30, 45),
                       ::testing::Values(11u, 22u, 33u),
                       ::testing::Values(RuleSet::kNR, RuleSet::kID,
                                         RuleSet::kND, RuleSet::kEL1,
                                         RuleSet::kEL2)),
    [](const ::testing::TestParamInfo<IncrementalRandomTest::ParamType>&
           param_info) {
      return "n" + std::to_string(std::get<0>(param_info.param)) + "_seed" +
             std::to_string(std::get<1>(param_info.param)) + "_" +
             to_string(std::get<2>(param_info.param));
    });

}  // namespace
}  // namespace pacds
