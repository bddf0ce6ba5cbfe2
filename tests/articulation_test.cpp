// Tests for articulation points and bridges (Tarjan low-link).

#include "core/articulation.hpp"

#include <gtest/gtest.h>

#include <tuple>

#include "net/rng.hpp"
#include "net/topology.hpp"
#include "test_graphs.hpp"

namespace pacds {
namespace {

using testing::complete_graph;
using testing::cycle_graph;
using testing::path_graph;
using testing::star_graph;

TEST(ArticulationTest, PathInteriorAreCuts) {
  const DynBitset cuts = articulation_points(path_graph(5));
  EXPECT_FALSE(cuts.test(0));
  EXPECT_TRUE(cuts.test(1));
  EXPECT_TRUE(cuts.test(2));
  EXPECT_TRUE(cuts.test(3));
  EXPECT_FALSE(cuts.test(4));
}

TEST(ArticulationTest, CycleHasNone) {
  EXPECT_TRUE(articulation_points(cycle_graph(6)).none());
}

TEST(ArticulationTest, CompleteHasNone) {
  EXPECT_TRUE(articulation_points(complete_graph(5)).none());
}

TEST(ArticulationTest, StarCenterIsCut) {
  const DynBitset cuts = articulation_points(star_graph(4));
  EXPECT_TRUE(cuts.test(0));
  EXPECT_EQ(cuts.count(), 1u);
}

TEST(ArticulationTest, TwoTrianglesSharingAVertex) {
  // Triangles {0,1,2} and {2,3,4}: vertex 2 is the cut.
  const Graph g = Graph::from_edges(
      5, {{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}, {2, 4}});
  const DynBitset cuts = articulation_points(g);
  EXPECT_TRUE(cuts.test(2));
  EXPECT_EQ(cuts.count(), 1u);
}

TEST(ArticulationTest, DisconnectedComponentsIndependent) {
  // P3 (cut at 1) plus C3 (no cuts).
  Graph g(6);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(3, 4);
  g.add_edge(4, 5);
  g.add_edge(3, 5);
  const DynBitset cuts = articulation_points(g);
  EXPECT_TRUE(cuts.test(1));
  EXPECT_EQ(cuts.count(), 1u);
}

TEST(ArticulationTest, EmptyAndTinyGraphs) {
  EXPECT_EQ(articulation_points(Graph(0)).count(), 0u);
  EXPECT_EQ(articulation_points(Graph(1)).count(), 0u);
  EXPECT_EQ(articulation_points(complete_graph(2)).count(), 0u);
}

TEST(BridgesTest, PathEdgesAllBridges) {
  const auto b = bridges(path_graph(4));
  EXPECT_EQ(b, (std::vector<std::pair<NodeId, NodeId>>{{0, 1}, {1, 2},
                                                       {2, 3}}));
}

TEST(BridgesTest, CycleHasNone) {
  EXPECT_TRUE(bridges(cycle_graph(5)).empty());
}

TEST(BridgesTest, BarbellBridge) {
  // Two triangles joined by edge 2-3: only {2,3} is a bridge.
  const Graph g = Graph::from_edges(
      6, {{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}, {2, 3}});
  EXPECT_EQ(bridges(g), (std::vector<std::pair<NodeId, NodeId>>{{2, 3}}));
}

// Brute-force cross-check: v is an articulation point iff removing v
// increases the component count of its component.
class ArticulationPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(ArticulationPropertyTest, MatchesBruteForce) {
  const auto [n, seed] = GetParam();
  Xoshiro256 rng(seed);
  const Graph g =
      build_udg(random_placement(n, Field::paper_field(), rng), kPaperRadius);
  const DynBitset cuts = articulation_points(g);
  const NodeId base_components = g.num_components();
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    // Remove v by masking it out and recounting components among the rest.
    DynBitset keep(static_cast<std::size_t>(n));
    keep.set_all();
    keep.reset(static_cast<std::size_t>(v));
    const Graph without = g.induced(keep);
    // v's removal splits iff components(without) > components(g) - [v was
    // isolated].
    const NodeId isolated = g.degree(v) == 0 ? 1 : 0;
    const bool splits =
        without.num_components() > static_cast<NodeId>(base_components -
                                                       isolated);
    EXPECT_EQ(cuts.test(static_cast<std::size_t>(v)), splits)
        << "node " << v << " n=" << n << " seed=" << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomNetworks, ArticulationPropertyTest,
    ::testing::Combine(::testing::Values(8, 20, 40, 70),
                       ::testing::Values(5u, 6u, 7u, 8u, 9u)),
    [](const ::testing::TestParamInfo<ArticulationPropertyTest::ParamType>&
           param_info) {
      return "n" + std::to_string(std::get<0>(param_info.param)) + "_s" +
             std::to_string(std::get<1>(param_info.param));
    });

}  // namespace
}  // namespace pacds
