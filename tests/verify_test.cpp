// Tests for the CDS validity checkers: domination, induced connectivity,
// clique exemption, removal safety and Property 3.

#include "core/verify.hpp"

#include <gtest/gtest.h>

#include "core/marking.hpp"
#include "test_graphs.hpp"

namespace pacds {
namespace {

using testing::complete_graph;
using testing::cycle_graph;
using testing::figure1_graph;
using testing::path_graph;
using testing::star_graph;

DynBitset set_of(std::size_t n, std::initializer_list<std::size_t> bits) {
  DynBitset s(n);
  for (const auto b : bits) s.set(b);
  return s;
}

TEST(CheckCdsTest, ValidSetPasses) {
  const Graph g = path_graph(5);
  const CdsCheck check = check_cds(g, set_of(5, {1, 2, 3}));
  EXPECT_TRUE(check.ok());
  EXPECT_TRUE(check.message.empty());
}

TEST(CheckCdsTest, NonDominatingFails) {
  const Graph g = path_graph(5);
  const CdsCheck check = check_cds(g, set_of(5, {1}));
  EXPECT_FALSE(check.dominating);
  EXPECT_FALSE(check.ok());
  EXPECT_NE(check.message.find("not dominated"), std::string::npos);
}

TEST(CheckCdsTest, DisconnectedSetFails) {
  // 1 and 3 dominate P5 but are not adjacent.
  const Graph g = path_graph(5);
  const CdsCheck check = check_cds(g, set_of(5, {1, 3}));
  EXPECT_TRUE(check.dominating);
  EXPECT_FALSE(check.induced_connected);
  EXPECT_FALSE(check.ok());
}

TEST(CheckCdsTest, SizeMismatchFails) {
  const Graph g = path_graph(3);
  EXPECT_FALSE(check_cds(g, DynBitset(2)).ok());
}

TEST(CheckCdsTest, CompleteComponentExemptByDefault) {
  const Graph g = complete_graph(4);
  EXPECT_TRUE(check_cds(g, DynBitset(4)).ok());
  EXPECT_FALSE(check_cds(g, DynBitset(4), false).ok());
}

TEST(CheckCdsTest, SingletonExempt) {
  const Graph g(1);
  EXPECT_TRUE(check_cds(g, DynBitset(1)).ok());
}

TEST(CheckCdsTest, NonCompleteComponentWithoutGatewayFails) {
  const Graph g = path_graph(3);
  EXPECT_FALSE(check_cds(g, DynBitset(3)).ok());
}

TEST(CheckCdsTest, MultiComponentMixed) {
  // Component A: path 0-1-2 with gateway 1; component B: triangle 3-4-5
  // with no gateway (exempt clique).
  Graph g(6);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(3, 4);
  g.add_edge(4, 5);
  g.add_edge(3, 5);
  EXPECT_TRUE(check_cds(g, set_of(6, {1})).ok());
  // But a path component without a gateway still fails.
  EXPECT_FALSE(check_cds(g, set_of(6, {4})).ok());
}

TEST(CheckCdsTest, ConnectivityIsPerComponent) {
  // Two disjoint paths, each with its own gateway set: valid even though
  // the union is "disconnected" globally.
  Graph g(6);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(3, 4);
  g.add_edge(4, 5);
  EXPECT_TRUE(check_cds(g, set_of(6, {1, 4})).ok());
}

TEST(RemovalSafetyTest, SafeAndUnsafe) {
  const Graph g = path_graph(5);
  const DynBitset cds = set_of(5, {1, 2, 3});
  // Removing 2 disconnects {1,3}; removing 1 leaves node 0 undominated.
  EXPECT_FALSE(removal_is_safe(g, cds, 2));
  EXPECT_FALSE(removal_is_safe(g, cds, 1));
  // A star: any leaf in the set is redundant.
  const Graph star = star_graph(4);
  const DynBitset star_cds = set_of(5, {0, 1});
  EXPECT_TRUE(removal_is_safe(star, star_cds, 1));
  EXPECT_FALSE(removal_is_safe(star, star_cds, 0));
}

TEST(RemovalSafetyTest, RemovingNonMemberIsSafe) {
  const Graph g = path_graph(3);
  EXPECT_TRUE(removal_is_safe(g, set_of(3, {1}), 0));
}

TEST(RemovalSafetyTest, LastGatewayOfMultiNodeComponentUnsafe) {
  const Graph g = path_graph(3);
  EXPECT_FALSE(removal_is_safe(g, set_of(3, {1}), 1));
}

TEST(RemovalSafetyTest, LastGatewayOfSingletonSafe) {
  const Graph g(1);
  EXPECT_TRUE(removal_is_safe(g, set_of(1, {0}), 0));
}

TEST(Property3Test, MarkingOutputsHold) {
  for (const Graph& g : {figure1_graph(), path_graph(7), cycle_graph(8),
                         star_graph(5)}) {
    EXPECT_TRUE(property3_holds(g, marking_process(g)));
  }
}

TEST(Property3Test, TooSmallGatewaySetFails) {
  // C6 with only half the nodes as gateways: opposite pairs lose their
  // shortest paths.
  const Graph g = cycle_graph(6);
  EXPECT_FALSE(property3_holds(g, set_of(6, {0, 1, 2})));
}

}  // namespace
}  // namespace pacds
