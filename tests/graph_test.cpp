// Unit tests for the Graph substrate: mutation, neighborhoods, coverage
// predicates, traversal, induced subgraphs.

#include "core/graph.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

namespace pacds {
namespace {

Graph path_graph(NodeId n) {
  Graph g(n);
  for (NodeId i = 0; i + 1 < n; ++i) g.add_edge(i, static_cast<NodeId>(i + 1));
  return g;
}

Graph cycle_graph(NodeId n) {
  Graph g = path_graph(n);
  if (n >= 3) g.add_edge(static_cast<NodeId>(n - 1), 0);
  return g;
}

Graph complete_graph(NodeId n) {
  Graph g(n);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = static_cast<NodeId>(u + 1); v < n; ++v) g.add_edge(u, v);
  }
  return g;
}

/// K_{1,n}: center 0 connected to 1..n.
Graph star_graph(NodeId leaves) {
  Graph g(static_cast<NodeId>(leaves + 1));
  for (NodeId i = 1; i <= leaves; ++i) g.add_edge(0, i);
  return g;
}

TEST(GraphTest, EmptyGraph) {
  Graph g;
  EXPECT_EQ(g.num_nodes(), 0);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_TRUE(g.is_connected());
  EXPECT_TRUE(g.is_complete());
}

TEST(GraphTest, NegativeNodeCountThrows) {
  EXPECT_THROW(Graph(-1), std::invalid_argument);
}

TEST(GraphTest, AddEdgeBasics) {
  Graph g(3);
  EXPECT_TRUE(g.add_edge(0, 1));
  EXPECT_FALSE(g.add_edge(0, 1));  // duplicate
  EXPECT_FALSE(g.add_edge(1, 0));  // duplicate reversed
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_FALSE(g.has_edge(0, 2));
}

TEST(GraphTest, SelfLoopThrows) {
  Graph g(3);
  EXPECT_THROW(g.add_edge(1, 1), std::invalid_argument);
}

TEST(GraphTest, OutOfRangeThrows) {
  Graph g(3);
  EXPECT_THROW(g.add_edge(0, 3), std::invalid_argument);
  EXPECT_THROW(g.add_edge(-1, 0), std::invalid_argument);
  EXPECT_THROW((void)g.degree(5), std::invalid_argument);
}

TEST(GraphTest, RemoveEdge) {
  Graph g(3);
  g.add_edge(0, 1);
  EXPECT_TRUE(g.remove_edge(1, 0));
  EXPECT_FALSE(g.remove_edge(0, 1));
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_FALSE(g.has_edge(0, 1));
}

TEST(GraphTest, NeighborsSorted) {
  Graph g(5);
  g.add_edge(2, 4);
  g.add_edge(2, 0);
  g.add_edge(2, 3);
  const auto nbrs = g.neighbors(2);
  EXPECT_EQ(std::vector<NodeId>(nbrs.begin(), nbrs.end()),
            (std::vector<NodeId>{0, 3, 4}));
  EXPECT_EQ(g.degree(2), 3);
  EXPECT_EQ(g.degree(1), 0);
}

TEST(GraphTest, RowsMirrorAdjacency) {
  Graph g(5);
  g.add_edge(1, 3);
  EXPECT_TRUE(g.has_edge(1, 3));
  EXPECT_TRUE(g.has_edge(3, 1));
  EXPECT_FALSE(g.has_edge(1, 1));
  const DynBitset closed = g.closed_row(1);
  EXPECT_TRUE(closed.test(1));
  EXPECT_TRUE(closed.test(3));
  EXPECT_EQ(closed.count(), 2u);
}

TEST(GraphTest, FromEdges) {
  const Graph g = Graph::from_edges(4, {{0, 1}, {1, 2}, {2, 3}, {0, 1}});
  EXPECT_EQ(g.num_edges(), 3u);  // duplicate collapsed
  EXPECT_TRUE(g.has_edge(2, 3));
}

TEST(GraphTest, ClosedCoveredBy) {
  // Star: leaf's closed neighborhood within center's.
  const Graph g = star_graph(4);
  EXPECT_TRUE(g.closed_covered_by(1, 0));
  EXPECT_FALSE(g.closed_covered_by(0, 1));
  // Non-adjacent vertices can never cover (v must be in N[u]).
  EXPECT_FALSE(g.closed_covered_by(1, 2));
  // Reflexive by convention.
  EXPECT_TRUE(g.closed_covered_by(2, 2));
}

TEST(GraphTest, ClosedCoveredByEqualNeighborhoods) {
  // Two adjacent vertices with identical closed neighborhoods (triangle).
  const Graph g = complete_graph(3);
  EXPECT_TRUE(g.closed_covered_by(0, 1));
  EXPECT_TRUE(g.closed_covered_by(1, 0));
}

TEST(GraphTest, OpenCoveredByPair) {
  // Path 0-1-2-3-4: N(2)={1,3} ⊆ N(1) ∪ N(3) = {0,2} ∪ {2,4}? No: 1 ∉, 3 ∉.
  const Graph path = path_graph(5);
  EXPECT_FALSE(path.open_covered_by_pair(2, 1, 3));
  // Cycle of 4: N(0)={1,3}; N(1)={0,2}, N(3)={0,2} -> union {0,2}; no.
  const Graph c4 = cycle_graph(4);
  EXPECT_FALSE(c4.open_covered_by_pair(0, 1, 3));
  // Complete graph: always covered (u,w adjacent, everything adjacent).
  const Graph k4 = complete_graph(4);
  EXPECT_TRUE(k4.open_covered_by_pair(0, 1, 2));
}

TEST(GraphTest, OpenCoveredRequiresUvConnection) {
  // v=1 center of path 0-1-2; N(1)={0,2}; u=0,w=2: N(0)={1}, N(2)={1};
  // union={1} does not contain 0 or 2.
  const Graph g = path_graph(3);
  EXPECT_FALSE(g.open_covered_by_pair(1, 0, 2));
}

TEST(GraphTest, BfsDistances) {
  const Graph g = path_graph(5);
  const auto dist = g.bfs_distances(0);
  EXPECT_EQ(dist, (std::vector<NodeId>{0, 1, 2, 3, 4}));
}

TEST(GraphTest, BfsUnreachable) {
  Graph g(4);
  g.add_edge(0, 1);
  const auto dist = g.bfs_distances(0);
  EXPECT_EQ(dist[2], -1);
  EXPECT_EQ(dist[3], -1);
}

TEST(GraphTest, BfsRestrictedInterior) {
  // 0-1-2 and 0-3-2: forbid node 1 as interior; distance 0->2 via 3 stays 2.
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(0, 3);
  g.add_edge(3, 2);
  DynBitset allowed(4);
  allowed.set(3);
  const auto dist = g.bfs_distances(0, &allowed);
  EXPECT_EQ(dist[2], 2);
  // Node 1 is still *reachable* (it is a final hop), just cannot relay.
  EXPECT_EQ(dist[1], 1);
}

TEST(GraphTest, BfsRestrictedBlocksWhenNoAllowedPath) {
  const Graph g = path_graph(3);
  DynBitset allowed(3);  // nobody may relay
  const auto dist = g.bfs_distances(0, &allowed);
  EXPECT_EQ(dist[1], 1);   // direct edge still works
  EXPECT_EQ(dist[2], -1);  // needs node 1 as interior
}

TEST(GraphTest, Components) {
  Graph g(6);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  g.add_edge(3, 4);
  const auto comp = g.components();
  EXPECT_EQ(comp[0], comp[1]);
  EXPECT_EQ(comp[2], comp[3]);
  EXPECT_EQ(comp[3], comp[4]);
  EXPECT_NE(comp[0], comp[2]);
  EXPECT_NE(comp[5], comp[0]);
  EXPECT_NE(comp[5], comp[2]);
  EXPECT_EQ(g.num_components(), 3);
  EXPECT_FALSE(g.is_connected());
}

TEST(GraphTest, SingleNodeConnected) {
  Graph g(1);
  EXPECT_TRUE(g.is_connected());
  EXPECT_EQ(g.num_components(), 1);
}

TEST(GraphTest, IsConnectedReusesCallerScratch) {
  // One pair of buffers across graphs of different sizes; stale contents
  // from a larger graph must not leak into a smaller one.
  std::vector<NodeId> stack;
  std::vector<char> seen;
  EXPECT_TRUE(path_graph(7).is_connected(stack, seen));
  EXPECT_EQ(seen.size(), 7u);
  Graph split(4);
  split.add_edge(0, 1);
  split.add_edge(2, 3);
  EXPECT_FALSE(split.is_connected(stack, seen));
  split.add_edge(1, 2);
  EXPECT_TRUE(split.is_connected(stack, seen));
  EXPECT_TRUE(Graph(0).is_connected(stack, seen));
  EXPECT_FALSE(Graph(2).is_connected(stack, seen));
}

TEST(GraphTest, IsComplete) {
  EXPECT_TRUE(complete_graph(4).is_complete());
  EXPECT_FALSE(path_graph(4).is_complete());
  EXPECT_TRUE(complete_graph(1).is_complete());
  EXPECT_TRUE(complete_graph(2).is_complete());
}

TEST(GraphTest, ComponentOf) {
  Graph g(5);
  g.add_edge(0, 1);
  g.add_edge(3, 4);
  const DynBitset comp = g.component_of(0);
  EXPECT_TRUE(comp.test(0));
  EXPECT_TRUE(comp.test(1));
  EXPECT_FALSE(comp.test(3));
  EXPECT_EQ(comp.count(), 2u);
}

TEST(GraphTest, InducedSubgraph) {
  const Graph g = cycle_graph(5);
  DynBitset keep(5);
  keep.set(0);
  keep.set(1);
  keep.set(3);
  std::vector<NodeId> mapping;
  const Graph sub = g.induced(keep, &mapping);
  EXPECT_EQ(sub.num_nodes(), 3);
  EXPECT_EQ(mapping, (std::vector<NodeId>{0, 1, 3}));
  EXPECT_TRUE(sub.has_edge(0, 1));   // original 0-1
  EXPECT_FALSE(sub.has_edge(1, 2));  // 1 and 3 not adjacent in C5
  EXPECT_EQ(sub.num_edges(), 1u);
}

TEST(GraphTest, InducedMaskSizeMismatchThrows) {
  const Graph g = path_graph(3);
  EXPECT_THROW((void)g.induced(DynBitset(2)), std::invalid_argument);
}

TEST(GraphTest, Diameter) {
  EXPECT_EQ(path_graph(5).diameter().value(), 4);
  EXPECT_EQ(complete_graph(5).diameter().value(), 1);
  EXPECT_EQ(cycle_graph(6).diameter().value(), 3);
  Graph disconnected(3);
  disconnected.add_edge(0, 1);
  EXPECT_FALSE(disconnected.diameter().has_value());
}

TEST(GraphTest, EdgesSorted) {
  Graph g(4);
  g.add_edge(2, 3);
  g.add_edge(0, 1);
  g.add_edge(1, 3);
  EXPECT_EQ(g.edges(), (std::vector<std::pair<NodeId, NodeId>>{
                           {0, 1}, {1, 3}, {2, 3}}));
}

TEST(GraphTest, Equality) {
  Graph a = path_graph(3);
  Graph b = path_graph(3);
  EXPECT_EQ(a, b);
  b.add_edge(0, 2);
  EXPECT_NE(a, b);
}

TEST(GraphTest, RemoveKeepsRowsCoherent) {
  Graph g = complete_graph(4);
  g.remove_edge(0, 1);
  EXPECT_FALSE(g.has_edge(0, 1));
  EXPECT_FALSE(g.has_edge(1, 0));
  EXPECT_EQ(g.degree(0), 2);
  EXPECT_EQ(static_cast<std::size_t>(g.neighbors(0).size()), 2u);
}

TEST(GraphTest, AssignUpperEqualsFromEdgesWithAddEdgeCapacities) {
  // Rows given unsorted; vertex 5 stays isolated, vertex 0 reaches degree 5.
  const std::vector<std::size_t> offsets{0, 5, 7, 8, 8, 8, 8, 8};
  const std::vector<NodeId> upper{4, 1, 6, 3, 2, 6, 3, 4};
  Graph g = path_graph(3);  // storage is replaced, not merged
  const std::uint64_t before = g.version();
  g.assign_upper(7, offsets, upper);
  EXPECT_NE(g.version(), before);
  const Graph expected = Graph::from_edges(
      7, {{0, 4}, {0, 1}, {0, 6}, {0, 3}, {0, 2}, {1, 6}, {1, 3}, {2, 4}});
  EXPECT_EQ(g, expected);
  EXPECT_EQ(g.num_edges(), 8u);
  for (NodeId v = 0; v < 7; ++v) {
    EXPECT_EQ(g.slice_capacity(v), expected.slice_capacity(v)) << "v=" << v;
  }
  EXPECT_EQ(g.slice_capacity(0), 8);  // degree 5 -> bit_ceil = 8
  EXPECT_EQ(g.slice_capacity(1), 4);  // degree 3 -> the minimum slice
  EXPECT_EQ(g.slice_capacity(5), 0);  // isolated
  // Slices keep add_edge semantics after a bulk build.
  EXPECT_TRUE(g.add_edge(5, 6));
  EXPECT_TRUE(g.remove_edge(0, 4));
  EXPECT_EQ(g.neighbors(0).size(), 4u);
  EXPECT_EQ(g.neighbors(6).front(), 0);
}

TEST(GraphTest, AssignUpperRejectsMalformedRows) {
  Graph g = path_graph(3);
  const Graph original = g;
  const std::vector<std::size_t> offsets{0, 1, 1, 1};
  EXPECT_THROW(g.assign_upper(3, offsets, std::vector<NodeId>{0}),
               std::invalid_argument);  // not above the row
  EXPECT_THROW(g.assign_upper(3, offsets, std::vector<NodeId>{3}),
               std::invalid_argument);  // out of range
  EXPECT_THROW(g.assign_upper(3, std::vector<std::size_t>{0, 1, 1},
                              std::vector<NodeId>{1}),
               std::invalid_argument);  // offsets not n + 1 long
  EXPECT_EQ(g, original);
  EXPECT_THROW(g.assign_upper(3, std::vector<std::size_t>{0, 2, 2, 2},
                              std::vector<NodeId>{2, 2}),
               std::invalid_argument);  // repeated entry
  EXPECT_EQ(g, Graph(3));
}

}  // namespace
}  // namespace pacds
