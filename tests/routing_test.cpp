// Tests for dominating-set-based routing: membership lists, routing tables,
// and the 3-step routing process (paper Section 2.1, Figure 2).

#include "routing/routing.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <stdexcept>

#include "core/cds.hpp"
#include "net/rng.hpp"
#include "net/topology.hpp"
#include "net/udg.hpp"
#include "test_graphs.hpp"

namespace pacds {
namespace {

using testing::figure1_graph;
using testing::path_graph;
using testing::star_graph;

DynBitset set_of(std::size_t n, std::initializer_list<std::size_t> bits) {
  DynBitset s(n);
  for (const auto b : bits) s.set(b);
  return s;
}

/// Verifies that `path` is a real walk in g from src to dst.
void expect_valid_path(const Graph& g, const std::vector<NodeId>& path,
                       NodeId src, NodeId dst) {
  ASSERT_FALSE(path.empty());
  EXPECT_EQ(path.front(), src);
  EXPECT_EQ(path.back(), dst);
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    EXPECT_TRUE(g.has_edge(path[i], path[i + 1]))
        << path[i] << "-" << path[i + 1];
  }
}

TEST(RoutingTest, MaskSizeMismatchThrows) {
  EXPECT_THROW(DominatingSetRouter(path_graph(3), DynBitset(2)),
               std::invalid_argument);
}

TEST(RoutingTest, MembershipListsOnFigure1) {
  // Gateways v=1, w=2 (marking output). Members: v covers u(0), y(4);
  // w covers x(3).
  const Graph g = figure1_graph();
  const DominatingSetRouter router(g, set_of(5, {1, 2}));
  EXPECT_TRUE(router.is_gateway(1));
  EXPECT_FALSE(router.is_gateway(0));
  EXPECT_EQ(router.domain_members(1), (std::vector<NodeId>{0, 4}));
  EXPECT_EQ(router.domain_members(2), (std::vector<NodeId>{3}));
  EXPECT_THROW((void)router.domain_members(0), std::invalid_argument);
}

TEST(RoutingTest, GatewaysOfHost) {
  const Graph g = figure1_graph();
  const DominatingSetRouter router(g, set_of(5, {1, 2}));
  EXPECT_EQ(router.gateways_of(0), (std::vector<NodeId>{1}));
  EXPECT_EQ(router.gateways_of(3), (std::vector<NodeId>{2}));
  EXPECT_TRUE(router.gateways_of(1).empty());  // gateways have none
}

TEST(RoutingTest, RoutingTableEntries) {
  const Graph g = path_graph(5);
  const DominatingSetRouter router(g, set_of(5, {1, 2, 3}));
  const auto table = router.routing_table(1);
  ASSERT_EQ(table.size(), 2u);
  EXPECT_EQ(table[0].gateway, 2);
  EXPECT_EQ(table[0].distance, 1);
  EXPECT_EQ(table[0].next_hop, 2);
  EXPECT_EQ(table[1].gateway, 3);
  EXPECT_EQ(table[1].distance, 2);
  EXPECT_EQ(table[1].next_hop, 2);  // first hop toward 3
  EXPECT_EQ(table[1].members, (std::vector<NodeId>{4}));
}

TEST(RoutingTest, RoutingTableThrowsForNonGateway) {
  const Graph g = path_graph(3);
  const DominatingSetRouter router(g, set_of(3, {1}));
  EXPECT_THROW((void)router.routing_table(0), std::invalid_argument);
}

TEST(RoutingTest, TrivialRoutes) {
  const Graph g = path_graph(3);
  const DominatingSetRouter router(g, set_of(3, {1}));
  const RouteResult self = router.route(0, 0);
  EXPECT_TRUE(self.delivered);
  EXPECT_EQ(self.path, (std::vector<NodeId>{0}));
  const RouteResult direct = router.route(0, 1);
  EXPECT_TRUE(direct.delivered);
  EXPECT_EQ(direct.path, (std::vector<NodeId>{0, 1}));
}

TEST(RoutingTest, ThreeStepRoute) {
  // P5 with backbone {1,2,3}: 0 -> 4 must go 0,1,2,3,4.
  const Graph g = path_graph(5);
  const DominatingSetRouter router(g, set_of(5, {1, 2, 3}));
  const RouteResult r = router.route(0, 4);
  EXPECT_TRUE(r.delivered);
  EXPECT_EQ(r.path, (std::vector<NodeId>{0, 1, 2, 3, 4}));
  EXPECT_EQ(router.route_hops(0, 4).value(), 4);
}

TEST(RoutingTest, GatewaySourceAndDestination) {
  const Graph g = path_graph(5);
  const DominatingSetRouter router(g, set_of(5, {1, 2, 3}));
  const RouteResult r = router.route(1, 3);
  EXPECT_TRUE(r.delivered);
  EXPECT_EQ(r.path, (std::vector<NodeId>{1, 2, 3}));
}

TEST(RoutingTest, SharedGatewayTwoHops)  {
  // Star with center gateway: any leaf pair routes through the center.
  const Graph g = star_graph(4);
  const DominatingSetRouter router(g, set_of(5, {0}));
  const RouteResult r = router.route(1, 3);
  EXPECT_TRUE(r.delivered);
  EXPECT_EQ(r.path, (std::vector<NodeId>{1, 0, 3}));
}

TEST(RoutingTest, UndominatedSourceFails) {
  // Gateway set misses node 0's neighborhood entirely.
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  const DominatingSetRouter router(g, set_of(4, {2}));
  const RouteResult r = router.route(0, 3);
  EXPECT_FALSE(r.delivered);
  EXPECT_FALSE(r.failure.empty());
}

TEST(RoutingTest, DisconnectedBackboneFails) {
  // Two separate path components, gateways in each; cross-component route
  // must fail with a backbone error.
  Graph g(6);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(3, 4);
  g.add_edge(4, 5);
  const DominatingSetRouter router(g, set_of(6, {1, 4}));
  const RouteResult r = router.route(0, 5);
  EXPECT_FALSE(r.delivered);
}

TEST(RoutingTest, ConnectedGraphSplitBackboneFailsCleanly) {
  // Fuzz-derived failure path: the *graph* is connected (P6) but the
  // gateway-induced subgraph is not — gateways 1 and 4 are two backbone
  // components with non-gateway 2-3 between them. Both endpoints have a
  // source/destination gateway, so the failure must come from the backbone
  // BFS, as a clean undelivered result (no throw, no partial path).
  const Graph g = path_graph(6);
  const DominatingSetRouter router(g, set_of(6, {1, 4}));
  const RouteResult r = router.route(0, 5);
  EXPECT_FALSE(r.delivered);
  EXPECT_FALSE(r.failure.empty());
  EXPECT_TRUE(r.path.empty());
  EXPECT_FALSE(router.route_hops(0, 5).has_value());
  // Other cross-component pairs fail the same way — except adjacent hosts,
  // which deliver one-hop without touching the backbone at all.
  EXPECT_FALSE(router.route(0, 4).delivered);
  EXPECT_FALSE(router.route(1, 5).delivered);
  EXPECT_TRUE(router.route(2, 3).delivered);  // neighbor bypass
  EXPECT_TRUE(router.route(0, 2).delivered);
  EXPECT_TRUE(router.route(3, 5).delivered);
}

TEST(RoutingTest, FailedRouteHopsEmpty) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  const DominatingSetRouter router(g, set_of(4, {1, 2}));
  EXPECT_FALSE(router.route_hops(0, 3).has_value());
}

TEST(RoutingTest, Figure1AllPairsDeliverable) {
  const Graph g = figure1_graph();
  const CdsResult cds = compute_cds(g, RuleSet::kID);
  const DominatingSetRouter router(g, cds.gateways);
  for (NodeId s = 0; s < 5; ++s) {
    for (NodeId t = 0; t < 5; ++t) {
      const RouteResult r = router.route(s, t);
      ASSERT_TRUE(r.delivered) << s << "->" << t << ": " << r.failure;
      expect_valid_path(g, r.path, s, t);
    }
  }
}

TEST(RoutingTest, RandomNetworkAllPairsDeliverable) {
  Xoshiro256 rng(31);
  const auto placed = random_connected_placement(30, Field::paper_field(),
                                                 kPaperRadius, rng, 500);
  ASSERT_TRUE(placed.has_value());
  const Graph& g = placed->graph;
  CdsOptions options;
  options.strategy = Strategy::kVerified;
  const CdsResult cds = compute_cds(g, RuleSet::kND, {}, options);
  const DominatingSetRouter router(g, cds.gateways);
  const auto n = g.num_nodes();
  for (NodeId s = 0; s < n; ++s) {
    for (NodeId t = static_cast<NodeId>(s + 1); t < n; ++t) {
      const RouteResult r = router.route(s, t);
      ASSERT_TRUE(r.delivered) << s << "->" << t << ": " << r.failure;
      expect_valid_path(g, r.path, s, t);
      // Routed path can never beat the true shortest path.
      const auto true_dist =
          g.bfs_distances(s)[static_cast<std::size_t>(t)];
      EXPECT_GE(static_cast<NodeId>(r.path.size() - 1), true_dist);
    }
  }
}

TEST(RoutingTest, HopsMatchRestrictedBfs) {
  // The router's hop count must equal the gateway-interior-restricted BFS
  // distance — two independent implementations of the same semantics.
  Xoshiro256 rng(53);
  const auto placed = random_connected_placement(35, Field::paper_field(),
                                                 kPaperRadius, rng, 2000);
  ASSERT_TRUE(placed.has_value());
  const Graph& g = placed->graph;
  for (const RuleSet rs : {RuleSet::kNR, RuleSet::kID, RuleSet::kND}) {
    const CdsResult cds = compute_cds(g, rs);
    const DominatingSetRouter router(g, cds.gateways);
    for (NodeId s = 0; s < g.num_nodes(); ++s) {
      const auto restricted = g.bfs_distances(s, &cds.gateways);
      for (NodeId t = 0; t < g.num_nodes(); ++t) {
        if (s == t) continue;
        const auto hops = router.route_hops(s, t);
        const NodeId expected = restricted[static_cast<std::size_t>(t)];
        if (expected < 0) {
          EXPECT_FALSE(hops.has_value()) << s << "->" << t;
        } else {
          ASSERT_TRUE(hops.has_value()) << s << "->" << t;
          EXPECT_EQ(*hops, expected)
              << to_string(rs) << " " << s << "->" << t;
        }
      }
    }
  }
}

TEST(RoutingTest, RouteInteriorUsesOnlyGateways) {
  const Graph g = figure1_graph();
  const CdsResult cds = compute_cds(g, RuleSet::kID);
  const DominatingSetRouter router(g, cds.gateways);
  for (NodeId s = 0; s < 5; ++s) {
    for (NodeId t = 0; t < 5; ++t) {
      const RouteResult r = router.route(s, t);
      ASSERT_TRUE(r.delivered);
      for (std::size_t i = 1; i + 1 < r.path.size(); ++i) {
        EXPECT_TRUE(router.is_gateway(r.path[i]))
            << "interior node " << r.path[i] << " on " << s << "->" << t;
      }
    }
  }
}

/// The per-call-BFS router the cached backbone rows replaced, kept as the
/// reference: one fresh backbone BFS per candidate source gateway of every
/// route, and one per routing table.
class ReferenceRouter {
 public:
  ReferenceRouter(const Graph& g, const DynBitset& gateways)
      : g_(g), gateways_(gateways) {}

  RouteResult route(NodeId src, NodeId dst) const {
    RouteResult result;
    if (src == dst) {
      result.delivered = true;
      result.path = {src};
      return result;
    }
    if (g_.has_edge(src, dst)) {
      result.delivered = true;
      result.path = {src, dst};
      return result;
    }
    const std::vector<NodeId> src_gws =
        is_gateway(src) ? std::vector<NodeId>{src} : gateways_of(src);
    const std::vector<NodeId> dst_gws =
        is_gateway(dst) ? std::vector<NodeId>{dst} : gateways_of(dst);
    if (src_gws.empty()) {
      result.failure = "source host is not dominated by any gateway";
      return result;
    }
    if (dst_gws.empty()) {
      result.failure = "destination host is not dominated by any gateway";
      return result;
    }
    NodeId best_total = -1;
    NodeId best_sg = -1;
    NodeId best_dg = -1;
    View best_view;
    for (const NodeId sg : src_gws) {
      View view = backbone_bfs(sg);
      for (const NodeId dg : dst_gws) {
        const NodeId d = view.dist[static_cast<std::size_t>(dg)];
        if (d < 0) continue;
        const NodeId total = d + (src == sg ? 0 : 1) + (dst == dg ? 0 : 1);
        if (best_total < 0 || total < best_total) {
          best_total = total;
          best_sg = sg;
          best_dg = dg;
          best_view = view;
        }
      }
    }
    if (best_total < 0) {
      result.failure =
          "no backbone route between source and destination gateways";
      return result;
    }
    std::vector<NodeId> backbone;
    for (NodeId p = best_dg; p != -1;
         p = best_view.parent[static_cast<std::size_t>(p)]) {
      backbone.push_back(p);
    }
    std::reverse(backbone.begin(), backbone.end());
    result.delivered = true;
    if (src != best_sg) result.path.push_back(src);
    result.path.insert(result.path.end(), backbone.begin(), backbone.end());
    if (dst != best_dg) result.path.push_back(dst);
    return result;
  }

  std::vector<GatewayTableEntry> routing_table(NodeId gw) const {
    const View view = backbone_bfs(gw);
    std::vector<GatewayTableEntry> table;
    gateways_.for_each_set([&](std::size_t peer_idx) {
      const auto peer = static_cast<NodeId>(peer_idx);
      if (peer == gw || view.dist[peer_idx] < 0) return;
      GatewayTableEntry entry;
      entry.gateway = peer;
      for (const NodeId u : g_.neighbors(peer)) {
        if (!is_gateway(u)) entry.members.push_back(u);
      }
      entry.distance = view.dist[peer_idx];
      NodeId hop = peer;
      while (view.parent[static_cast<std::size_t>(hop)] != gw) {
        hop = view.parent[static_cast<std::size_t>(hop)];
      }
      entry.next_hop = hop;
      table.push_back(entry);
    });
    return table;
  }

 private:
  struct View {
    std::vector<NodeId> dist;
    std::vector<NodeId> parent;
  };

  bool is_gateway(NodeId v) const {
    return gateways_.test(static_cast<std::size_t>(v));
  }

  std::vector<NodeId> gateways_of(NodeId host) const {
    std::vector<NodeId> out;
    for (const NodeId u : g_.neighbors(host)) {
      if (is_gateway(u)) out.push_back(u);
    }
    return out;
  }

  View backbone_bfs(NodeId gw) const {
    const auto n = static_cast<std::size_t>(g_.num_nodes());
    View view{std::vector<NodeId>(n, -1), std::vector<NodeId>(n, -1)};
    view.dist[static_cast<std::size_t>(gw)] = 0;
    std::deque<NodeId> queue{gw};
    while (!queue.empty()) {
      const NodeId cur = queue.front();
      queue.pop_front();
      for (const NodeId nxt : g_.neighbors(cur)) {
        const auto ni = static_cast<std::size_t>(nxt);
        if (!is_gateway(nxt) || view.dist[ni] >= 0) continue;
        view.dist[ni] = view.dist[static_cast<std::size_t>(cur)] + 1;
        view.parent[ni] = cur;
        queue.push_back(nxt);
      }
    }
    return view;
  }

  const Graph& g_;
  const DynBitset& gateways_;
};

void expect_same_tables(const std::vector<GatewayTableEntry>& got,
                        const std::vector<GatewayTableEntry>& want,
                        const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].gateway, want[i].gateway) << where;
    EXPECT_EQ(got[i].members, want[i].members) << where;
    EXPECT_EQ(got[i].distance, want[i].distance) << where;
    EXPECT_EQ(got[i].next_hop, want[i].next_hop) << where;
  }
}

/// Gateway sets to route over on `g`: each of the five schemes' CDS, and
/// random subsets that are empty, sparse (rarely dominating) and a CDS with
/// one member dropped (often disconnected).
std::vector<std::pair<std::string, DynBitset>> gateway_sets(const Graph& g,
                                                            Xoshiro256& rng) {
  const auto n = static_cast<std::size_t>(g.num_nodes());
  std::vector<double> energy(n);
  for (double& e : energy) e = static_cast<double>(rng.uniform_int(1, 5));
  std::vector<std::pair<std::string, DynBitset>> sets;
  for (const RuleSet rs : kAllRuleSets) {
    sets.emplace_back(to_string(rs), compute_cds(g, rs, energy).gateways);
  }
  sets.emplace_back("empty", DynBitset(n));
  DynBitset sparse(n);
  for (std::size_t v = 0; v < n; ++v) {
    if (rng.bernoulli(0.25)) sparse.set(v);
  }
  sets.emplace_back("sparse", sparse);
  DynBitset dropped = sets[1].second;
  if (dropped.any()) {
    std::vector<std::size_t> members;
    dropped.for_each_set([&](std::size_t v) { members.push_back(v); });
    dropped.reset(members[static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(members.size()) - 1))]);
  }
  sets.emplace_back("dropped", dropped);
  return sets;
}

TEST(RoutingTest, CachedRowsMatchPerCallBfsOnEveryPair) {
  // Every ordered pair, every gateway's table, on random snapshots from
  // n = 3 to 120: the cached-row router must give the per-call-BFS
  // router's path and failure string exactly.
  Xoshiro256 rng(1717);
  const Field field = Field::paper_field();
  for (const int n : {3, 4, 5, 8, 13, 21, 34, 55, 89, 120}) {
    const std::vector<Vec2> positions = random_placement(n, field, rng);
    const Graph g = build_udg(positions, kPaperRadius);
    for (const auto& [label, gateways] : gateway_sets(g, rng)) {
      const std::string where = "n=" + std::to_string(n) + " " + label;
      const DominatingSetRouter router(g, gateways);
      const ReferenceRouter reference(g, gateways);
      for (NodeId s = 0; s < n; ++s) {
        for (NodeId t = 0; t < n; ++t) {
          const RouteResult got = router.route(s, t);
          const RouteResult want = reference.route(s, t);
          ASSERT_EQ(got.delivered, want.delivered) << where << " " << s
                                                   << "->" << t;
          ASSERT_EQ(got.path, want.path) << where << " " << s << "->" << t;
          ASSERT_EQ(got.failure, want.failure) << where << " " << s << "->"
                                               << t;
          const auto hops = router.route_hops(s, t);
          ASSERT_EQ(hops.has_value(), want.delivered) << where;
          if (hops) {
            ASSERT_EQ(*hops, static_cast<NodeId>(want.path.size() - 1));
          }
        }
      }
      gateways.for_each_set([&](std::size_t gw) {
        const auto id = static_cast<NodeId>(gw);
        expect_same_tables(router.routing_table(id),
                           reference.routing_table(id),
                           where + " table of " + std::to_string(gw));
      });
    }
  }
}

TEST(RoutingTest, QueryOrderDoesNotChangeAnswers) {
  // Rows are filled in the order queries need them; two routers on one
  // snapshot, one asked forward and one backward (tables first), agree.
  Xoshiro256 rng(99);
  const auto placed = random_connected_placement(60, Field::paper_field(),
                                                 kPaperRadius, rng, 500);
  ASSERT_TRUE(placed.has_value());
  const Graph& g = placed->graph;
  const CdsResult cds = compute_cds(g, RuleSet::kND);
  const DominatingSetRouter forward(g, cds.gateways);
  const DominatingSetRouter backward(g, cds.gateways);
  const NodeId n = g.num_nodes();
  std::vector<RouteResult> first;
  for (NodeId s = 0; s < n; ++s) {
    for (NodeId t = 0; t < n; ++t) first.push_back(forward.route(s, t));
  }
  std::vector<NodeId> gws;
  cds.gateways.for_each_set(
      [&](std::size_t v) { gws.push_back(static_cast<NodeId>(v)); });
  std::vector<std::vector<GatewayTableEntry>> tables;
  for (auto it = gws.rbegin(); it != gws.rend(); ++it) {
    tables.push_back(backward.routing_table(*it));
  }
  for (NodeId s = n - 1; s >= 0; --s) {
    for (NodeId t = n - 1; t >= 0; --t) {
      const RouteResult r = backward.route(s, t);
      const RouteResult& f =
          first[static_cast<std::size_t>(s) * static_cast<std::size_t>(n) +
                static_cast<std::size_t>(t)];
      ASSERT_EQ(r.path, f.path) << s << "->" << t;
      ASSERT_EQ(r.failure, f.failure) << s << "->" << t;
    }
  }
  for (std::size_t i = 0; i < gws.size(); ++i) {
    expect_same_tables(forward.routing_table(gws[gws.size() - 1 - i]),
                       tables[i], "table of " + std::to_string(i));
  }
}

}  // namespace
}  // namespace pacds
