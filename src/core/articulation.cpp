#include "core/articulation.hpp"

#include <algorithm>

namespace pacds {

namespace {

/// Iterative Tarjan low-link DFS computing articulation points and bridges
/// in one sweep (recursion-free so deep paths cannot overflow the stack).
struct LowLink {
  explicit LowLink(const Graph& g)
      : graph(&g),
        n(static_cast<std::size_t>(g.num_nodes())),
        disc(n, -1),
        low(n, 0),
        parent(n, -1),
        is_articulation(n) {}

  void run() {
    for (NodeId root = 0; root < graph->num_nodes(); ++root) {
      if (disc[static_cast<std::size_t>(root)] < 0) dfs(root);
    }
  }

  void dfs(NodeId root) {
    struct Frame {
      NodeId node;
      std::size_t next_child = 0;
    };
    std::vector<Frame> stack{{root}};
    NodeId root_children = 0;
    disc[static_cast<std::size_t>(root)] = timer;
    low[static_cast<std::size_t>(root)] = timer;
    ++timer;
    while (!stack.empty()) {
      Frame& frame = stack.back();
      const auto vi = static_cast<std::size_t>(frame.node);
      const auto nbrs = graph->neighbors(frame.node);
      if (frame.next_child < nbrs.size()) {
        const NodeId u = nbrs[frame.next_child++];
        const auto ui = static_cast<std::size_t>(u);
        if (disc[ui] < 0) {
          parent[ui] = frame.node;
          if (frame.node == root) ++root_children;
          disc[ui] = timer;
          low[ui] = timer;
          ++timer;
          stack.push_back({u});
        } else if (u != parent[vi]) {
          low[vi] = std::min(low[vi], disc[ui]);
        }
      } else {
        stack.pop_back();
        const NodeId p = parent[vi];
        if (p >= 0) {
          const auto pi = static_cast<std::size_t>(p);
          low[pi] = std::min(low[pi], low[vi]);
          if (p != root && low[vi] >= disc[pi]) {
            is_articulation.set(pi);
          }
          if (low[vi] > disc[pi]) {
            edge_bridges.emplace_back(std::min(p, frame.node),
                                      std::max(p, frame.node));
          }
        }
      }
    }
    if (root_children >= 2) {
      is_articulation.set(static_cast<std::size_t>(root));
    }
  }

  const Graph* graph;
  std::size_t n;
  std::vector<NodeId> disc;
  std::vector<NodeId> low;
  std::vector<NodeId> parent;
  DynBitset is_articulation;
  std::vector<std::pair<NodeId, NodeId>> edge_bridges;
  NodeId timer = 0;
};

}  // namespace

DynBitset articulation_points(const Graph& g) {
  LowLink ll(g);
  ll.run();
  return ll.is_articulation;
}

std::vector<std::pair<NodeId, NodeId>> bridges(const Graph& g) {
  LowLink ll(g);
  ll.run();
  std::sort(ll.edge_bridges.begin(), ll.edge_bridges.end());
  return ll.edge_bridges;
}

bool is_biconnected(const Graph& g) {
  if (g.num_nodes() <= 1) return true;
  if (!g.is_connected()) return false;
  return articulation_points(g).none();
}

}  // namespace pacds
