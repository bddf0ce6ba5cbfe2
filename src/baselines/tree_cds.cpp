#include "baselines/tree_cds.hpp"

#include <algorithm>
#include <deque>
#include <numeric>
#include <vector>

#include "core/verify.hpp"

namespace pacds {

DynBitset bfs_tree_cds(const Graph& g, bool prune) {
  const auto n = static_cast<std::size_t>(g.num_nodes());
  DynBitset cds(n);
  const auto comp = g.components();
  const NodeId ncomp = Graph::count_components(comp);

  std::vector<char> visited(n, 0);
  std::vector<char> has_child(n, 0);
  for (NodeId c = 0; c < ncomp; ++c) {
    NodeId root = -1;
    std::size_t comp_size = 0;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (comp[static_cast<std::size_t>(v)] != c) continue;
      ++comp_size;
      if (root < 0 || g.degree(v) > g.degree(root)) root = v;
    }
    if (comp_size <= 1) continue;
    // BFS tree; a node is internal iff it acquires at least one child.
    visited[static_cast<std::size_t>(root)] = 1;
    std::deque<NodeId> queue{root};
    while (!queue.empty()) {
      const NodeId cur = queue.front();
      queue.pop_front();
      for (const NodeId nxt : g.neighbors(cur)) {
        if (visited[static_cast<std::size_t>(nxt)]) continue;
        visited[static_cast<std::size_t>(nxt)] = 1;
        has_child[static_cast<std::size_t>(cur)] = 1;
        queue.push_back(nxt);
      }
    }
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (comp[static_cast<std::size_t>(v)] == c &&
          has_child[static_cast<std::size_t>(v)]) {
        cds.set(static_cast<std::size_t>(v));
      }
    }
  }

  if (prune) {
    // Try to drop members in ascending degree order (cheap nodes first);
    // every removal is validated so the set stays a CDS.
    std::vector<NodeId> order(n);
    std::iota(order.begin(), order.end(), NodeId{0});
    std::sort(order.begin(), order.end(), [&g](NodeId a, NodeId b) {
      if (g.degree(a) != g.degree(b)) return g.degree(a) < g.degree(b);
      return a < b;
    });
    bool changed = true;
    while (changed) {
      changed = false;
      for (const NodeId v : order) {
        if (!cds.test(static_cast<std::size_t>(v))) continue;
        if (removal_is_safe(g, cds, v)) {
          cds.reset(static_cast<std::size_t>(v));
          changed = true;
        }
      }
    }
  }
  return cds;
}

}  // namespace pacds
