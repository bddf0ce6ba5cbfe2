#include "baselines/mis_cds.hpp"

#include <algorithm>
#include <deque>
#include <numeric>
#include <vector>

namespace pacds {

DynBitset greedy_mis(const Graph& g) {
  const auto n = static_cast<std::size_t>(g.num_nodes());
  DynBitset mis(n);
  DynBitset blocked(n);
  std::vector<NodeId> order(n);
  std::iota(order.begin(), order.end(), NodeId{0});
  std::sort(order.begin(), order.end(), [&g](NodeId a, NodeId b) {
    if (g.degree(a) != g.degree(b)) return g.degree(a) > g.degree(b);
    return a < b;
  });
  for (const NodeId v : order) {
    const auto vi = static_cast<std::size_t>(v);
    if (blocked.test(vi)) continue;
    mis.set(vi);
    blocked.set(vi);
    for (const NodeId u : g.neighbors(v)) {
      blocked.set(static_cast<std::size_t>(u));
    }
  }
  return mis;
}

namespace {

/// Labels each node with the id of the S-cluster it belongs to (nodes of S
/// connected through S), or -1 if not in S.
std::vector<NodeId> s_clusters(const Graph& g, const DynBitset& s) {
  std::vector<NodeId> cluster(static_cast<std::size_t>(g.num_nodes()), -1);
  NodeId next = 0;
  std::deque<NodeId> queue;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto vi = static_cast<std::size_t>(v);
    if (!s.test(vi) || cluster[vi] >= 0) continue;
    cluster[vi] = next;
    queue.push_back(v);
    while (!queue.empty()) {
      const NodeId cur = queue.front();
      queue.pop_front();
      for (const NodeId nxt : g.neighbors(cur)) {
        const auto ni = static_cast<std::size_t>(nxt);
        if (s.test(ni) && cluster[ni] < 0) {
          cluster[ni] = next;
          queue.push_back(nxt);
        }
      }
    }
    ++next;
  }
  return cluster;
}

/// Finds a shortest path (over the whole graph) from cluster 0 of S to any
/// other cluster and returns its vertex sequence; empty if S already has at
/// most one cluster inside this component. `in_comp` restricts the search.
std::vector<NodeId> connector_path(const Graph& g, const DynBitset& s,
                                   const DynBitset& in_comp) {
  const auto cluster = s_clusters(g, s);
  // Pick the lowest cluster id present in this component as the source side.
  NodeId src_cluster = -1;
  in_comp.for_each_set([&](std::size_t i) {
    if (s.test(i) && (src_cluster < 0 || cluster[i] < src_cluster)) {
      src_cluster = cluster[i];
    }
  });
  if (src_cluster < 0) return {};
  // Multi-source BFS from all nodes of src_cluster; stop at the first node
  // of S in a different cluster.
  const auto n = static_cast<std::size_t>(g.num_nodes());
  std::vector<NodeId> parent(n, -1);
  std::vector<char> seen(n, 0);
  std::deque<NodeId> queue;
  in_comp.for_each_set([&](std::size_t i) {
    if (s.test(i) && cluster[i] == src_cluster) {
      seen[i] = 1;
      queue.push_back(static_cast<NodeId>(i));
    }
  });
  while (!queue.empty()) {
    const NodeId cur = queue.front();
    queue.pop_front();
    for (const NodeId nxt : g.neighbors(cur)) {
      const auto ni = static_cast<std::size_t>(nxt);
      if (seen[ni] || !in_comp.test(ni)) continue;
      seen[ni] = 1;
      parent[ni] = cur;
      if (s.test(ni) && cluster[ni] != src_cluster) {
        std::vector<NodeId> path{nxt};
        for (NodeId p = cur; p != -1; p = parent[static_cast<std::size_t>(p)]) {
          path.push_back(p);
        }
        std::reverse(path.begin(), path.end());
        return path;
      }
      queue.push_back(nxt);
    }
  }
  return {};
}

}  // namespace

DynBitset lowest_id_clusterheads(const Graph& g) {
  const auto n = static_cast<std::size_t>(g.num_nodes());
  DynBitset heads(n);
  DynBitset covered(n);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto vi = static_cast<std::size_t>(v);
    if (covered.test(vi)) continue;
    heads.set(vi);
    covered.set(vi);
    for (const NodeId u : g.neighbors(v)) {
      covered.set(static_cast<std::size_t>(u));
    }
  }
  return heads;
}

DynBitset connect_dominating_seed(const Graph& g, DynBitset cds) {
  const auto n = static_cast<std::size_t>(g.num_nodes());
  // Singletons would be their own member with nobody to dominate; drop
  // them so the convention matches the other baselines.
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (g.degree(v) == 0) cds.reset(static_cast<std::size_t>(v));
  }
  const auto comp = g.components();
  const NodeId ncomp = Graph::count_components(comp);
  for (NodeId c = 0; c < ncomp; ++c) {
    DynBitset in_comp(n);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (comp[static_cast<std::size_t>(v)] == c) {
        in_comp.set(static_cast<std::size_t>(v));
      }
    }
    // Stitch clusters together until one remains; each round adds the
    // interior of a shortest connector path, which strictly reduces the
    // cluster count, so this terminates.
    while (true) {
      const auto path = connector_path(g, cds, in_comp);
      if (path.empty()) break;
      for (std::size_t i = 1; i + 1 < path.size(); ++i) {
        cds.set(static_cast<std::size_t>(path[i]));
      }
    }
  }
  return cds;
}

DynBitset mis_cds(const Graph& g) {
  return connect_dominating_seed(g, greedy_mis(g));
}

DynBitset cluster_cds(const Graph& g) {
  return connect_dominating_seed(g, lowest_id_clusterheads(g));
}

}  // namespace pacds
