#include "core/verify.hpp"

#include <deque>
#include <vector>

namespace pacds {

namespace {

/// BFS over `g` restricted to nodes in `within`, starting from `start`;
/// returns how many nodes of `within` were reached.
std::size_t reachable_within(const Graph& g, const DynBitset& within,
                             NodeId start) {
  DynBitset seen(within.size());
  seen.set(static_cast<std::size_t>(start));
  std::deque<NodeId> queue{start};
  std::size_t reached = 1;
  while (!queue.empty()) {
    const NodeId cur = queue.front();
    queue.pop_front();
    for (const NodeId nxt : g.neighbors(cur)) {
      const auto ni = static_cast<std::size_t>(nxt);
      if (within.test(ni) && !seen.test(ni)) {
        seen.set(ni);
        ++reached;
        queue.push_back(nxt);
      }
    }
  }
  return reached;
}

}  // namespace

CdsCheck check_cds(const Graph& g, const DynBitset& set,
                   bool exempt_complete_components) {
  CdsCheck result;
  const NodeId n = g.num_nodes();
  if (set.size() != static_cast<std::size_t>(n)) {
    result.dominating = false;
    result.message = "mark set size does not match graph";
    return result;
  }
  const auto comp = g.components();
  const NodeId ncomp = Graph::count_components(comp);
  std::vector<std::vector<NodeId>> members(static_cast<std::size_t>(ncomp));
  for (NodeId v = 0; v < n; ++v) {
    members[static_cast<std::size_t>(comp[static_cast<std::size_t>(v)])]
        .push_back(v);
  }
  for (const auto& nodes : members) {
    NodeId first_marked = -1;
    std::size_t marked_count = 0;
    for (const NodeId v : nodes) {
      if (set.test(static_cast<std::size_t>(v))) {
        ++marked_count;
        if (first_marked < 0) first_marked = v;
      }
    }
    if (marked_count == 0) {
      // Components are maximal, so "complete" means every member's degree is
      // exactly |component| - 1.
      bool complete = true;
      for (const NodeId v : nodes) {
        if (static_cast<std::size_t>(g.degree(v)) != nodes.size() - 1) {
          complete = false;
          break;
        }
      }
      if (!(exempt_complete_components && complete)) {
        result.dominating = false;
        result.message = "component containing node " +
                         std::to_string(nodes.front()) +
                         " has no gateway and is not an exempt clique";
        return result;
      }
      continue;
    }
    for (const NodeId v : nodes) {
      if (set.test(static_cast<std::size_t>(v))) continue;
      bool covered = false;
      for (const NodeId u : g.neighbors(v)) {
        if (set.test(static_cast<std::size_t>(u))) {
          covered = true;
          break;
        }
      }
      if (!covered) {
        result.dominating = false;
        result.message =
            "node " + std::to_string(v) + " is not dominated by the set";
        return result;
      }
    }
    if (reachable_within(g, set, first_marked) != marked_count) {
      result.induced_connected = false;
      result.message = "gateway subgraph disconnected in component of node " +
                       std::to_string(nodes.front());
      return result;
    }
  }
  return result;
}

bool removal_is_safe(const Graph& g, const DynBitset& set, NodeId v) {
  const auto vi = static_cast<std::size_t>(v);
  if (!set.test(vi)) return true;  // nothing to remove
  DynBitset candidate = set;
  candidate.reset(vi);

  const DynBitset comp = g.component_of(v);
  NodeId first_marked = -1;
  std::size_t marked_count = 0;
  comp.for_each_set([&](std::size_t i) {
    if (candidate.test(i)) {
      ++marked_count;
      if (first_marked < 0) first_marked = static_cast<NodeId>(i);
    }
  });
  if (marked_count == 0) {
    // Removing the last gateway of a multi-node component is never safe.
    return comp.count() <= 1;
  }
  bool dominated = true;
  comp.for_each_set([&](std::size_t i) {
    if (!dominated || candidate.test(i)) return;
    bool covered = false;
    for (const NodeId u : g.neighbors(static_cast<NodeId>(i))) {
      if (candidate.test(static_cast<std::size_t>(u))) {
        covered = true;
        break;
      }
    }
    if (!covered) dominated = false;
  });
  if (!dominated) return false;
  return reachable_within(g, candidate, first_marked) == marked_count;
}

bool property3_holds(const Graph& g, const DynBitset& gateways) {
  const NodeId n = g.num_nodes();
  for (NodeId s = 0; s < n; ++s) {
    const auto full = g.bfs_distances(s);
    const auto restricted = g.bfs_distances(s, &gateways);
    for (NodeId t = 0; t < n; ++t) {
      const auto ti = static_cast<std::size_t>(t);
      if (full[ti] >= 0 && restricted[ti] != full[ti]) return false;
    }
  }
  return true;
}

}  // namespace pacds
