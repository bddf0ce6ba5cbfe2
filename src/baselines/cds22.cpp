#include "baselines/cds22.hpp"

#include <deque>
#include <vector>

#include "baselines/greedy_mcds.hpp"
#include "baselines/mis_cds.hpp"
#include "core/articulation.hpp"

namespace pacds {

namespace {

/// Adds non-members until every non-member with degree >= 2 has two member
/// neighbors, greedily picking the vertex adjacent to the most deficient
/// ones (tie: lowest id). Degree-1 vertices are skipped — they can never be
/// 2-dominated, and pulling them into the backbone would wreck
/// biconnectivity; the final check reports such components as not full_22.
void augment_two_domination(const Graph& g, DynBitset& d) {
  const NodeId n = g.num_nodes();
  for (NodeId guard = 0; guard <= n; ++guard) {
    std::vector<int> gain(static_cast<std::size_t>(n), 0);
    bool any_deficient = false;
    for (NodeId v = 0; v < n; ++v) {
      const auto vi = static_cast<std::size_t>(v);
      if (d.test(vi) || g.degree(v) < 2) continue;
      int member_neighbors = 0;
      for (const NodeId u : g.neighbors(v)) {
        if (d.test(static_cast<std::size_t>(u))) ++member_neighbors;
      }
      if (member_neighbors >= 2) continue;
      any_deficient = true;
      for (const NodeId u : g.neighbors(v)) {
        if (!d.test(static_cast<std::size_t>(u))) {
          ++gain[static_cast<std::size_t>(u)];
        }
      }
    }
    if (!any_deficient) return;
    NodeId pick = -1;
    int best_gain = 0;
    for (NodeId u = 0; u < n; ++u) {
      if (gain[static_cast<std::size_t>(u)] > best_gain) {
        best_gain = gain[static_cast<std::size_t>(u)];
        pick = u;
      }
    }
    if (pick < 0) return;  // every deficient vertex is out of candidates
    d.set(static_cast<std::size_t>(pick));
  }
}

/// While the backbone-induced subgraph has a cut vertex c, adds the interior
/// of a shortest path in g that reconnects two of the parts of G[D] - c
/// while avoiding c. The interior is all non-members (any member reached is
/// itself a reconnection target), so 2-domination is preserved. Gives up
/// when no such path exists — then c is a cut vertex of g itself and the
/// component has no (2,2)-CDS at all.
void augment_biconnectivity(const Graph& g, DynBitset& d) {
  const auto n = static_cast<std::size_t>(g.num_nodes());
  for (NodeId guard = 0; guard <= g.num_nodes(); ++guard) {
    if (d.count() <= 2) return;  // an edge (or less) is trivially biconnected
    std::vector<NodeId> mapping;
    const Graph bd = g.induced(d, &mapping);
    if (!bd.is_connected()) return;  // restitch failed upstream; give up
    const DynBitset cuts = articulation_points(bd);
    if (cuts.none()) return;
    const auto cut_local = static_cast<NodeId>(cuts.find_first());
    const auto cut = static_cast<std::size_t>(
        mapping[static_cast<std::size_t>(cut_local)]);

    // One part of G[D] - cut, in original ids.
    DynBitset part(n);
    {
      const NodeId start = cut_local == 0 ? 1 : 0;
      std::vector<char> seen(static_cast<std::size_t>(bd.num_nodes()), 0);
      seen[static_cast<std::size_t>(cut_local)] = 1;
      seen[static_cast<std::size_t>(start)] = 1;
      part.set(static_cast<std::size_t>(mapping[static_cast<std::size_t>(start)]));
      std::deque<NodeId> queue{start};
      while (!queue.empty()) {
        const NodeId cur = queue.front();
        queue.pop_front();
        for (const NodeId nxt : bd.neighbors(cur)) {
          if (seen[static_cast<std::size_t>(nxt)] != 0) continue;
          seen[static_cast<std::size_t>(nxt)] = 1;
          part.set(static_cast<std::size_t>(mapping[static_cast<std::size_t>(nxt)]));
          queue.push_back(nxt);
        }
      }
    }

    // Multi-source BFS in g from `part`, avoiding `cut`, through
    // non-members, until any member outside `part` is reached.
    constexpr NodeId kUnvisited = -2;
    constexpr NodeId kSource = -1;
    constexpr NodeId kBanned = -3;
    std::vector<NodeId> parent(n, kUnvisited);
    std::deque<NodeId> queue;
    part.for_each_set([&](std::size_t i) {
      parent[i] = kSource;
      queue.push_back(static_cast<NodeId>(i));
    });
    parent[cut] = kBanned;
    NodeId hit = -1;
    while (!queue.empty() && hit < 0) {
      const NodeId cur = queue.front();
      queue.pop_front();
      for (const NodeId nxt : g.neighbors(cur)) {
        const auto ni = static_cast<std::size_t>(nxt);
        if (parent[ni] != kUnvisited) continue;
        parent[ni] = cur;
        if (d.test(ni)) {
          hit = nxt;
          break;
        }
        queue.push_back(nxt);
      }
    }
    if (hit < 0) return;  // g itself hinges on `cut`: no (2,2) exists
    // Add the interior of the path (everything between `hit` and a source).
    for (NodeId v = parent[static_cast<std::size_t>(hit)]; v >= 0;
         v = parent[static_cast<std::size_t>(v)]) {
      d.set(static_cast<std::size_t>(v));
    }
  }
}

}  // namespace

Cds22Check check_cds22(const Graph& g, const DynBitset& set) {
  Cds22Check result;
  const NodeId n = g.num_nodes();
  if (set.size() != static_cast<std::size_t>(n)) {
    result.two_dominating = false;
    result.message = "backbone set size does not match graph";
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
    std::size_t marked_count = 0;
    for (const NodeId v : nodes) {
      if (set.test(static_cast<std::size_t>(v))) ++marked_count;
    }
    if (marked_count == 0) {
      bool complete = true;
      for (const NodeId v : nodes) {
        if (static_cast<std::size_t>(g.degree(v)) != nodes.size() - 1) {
          complete = false;
          break;
        }
      }
      if (!complete) {
        result.two_dominating = false;
        result.message = "component containing node " +
                         std::to_string(nodes.front()) +
                         " has no backbone and is not an exempt clique";
        return result;
      }
      continue;
    }
    for (const NodeId v : nodes) {
      if (set.test(static_cast<std::size_t>(v))) continue;
      int member_neighbors = 0;
      for (const NodeId u : g.neighbors(v)) {
        if (set.test(static_cast<std::size_t>(u))) ++member_neighbors;
      }
      if (member_neighbors < 2) {
        result.two_dominating = false;
        result.message = "node " + std::to_string(v) + " has " +
                         std::to_string(member_neighbors) +
                         " backbone neighbors (2-domination needs 2)";
        return result;
      }
    }
    DynBitset keep(static_cast<std::size_t>(n));
    for (const NodeId v : nodes) {
      if (set.test(static_cast<std::size_t>(v))) {
        keep.set(static_cast<std::size_t>(v));
      }
    }
    const Graph backbone = g.induced(keep, nullptr);
    if (!is_biconnected(backbone)) {
      result.biconnected = false;
      result.message =
          "backbone of component containing node " +
          std::to_string(nodes.front()) +
          (backbone.is_connected()
               ? " has an articulation point"
               : " does not induce a connected subgraph");
      return result;
    }
  }
  return result;
}

Cds22Result greedy_cds22(const Graph& g) {
  const auto n = static_cast<std::size_t>(g.num_nodes());
  Cds22Result out{DynBitset(n), false};
  const auto comp = g.components();
  const NodeId ncomp = Graph::count_components(comp);
  for (NodeId c = 0; c < ncomp; ++c) {
    DynBitset keep(n);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (comp[static_cast<std::size_t>(v)] == c) {
        keep.set(static_cast<std::size_t>(v));
      }
    }
    std::vector<NodeId> mapping;
    const Graph sub = g.induced(keep, &mapping);
    if (sub.is_complete()) continue;  // exempt, as in check_cds
    DynBitset d = greedy_mcds(sub);
    augment_two_domination(sub, d);
    d = connect_dominating_seed(sub, d);
    augment_biconnectivity(sub, d);
    d.for_each_set([&](std::size_t i) {
      out.backbone.set(static_cast<std::size_t>(mapping[i]));
    });
  }
  out.full_22 = check_cds22(g, out.backbone).ok();
  return out;
}

}  // namespace pacds
