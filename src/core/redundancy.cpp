#include "core/redundancy.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "core/articulation.hpp"

namespace pacds {

DynBitset augment_m_domination(const Graph& g, const DynBitset& gateways,
                               int m, const PriorityKey& key) {
  if (m < 1) throw std::invalid_argument("augment_m_domination: m < 1");
  if (gateways.size() != static_cast<std::size_t>(g.num_nodes())) {
    throw std::invalid_argument("augment_m_domination: mask size mismatch");
  }
  DynBitset result = gateways;
  // Process hosts in ascending key order so the weakest hosts get their
  // backups assigned first (their promotions then help later hosts too).
  for (const NodeId v : key.ascending_order()) {
    if (result.test(static_cast<std::size_t>(v))) continue;
    const auto nbrs = g.neighbors(v);
    int covered = 0;
    for (const NodeId u : nbrs) {
      if (result.test(static_cast<std::size_t>(u))) ++covered;
    }
    const int needed =
        std::min(m, static_cast<int>(nbrs.size())) - covered;
    if (needed <= 0) continue;
    // Promote the highest-key non-gateway neighbors.
    std::vector<NodeId> candidates;
    for (const NodeId u : nbrs) {
      if (!result.test(static_cast<std::size_t>(u))) candidates.push_back(u);
    }
    std::sort(candidates.begin(), candidates.end(),
              [&key](NodeId a, NodeId b) { return key.less(b, a); });
    for (int i = 0; i < needed && i < static_cast<int>(candidates.size());
         ++i) {
      result.set(static_cast<std::size_t>(
          candidates[static_cast<std::size_t>(i)]));
    }
  }
  return result;
}

bool is_m_dominating(const Graph& g, const DynBitset& set, int m) {
  if (set.size() != static_cast<std::size_t>(g.num_nodes())) {
    throw std::invalid_argument("is_m_dominating: mask size mismatch");
  }
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (set.test(static_cast<std::size_t>(v))) continue;
    const auto nbrs = g.neighbors(v);
    int covered = 0;
    for (const NodeId u : nbrs) {
      if (set.test(static_cast<std::size_t>(u))) ++covered;
    }
    if (covered < std::min(m, static_cast<int>(nbrs.size()))) return false;
  }
  return true;
}

DynBitset backbone_cut_vertices(const Graph& g, const DynBitset& gateways) {
  std::vector<NodeId> mapping;
  const Graph backbone = g.induced(gateways, &mapping);
  const DynBitset local_cuts = articulation_points(backbone);
  DynBitset cuts(static_cast<std::size_t>(g.num_nodes()));
  local_cuts.for_each_set([&](std::size_t i) {
    cuts.set(static_cast<std::size_t>(mapping[i]));
  });
  return cuts;
}

DynBitset augment_biconnectivity(const Graph& g, const DynBitset& gateways,
                                 const PriorityKey& key, int max_rounds) {
  if (gateways.size() != static_cast<std::size_t>(g.num_nodes())) {
    throw std::invalid_argument("augment_biconnectivity: mask size mismatch");
  }
  DynBitset result = gateways;
  for (int round = 0; round < max_rounds; ++round) {
    const DynBitset cuts = backbone_cut_vertices(g, result);
    if (cuts.none()) break;
    // Try to patch some cut vertex with a single promotion.
    NodeId best_host = -1;
    bool patched = false;
    cuts.for_each_set([&](std::size_t cut_idx) {
      if (patched) return;
      // Label the components of the backbone minus the cut vertex.
      DynBitset without_a = result;
      without_a.reset(cut_idx);
      std::vector<NodeId> mapping;
      const Graph sub = g.induced(without_a, &mapping);
      const auto comp = sub.components();
      std::vector<NodeId> comp_of(static_cast<std::size_t>(g.num_nodes()),
                                  -1);
      for (std::size_t i = 0; i < mapping.size(); ++i) {
        comp_of[static_cast<std::size_t>(mapping[i])] =
            comp[static_cast<std::size_t>(i)];
      }
      // A non-backbone host adjacent to two different components merges a
      // block boundary around the cut vertex.
      for (NodeId h = 0; h < g.num_nodes(); ++h) {
        if (result.test(static_cast<std::size_t>(h))) continue;
        NodeId first = -1;
        bool bridges_blocks = false;
        for (const NodeId u : g.neighbors(h)) {
          const NodeId c = comp_of[static_cast<std::size_t>(u)];
          if (c < 0) continue;
          if (first < 0) {
            first = c;
          } else if (c != first) {
            bridges_blocks = true;
            break;
          }
        }
        if (bridges_blocks && (best_host < 0 || key.less(best_host, h))) {
          best_host = h;
        }
      }
      if (best_host >= 0) patched = true;
    });
    if (best_host < 0) break;  // no single-host patch anywhere
    result.set(static_cast<std::size_t>(best_host));
  }
  return result;
}

namespace {

/// Fraction of connected pairs reachable with gateway-only interiors.
double delivery_fraction(const Graph& g, const DynBitset& gateways) {
  std::size_t connected_pairs = 0;
  std::size_t served = 0;
  for (NodeId s = 0; s < g.num_nodes(); ++s) {
    const auto full = g.bfs_distances(s);
    const auto restricted = g.bfs_distances(s, &gateways);
    for (NodeId t = static_cast<NodeId>(s + 1); t < g.num_nodes(); ++t) {
      const auto ti = static_cast<std::size_t>(t);
      if (full[ti] <= 0) continue;
      ++connected_pairs;
      if (restricted[ti] >= 0) ++served;
    }
  }
  return connected_pairs == 0
             ? 1.0
             : static_cast<double>(served) /
                   static_cast<double>(connected_pairs);
}

}  // namespace

double single_failure_delivery(const Graph& g, const DynBitset& gateways,
                               double* baseline) {
  if (baseline != nullptr) *baseline = delivery_fraction(g, gateways);
  if (gateways.none()) {
    return delivery_fraction(g, gateways);
  }
  double sum = 0.0;
  std::size_t failures = 0;
  gateways.for_each_set([&](std::size_t gw) {
    DynBitset degraded = gateways;
    degraded.reset(gw);
    sum += delivery_fraction(g, degraded);
    ++failures;
  });
  return sum / static_cast<double>(failures);
}

}  // namespace pacds
