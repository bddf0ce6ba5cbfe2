#include "baselines/greedy_mcds.hpp"

#include <vector>

namespace pacds {

namespace {

enum class Color : char { kWhite, kGray, kBlack };

/// Number of white neighbors of v.
int white_yield(const Graph& g, const std::vector<Color>& color, NodeId v) {
  int yield = 0;
  for (const NodeId u : g.neighbors(v)) {
    if (color[static_cast<std::size_t>(u)] == Color::kWhite) ++yield;
  }
  return yield;
}

void blacken(const Graph& g, std::vector<Color>& color, NodeId v) {
  color[static_cast<std::size_t>(v)] = Color::kBlack;
  for (const NodeId u : g.neighbors(v)) {
    auto& cu = color[static_cast<std::size_t>(u)];
    if (cu == Color::kWhite) cu = Color::kGray;
  }
}

}  // namespace

DynBitset greedy_mcds(const Graph& g) {
  const auto n = static_cast<std::size_t>(g.num_nodes());
  DynBitset cds(n);
  const auto comp = g.components();
  const NodeId ncomp = Graph::count_components(comp);
  for (NodeId c = 0; c < ncomp; ++c) {
    // Collect the component and find its max-degree seed.
    std::vector<NodeId> nodes;
    NodeId seed = -1;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (comp[static_cast<std::size_t>(v)] != c) continue;
      nodes.push_back(v);
      if (seed < 0 || g.degree(v) > g.degree(seed)) seed = v;
    }
    if (nodes.size() <= 1) continue;  // singleton: nothing to dominate

    std::vector<Color> color(n, Color::kWhite);
    blacken(g, color, seed);
    cds.set(static_cast<std::size_t>(seed));
    std::size_t white_left = 0;
    for (const NodeId v : nodes) {
      if (color[static_cast<std::size_t>(v)] == Color::kWhite) ++white_left;
    }

    while (white_left > 0) {
      // Pick the gray node with the largest white yield (ties -> smaller id).
      NodeId best = -1;
      int best_yield = -1;
      for (const NodeId v : nodes) {
        if (color[static_cast<std::size_t>(v)] != Color::kGray) continue;
        const int yield = white_yield(g, color, v);
        if (yield > best_yield) {
          best_yield = yield;
          best = v;
        }
      }
      if (best < 0 || best_yield <= 0) {
        // Cannot happen in a connected component with white nodes left, but
        // guard against infinite loops on malformed input.
        break;
      }
      blacken(g, color, best);
      cds.set(static_cast<std::size_t>(best));
      white_left = 0;
      for (const NodeId v : nodes) {
        if (color[static_cast<std::size_t>(v)] == Color::kWhite) ++white_left;
      }
    }
  }
  return cds;
}

}  // namespace pacds
