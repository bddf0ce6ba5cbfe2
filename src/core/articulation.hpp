#pragma once
// Articulation points (cut vertices) and bridges, via Tarjan's low-link
// DFS. In an ad hoc network a cut vertex is a host whose failure splits its
// component — such hosts are "essential gateways": every CDS of the
// component must include every cut vertex that has neighbors on both sides
// (in fact every internal vertex of every path). We use them to explain
// the lifetime ceiling: no selection scheme can relieve an articulation
// host of gateway duty, so its battery bounds the network lifetime.

#include <utility>
#include <vector>

#include "core/bitset.hpp"
#include "core/graph.hpp"

namespace pacds {

/// All articulation points of g (per component), as a bitset.
[[nodiscard]] DynBitset articulation_points(const Graph& g);

/// All bridges of g (edges whose removal splits a component), u < v.
[[nodiscard]] std::vector<std::pair<NodeId, NodeId>> bridges(const Graph& g);

/// True iff g is connected and has no articulation point (2-connected for
/// n >= 3; K2 and trivial graphs count as biconnected). A biconnected
/// backbone survives the loss of any single member — the invariant behind
/// the (2,2)-connected dominating sets in baselines/cds22.
[[nodiscard]] bool is_biconnected(const Graph& g);

}  // namespace pacds
