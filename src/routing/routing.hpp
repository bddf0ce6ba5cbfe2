#pragma once
// Dominating-set-based routing (paper Section 2.1): only gateway hosts keep
// routing state. Each gateway stores its *domain membership list* (adjacent
// non-gateway hosts) and a *gateway routing table* with one entry per
// gateway carrying that gateway's membership list, hop distance and next
// hop within the induced gateway subgraph (paper Figure 2).
//
// Routing a packet src -> dst:
//   1. a non-gateway source forwards to an adjacent gateway (its source
//      gateway);
//   2. the packet travels through the induced gateway subgraph toward the
//      destination gateway (the gateway whose domain contains dst, or dst
//      itself if dst is a gateway);
//   3. the destination gateway delivers directly to dst.
// Among the candidate (source gateway, destination gateway) pairs the
// router takes the shortest total route; ties go to the first source
// gateway, then the first destination gateway, in ascending id order.
//
// What is cached, when, and at what cost. Construction runs no BFS: it
// indexes the gateways in ascending id order and builds the membership
// lists and the gateway-induced subgraph over those indices, O(n + sum of
// gateway degrees). A gateway's backbone row — its |G| hop distances and
// BFS parents over gateway-only paths, as int32 — is computed the first
// time a route from that source gateway (or its routing table) needs it,
// in O(|G| + E_G), and kept for the router's lifetime: every row lives in
// one flat buffer, O(rows × |G|) memory, at most 2|G|² int32 when every
// gateway has sourced a route. A route() whose candidate rows are cached
// reads them and writes the path in place; its one allocation is the path.
//
// The row cache is mutable state behind the const query methods, so a
// router is one thread's state: never query one router from two threads
// at once.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/bitset.hpp"
#include "core/graph.hpp"

namespace pacds {

/// One gateway's routing-table entry for a peer gateway (paper Fig. 2(c)).
struct GatewayTableEntry {
  NodeId gateway = -1;              ///< the peer gateway this entry describes
  std::vector<NodeId> members;      ///< peer's domain membership list
  NodeId distance = -1;             ///< hops to the peer inside the backbone
  NodeId next_hop = -1;             ///< neighbor gateway toward the peer
};

/// Outcome of routing one packet.
struct RouteResult {
  bool delivered = false;
  std::vector<NodeId> path;  ///< full host sequence src..dst when delivered
  std::string failure;       ///< reason when not delivered
};

/// Routing state for one network snapshot + gateway set.
class DominatingSetRouter {
 public:
  /// Builds membership lists and the gateway-induced subgraph; routing
  /// rows are computed on first use. `gateways` must be a valid
  /// (connected, dominating) set for useful routing, but construction
  /// itself accepts any subset. `g` must outlive the router, unchanged.
  DominatingSetRouter(const Graph& g, DynBitset gateways);

  [[nodiscard]] const Graph& graph() const noexcept { return *graph_; }
  [[nodiscard]] const DynBitset& gateways() const noexcept { return gateways_; }
  [[nodiscard]] bool is_gateway(NodeId v) const;

  /// Adjacent gateways of a non-gateway host (its candidate source
  /// gateways), ascending. Empty for gateways themselves.
  [[nodiscard]] std::vector<NodeId> gateways_of(NodeId host) const;

  /// The gateway domain membership list (paper Fig. 2(b)): non-gateway
  /// neighbors of gateway `gw`. Throws if `gw` is not a gateway.
  [[nodiscard]] const std::vector<NodeId>& domain_members(NodeId gw) const;

  /// Full routing table of gateway `gw`, one entry per reachable gateway,
  /// ascending by gateway id (paper Fig. 2(c)).
  [[nodiscard]] std::vector<GatewayTableEntry> routing_table(NodeId gw) const;

  /// Routes a packet with the 3-step process. The returned path is the
  /// complete host sequence, e.g. [src, srcGw, ..., dstGw, dst].
  [[nodiscard]] RouteResult route(NodeId src, NodeId dst) const;

  /// Hop count of route(src, dst), or nullopt when undeliverable. Builds
  /// no path.
  [[nodiscard]] std::optional<NodeId> route_hops(NodeId src, NodeId dst) const;

 private:
  /// The route chosen for src -> dst: its end gateways (-1 for the direct
  /// cases that need none) and hop count, or the failure reason.
  struct Choice {
    NodeId src_gw = -1;
    NodeId dst_gw = -1;
    NodeId hops = -1;
    const char* failure = nullptr;
  };
  [[nodiscard]] Choice choose(NodeId src, NodeId dst) const;

  /// Start of gateway index `gi`'s row in rows_ (distances, then parents
  /// as gateway indices), computing the row on first use.
  [[nodiscard]] std::size_t row(std::int32_t gi) const;

  const Graph* graph_;
  DynBitset gateways_;
  std::vector<std::vector<NodeId>> members_;  ///< per node: domain members
  std::vector<NodeId> gateway_ids_;           ///< gateway index -> node id
  std::vector<std::int32_t> index_of_;        ///< node -> gateway index or -1
  /// The gateway-induced subgraph as CSR over gateway indices, each row in
  /// ascending order (the BFS expands nodes in the graph's own order).
  std::vector<std::int32_t> backbone_offsets_;
  std::vector<std::int32_t> backbone_adj_;
  /// Row cache: per gateway index, its row's slot in rows_ (-1 until
  /// computed); slot s holds 2|G| int32 at [2s|G|, 2(s+1)|G|).
  mutable std::vector<std::int32_t> row_slot_;
  mutable std::vector<std::int32_t> rows_;
  mutable std::vector<std::int32_t> queue_;  ///< BFS scratch, |G| entries
};

}  // namespace pacds
