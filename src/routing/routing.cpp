#include "routing/routing.hpp"

#include <stdexcept>

namespace pacds {

DominatingSetRouter::DominatingSetRouter(const Graph& g, DynBitset gateways)
    : graph_(&g), gateways_(std::move(gateways)) {
  const auto n = static_cast<std::size_t>(g.num_nodes());
  if (gateways_.size() != n) {
    throw std::invalid_argument(
        "DominatingSetRouter: gateway mask size mismatch");
  }
  index_of_.assign(n, -1);
  gateway_ids_.reserve(gateways_.count());
  std::size_t degree_sum = 0;
  gateways_.for_each_set([&](std::size_t gw) {
    index_of_[gw] = static_cast<std::int32_t>(gateway_ids_.size());
    gateway_ids_.push_back(static_cast<NodeId>(gw));
    degree_sum += g.neighbors(static_cast<NodeId>(gw)).size();
  });
  members_.resize(n);
  backbone_adj_.reserve(degree_sum);
  backbone_offsets_.reserve(gateway_ids_.size() + 1);
  backbone_offsets_.push_back(0);
  for (const NodeId gw : gateway_ids_) {
    members_[static_cast<std::size_t>(gw)].reserve(g.neighbors(gw).size());
    for (const NodeId u : g.neighbors(gw)) {
      const std::int32_t ui = index_of_[static_cast<std::size_t>(u)];
      if (ui >= 0) {
        backbone_adj_.push_back(ui);
      } else {
        members_[static_cast<std::size_t>(gw)].push_back(u);
      }
    }
    backbone_offsets_.push_back(
        static_cast<std::int32_t>(backbone_adj_.size()));
  }
  row_slot_.assign(gateway_ids_.size(), -1);
}

bool DominatingSetRouter::is_gateway(NodeId v) const {
  return gateways_.test(static_cast<std::size_t>(v));
}

std::vector<NodeId> DominatingSetRouter::gateways_of(NodeId host) const {
  std::vector<NodeId> out;
  if (is_gateway(host)) return out;
  for (const NodeId u : graph_->neighbors(host)) {
    if (is_gateway(u)) out.push_back(u);
  }
  return out;
}

const std::vector<NodeId>& DominatingSetRouter::domain_members(
    NodeId gw) const {
  if (!is_gateway(gw)) {
    throw std::invalid_argument("domain_members: node " + std::to_string(gw) +
                                " is not a gateway");
  }
  return members_[static_cast<std::size_t>(gw)];
}

std::size_t DominatingSetRouter::row(std::int32_t gi) const {
  const std::size_t width = gateway_ids_.size();
  std::int32_t& slot = row_slot_[static_cast<std::size_t>(gi)];
  if (slot >= 0) return static_cast<std::size_t>(slot) * 2 * width;
  const std::size_t base = rows_.size();
  slot = static_cast<std::int32_t>(base / (2 * width));
  rows_.resize(base + 2 * width, -1);
  queue_.resize(width);
  std::int32_t* dist = rows_.data() + base;
  std::int32_t* parent = dist + width;
  // Backbone BFS over gateway-only paths.
  dist[gi] = 0;
  std::size_t head = 0;
  std::size_t tail = 0;
  queue_[tail++] = gi;
  while (head < tail) {
    const std::int32_t cur = queue_[head++];
    const auto cu = static_cast<std::size_t>(cur);
    for (std::int32_t k = backbone_offsets_[cu]; k < backbone_offsets_[cu + 1];
         ++k) {
      const std::int32_t nxt = backbone_adj_[static_cast<std::size_t>(k)];
      if (dist[nxt] >= 0) continue;
      dist[nxt] = dist[cur] + 1;
      parent[nxt] = cur;
      queue_[tail++] = nxt;
    }
  }
  return base;
}

std::vector<GatewayTableEntry> DominatingSetRouter::routing_table(
    NodeId gw) const {
  if (!is_gateway(gw)) {
    throw std::invalid_argument("routing_table: node " + std::to_string(gw) +
                                " is not a gateway");
  }
  const std::int32_t gi = index_of_[static_cast<std::size_t>(gw)];
  const std::size_t width = gateway_ids_.size();
  const std::size_t at = row(gi);  // before data(): row() may grow rows_
  const std::int32_t* dist = rows_.data() + at;
  const std::int32_t* parent = dist + width;
  std::vector<GatewayTableEntry> table;
  for (std::size_t peer = 0; peer < width; ++peer) {
    if (static_cast<std::int32_t>(peer) == gi || dist[peer] < 0) continue;
    GatewayTableEntry entry;
    entry.gateway = gateway_ids_[peer];
    entry.members = members_[static_cast<std::size_t>(entry.gateway)];
    entry.distance = dist[peer];
    // First hop on the backbone path gw -> peer: walk parents back from peer.
    auto hop = static_cast<std::int32_t>(peer);
    while (parent[hop] != gi) hop = parent[hop];
    entry.next_hop = gateway_ids_[static_cast<std::size_t>(hop)];
    table.push_back(std::move(entry));
  }
  return table;
}

namespace {

/// Calls `fn` on each candidate end gateway of `host`: the host itself when
/// it is a gateway, otherwise its adjacent gateways in ascending id order.
template <class Fn>
void for_each_end_gateway(const Graph& g,
                          const std::vector<std::int32_t>& index_of,
                          NodeId host, Fn&& fn) {
  if (index_of[static_cast<std::size_t>(host)] >= 0) {
    fn(host);
    return;
  }
  for (const NodeId u : g.neighbors(host)) {
    if (index_of[static_cast<std::size_t>(u)] >= 0) fn(u);
  }
}

}  // namespace

DominatingSetRouter::Choice DominatingSetRouter::choose(NodeId src,
                                                        NodeId dst) const {
  Choice best;
  if (src == dst) {
    best.hops = 0;
    return best;
  }
  if (graph_->has_edge(src, dst)) {
    // Hosts know their neighbors; one-hop delivery needs no gateway.
    best.hops = 1;
    return best;
  }
  const auto dominated = [&](NodeId host) {
    bool any = false;
    for_each_end_gateway(*graph_, index_of_, host,
                         [&](NodeId) { any = true; });
    return any;
  };
  if (!dominated(src)) {
    best.failure = "source host is not dominated by any gateway";
    return best;
  }
  if (!dominated(dst)) {
    best.failure = "destination host is not dominated by any gateway";
    return best;
  }
  for_each_end_gateway(*graph_, index_of_, src, [&](NodeId sg) {
    const std::size_t at = row(index_of_[static_cast<std::size_t>(sg)]);
    const std::int32_t* dist = rows_.data() + at;
    for_each_end_gateway(*graph_, index_of_, dst, [&](NodeId dg) {
      const std::int32_t d = dist[index_of_[static_cast<std::size_t>(dg)]];
      if (d < 0) return;
      const NodeId total = d + (src == sg ? 0 : 1) + (dst == dg ? 0 : 1);
      if (best.hops < 0 || total < best.hops) {
        best.src_gw = sg;
        best.dst_gw = dg;
        best.hops = total;
      }
    });
  });
  if (best.hops < 0) {
    best.failure = "no backbone route between source and destination "
                   "gateways";
  }
  return best;
}

RouteResult DominatingSetRouter::route(NodeId src, NodeId dst) const {
  RouteResult result;
  const Choice choice = choose(src, dst);
  if (choice.failure != nullptr) {
    result.failure = choice.failure;
    return result;
  }
  result.delivered = true;
  std::vector<NodeId>& path = result.path;
  path.resize(static_cast<std::size_t>(choice.hops) + 1);
  path.front() = src;
  path.back() = dst;
  if (choice.src_gw < 0) return result;  // src itself or a neighbor of it
  // Fill the backbone src_gw .. dst_gw backwards from the parent chain.
  const std::size_t row_at =
      row(index_of_[static_cast<std::size_t>(choice.src_gw)]);
  const std::int32_t* parent = rows_.data() + row_at + gateway_ids_.size();
  std::size_t at = path.size() - (dst == choice.dst_gw ? 1 : 2);
  for (std::int32_t p = index_of_[static_cast<std::size_t>(choice.dst_gw)];
       p != -1; p = parent[p]) {
    path[at--] = gateway_ids_[static_cast<std::size_t>(p)];
  }
  return result;
}

std::optional<NodeId> DominatingSetRouter::route_hops(NodeId src,
                                                      NodeId dst) const {
  const Choice choice = choose(src, dst);
  if (choice.failure != nullptr) return std::nullopt;
  return choice.hops;
}

}  // namespace pacds
