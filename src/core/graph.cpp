#include "core/graph.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <deque>
#include <stdexcept>
#include <string>

namespace pacds {

namespace {

/// Global mutation clock backing Graph::version(): every constructed or
/// mutated graph gets a stamp no other graph state ever carried, so equal
/// stamps imply equal adjacency.
std::atomic<std::uint64_t> g_graph_clock{0};

std::uint64_t next_stamp() noexcept {
  return g_graph_clock.fetch_add(1, std::memory_order_relaxed) + 1;
}

constexpr NodeId kMinSliceCap = 4;

}  // namespace

void Graph::stamp() noexcept { version_ = next_stamp(); }

Graph::Graph(NodeId n) {
  if (n < 0) throw std::invalid_argument("Graph: negative vertex count");
  n_ = n;
  begin_.assign(static_cast<std::size_t>(n), 0);
  cap_.assign(static_cast<std::size_t>(n), 0);
  deg_.assign(static_cast<std::size_t>(n), 0);
  stamp();
}

Graph Graph::from_edges(NodeId n,
                        const std::vector<std::pair<NodeId, NodeId>>& edges) {
  Graph g(n);
  for (const auto& [u, v] : edges) g.add_edge(u, v);
  return g;
}

void Graph::assign_upper(NodeId n, std::span<const std::size_t> offsets,
                         std::span<const NodeId> upper) {
  if (n < 0) throw std::invalid_argument("Graph::assign_upper: negative n");
  const auto nn = static_cast<std::size_t>(n);
  if (offsets.size() != nn + 1 || offsets[0] != 0 ||
      offsets[nn] != upper.size()) {
    throw std::invalid_argument("Graph::assign_upper: bad row offsets");
  }
  for (std::size_t u = 0; u < nn; ++u) {
    if (offsets[u] > offsets[u + 1]) {
      throw std::invalid_argument("Graph::assign_upper: bad row offsets");
    }
    for (std::size_t k = offsets[u]; k < offsets[u + 1]; ++k) {
      if (upper[k] <= static_cast<NodeId>(u) || upper[k] >= n) {
        throw std::invalid_argument(
            "Graph::assign_upper: entry " + std::to_string(upper[k]) +
            " of row " + std::to_string(u) + " not in (row, n)");
      }
    }
  }
  n_ = n;
  m_ = upper.size();
  dead_ = 0;
  begin_.resize(nn);
  cap_.resize(nn);
  deg_.assign(nn, 0);
  for (std::size_t u = 0; u < nn; ++u) {
    deg_[u] += static_cast<NodeId>(offsets[u + 1] - offsets[u]);
    for (std::size_t k = offsets[u]; k < offsets[u + 1]; ++k) {
      ++deg_[static_cast<std::size_t>(upper[k])];
    }
  }
  std::size_t total = 0;
  for (std::size_t v = 0; v < nn; ++v) {
    const auto deg = static_cast<std::uint32_t>(deg_[v]);
    cap_[v] = deg == 0 ? 0
                       : std::max(kMinSliceCap,
                                  static_cast<NodeId>(std::bit_ceil(deg)));
    begin_[v] = total;
    total += static_cast<std::size_t>(cap_[v]);
  }
  arena_.resize(total);
  // deg_ now serves as the fill cursor. Lower halves first: walking rows u
  // in ascending order appends u to each of its upper neighbors, so every
  // slice receives its smaller ids already sorted.
  std::fill(deg_.begin(), deg_.end(), 0);
  for (std::size_t u = 0; u < nn; ++u) {
    for (std::size_t k = offsets[u]; k < offsets[u + 1]; ++k) {
      const auto v = static_cast<std::size_t>(upper[k]);
      NodeId* slot = arena_.data() + begin_[v] + deg_[v];
      if (deg_[v] > 0 && slot[-1] == static_cast<NodeId>(u)) {
        *this = Graph(n);
        throw std::invalid_argument("Graph::assign_upper: repeated entry " +
                                    std::to_string(v) + " in row " +
                                    std::to_string(u));
      }
      *slot = static_cast<NodeId>(u);
      ++deg_[v];
    }
  }
  // Upper halves: transposing the sorted lower halves in ascending order
  // appends each larger id w behind the smaller ones, again sorted. When
  // the walk reaches w, deg_[w] still counts only its lower half, because
  // its upper entries come from rows after w.
  for (std::size_t w = 0; w < nn; ++w) {
    const NodeId* lower = arena_.data() + begin_[w];
    const auto lower_count = static_cast<std::size_t>(deg_[w]);
    for (std::size_t k = 0; k < lower_count; ++k) {
      const auto u = static_cast<std::size_t>(lower[k]);
      arena_[begin_[u] + static_cast<std::size_t>(deg_[u]++)] =
          static_cast<NodeId>(w);
    }
  }
  stamp();
}

void Graph::check_node(NodeId v, const char* what) const {
  if (v < 0 || v >= n_) {
    throw std::invalid_argument(std::string("Graph::") + what + ": vertex " +
                                std::to_string(v) + " out of range [0, " +
                                std::to_string(n_) + ")");
  }
}

void Graph::relocate(NodeId v, NodeId new_cap) {
  const auto i = static_cast<std::size_t>(v);
  const std::size_t old_begin = begin_[i];
  const auto deg = static_cast<std::size_t>(deg_[i]);
  dead_ += static_cast<std::size_t>(cap_[i]);
  begin_[i] = arena_.size();
  cap_[i] = new_cap;
  arena_.resize(arena_.size() + static_cast<std::size_t>(new_cap));
  std::copy_n(arena_.begin() + static_cast<std::ptrdiff_t>(old_begin), deg,
              arena_.begin() + static_cast<std::ptrdiff_t>(begin_[i]));
}

void Graph::insert_neighbor(NodeId v, NodeId x) {
  const auto i = static_cast<std::size_t>(v);
  if (deg_[i] == cap_[i]) {
    relocate(v, std::max(kMinSliceCap, cap_[i] * 2));
  }
  NodeId* base = arena_.data() + begin_[i];
  NodeId* end = base + deg_[i];
  NodeId* pos = std::lower_bound(base, end, x);
  std::copy_backward(pos, end, end + 1);
  *pos = x;
  ++deg_[i];
}

void Graph::erase_neighbor(NodeId v, NodeId x) {
  const auto i = static_cast<std::size_t>(v);
  NodeId* base = arena_.data() + begin_[i];
  NodeId* end = base + deg_[i];
  NodeId* pos = std::lower_bound(base, end, x);
  std::copy(pos + 1, end, pos);
  --deg_[i];
}

bool Graph::add_edge(NodeId u, NodeId v) {
  check_node(u, "add_edge");
  check_node(v, "add_edge");
  if (u == v) throw std::invalid_argument("Graph::add_edge: self-loop");
  if (has_edge(u, v)) return false;
  insert_neighbor(u, v);
  insert_neighbor(v, u);
  ++m_;
  stamp();
  return true;
}

bool Graph::remove_edge(NodeId u, NodeId v) {
  check_node(u, "remove_edge");
  check_node(v, "remove_edge");
  if (u == v || !has_edge(u, v)) return false;
  erase_neighbor(u, v);
  erase_neighbor(v, u);
  --m_;
  stamp();
  return true;
}

bool Graph::has_edge(NodeId u, NodeId v) const {
  check_node(u, "has_edge");
  check_node(v, "has_edge");
  if (u == v) return false;
  // Probe the smaller slice.
  if (deg_[static_cast<std::size_t>(u)] > deg_[static_cast<std::size_t>(v)]) {
    std::swap(u, v);
  }
  const auto s = slice(u);
  return std::binary_search(s.begin(), s.end(), v);
}

std::span<const NodeId> Graph::neighbors(NodeId v) const {
  check_node(v, "neighbors");
  return slice(v);
}

NodeId Graph::degree(NodeId v) const {
  check_node(v, "degree");
  return deg_[static_cast<std::size_t>(v)];
}

NodeId Graph::max_degree() const noexcept {
  return deg_.empty() ? 0 : *std::max_element(deg_.begin(), deg_.end());
}

NodeId Graph::slice_capacity(NodeId v) const {
  check_node(v, "slice_capacity");
  return cap_[static_cast<std::size_t>(v)];
}

DynBitset Graph::closed_row(NodeId v) const {
  check_node(v, "closed_row");
  DynBitset row(static_cast<std::size_t>(n_));
  for (const NodeId x : slice(v)) row.set(static_cast<std::size_t>(x));
  row.set(static_cast<std::size_t>(v));
  return row;
}

bool Graph::closed_covered_by(NodeId v, NodeId u) const {
  check_node(v, "closed_covered_by");
  check_node(u, "closed_covered_by");
  // N[v] ⊆ N[u]  ⇔  v ∈ N[u]  ∧  (N(v) \ {u}) ⊆ N(u), as one merge scan
  // over the two sorted slices.
  if (v == u) return true;
  const auto sv = slice(v);
  const auto su = slice(u);
  if (sv.size() > su.size() + 1) return false;
  bool adjacent = false;
  std::size_t j = 0;
  for (const NodeId x : sv) {
    if (x == u) {
      adjacent = true;
      continue;
    }
    while (j < su.size() && su[j] < x) ++j;
    if (j == su.size() || su[j] != x) return false;
    ++j;
  }
  return adjacent;
}

bool Graph::open_covered_by_pair(NodeId v, NodeId u, NodeId w) const {
  check_node(v, "open_covered_by_pair");
  check_node(u, "open_covered_by_pair");
  check_node(w, "open_covered_by_pair");
  // N(v) ⊆ N(u) ∪ N(w) as a three-pointer merge. Note u, w themselves may
  // appear in N(v); they are covered iff the edge {u, w} exists (u ∈ N(w))
  // — the rule's implicit "u and w are connected" consequence falls out of
  // the raw set test.
  const auto sv = slice(v);
  const auto su = slice(u);
  const auto sw = slice(w);
  if (sv.size() > su.size() + sw.size()) return false;
  std::size_t j = 0;
  std::size_t k = 0;
  for (const NodeId x : sv) {
    while (j < su.size() && su[j] < x) ++j;
    if (j < su.size() && su[j] == x) continue;
    while (k < sw.size() && sw[k] < x) ++k;
    if (k < sw.size() && sw[k] == x) continue;
    return false;
  }
  return true;
}

bool Graph::open_covered_by_closed(NodeId v, NodeId u) const {
  check_node(v, "open_covered_by_closed");
  check_node(u, "open_covered_by_closed");
  const auto sv = slice(v);
  const auto su = slice(u);
  if (sv.size() > su.size() + 1) return false;
  std::size_t j = 0;
  for (const NodeId x : sv) {
    if (x == u) continue;
    while (j < su.size() && su[j] < x) ++j;
    if (j == su.size() || su[j] != x) return false;
    ++j;
  }
  return true;
}

std::vector<NodeId> Graph::bfs_distances(NodeId src,
                                         const DynBitset* allowed) const {
  check_node(src, "bfs_distances");
  std::vector<NodeId> dist(static_cast<std::size_t>(n_), -1);
  dist[static_cast<std::size_t>(src)] = 0;
  std::deque<NodeId> queue{src};
  while (!queue.empty()) {
    const NodeId cur = queue.front();
    queue.pop_front();
    // Only allowed vertices (or the source) may relay further hops.
    const bool can_relay =
        cur == src || allowed == nullptr ||
        allowed->test(static_cast<std::size_t>(cur));
    if (!can_relay) continue;
    for (const NodeId nxt : neighbors(cur)) {
      auto& d = dist[static_cast<std::size_t>(nxt)];
      if (d < 0) {
        d = static_cast<NodeId>(dist[static_cast<std::size_t>(cur)] + 1);
        queue.push_back(nxt);
      }
    }
  }
  return dist;
}

std::vector<NodeId> Graph::components() const {
  std::vector<NodeId> comp(static_cast<std::size_t>(n_), -1);
  NodeId next = 0;
  std::deque<NodeId> queue;
  for (NodeId s = 0; s < n_; ++s) {
    if (comp[static_cast<std::size_t>(s)] >= 0) continue;
    comp[static_cast<std::size_t>(s)] = next;
    queue.push_back(s);
    while (!queue.empty()) {
      const NodeId cur = queue.front();
      queue.pop_front();
      for (const NodeId nxt : neighbors(cur)) {
        if (comp[static_cast<std::size_t>(nxt)] < 0) {
          comp[static_cast<std::size_t>(nxt)] = next;
          queue.push_back(nxt);
        }
      }
    }
    ++next;
  }
  return comp;
}

NodeId Graph::count_components(const std::vector<NodeId>& labels) {
  NodeId max_id = -1;
  for (const NodeId c : labels) max_id = std::max(max_id, c);
  return static_cast<NodeId>(max_id + 1);
}

NodeId Graph::num_components() const {
  return count_components(components());
}

bool Graph::is_connected() const {
  std::vector<NodeId> stack;
  std::vector<char> seen;
  return is_connected(stack, seen);
}

bool Graph::is_connected(std::vector<NodeId>& stack,
                         std::vector<char>& seen) const {
  if (n_ <= 1) return true;
  seen.assign(static_cast<std::size_t>(n_), 0);
  stack.clear();
  seen[0] = 1;
  stack.push_back(0);
  NodeId reached = 1;
  while (!stack.empty()) {
    const NodeId u = stack.back();
    stack.pop_back();
    for (const NodeId v : neighbors(u)) {
      if (seen[static_cast<std::size_t>(v)] != 0) continue;
      seen[static_cast<std::size_t>(v)] = 1;
      ++reached;
      stack.push_back(v);
    }
  }
  return reached == n_;
}

bool Graph::is_complete() const {
  if (n_ <= 1) return true;
  return m_ == static_cast<std::size_t>(n_) * (static_cast<std::size_t>(n_) - 1) / 2;
}

DynBitset Graph::component_of(NodeId v) const {
  check_node(v, "component_of");
  DynBitset in_comp(static_cast<std::size_t>(n_));
  const auto dist = bfs_distances(v);
  for (NodeId i = 0; i < n_; ++i) {
    if (dist[static_cast<std::size_t>(i)] >= 0) {
      in_comp.set(static_cast<std::size_t>(i));
    }
  }
  return in_comp;
}

Graph Graph::induced(const DynBitset& keep, std::vector<NodeId>* mapping) const {
  if (keep.size() != static_cast<std::size_t>(n_)) {
    throw std::invalid_argument("Graph::induced: mask size mismatch");
  }
  std::vector<NodeId> old_of_new;
  std::vector<NodeId> new_of_old(static_cast<std::size_t>(n_), -1);
  keep.for_each_set([&](std::size_t i) {
    new_of_old[i] = static_cast<NodeId>(old_of_new.size());
    old_of_new.push_back(static_cast<NodeId>(i));
  });
  Graph sub(static_cast<NodeId>(old_of_new.size()));
  for (const NodeId old_u : old_of_new) {
    for (const NodeId old_v : neighbors(old_u)) {
      if (old_v > old_u && keep.test(static_cast<std::size_t>(old_v))) {
        sub.add_edge(new_of_old[static_cast<std::size_t>(old_u)],
                     new_of_old[static_cast<std::size_t>(old_v)]);
      }
    }
  }
  if (mapping != nullptr) *mapping = std::move(old_of_new);
  return sub;
}

std::optional<NodeId> Graph::diameter() const {
  if (n_ == 0 || !is_connected()) return std::nullopt;
  NodeId diam = 0;
  for (NodeId s = 0; s < n_; ++s) {
    for (const NodeId d : bfs_distances(s)) diam = std::max(diam, d);
  }
  return diam;
}

std::vector<std::pair<NodeId, NodeId>> Graph::edges() const {
  std::vector<std::pair<NodeId, NodeId>> out;
  out.reserve(m_);
  for (NodeId u = 0; u < n_; ++u) {
    for (const NodeId v : neighbors(u)) {
      if (v > u) out.emplace_back(u, v);
    }
  }
  return out;
}

bool Graph::operator==(const Graph& other) const {
  if (n_ != other.n_ || m_ != other.m_) return false;
  for (NodeId v = 0; v < n_; ++v) {
    const auto a = slice(v);
    const auto b = other.slice(v);
    if (!std::equal(a.begin(), a.end(), b.begin(), b.end())) return false;
  }
  return true;
}

}  // namespace pacds
