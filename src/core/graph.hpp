#pragma once
// Undirected simple graph substrate used to model an ad hoc wireless network:
// vertices are mobile hosts, an edge {u, v} means u and v are inside each
// other's transmission range (the paper's unit-disk model, Section 1).
//
// Storage is a structure-of-arrays CSR arena: one shared neighbor array
// (`arena_`) holding every vertex's sorted adjacency slice, plus per-vertex
// (begin, capacity, degree) columns. Slices carry slack so edge churn stays
// in place; a slice that outgrows its capacity is relocated to the end of
// the arena with doubled capacity (the abandoned slot is dead space, bounded
// by the geometric growth to less than the live allocation, so the arena is
// O(n + m) bits total — no per-vertex O(n)-bit rows anywhere). Whole link
// sets are written in bulk by assign_upper, which lays the slices out back
// to back with the capacities edge-by-edge growth would have reached.
// Coverage predicates run as sorted-merge scans over the slices; callers
// that want word-parallel tests build dense rows per tile or via
// DenseAdjacency, never globally.

#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "core/bitset.hpp"

namespace pacds {

/// Vertex index; the paper's node "ID" is exactly this index (distinct per
/// node, totally ordered).
using NodeId = std::int32_t;

/// Undirected simple graph with a fixed vertex count.
///
/// Mutations (add_edge/remove_edge) keep the CSR slices sorted and coherent;
/// self-loops and duplicate edges are rejected/ignored respectively.
class Graph {
 public:
  Graph() = default;

  /// Creates an edgeless graph on `n` vertices.
  explicit Graph(NodeId n);

  /// Builds a graph from an explicit edge list. Throws on out-of-range
  /// endpoints or self-loops; duplicate edges are collapsed.
  static Graph from_edges(NodeId n,
                          const std::vector<std::pair<NodeId, NodeId>>& edges);

  /// Bulk CSR construction: replaces the whole graph with the one on `n`
  /// vertices whose edges are {u, v} for every v in
  /// upper[offsets[u], offsets[u + 1]). Every such v must satisfy
  /// u < v < n and appear once in its row; rows need not be sorted.
  /// Two transposes (no per-row sort) leave every slice sorted, each slice
  /// gets the capacity add_edge growth would have given it —
  /// max(4, bit_ceil(degree)), or 0 for an isolated vertex — and the graph
  /// takes one fresh version stamp. Reuses this graph's storage, so a
  /// rebuild that fits the previous arena allocates nothing. Throws
  /// std::invalid_argument on malformed input (the graph is left
  /// unchanged, or edgeless on n vertices for a repeated entry).
  void assign_upper(NodeId n, std::span<const std::size_t> offsets,
                    std::span<const NodeId> upper);

  [[nodiscard]] NodeId num_nodes() const noexcept { return n_; }
  [[nodiscard]] std::size_t num_edges() const noexcept { return m_; }

  /// Adds undirected edge {u, v}. Returns false (no-op) if already present.
  /// Throws std::invalid_argument for self-loops or out-of-range vertices.
  bool add_edge(NodeId u, NodeId v);

  /// Removes undirected edge {u, v}. Returns false if absent.
  bool remove_edge(NodeId u, NodeId v);

  [[nodiscard]] bool has_edge(NodeId u, NodeId v) const;

  /// Open neighbor set N(v) as a sorted span. Invalidated by mutations.
  [[nodiscard]] std::span<const NodeId> neighbors(NodeId v) const;

  /// Degree |N(v)| — the paper's nd(v).
  [[nodiscard]] NodeId degree(NodeId v) const;

  /// Largest degree of any vertex (0 for the empty graph).
  [[nodiscard]] NodeId max_degree() const noexcept;

  /// Slots reserved for v's slice (degree plus slack): 0 until v gets an
  /// edge, then max(4, bit_ceil(degree)) under add_edge growth.
  [[nodiscard]] NodeId slice_capacity(NodeId v) const;

  /// Closed neighborhood N[v] = N(v) ∪ {v} (materialized n-bit copy; for
  /// tests and cold paths — hot kernels use the merge predicates below).
  [[nodiscard]] DynBitset closed_row(NodeId v) const;

  /// True iff N[v] ⊆ N[u] — the coverage condition of Rule 1.
  [[nodiscard]] bool closed_covered_by(NodeId v, NodeId u) const;

  /// True iff N(v) ⊆ N(u) ∪ N(w) — the coverage condition of Rule 2.
  [[nodiscard]] bool open_covered_by_pair(NodeId v, NodeId u, NodeId w) const;

  /// True iff N(v) ⊆ N[u] = N(u) ∪ {u} — the marking process asks whether
  /// some neighbor u fails this (then v has two non-adjacent neighbors).
  [[nodiscard]] bool open_covered_by_closed(NodeId v, NodeId u) const;

  /// Structure stamp: globally unique per mutation event, so two Graph
  /// objects carrying the same stamp have identical adjacency (copies share
  /// the stamp until one of them mutates). Caches key on this to detect
  /// staleness without content hashing.
  [[nodiscard]] std::uint64_t version() const noexcept { return version_; }

  // ---- Traversal / structure -------------------------------------------

  /// BFS hop distances from `src`; unreachable nodes get -1. If `allowed` is
  /// non-null, intermediate hops are restricted to nodes in `allowed`
  /// (src itself is always expanded; a target outside `allowed` still gets a
  /// distance when adjacent to an allowed/last-hop node — i.e. `allowed`
  /// constrains *interior* vertices of paths, matching gateway routing).
  [[nodiscard]] std::vector<NodeId> bfs_distances(
      NodeId src, const DynBitset* allowed = nullptr) const;

  /// Component id per node (0-based, components numbered by discovery).
  [[nodiscard]] std::vector<NodeId> components() const;

  /// Number of components in a components() labelling: labels run 0..k-1,
  /// so k is one past the largest (0 for the empty graph). Callers holding
  /// the labels take the count here instead of labelling again.
  [[nodiscard]] static NodeId count_components(
      const std::vector<NodeId>& labels);

  /// Number of connected components (0 for the empty graph).
  [[nodiscard]] NodeId num_components() const;

  [[nodiscard]] bool is_connected() const;
  /// As above, walking from node 0 over the caller's `stack` and `seen`
  /// buffers, so repeated tests allocate nothing once both have grown to n.
  [[nodiscard]] bool is_connected(std::vector<NodeId>& stack,
                                  std::vector<char>& seen) const;

  /// True iff every pair of distinct vertices is adjacent (K_n); vacuously
  /// true for n <= 1.
  [[nodiscard]] bool is_complete() const;

  /// Nodes of the component containing `v`, as a bitset.
  [[nodiscard]] DynBitset component_of(NodeId v) const;

  /// Induced subgraph G[keep]; `mapping` (if non-null) receives the original
  /// id of each new vertex, in order.
  [[nodiscard]] Graph induced(const DynBitset& keep,
                              std::vector<NodeId>* mapping = nullptr) const;

  /// Longest shortest-path distance over all reachable pairs; nullopt for
  /// disconnected or empty graphs.
  [[nodiscard]] std::optional<NodeId> diameter() const;

  /// All edges (u < v), sorted lexicographically.
  [[nodiscard]] std::vector<std::pair<NodeId, NodeId>> edges() const;

  bool operator==(const Graph& other) const;

 private:
  void check_node(NodeId v, const char* what) const;
  /// Sorted slice of vertex v without the bounds check.
  [[nodiscard]] std::span<const NodeId> slice(NodeId v) const noexcept {
    const auto i = static_cast<std::size_t>(v);
    return {arena_.data() + begin_[i], static_cast<std::size_t>(deg_[i])};
  }
  /// Inserts x into v's sorted slice, relocating the slice when full.
  void insert_neighbor(NodeId v, NodeId x);
  /// Removes x from v's sorted slice (must be present).
  void erase_neighbor(NodeId v, NodeId x);
  /// Moves v's slice to the arena end with capacity `new_cap`.
  void relocate(NodeId v, NodeId new_cap);
  void stamp() noexcept;

  NodeId n_ = 0;
  std::size_t m_ = 0;
  std::vector<std::size_t> begin_;  ///< slice start offset into arena_
  std::vector<NodeId> cap_;         ///< slice capacity (slack included)
  std::vector<NodeId> deg_;         ///< live entries in the slice
  std::vector<NodeId> arena_;       ///< bump arena of all neighbor slices
  std::size_t dead_ = 0;            ///< abandoned slots from relocations
  std::uint64_t version_ = 0;
};

}  // namespace pacds
