#pragma once
// Unit-disk graph construction: hosts u, v are linked iff their Euclidean
// distance is at most the (homogeneous) transmission radius — the paper's
// connectivity model. Every from-scratch link set in the library goes
// through one bulk builder, LinkBuilder: it sorts the hosts by
// radius-sized grid cell, tests each host against the hosts of the
// neighboring cells, and writes the surviving pairs straight into a CSR
// Graph (Graph::assign_upper) — no per-edge insertion and no per-row sort.
// Its cost is O(n + m) in time and memory whatever the hosts' bounding box,
// so far-off parked hosts cost nothing extra. The O(n²) naive builder stays
// as the reference the builder must agree with exactly (property-tested).
// SpatialGrid is the mutable cell index the incremental and tiled engines
// keep across intervals for moves and per-host delta queries.

#include <cstdint>
#include <utility>
#include <vector>

#include "core/graph.hpp"
#include "net/vec2.hpp"

namespace pacds {

/// Which edge-enumeration algorithm to use.
enum class UdgMethod : std::uint8_t { kNaive, kGrid };

/// Builds the unit-disk graph of `positions` with transmission radius
/// `radius` (edge iff distance <= radius, closed ball). kGrid runs the bulk
/// LinkBuilder; kNaive tests every pair and is the reference.
[[nodiscard]] Graph build_udg(const std::vector<Vec2>& positions,
                              double radius,
                              UdgMethod method = UdgMethod::kGrid);

/// Bulk unit-disk link builder with caller-owned scratch. A caller that
/// keeps one builder (and one output Graph) rebuilds links every interval
/// without allocating once the buffers have reached their high-water
/// sizes. Cells are `radius` wide (1 for radius 0) and computed exactly as
/// SpatialGrid computes them; a point set with every z == 0 skips the z
/// cell ring. The pair test is the closed ball distance2 <= radius².
class LinkBuilder {
 public:
  /// Rebuilds `out` as the unit-disk graph of `positions`. Throws
  /// std::invalid_argument for a negative radius.
  void build(const std::vector<Vec2>& positions, double radius, Graph& out);

  /// As above, keeping a unit-disk pair only when keep(u, v) holds. `keep`
  /// is called exactly once per unordered pair within range, as (u, v)
  /// with u < v, so the rows stay symmetric whatever it decides.
  template <typename Keep>
  void build(const std::vector<Vec2>& positions, double radius, Graph& out,
             Keep&& keep) {
    collect(positions, radius);
    std::size_t kept = 0;
    for (std::size_t u = 0; u + 1 < offsets_.size(); ++u) {
      const std::size_t begin = offsets_[u];
      const std::size_t end = offsets_[u + 1];
      offsets_[u] = kept;
      for (std::size_t k = begin; k < end; ++k) {
        if (keep(static_cast<NodeId>(u), upper_[k])) upper_[kept++] = upper_[k];
      }
    }
    offsets_.back() = kept;
    assign(positions.size(), out);
  }

 private:
  struct CellKey {
    std::int64_t cx = 0;
    std::int64_t cy = 0;
    std::int64_t cz = 0;
    auto operator<=>(const CellKey&) const = default;
  };

  /// Fills offsets_/upper_ with every unit-disk pair (u, v), u < v, grouped
  /// by u (ascending) and in cell order within a row.
  void collect(const std::vector<Vec2>& positions, double radius);
  void assign(std::size_t n, Graph& out) const;

  std::vector<std::pair<CellKey, NodeId>> sorted_;  ///< (cell, id), sorted
  std::vector<Vec2> cell_pos_;      ///< positions in sorted order
  std::vector<NodeId> cell_ids_;    ///< ids in sorted order
  std::vector<CellKey> run_key_;    ///< distinct cells, ascending
  std::vector<std::size_t> run_begin_;  ///< first sorted slot per run (+end)
  std::vector<std::uint32_t> run_of_;   ///< run index per host id
  /// Candidate ranges [first, second) of sorted slots per run: 3 for a
  /// planar set (one per x column), 9 in 3-D (one per (x, y) column).
  std::vector<std::pair<std::size_t, std::size_t>> ranges_;
  std::vector<std::size_t> offsets_;  ///< row u is upper_[offsets_[u], +1)
  std::vector<NodeId> upper_;
};

/// Uniform-grid spatial index over a point set; cells are radius-sized so a
/// ball query only inspects the 3x3 (planar) or 3x3x3 (3-D) cell
/// neighborhood. Cells hash into a fixed bucket table; each entry keeps its
/// exact cell key so hash collisions never produce duplicate or missing
/// candidates. A grid that has only ever seen z == 0 points skips the z cell
/// ring entirely, so planar workloads pay nothing for the third dimension.
class SpatialGrid {
 public:
  SpatialGrid(const std::vector<Vec2>& positions, double cell_size);

  /// Indices of all points within `radius` of `center` (inclusive, closed
  /// ball), excluding `exclude` (pass -1 to keep all), in ascending order.
  /// Requires radius <= cell_size (one cell ring); throws otherwise.
  [[nodiscard]] std::vector<NodeId> query(Vec2 center, double radius,
                                          NodeId exclude = -1) const;

  /// Allocation-free variant: clears `out` and fills it with the query
  /// result (same contract as query). Hot loops reuse one buffer.
  void query_into(Vec2 center, double radius, NodeId exclude,
                  std::vector<NodeId>& out) const;

  /// Re-files `node` after its point moved from `old_pos` to `new_pos`
  /// (the backing positions vector must already hold `new_pos`). No-op when
  /// both map to the same cell. Throws std::logic_error if the node is not
  /// filed under `old_pos`'s cell — i.e. the caller's old position is stale.
  void move(NodeId node, Vec2 old_pos, Vec2 new_pos);

 private:
  struct CellKey {
    std::int64_t cx = 0;
    std::int64_t cy = 0;
    std::int64_t cz = 0;
    bool operator==(const CellKey&) const = default;
  };
  struct Entry {
    CellKey cell;
    NodeId node;
  };

  [[nodiscard]] CellKey cell_of(Vec2 p) const;
  [[nodiscard]] std::size_t bucket_of(CellKey key) const;

  const std::vector<Vec2>* positions_;
  double cell_size_;
  // True once any filed point has had a non-zero z; until then queries probe
  // only the cz == 0 plane (which provably holds every entry). Sticky by
  // design: a point returning to z == 0 keeps its cz == 0 cell, so probing
  // the extra ring stays correct, merely no longer minimal.
  bool any_z_ = false;
  std::vector<std::vector<Entry>> buckets_;
};

}  // namespace pacds
