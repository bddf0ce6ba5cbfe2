#pragma once
// Unit-disk graph construction: hosts u, v are linked iff their Euclidean
// distance is at most the (homogeneous) transmission radius — the paper's
// connectivity model. Every from-scratch link set in the library goes
// through one bulk builder, LinkBuilder. It bins the hosts by radius-sized
// grid cell with a counting sort over the occupied cell box, copies their
// positions into cell order as separate x, y and z arrays, and tests each
// unordered pair once, over the forward half of the cell stencil. The
// rest of the host's own cell plus the next cell along the fastest axis
// (y in a planar set, z in 3-D) is one contiguous slot range; each
// three-cell column of forward neighbours is another: the x + 1 column in
// a planar set, the y + 1 column and the three x + 1 columns in 3-D. So a
// host scans 2 ranges in a planar set and 5 in 3-D. Pairs within range
// are written without a branch, grouped by lower endpoint, and go
// straight into a CSR Graph (Graph::assign_upper): no per-edge insertion
// and no per-row sort. Time and memory are O(n + m). When the occupied
// box holds more than about four cells per host (hosts parked far off the
// field), binning falls back to a comparison sort, and the same ranges
// come from binary searches over the distinct cells, so far-off hosts
// never cost memory: O(n log n + m) time, O(n + m) memory.
// The O(n²) naive builder stays as the reference the builder must agree
// with exactly (property-tested).
// SpatialGrid is the mutable cell index the incremental and tiled engines
// keep across intervals for moves and per-host delta queries.
//
// Both index a point under floor(coord / cell) per axis and reject, with
// std::invalid_argument naming the host, a coordinate that is not finite
// or whose cell index is not inside (-2^62, 2^62), so that neighbour-cell
// arithmetic never overflows.

#include <cstdint>
#include <utility>
#include <vector>

#include "core/graph.hpp"
#include "net/vec2.hpp"

namespace pacds {

/// Cell indices stay inside (-kCellLimit, kCellLimit): far enough from the
/// int64 limits that a neighbour offset of ±1 or a box extent cannot
/// overflow.
inline constexpr double kCellLimit = 0x1p62;

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
/// SpatialGrid computes them; a point set whose hosts all share one z cell
/// gets the planar stencil. The pair test is the closed ball
/// distance2 <= radius².
class LinkBuilder {
 public:
  /// Rebuilds `out` as the unit-disk graph of `positions`. Throws
  /// std::invalid_argument for a negative radius, and for a host whose
  /// coordinate is not finite or lies 2^62 or more cells from the origin.
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
  /// Cell-ordered slots [first, last).
  struct Span {
    std::size_t first = 0;
    std::size_t last = 0;
  };

  /// Fills offsets_/upper_ with every unit-disk pair (u, v), u < v, grouped
  /// by u (ascending).
  void collect(const std::vector<Vec2>& positions, double radius);
  /// Binning: each fills the cell-ordered copies and the run table.
  /// `extent` is the padded box's size in cells per axis, from corner `lo`.
  void bin_by_count(const std::vector<Vec2>& positions, CellKey lo,
                    CellKey extent, bool flat);
  void bin_by_sort(const std::vector<Vec2>& positions, bool flat);
  void place(std::size_t slot, const Vec2& p, NodeId id);
  /// Tests every pair the run table offers; returns the length of the
  /// stream written to found_.
  std::size_t scan(std::size_t spans_per_run, double r2);
  /// Groups the pairs of the first `length` stream entries by lower
  /// endpoint into offsets_/upper_.
  void group(std::size_t n, std::size_t length);
  void assign(std::size_t n, Graph& out) const;

  std::vector<std::pair<CellKey, NodeId>> keyed_;  ///< (cell, id) per host
  std::vector<std::size_t> cell_start_;  ///< counting sort: slot per box cell
  std::vector<CellKey> run_key_;  ///< comparison sort: distinct cells
  /// Run table: first slot of each occupied cell (+end), in cell order, and
  /// per occupied cell its forward spans — 2 in a planar set, 5 in 3-D. The
  /// first span starts at the cell's own first slot; a host at slot s scans
  /// it from s + 1.
  std::vector<std::size_t> run_begin_;
  std::vector<Span> spans_;
  std::vector<double> xs_;  ///< positions in cell order
  std::vector<double> ys_;
  std::vector<double> zs_;
  std::vector<NodeId> ids_;  ///< host id per cell-ordered slot
  /// Host by host in cell order, ~id (negative: a mark) and then its
  /// partners within range. Every candidate is written before the test
  /// decides whether it stays, so the tail holds room for one host's
  /// candidates.
  std::vector<NodeId> found_;
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
  /// Throws std::invalid_argument for a non-positive cell size, and for a
  /// point whose coordinate is not finite or lies 2^62 or more cells from
  /// the origin (as do query and move for their points).
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

  /// Re-files `node` after its point moved from `old_pos` to `new_pos`; the
  /// backing positions vector is not read, so the caller may store
  /// `new_pos` before or after. No-op when both map to the same cell.
  /// Throws std::logic_error if the node is not filed under `old_pos`'s
  /// cell — i.e. the caller's old position is stale.
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

  /// The cell of `p`, the point of host `node` (-1: a query center).
  [[nodiscard]] CellKey cell_of(Vec2 p, NodeId node) const;
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
