#pragma once
// Spatial tiling of the simulation field for locality-sharded CDS
// maintenance at large n. The global Graph stays CSR (O(n + m) — graph.hpp);
// dense DynBitset adjacency rows, which make every coverage test
// word-parallel, are materialized only *per tile* over the tile's local
// universe (owned hosts plus a 2r halo), never globally. One tile therefore
// costs O(L²/64) bits with L = |tile| + |halo| regardless of n, which is the
// peak-memory bound the tiled engine advertises.
//
// Correctness contract (DESIGN.md §9): every stage decision of the
// simultaneous pipeline is a pure function of inputs within a fixed radius
// of the deciding node —
//
//   marking(v)   — positions within ball(v, r)
//   rule1(v)     — positions within ball(v, 2r), keys within ball(v, r)
//   rule2(v)     — positions within ball(v, 3r), keys within ball(v, 2r)
//
// so a tile whose rectangle is farther than 3r from every changed position
// (and every changed key's position) provably keeps all three of its
// decisions, and recomputing a superset of the affected tiles is always
// sound. Within a tile, kernels run on the local dense rows; rows are
// complete (equal to the global neighborhood) for every node within r of
// the tile rectangle, which covers every row the kernels read: deciding
// nodes are owned (inside the rectangle) and the rows of their neighbors
// sit within r of it. Halo nodes in (r, 2r] appear only as bits in other
// rows. One ring of neighboring tiles supplies the whole 2r halo because
// the tile side never drops below 2r (enforced by TileGrid::reset).
//
// The tiling stays 2D (xy) even on a 3D field: xy distance lower-bounds 3D
// distance, so every ball(v, kr) above projects into the same xy disc and
// the rectangle-distance dirt tests and halo memberships remain supersets
// of the true 3D ones. A deep field wastes some locality (a column of
// hosts shares a tile) but never correctness.

#include <cstdint>
#include <span>
#include <vector>

#include "core/bitset.hpp"
#include "core/graph.hpp"
#include "core/keys.hpp"
#include "core/workspace.hpp"
#include "net/vec2.hpp"

namespace pacds {

/// Axis-aligned tiling of the field with per-tile owned-host lists.
/// Ownership follows current positions (clamped, so parked/out-of-field
/// hosts file under the nearest border tile; they are radio-isolated by
/// construction, so their rows are empty and clamping is harmless).
class TileGrid {
 public:
  /// Lays out the grid: `requested` tiles total (0 = as many as the side
  /// constraint allows), clamped so each tile side stays >= 2 * radius —
  /// the halo-width requirement above. Owned lists become empty.
  void reset(double width, double height, double radius, int requested,
             std::size_t n_hosts);

  [[nodiscard]] int tiles_x() const noexcept { return tiles_x_; }
  [[nodiscard]] int tiles_y() const noexcept { return tiles_y_; }
  [[nodiscard]] int tile_count() const noexcept { return tiles_x_ * tiles_y_; }
  [[nodiscard]] double radius() const noexcept { return radius_; }

  /// Tile index owning position `p` (indices clamped to the grid).
  [[nodiscard]] int tile_of(Vec2 p) const noexcept;

  /// Euclidean distance from `p` to tile `t`'s rectangle (0 inside).
  [[nodiscard]] double dist_to_rect(int t, Vec2 p) const noexcept;

  /// Files every host under its position's tile (initialization).
  void assign_all(const std::vector<Vec2>& positions);

  /// Re-files host v after a move; no-op when both positions map to the
  /// same tile. Owned lists stay sorted by id.
  void move_host(NodeId v, Vec2 old_pos, Vec2 new_pos);

  /// Hosts owned by tile t, ascending by id.
  [[nodiscard]] std::span<const NodeId> owned(int t) const {
    return owned_[static_cast<std::size_t>(t)];
  }

  /// Sets, in `dirty` (one bit per tile), every tile whose rectangle
  /// intersects the axis-aligned bounding box of ball(p, dist) — a cheap
  /// superset of the tiles within `dist` of p.
  void mark_dirty_around(Vec2 p, double dist, DynBitset& dirty) const;

 private:
  int tiles_x_ = 1;
  int tiles_y_ = 1;
  double side_x_ = 0.0;
  double side_y_ = 0.0;
  double radius_ = 0.0;
  std::vector<std::vector<NodeId>> owned_;
};

/// Per-tile scratch rebuilt each interval the tile is dirty: the sorted
/// local universe (owned + 2r halo), its dense local adjacency rows, and
/// the stage-decision output buffer. Persistent so steady-state rebuilds
/// reuse capacity and allocate nothing.
struct TileLocal {
  /// Global ids of the local universe, ascending (so local ascending order
  /// coincides with global ascending order — kernels visit pairs in the
  /// same order as the flat passes).
  std::vector<NodeId> locals;
  /// is_owned[i] != 0 iff locals[i] is owned by this tile.
  std::vector<std::uint8_t> is_owned;
  /// Local L×L adjacency rows (open neighborhoods).
  std::vector<DynBitset> rows;
  /// Stage output: decision bit per *owned* local index (halo bits unused).
  DynBitset out;
  /// Rule 2 candidate buffer (marked neighbors with their local rows).
  std::vector<Rule2Candidate> scratch;
};

/// Per-executor-lane global→local translation used while building rows.
/// Epoch-stamped so consecutive builds skip the O(n) clear.
struct TileLaneScratch {
  std::vector<std::int32_t> local_of;
  std::vector<std::uint64_t> epoch;
  std::uint64_t current_epoch = 0;
};

/// Rebuilds `tl` for tile `t`: gathers the local universe from t and its
/// one-ring (every host within 2r of t's rectangle), then materializes the
/// local dense rows from the global CSR graph.
void build_tile_local(const Graph& g, const TileGrid& grid,
                      const std::vector<Vec2>& positions, int t,
                      TileLaneScratch& lane, TileLocal& tl);

// Stage kernels: each fills tl.out with the stage's decision for every
// owned local index, reading frozen global stage input where needed.
// Decision-identical to the flat marking/rule passes by construction.

/// Marking: out bit = marks_itself(v).
void tile_marking_stage(TileLocal& tl);

/// Rule 1: out bit = marked(v) && !rule1_would_unmark(v) against `marked`.
void tile_rule1_stage(const PriorityKey& key, const DynBitset& marked,
                      TileLocal& tl);

/// Rule 2 (either form): out bit = in(v) && !rule2_would_unmark(v) against
/// the post-Rule-1 set `in`, decided by rule2_dense_fires on the local rows
/// as the flat dense passes decide it. `form_simple` selects the
/// min-of-three form.
void tile_rule2_stage(const PriorityKey& key, bool form_simple,
                      const DynBitset& in, TileLocal& tl);

/// Copies tl.out's owned decisions into the global stage bitset (serial —
/// the one synchronization point between parallel stage computes).
void scatter_tile_out(const TileLocal& tl, DynBitset& global);

}  // namespace pacds
