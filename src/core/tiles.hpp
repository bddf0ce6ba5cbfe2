#pragma once
// Spatial tiling of the simulation field for the tiled engine's dirt
// tracking (sim/tiled_engine.hpp). Tiles only say *which* hosts re-decide:
// each interval the engine re-runs the three simultaneous stages for the
// hosts owned by the dirty tiles, on the global CSR graph (graph.hpp), so
// the tiling keeps no rows of its own and adds only the owned lists to
// the engine's O(n + m) memory.
//
// Correctness contract (DESIGN.md §10): every stage decision of the
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
// sound. The tile side never drops below 2r (enforced by TileGrid::reset),
// which keeps a 3r dirt box within a few tiles of its centre.
//
// The tiling stays 2D (xy) even on a 3D field: xy distance lower-bounds 3D
// distance, so every ball(v, kr) above projects into the same xy disc and
// the bounding-box dirt tests remain supersets of the true 3D ones. A deep
// field wastes some locality (a column of hosts shares a tile) but never
// correctness.

#include <span>
#include <vector>

#include "core/bitset.hpp"
#include "core/graph.hpp"
#include "net/vec2.hpp"

namespace pacds {

/// Axis-aligned tiling of the field with per-tile owned-host lists.
/// Ownership follows current positions (clamped, so parked/out-of-field
/// hosts file under the nearest border tile; they are radio-isolated by
/// construction, so their rows are empty and clamping is harmless).
class TileGrid {
 public:
  /// Lays out the grid: `requested` tiles total (0 = as many as the side
  /// constraint allows), clamped so each tile side stays >= 2 * radius and
  /// the grid holds at most 4 * n_hosts + 64 tiles (both axes shrink by
  /// the same factor past that). Owned lists become empty.
  void reset(double width, double height, double radius, int requested,
             std::size_t n_hosts);

  [[nodiscard]] int tiles_x() const noexcept { return tiles_x_; }
  [[nodiscard]] int tiles_y() const noexcept { return tiles_y_; }
  [[nodiscard]] int tile_count() const noexcept { return tiles_x_ * tiles_y_; }
  [[nodiscard]] double radius() const noexcept { return radius_; }

  /// Tile index owning position `p` (indices clamped to the grid).
  [[nodiscard]] int tile_of(Vec2 p) const noexcept;

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

}  // namespace pacds
