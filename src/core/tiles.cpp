#include "core/tiles.hpp"

#include <algorithm>
#include <climits>
#include <cmath>
#include <stdexcept>

namespace pacds {

namespace {

/// Tile index along one axis of the cell holding `coord`, clamped to
/// [0, count) before the cast so a far-off coordinate cannot overflow int.
int axis_index(double coord, double side, int count) noexcept {
  return static_cast<int>(
      std::clamp(std::floor(coord / side), 0.0, static_cast<double>(count - 1)));
}

}  // namespace

void TileGrid::reset(double width, double height, double radius, int requested,
                     std::size_t n_hosts) {
  radius_ = radius > 0.0 ? radius : 1.0;
  // Per-axis counts stay in double until they are capped: on a wide field
  // the quotient can pass INT_MAX.
  const double min_side = 2.0 * radius_;
  double nx = std::max(1.0, std::floor(width / min_side));
  double ny = std::max(1.0, std::floor(height / min_side));
  if (requested > 0) {
    // Roughly `requested` tiles: a square grid, clamped per axis.
    const double per_axis =
        std::floor(std::sqrt(static_cast<double>(requested)));
    nx = std::clamp(per_axis, 1.0, nx);
    ny = std::clamp(per_axis, 1.0, ny);
  }
  // At most 4n + 64 tiles (LinkBuilder's cell-box bound), so the owned
  // lists grow with the host count, not with the field's area. Shrinking
  // both axes by the same factor keeps the tiles' shape; gateways are the
  // same for every grid.
  const double cap = std::min(4.0 * static_cast<double>(n_hosts) + 64.0,
                              static_cast<double>(INT_MAX));
  if (nx * ny > cap) {
    nx = std::clamp(std::floor(nx * std::sqrt(cap / (nx * ny))), 1.0, cap);
    ny = std::clamp(std::floor(cap / nx), 1.0, ny);
  }
  tiles_x_ = static_cast<int>(nx);
  tiles_y_ = static_cast<int>(ny);
  side_x_ = width > 0.0 ? width / tiles_x_ : 1.0;
  side_y_ = height > 0.0 ? height / tiles_y_ : 1.0;
  const auto count = static_cast<std::size_t>(tile_count());
  if (owned_.size() != count) owned_.resize(count);
  for (auto& list : owned_) list.clear();
  for (auto& list : owned_) {
    list.reserve(n_hosts / count + 1);
  }
}

int TileGrid::tile_of(Vec2 p) const noexcept {
  return axis_index(p.y, side_y_, tiles_y_) * tiles_x_ +
         axis_index(p.x, side_x_, tiles_x_);
}

void TileGrid::assign_all(const std::vector<Vec2>& positions) {
  for (auto& list : owned_) list.clear();
  // Host ids ascend, so each list comes out sorted.
  for (std::size_t i = 0; i < positions.size(); ++i) {
    owned_[static_cast<std::size_t>(tile_of(positions[i]))].push_back(
        static_cast<NodeId>(i));
  }
}

void TileGrid::move_host(NodeId v, Vec2 old_pos, Vec2 new_pos) {
  const int from = tile_of(old_pos);
  const int to = tile_of(new_pos);
  if (from == to) return;
  auto& src = owned_[static_cast<std::size_t>(from)];
  const auto it = std::lower_bound(src.begin(), src.end(), v);
  if (it == src.end() || *it != v) {
    throw std::logic_error("TileGrid::move_host: stale old position");
  }
  src.erase(it);
  auto& dst = owned_[static_cast<std::size_t>(to)];
  dst.insert(std::lower_bound(dst.begin(), dst.end(), v), v);
}

void TileGrid::mark_dirty_around(Vec2 p, double dist, DynBitset& dirty) const {
  const int ix0 = axis_index(p.x - dist, side_x_, tiles_x_);
  const int ix1 = axis_index(p.x + dist, side_x_, tiles_x_);
  const int iy0 = axis_index(p.y - dist, side_y_, tiles_y_);
  const int iy1 = axis_index(p.y + dist, side_y_, tiles_y_);
  for (int iy = iy0; iy <= iy1; ++iy) {
    for (int ix = ix0; ix <= ix1; ++ix) {
      dirty.set(static_cast<std::size_t>(iy * tiles_x_ + ix));
    }
  }
}

}  // namespace pacds
