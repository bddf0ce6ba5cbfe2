#include "core/tiles.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/rules.hpp"

namespace pacds {

void TileGrid::reset(double width, double height, double radius, int requested,
                     std::size_t n_hosts) {
  radius_ = radius > 0.0 ? radius : 1.0;
  const double min_side = 2.0 * radius_;
  const int max_x = std::max(1, static_cast<int>(std::floor(width / min_side)));
  const int max_y =
      std::max(1, static_cast<int>(std::floor(height / min_side)));
  if (requested <= 0) {
    // Auto: the finest grid the halo constraint allows.
    tiles_x_ = max_x;
    tiles_y_ = max_y;
  } else {
    const auto per_axis = static_cast<int>(
        std::floor(std::sqrt(static_cast<double>(requested))));
    tiles_x_ = std::clamp(per_axis, 1, max_x);
    tiles_y_ = std::clamp(per_axis, 1, max_y);
  }
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
  const int ix = std::clamp(
      static_cast<int>(std::floor(p.x / side_x_)), 0, tiles_x_ - 1);
  const int iy = std::clamp(
      static_cast<int>(std::floor(p.y / side_y_)), 0, tiles_y_ - 1);
  return iy * tiles_x_ + ix;
}

double TileGrid::dist_to_rect(int t, Vec2 p) const noexcept {
  const int ix = t % tiles_x_;
  const int iy = t / tiles_x_;
  const double x0 = static_cast<double>(ix) * side_x_;
  const double y0 = static_cast<double>(iy) * side_y_;
  const double dx =
      p.x < x0 ? x0 - p.x : (p.x > x0 + side_x_ ? p.x - (x0 + side_x_) : 0.0);
  const double dy =
      p.y < y0 ? y0 - p.y : (p.y > y0 + side_y_ ? p.y - (y0 + side_y_) : 0.0);
  return std::sqrt(dx * dx + dy * dy);
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
  const int ix0 = std::clamp(
      static_cast<int>(std::floor((p.x - dist) / side_x_)), 0, tiles_x_ - 1);
  const int ix1 = std::clamp(
      static_cast<int>(std::floor((p.x + dist) / side_x_)), 0, tiles_x_ - 1);
  const int iy0 = std::clamp(
      static_cast<int>(std::floor((p.y - dist) / side_y_)), 0, tiles_y_ - 1);
  const int iy1 = std::clamp(
      static_cast<int>(std::floor((p.y + dist) / side_y_)), 0, tiles_y_ - 1);
  for (int iy = iy0; iy <= iy1; ++iy) {
    for (int ix = ix0; ix <= ix1; ++ix) {
      dirty.set(static_cast<std::size_t>(iy * tiles_x_ + ix));
    }
  }
}

void build_tile_local(const Graph& g, const TileGrid& grid,
                      const std::vector<Vec2>& positions, int t,
                      TileLaneScratch& lane, TileLocal& tl) {
  const double halo = 2.0 * grid.radius();
  const int tx = grid.tiles_x();
  const int ty = grid.tiles_y();
  const int ix = t % tx;
  const int iy = t / tx;
  tl.locals.clear();
  for (int dy = -1; dy <= 1; ++dy) {
    for (int dx = -1; dx <= 1; ++dx) {
      const int nx = ix + dx;
      const int ny = iy + dy;
      if (nx < 0 || nx >= tx || ny < 0 || ny >= ty) continue;
      const int nt = ny * tx + nx;
      for (const NodeId v : grid.owned(nt)) {
        if (nt == t ||
            grid.dist_to_rect(t, positions[static_cast<std::size_t>(v)]) <=
                halo) {
          tl.locals.push_back(v);
        }
      }
    }
  }
  // Tiles are disjoint, so no duplicates; sorting makes local ascending
  // order match global ascending order.
  std::sort(tl.locals.begin(), tl.locals.end());
  const std::size_t count = tl.locals.size();

  const auto n = static_cast<std::size_t>(g.num_nodes());
  if (lane.local_of.size() < n) {
    lane.local_of.resize(n);
    lane.epoch.resize(n, 0);
  }
  const std::uint64_t e = ++lane.current_epoch;
  for (std::size_t i = 0; i < count; ++i) {
    const auto gi = static_cast<std::size_t>(tl.locals[i]);
    lane.local_of[gi] = static_cast<std::int32_t>(i);
    lane.epoch[gi] = e;
  }

  tl.is_owned.resize(count);
  if (tl.rows.size() < count) tl.rows.resize(count);
  for (std::size_t i = 0; i < count; ++i) {
    DynBitset& row = tl.rows[i];
    row.resize_clear(count);
    for (const NodeId x : g.neighbors(tl.locals[i])) {
      const auto gx = static_cast<std::size_t>(x);
      if (lane.epoch[gx] == e) {
        row.set(static_cast<std::size_t>(lane.local_of[gx]));
      }
    }
    tl.is_owned[i] = grid.tile_of(positions[static_cast<std::size_t>(
                         tl.locals[i])]) == t
                         ? 1
                         : 0;
  }
  tl.out.resize_clear(count);
}

void tile_marking_stage(TileLocal& tl) {
  const std::size_t count = tl.locals.size();
  tl.out.resize_clear(count);
  for (std::size_t i = 0; i < count; ++i) {
    if (tl.is_owned[i] == 0) continue;
    const DynBitset& row = tl.rows[i];
    bool marks = false;
    for (std::size_t u = row.find_first(); u < count; u = row.find_next(u)) {
      if (!row.is_subset_of_except(tl.rows[u], u)) {
        marks = true;
        break;
      }
    }
    if (marks) tl.out.set(i);
  }
}

void tile_rule1_stage(const PriorityKey& key, const DynBitset& marked,
                      TileLocal& tl) {
  const std::size_t count = tl.locals.size();
  tl.out.resize_clear(count);
  for (std::size_t i = 0; i < count; ++i) {
    if (tl.is_owned[i] == 0) continue;
    const NodeId v = tl.locals[i];
    if (!marked.test(static_cast<std::size_t>(v))) continue;
    const DynBitset& row = tl.rows[i];
    bool fires = false;
    for (std::size_t u = row.find_first(); u < count; u = row.find_next(u)) {
      const NodeId gu = tl.locals[u];
      if (!marked.test(static_cast<std::size_t>(gu))) continue;
      if (key.less(v, gu) && row.is_subset_of_except(tl.rows[u], u)) {
        fires = true;
        break;
      }
    }
    if (!fires) tl.out.set(i);
  }
}

void tile_rule2_stage(const PriorityKey& key, bool form_simple,
                      const DynBitset& in, TileLocal& tl) {
  const Rule2Form form =
      form_simple ? Rule2Form::kSimple : Rule2Form::kRefined;
  const std::size_t count = tl.locals.size();
  tl.out.resize_clear(count);
  for (std::size_t i = 0; i < count; ++i) {
    if (tl.is_owned[i] == 0) continue;
    const NodeId v = tl.locals[i];
    if (!in.test(static_cast<std::size_t>(v))) continue;
    const DynBitset& row = tl.rows[i];
    tl.scratch.clear();
    for (std::size_t u = row.find_first(); u < count; u = row.find_next(u)) {
      const NodeId gu = tl.locals[u];
      if (in.test(static_cast<std::size_t>(gu))) {
        tl.scratch.push_back({gu, tl.rows[u].words().data()});
      }
    }
    // Candidate rows are complete (candidates sit within r of the tile
    // rectangle), so the local test decides as the flat one does.
    if (!rule2_dense_fires(key, form, v, row, tl.scratch)) tl.out.set(i);
  }
}

void scatter_tile_out(const TileLocal& tl, DynBitset& global) {
  for (std::size_t i = 0; i < tl.locals.size(); ++i) {
    if (tl.is_owned[i] == 0) continue;
    const auto gi = static_cast<std::size_t>(tl.locals[i]);
    if (tl.out.test(i)) {
      global.set(gi);
    } else {
      global.reset(gi);
    }
  }
}

}  // namespace pacds
