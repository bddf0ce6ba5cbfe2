#include "net/udg.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <stdexcept>
#include <string>

namespace pacds {

SpatialGrid::SpatialGrid(const std::vector<Vec2>& positions, double cell_size)
    : positions_(&positions), cell_size_(cell_size) {
  if (!(cell_size > 0.0)) {
    throw std::invalid_argument("SpatialGrid: cell_size must be positive");
  }
  // Load factor ~1 entry per bucket; power-of-two table for cheap masking.
  std::size_t n_buckets = 16;
  while (n_buckets < positions.size() * 2) n_buckets *= 2;
  buckets_.resize(n_buckets);
  for (std::size_t i = 0; i < positions.size(); ++i) {
    if (positions[i].z != 0.0) any_z_ = true;
    const CellKey key = cell_of(positions[i]);
    buckets_[bucket_of(key)].push_back({key, static_cast<NodeId>(i)});
  }
}

SpatialGrid::CellKey SpatialGrid::cell_of(Vec2 p) const {
  return {static_cast<std::int64_t>(std::floor(p.x / cell_size_)),
          static_cast<std::int64_t>(std::floor(p.y / cell_size_)),
          static_cast<std::int64_t>(std::floor(p.z / cell_size_))};
}

std::size_t SpatialGrid::bucket_of(CellKey key) const {
  // 3-D -> 1-D mix (large odd constants, then avalanche).
  auto h = static_cast<std::uint64_t>(key.cx) * 0x9e3779b97f4a7c15ULL;
  h ^= static_cast<std::uint64_t>(key.cy) * 0xc2b2ae3d27d4eb4fULL;
  h ^= static_cast<std::uint64_t>(key.cz) * 0xd6e8feb86659fd93ULL;
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  return static_cast<std::size_t>(h) & (buckets_.size() - 1);
}

void SpatialGrid::query_into(Vec2 center, double radius, NodeId exclude,
                             std::vector<NodeId>& out) const {
  if (radius > cell_size_) {
    throw std::invalid_argument(
        "SpatialGrid::query: radius exceeds cell size (needs a wider ring)");
  }
  out.clear();
  const double r2 = radius * radius;
  const CellKey c = cell_of(center);
  // Planar grids hold every entry in the cz == 0 layer, so the z ring would
  // only probe provably empty cells.
  const std::int64_t dz_ring = any_z_ ? 1 : 0;
  for (std::int64_t dx = -1; dx <= 1; ++dx) {
    for (std::int64_t dy = -1; dy <= 1; ++dy) {
      for (std::int64_t dz = -dz_ring; dz <= dz_ring; ++dz) {
        const CellKey probe{c.cx + dx, c.cy + dy, c.cz + dz};
        for (const Entry& e : buckets_[bucket_of(probe)]) {
          if (!(e.cell == probe)) continue;  // hash collision with other cell
          if (e.node == exclude) continue;
          if (distance2((*positions_)[static_cast<std::size_t>(e.node)],
                        center) <= r2) {
            out.push_back(e.node);
          }
        }
      }
    }
  }
  std::sort(out.begin(), out.end());
}

std::vector<NodeId> SpatialGrid::query(Vec2 center, double radius,
                                       NodeId exclude) const {
  std::vector<NodeId> out;
  query_into(center, radius, exclude, out);
  return out;
}

void SpatialGrid::move(NodeId node, Vec2 old_pos, Vec2 new_pos) {
  if (new_pos.z != 0.0) any_z_ = true;
  const CellKey from = cell_of(old_pos);
  const CellKey to = cell_of(new_pos);
  if (from == to) return;
  auto& bucket = buckets_[bucket_of(from)];
  const auto it = std::find_if(bucket.begin(), bucket.end(), [&](const Entry& e) {
    return e.node == node && e.cell == from;
  });
  if (it == bucket.end()) {
    throw std::logic_error(
        "SpatialGrid::move: node " + std::to_string(node) +
        " not filed under its old cell (stale old position?)");
  }
  // Order within a bucket is irrelevant; swap-erase keeps the move O(bucket).
  *it = bucket.back();
  bucket.pop_back();
  buckets_[bucket_of(to)].push_back({to, node});
}

void LinkBuilder::collect(const std::vector<Vec2>& positions, double radius) {
  if (!(radius >= 0.0)) {
    throw std::invalid_argument("LinkBuilder: radius must be non-negative");
  }
  const std::size_t n = positions.size();
  // The cell geometry of SpatialGrid(positions, radius): positive extent
  // even for radius 0, where coincident points still form edges.
  const double cell = radius > 0.0 ? radius : 1.0;
  const double r2 = radius * radius;
  bool any_z = false;
  sorted_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Vec2 p = positions[i];
    any_z |= p.z != 0.0;
    sorted_[i] = {CellKey{static_cast<std::int64_t>(std::floor(p.x / cell)),
                          static_cast<std::int64_t>(std::floor(p.y / cell)),
                          static_cast<std::int64_t>(std::floor(p.z / cell))},
                  static_cast<NodeId>(i)};
  }
  std::sort(sorted_.begin(), sorted_.end());

  // Runs of equal cells, and each host's run.
  cell_pos_.resize(n);
  cell_ids_.resize(n);
  run_of_.resize(n);
  run_key_.clear();
  run_begin_.clear();
  for (std::size_t k = 0; k < n; ++k) {
    const auto& [key, id] = sorted_[k];
    if (run_key_.empty() || key != run_key_.back()) {
      run_key_.push_back(key);
      run_begin_.push_back(k);
    }
    cell_pos_[k] = positions[static_cast<std::size_t>(id)];
    cell_ids_[k] = id;
    run_of_[static_cast<std::size_t>(id)] =
        static_cast<std::uint32_t>(run_key_.size() - 1);
  }
  run_begin_.push_back(n);

  // Candidate slots per run, by binary search over the sorted cells: the
  // cells of one (x, y) column with z in [cz - 1, cz + 1] are contiguous in
  // (x, y, z) order, and in a planar set (every cz == 0) so are the three
  // cells y in [cy - 1, cy + 1] of one x column.
  const auto first_slot = [&](const CellKey& key) {
    return run_begin_[static_cast<std::size_t>(
        std::lower_bound(run_key_.begin(), run_key_.end(), key) -
        run_key_.begin())];
  };
  const auto end_slot = [&](const CellKey& key) {
    return run_begin_[static_cast<std::size_t>(
        std::upper_bound(run_key_.begin(), run_key_.end(), key) -
        run_key_.begin())];
  };
  const std::size_t per_run = any_z ? 9 : 3;
  ranges_.resize(run_key_.size() * per_run);
  for (std::size_t r = 0; r < run_key_.size(); ++r) {
    const CellKey c = run_key_[r];
    std::size_t slot = r * per_run;
    for (std::int64_t dx = -1; dx <= 1; ++dx) {
      if (!any_z) {
        ranges_[slot++] = {first_slot({c.cx + dx, c.cy - 1, c.cz}),
                           end_slot({c.cx + dx, c.cy + 1, c.cz})};
        continue;
      }
      for (std::int64_t dy = -1; dy <= 1; ++dy) {
        ranges_[slot++] = {first_slot({c.cx + dx, c.cy + dy, c.cz - 1}),
                           end_slot({c.cx + dx, c.cy + dy, c.cz + 1})};
      }
    }
  }

  // Rows in ascending host order. Every candidate is written and the write
  // cursor advances only for a kept pair, so the filter has no branch.
  offsets_.resize(n + 1);
  std::size_t kept = 0;
  for (std::size_t u = 0; u < n; ++u) {
    offsets_[u] = kept;
    const auto* range = ranges_.data() + run_of_[u] * per_run;
    std::size_t candidates = 0;
    for (std::size_t q = 0; q < per_run; ++q) {
      candidates += range[q].second - range[q].first;
    }
    if (upper_.size() < kept + candidates) {
      upper_.resize(std::max(kept + candidates, 2 * upper_.size()));
    }
    const Vec2 pu = positions[u];
    const auto self = static_cast<NodeId>(u);
    NodeId* out = upper_.data();
    for (std::size_t q = 0; q < per_run; ++q) {
      for (std::size_t j = range[q].first; j < range[q].second; ++j) {
        const NodeId v = cell_ids_[j];
        out[kept] = v;
        kept += static_cast<std::size_t>(
            (v > self) & (distance2(cell_pos_[j], pu) <= r2));
      }
    }
  }
  offsets_[n] = kept;
}

void LinkBuilder::assign(std::size_t n, Graph& out) const {
  out.assign_upper(static_cast<NodeId>(n), offsets_,
                   std::span<const NodeId>(upper_.data(), offsets_.back()));
}

void LinkBuilder::build(const std::vector<Vec2>& positions, double radius,
                        Graph& out) {
  collect(positions, radius);
  assign(positions.size(), out);
}

namespace {

Graph build_naive(const std::vector<Vec2>& positions, double radius) {
  const auto n = static_cast<NodeId>(positions.size());
  Graph g(n);
  const double r2 = radius * radius;
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = static_cast<NodeId>(u + 1); v < n; ++v) {
      if (distance2(positions[static_cast<std::size_t>(u)],
                    positions[static_cast<std::size_t>(v)]) <= r2) {
        g.add_edge(u, v);
      }
    }
  }
  return g;
}

}  // namespace

Graph build_udg(const std::vector<Vec2>& positions, double radius,
                UdgMethod method) {
  if (!(radius >= 0.0)) {
    throw std::invalid_argument("build_udg: radius must be non-negative");
  }
  if (method == UdgMethod::kNaive) return build_naive(positions, radius);
  Graph g;
  LinkBuilder builder;
  builder.build(positions, radius, g);
  return g;
}

}  // namespace pacds
