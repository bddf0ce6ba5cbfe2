#include "net/udg.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <sstream>
#include <span>
#include <stdexcept>
#include <string>

namespace pacds {

namespace {

/// floor(coord / cell), or nullopt when the coordinate is not finite or its
/// cell index falls outside the limit. Truncates and corrects instead of
/// calling std::floor: same value, no libm call per coordinate.
std::optional<std::int64_t> cell_index(double coord, double cell) {
  const double q = coord / cell;
  if (!(std::abs(q) < kCellLimit)) return std::nullopt;
  const auto t = static_cast<std::int64_t>(q);
  return t - static_cast<std::int64_t>(static_cast<double>(t) > q);
}

/// The cell both indexes file `p` under; `who` and `node` (-1 for a query
/// center) name the point in the std::invalid_argument thrown when an axis
/// has no cell index.
template <typename Key>
Key cell_key(Vec2 p, double cell, const char* who, NodeId node) {
  const auto cx = cell_index(p.x, cell);
  const auto cy = cell_index(p.y, cell);
  const auto cz = cell_index(p.z, cell);
  if (!cx || !cy || !cz) {
    std::ostringstream msg;
    msg << who << ": ";
    if (node >= 0) {
      msg << "host " << node;
    } else {
      msg << "query point";
    }
    msg << " at (" << p.x << ", " << p.y << ", " << p.z
        << ") is off the cell grid (a coordinate is not finite or 2^62 or "
           "more cells from the origin)";
    throw std::invalid_argument(msg.str());
  }
  return {*cx, *cy, *cz};
}

/// Appends one occupied cell's forward spans after its own-cell span:
/// triple(dx, dy) is the span of the three consecutive cells centred on
/// (cx + dx, cy + dy) along the fastest axis — y in a planar set, z in 3-D.
template <typename Spans, typename Triple>
void push_forward_spans(Spans& spans, bool flat, Triple&& triple) {
  if (flat) {
    spans.push_back(triple(1, 0));
    return;
  }
  spans.push_back(triple(0, 1));
  for (std::int64_t dy = -1; dy <= 1; ++dy) spans.push_back(triple(1, dy));
}

}  // namespace

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
    const CellKey key = cell_of(positions[i], static_cast<NodeId>(i));
    buckets_[bucket_of(key)].push_back({key, static_cast<NodeId>(i)});
  }
}

SpatialGrid::CellKey SpatialGrid::cell_of(Vec2 p, NodeId node) const {
  return cell_key<CellKey>(p, cell_size_, "SpatialGrid", node);
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
  const CellKey c = cell_of(center, -1);
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
  const CellKey from = cell_of(old_pos, node);
  const CellKey to = cell_of(new_pos, node);
  if (new_pos.z != 0.0) any_z_ = true;
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
  CellKey lo;
  CellKey hi;
  keyed_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto id = static_cast<NodeId>(i);
    const auto key = cell_key<CellKey>(positions[i], cell, "LinkBuilder", id);
    keyed_[i] = {key, id};
    lo = i == 0 ? key
                : CellKey{std::min(lo.cx, key.cx), std::min(lo.cy, key.cy),
                          std::min(lo.cz, key.cz)};
    hi = i == 0 ? key
                : CellKey{std::max(hi.cx, key.cx), std::max(hi.cy, key.cy),
                          std::max(hi.cz, key.cz)};
  }
  xs_.resize(n);
  ys_.resize(n);
  zs_.resize(n);
  ids_.resize(n);

  // Hosts that all share one z cell (every planar set) take the planar
  // stencil. The counting sort runs over the occupied box padded by one
  // empty cell past x's high end and on both sides of y (and of z in 3-D),
  // so that every forward span stays inside the box without clamping; a
  // box of more than about four cells per host is binned by sorting.
  // Every index is inside ±2^62, so each width hi - lo fits an int64.
  const bool flat = lo.cz == hi.cz;
  const double box =
      (static_cast<double>(hi.cx - lo.cx) + 2.0) *
      (static_cast<double>(hi.cy - lo.cy) + 3.0) *
      (flat ? 1.0 : static_cast<double>(hi.cz - lo.cz) + 3.0);
  if (box <= 4.0 * static_cast<double>(n) + 64.0) {
    bin_by_count(positions, lo,
                 {hi.cx - lo.cx + 2, hi.cy - lo.cy + 3,
                  flat ? 1 : hi.cz - lo.cz + 3},
                 flat);
  } else {
    bin_by_sort(positions, flat);
  }

  group(n, scan(flat ? 2 : 5, radius * radius));
}

void LinkBuilder::place(std::size_t slot, const Vec2& p, NodeId id) {
  xs_[slot] = p.x;
  ys_[slot] = p.y;
  zs_[slot] = p.z;
  ids_[slot] = id;
}

void LinkBuilder::bin_by_count(const std::vector<Vec2>& positions, CellKey lo,
                               CellKey extent, bool flat) {
  const std::size_t n = keyed_.size();
  // Box cells in (x, y, z) order; y and z coordinates shifted by the
  // padding below them.
  const auto sy = static_cast<std::size_t>(extent.cz);
  const auto sx = static_cast<std::size_t>(extent.cy) * sy;
  const std::size_t box = static_cast<std::size_t>(extent.cx) * sx;
  const std::int64_t z_pad = flat ? 0 : 1;
  const auto index = [&](const CellKey& c) {
    return static_cast<std::size_t>(c.cx - lo.cx) * sx +
           static_cast<std::size_t>(c.cy - lo.cy + 1) * sy +
           static_cast<std::size_t>(c.cz - lo.cz + z_pad);
  };
  // Stable counting sort: inclusive counts, then a backward scatter leaves
  // cell_start_[c] at the first slot of cell c and ids ascending within it.
  cell_start_.assign(box + 1, 0);
  for (const auto& [key, id] : keyed_) ++cell_start_[index(key)];
  for (std::size_t c = 1; c < box; ++c) cell_start_[c] += cell_start_[c - 1];
  cell_start_[box] = n;
  for (std::size_t i = n; i-- > 0;) {
    const auto& [key, id] = keyed_[i];
    place(--cell_start_[index(key)], positions[i], id);
  }

  run_begin_.clear();
  spans_.clear();
  for (std::size_t c = 0; c < box; ++c) {
    if (cell_start_[c] == cell_start_[c + 1]) continue;
    run_begin_.push_back(cell_start_[c]);
    // Cell c and the next cell along the fastest axis, c + 1.
    spans_.push_back({cell_start_[c], cell_start_[c + 2]});
    push_forward_spans(spans_, flat, [&](std::int64_t dx, std::int64_t dy) {
      const std::size_t mid = c + static_cast<std::size_t>(dx) * sx +
                              static_cast<std::size_t>(dy) * sy;
      return Span{cell_start_[mid - 1], cell_start_[mid + 2]};
    });
  }
  run_begin_.push_back(n);
}

void LinkBuilder::bin_by_sort(const std::vector<Vec2>& positions, bool flat) {
  const std::size_t n = keyed_.size();
  std::sort(keyed_.begin(), keyed_.end());
  run_key_.clear();
  run_begin_.clear();
  for (std::size_t k = 0; k < n; ++k) {
    const auto& [key, id] = keyed_[k];
    if (run_key_.empty() || key != run_key_.back()) {
      run_key_.push_back(key);
      run_begin_.push_back(k);
    }
    place(k, positions[static_cast<std::size_t>(id)], id);
  }
  run_begin_.push_back(n);

  // The same spans as the counting sort's, by binary search over the
  // distinct cells: consecutive cells along the fastest axis are
  // consecutive in (x, y, z) order.
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
  spans_.clear();
  for (std::size_t r = 0; r < run_key_.size(); ++r) {
    const CellKey c = run_key_[r];
    spans_.push_back({run_begin_[r],
                      end_slot(flat ? CellKey{c.cx, c.cy + 1, c.cz}
                                    : CellKey{c.cx, c.cy, c.cz + 1})});
    push_forward_spans(spans_, flat, [&](std::int64_t dx, std::int64_t dy) {
      if (flat) {
        return Span{first_slot({c.cx + dx, c.cy - 1, c.cz}),
                    end_slot({c.cx + dx, c.cy + 1, c.cz})};
      }
      return Span{first_slot({c.cx + dx, c.cy + dy, c.cz - 1}),
                  end_slot({c.cx + dx, c.cy + dy, c.cz + 1})};
    });
  }
}

std::size_t LinkBuilder::scan(std::size_t spans_per_run, double r2) {
  const double* xs = xs_.data();
  const double* ys = ys_.data();
  const double* zs = zs_.data();
  const NodeId* ids = ids_.data();
  std::size_t count = 0;
  for (std::size_t r = 0; r + 1 < run_begin_.size(); ++r) {
    const Span* spans = spans_.data() + r * spans_per_run;
    // The most one host of the run writes: its mark and every candidate
    // of the run's first host.
    std::size_t reach = 1;
    for (std::size_t q = 0; q < spans_per_run; ++q) {
      reach += spans[q].last - spans[q].first;
    }
    for (std::size_t s = run_begin_[r]; s < run_begin_[r + 1]; ++s) {
      if (found_.size() < count + reach) {
        found_.resize(std::max(count + reach, 2 * found_.size()));
      }
      NodeId* out = found_.data();
      const double x = xs[s];
      const double y = ys[s];
      const double z = zs[s];
      out[count++] = ~ids[s];
      // Every candidate is written; the cursor advances only for one within
      // range, so the test has no branch. The sum's order is distance2's,
      // so pairs at exactly r agree with the naive builder.
      const auto test = [&](std::size_t first, std::size_t last) {
        for (std::size_t j = first; j < last; ++j) {
          const double dx = xs[j] - x;
          const double dy = ys[j] - y;
          const double dz = zs[j] - z;
          const double d2 = dx * dx + dy * dy + dz * dz;
          out[count] = ids[j];
          count += static_cast<std::size_t>(d2 <= r2);
        }
      };
      test(s + 1, spans[0].last);
      for (std::size_t q = 1; q < spans_per_run; ++q) {
        test(spans[q].first, spans[q].last);
      }
    }
  }
  return count;
}

void LinkBuilder::group(std::size_t n, std::size_t length) {
  // A counting sort by lower endpoint, reading the stream flat: a mark
  // switches the current host and lands in a spare slot. Which id of a
  // pair is the lower is a coin flip, so it is picked with a mask rather
  // than a branch the predictor would miss. Rows fill from their ends,
  // leaving offsets_[w] at the start of row w.
  const NodeId* found = found_.data();
  const auto each = [&](auto&& visit) {
    NodeId u = 0;
    for (std::size_t k = 0; k < length; ++k) {
      const NodeId e = found[k];
      const bool mark = e < 0;
      u = mark ? ~e : u;
      const NodeId lo = u ^ ((u ^ e) & -static_cast<NodeId>(e < u));
      visit(mark, static_cast<std::size_t>(mark ? u : lo), u ^ e ^ lo);
    }
  };
  offsets_.assign(n + 1, 0);
  each([&](bool mark, std::size_t row, NodeId) {
    offsets_[row] += static_cast<std::size_t>(!mark);
  });
  for (std::size_t w = 1; w < n; ++w) offsets_[w] += offsets_[w - 1];
  const std::size_t count = length - n;
  offsets_[n] = count;
  upper_.resize(count + 1);
  each([&](bool mark, std::size_t row, NodeId hi) {
    const std::size_t at = offsets_[row] - static_cast<std::size_t>(!mark);
    offsets_[row] = at;
    upper_[mark ? count : at] = hi;
  });
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
