// Tests for unit-disk graph construction: correctness of both builders and
// their exact agreement on random instances.

#include "net/udg.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>

#include "net/geometric.hpp"
#include "net/radio.hpp"
#include "net/rng.hpp"
#include "net/space.hpp"
#include "net/topology.hpp"

namespace pacds {
namespace {

TEST(UdgTest, EmptyAndSingle) {
  EXPECT_EQ(build_udg({}, 5.0).num_nodes(), 0);
  const Graph one = build_udg({{1.0, 1.0}}, 5.0);
  EXPECT_EQ(one.num_nodes(), 1);
  EXPECT_EQ(one.num_edges(), 0u);
}

TEST(UdgTest, EdgeIffWithinRadius) {
  const std::vector<Vec2> pts{{0.0, 0.0}, {3.0, 4.0}, {10.0, 0.0}};
  const Graph g = build_udg(pts, 5.0);
  EXPECT_TRUE(g.has_edge(0, 1));   // distance 5 == radius (closed ball)
  EXPECT_FALSE(g.has_edge(0, 2));  // distance 10
  EXPECT_FALSE(g.has_edge(1, 2));  // distance sqrt(49+16) > 5
}

TEST(UdgTest, BoundaryInclusive) {
  const std::vector<Vec2> pts{{0.0, 0.0}, {25.0, 0.0}};
  EXPECT_EQ(build_udg(pts, 25.0).num_edges(), 1u);
  EXPECT_EQ(build_udg(pts, 24.999).num_edges(), 0u);
}

TEST(UdgTest, CoincidentPoints) {
  const std::vector<Vec2> pts{{5.0, 5.0}, {5.0, 5.0}, {5.0, 5.0}};
  const Graph g = build_udg(pts, 1.0);
  EXPECT_EQ(g.num_edges(), 3u);  // triangle, no self-loops
}

TEST(UdgTest, ZeroRadius) {
  const std::vector<Vec2> pts{{0.0, 0.0}, {1.0, 0.0}, {0.0, 0.0}};
  const Graph g = build_udg(pts, 0.0);
  EXPECT_EQ(g.num_edges(), 1u);  // only the coincident pair
  EXPECT_TRUE(g.has_edge(0, 2));
}

TEST(UdgTest, NegativeRadiusThrows) {
  EXPECT_THROW((void)build_udg({{0.0, 0.0}}, -1.0), std::invalid_argument);
}

TEST(UdgTest, BothMethodsOnHandcrafted) {
  const std::vector<Vec2> pts{
      {0.0, 0.0}, {10.0, 0.0}, {20.0, 0.0}, {0.0, 10.0}, {50.0, 50.0}};
  const Graph naive = build_udg(pts, 12.0, UdgMethod::kNaive);
  const Graph grid = build_udg(pts, 12.0, UdgMethod::kGrid);
  EXPECT_EQ(naive, grid);
}

TEST(SpatialGridTest, QueryFindsNeighbors) {
  const std::vector<Vec2> pts{
      {0.0, 0.0}, {1.0, 1.0}, {5.0, 5.0}, {2.5, 0.0}, {-1.0, -1.0}};
  const SpatialGrid grid(pts, 3.0);
  const auto near0 = grid.query({0.0, 0.0}, 3.0, 0);
  EXPECT_EQ(near0, (std::vector<NodeId>{1, 3, 4}));
}

TEST(SpatialGridTest, ExcludeKeptWhenMinusOne) {
  const std::vector<Vec2> pts{{0.0, 0.0}, {1.0, 0.0}};
  const SpatialGrid grid(pts, 2.0);
  const auto all = grid.query({0.0, 0.0}, 2.0, -1);
  EXPECT_EQ(all, (std::vector<NodeId>{0, 1}));
}

TEST(SpatialGridTest, RadiusLargerThanCellThrows) {
  const std::vector<Vec2> pts{{0.0, 0.0}};
  const SpatialGrid grid(pts, 1.0);
  EXPECT_THROW((void)grid.query({0.0, 0.0}, 2.0), std::invalid_argument);
}

TEST(SpatialGridTest, BadCellSizeThrows) {
  const std::vector<Vec2> pts{{0.0, 0.0}};
  EXPECT_THROW(SpatialGrid(pts, 0.0), std::invalid_argument);
}

TEST(SpatialGridTest, NegativeCoordinates) {
  const std::vector<Vec2> pts{{-10.0, -10.0}, {-11.0, -10.0}, {10.0, 10.0}};
  const SpatialGrid grid(pts, 5.0);
  const auto near = grid.query({-10.0, -10.0}, 5.0, 0);
  EXPECT_EQ(near, (std::vector<NodeId>{1}));
}

TEST(SpatialGridTest, QueryIntoMatchesQueryAndClearsBuffer) {
  const std::vector<Vec2> pts{
      {0.0, 0.0}, {1.0, 1.0}, {5.0, 5.0}, {2.5, 0.0}, {-1.0, -1.0}};
  const SpatialGrid grid(pts, 3.0);
  std::vector<NodeId> out{99, 98, 97};  // stale contents must be discarded
  grid.query_into({0.0, 0.0}, 3.0, 0, out);
  EXPECT_EQ(out, grid.query({0.0, 0.0}, 3.0, 0));
  grid.query_into({5.0, 5.0}, 3.0, -1, out);
  EXPECT_EQ(out, grid.query({5.0, 5.0}, 3.0, -1));
}

TEST(SpatialGridTest, MoveRefilesAcrossCells) {
  std::vector<Vec2> pts{{0.0, 0.0}, {1.0, 0.0}, {20.0, 20.0}};
  SpatialGrid grid(pts, 5.0);
  // Node 0 jumps next to node 2; the grid reads positions through `pts`.
  const Vec2 old_pos = pts[0];
  pts[0] = {21.0, 20.0};
  grid.move(0, old_pos, pts[0]);
  EXPECT_EQ(grid.query(pts[0], 5.0, 0), (std::vector<NodeId>{2}));
  EXPECT_EQ(grid.query({0.0, 0.0}, 5.0, -1), (std::vector<NodeId>{1}));
}

TEST(SpatialGridTest, MoveWithinCellIsNoOp) {
  std::vector<Vec2> pts{{0.0, 0.0}, {1.0, 0.0}};
  SpatialGrid grid(pts, 5.0);
  const Vec2 old_pos = pts[0];
  pts[0] = {2.0, 2.0};  // same 5x5 cell
  grid.move(0, old_pos, pts[0]);
  EXPECT_EQ(grid.query(pts[0], 5.0, -1), (std::vector<NodeId>{0, 1}));
}

TEST(SpatialGridTest, MoveWithStaleOldPositionThrows) {
  std::vector<Vec2> pts{{0.0, 0.0}};
  SpatialGrid grid(pts, 1.0);
  // The node was never filed under cell (50, 50): caller passed a stale
  // old position.
  EXPECT_THROW(grid.move(0, {50.0, 50.0}, {60.0, 60.0}), std::logic_error);
}

TEST(SpatialGridTest, MovedGridAgreesWithFreshGrid) {
  Xoshiro256 rng(77);
  const Field field = Field::paper_field();
  std::vector<Vec2> pts = random_placement(120, field, rng);
  SpatialGrid grid(pts, 25.0);
  for (int round = 0; round < 5; ++round) {
    for (std::size_t i = 0; i < pts.size(); ++i) {
      if (rng.uniform01() < 0.5) continue;
      const Vec2 old_pos = pts[i];
      pts[i] = {rng.uniform01() * field.width(),
                rng.uniform01() * field.height()};
      grid.move(static_cast<NodeId>(i), old_pos, pts[i]);
    }
    const SpatialGrid fresh(pts, 25.0);
    for (std::size_t i = 0; i < pts.size(); ++i) {
      ASSERT_EQ(grid.query(pts[i], 25.0, static_cast<NodeId>(i)),
                fresh.query(pts[i], 25.0, static_cast<NodeId>(i)))
          << "round " << round << " node " << i;
    }
  }
}

// ---- 3-D fields ------------------------------------------------------------

std::vector<Vec2> random_3d_points(int n, double extent, double depth,
                                   Xoshiro256& rng) {
  std::vector<Vec2> pts;
  pts.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    Vec2 p{rng.uniform(0.0, extent), rng.uniform(0.0, extent)};
    p.z = rng.uniform(0.0, depth);
    pts.push_back(p);
  }
  return pts;
}

TEST(SpatialGridTest, ThreeDQueryMatchesBruteForce) {
  Xoshiro256 rng(2718);
  const double radius = 25.0;
  const auto pts = random_3d_points(120, 100.0, 60.0, rng);
  const SpatialGrid grid(pts, radius);
  for (std::size_t i = 0; i < pts.size(); ++i) {
    std::vector<NodeId> brute;
    for (std::size_t j = 0; j < pts.size(); ++j) {
      if (j != i && distance2(pts[i], pts[j]) <= radius * radius) {
        brute.push_back(static_cast<NodeId>(j));
      }
    }
    ASSERT_EQ(grid.query(pts[i], radius, static_cast<NodeId>(i)), brute)
        << "node " << i;
  }
}

TEST(UdgTest, ThreeDNaiveEqualsGrid) {
  Xoshiro256 rng(3141);
  for (const double radius : {10.0, 30.0}) {
    const auto pts = random_3d_points(90, 100.0, 80.0, rng);
    EXPECT_EQ(build_udg(pts, radius, UdgMethod::kNaive),
              build_udg(pts, radius, UdgMethod::kGrid))
        << "r=" << radius;
  }
}

TEST(SpatialGridTest, MoveLiftingAPlanarGridIntoThreeD) {
  // A grid that has only ever seen z == 0 skips the z cell ring; the first
  // move that introduces depth must permanently widen the query ring, and
  // queries must stay exact through the transition.
  std::vector<Vec2> pts{{10.0, 10.0}, {12.0, 10.0}, {50.0, 50.0}};
  SpatialGrid grid(pts, 7.0);
  EXPECT_EQ(grid.query(pts[0], 5.0, 0), (std::vector<NodeId>{1}));
  const Vec2 old_pos = pts[1];
  pts[1].z = 4.0;  // lift host 1 off the plane, same cell footprint in xy
  grid.move(1, old_pos, pts[1]);
  EXPECT_EQ(grid.query(pts[0], 5.0, 0), (std::vector<NodeId>{1}));
  pts[1].z = 6.0;  // now out of the closed ball around host 0
  grid.move(1, {12.0, 10.0, 4.0}, pts[1]);
  EXPECT_EQ(grid.query(pts[0], 5.0, 0), std::vector<NodeId>{});
  EXPECT_EQ(grid.query(pts[1], 7.0, 1), (std::vector<NodeId>{0}));
}

// Agreement of naive and grid builders over random dense/sparse instances.
class UdgAgreementTest
    : public ::testing::TestWithParam<std::tuple<int, double, std::uint64_t>> {
};

TEST_P(UdgAgreementTest, NaiveEqualsGrid) {
  const auto [n, radius, seed] = GetParam();
  Xoshiro256 rng(seed);
  const Field field = Field::paper_field();
  const auto pts = random_placement(n, field, rng);
  const Graph naive = build_udg(pts, radius, UdgMethod::kNaive);
  const Graph grid = build_udg(pts, radius, UdgMethod::kGrid);
  EXPECT_EQ(naive, grid) << "n=" << n << " r=" << radius;
}

/// A step of length exactly r (an integer) that is nonzero exactly on the
/// axes where (ox, oy, oz) is, with their signs: integer components whose
/// squares sum to r². nullopt when r has no such split (no r = 5 step has
/// three nonzero components).
std::optional<Vec2> exact_step(int r, int ox, int oy, int oz) {
  for (int a = 0; a <= r; ++a) {
    for (int b = 0; a * a + b * b <= r * r; ++b) {
      const int c2 = r * r - a * a - b * b;
      const auto c = static_cast<int>(std::lround(std::sqrt(c2)));
      if (c * c == c2 && (a > 0) == (ox != 0) && (b > 0) == (oy != 0) &&
          (c > 0) == (oz != 0)) {
        return Vec2{static_cast<double>(ox * a), static_cast<double>(oy * b),
                    static_cast<double>(oz * c)};
      }
    }
  }
  return std::nullopt;
}

/// One pair at exactly r across each of the 13 forward cell offsets
/// (dx, dy, dz) — (0, 0, 1), (0, 1, *) and (1, *, *) — that r admits, the
/// k-th pair shifted by k * spacing along x. Per axis the first host sits
/// at r - 1 (the partner crosses into the next cell), at 0 (the partner
/// crosses into the previous one) or mid-cell (same cell). Spacing 4r
/// isolates the pairs in a box sparse enough for the comparison sort;
/// spacing 0 packs them around one cell, binned by counting.
std::vector<Vec2> forward_offset_pairs(int r, double spacing) {
  std::vector<Vec2> pts;
  double block = 0.0;
  for (int dx = 0; dx <= 1; ++dx) {
    for (int dy = -1; dy <= 1; ++dy) {
      for (int dz = -1; dz <= 1; ++dz) {
        if (dx == 0 && (dy < 0 || (dy == 0 && dz <= 0))) continue;
        const auto step = exact_step(r, dx, dy, dz);
        if (!step) continue;
        const auto start = [r](int o) {
          return o > 0 ? r - 1.0 : o < 0 ? 0.0 : r / 2.0;
        };
        const Vec2 a{block + start(dx), start(dy), start(dz)};
        pts.push_back(a);
        pts.push_back(a + *step);
        block += spacing;
      }
    }
  }
  return pts;
}

/// Adversarial point sets over the same random base: hosts parked far off
/// the field (park_position in sim/faults.hpp), negative coordinates, 3-D
/// positions, coincident points, a lattice of pairs at exactly r, pairs at
/// exactly r spread over ±1e6, and pairs at exactly r across every forward
/// 3-D cell offset, isolated and packed.
std::vector<std::pair<std::string, std::vector<Vec2>>> adversarial_sets(
    int n, double radius, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  const Field field = Field::paper_field();
  const auto base = random_placement(n, field, rng);
  std::vector<std::pair<std::string, std::vector<Vec2>>> sets;

  auto parked = base;
  const double spacing = 2.0 * (radius > 0.0 ? radius : 1.0);
  for (std::size_t i = 0; i < parked.size(); i += 3) {
    parked[i] = {field.width() + spacing * static_cast<double>(i + 1),
                 -spacing};
  }
  sets.emplace_back("parked", std::move(parked));

  auto negative = base;
  for (Vec2& p : negative) p = p - Vec2{150.0, 70.0};
  sets.emplace_back("negative", std::move(negative));

  auto lifted = base;
  for (Vec2& p : lifted) p.z = rng.uniform(0.0, 60.0);
  sets.emplace_back("3d", std::move(lifted));

  auto coincident = base;
  for (std::size_t i = 1; i < coincident.size(); i += 2) {
    coincident[i] = coincident[i - 1];
  }
  sets.emplace_back("coincident", std::move(coincident));

  // Lattice points at integer multiples of r: every lattice neighbor sits
  // at exactly r (the radii here are integers, so the products are exact).
  std::vector<Vec2> lattice;
  const double step = radius > 0.0 ? radius : 1.0;
  for (int i = 0; i < n; ++i) {
    lattice.push_back({step * static_cast<double>(i % 7),
                       step * static_cast<double>(i / 7 - 3)});
  }
  sets.emplace_back("lattice", std::move(lattice));

  // Integer hosts over ±1e6, each odd one exactly r from the one before
  // (the radii here are multiples of 5, so 3r/5 and 4r/5 are integers):
  // an occupied box of far more than four cells per host, binned by the
  // comparison sort once there is more than one pair.
  std::vector<Vec2> spread;
  const Vec2 steps[] = {{radius, 0.0},
                        {0.0, -radius},
                        {3.0 * radius / 5.0, 4.0 * radius / 5.0},
                        {-4.0 * radius / 5.0, 3.0 * radius / 5.0}};
  for (int i = 0; i < n; ++i) {
    spread.push_back(i % 2 == 1 ? spread.back() + steps[(i / 2) % 4]
                                : Vec2{std::round(rng.uniform(-1e6, 1e6)),
                                       std::round(rng.uniform(-1e6, 1e6))});
  }
  sets.emplace_back("sparse-box", std::move(spread));

  sets.emplace_back("3d-offsets",
                    forward_offset_pairs(static_cast<int>(radius),
                                         4.0 * radius));
  sets.emplace_back("3d-offsets-packed",
                    forward_offset_pairs(static_cast<int>(radius), 0.0));
  return sets;
}

TEST_P(UdgAgreementTest, NaiveEqualsGridOnAdversarialSets) {
  const auto [n, radius, seed] = GetParam();
  for (const auto& [name, pts] : adversarial_sets(n, radius, seed)) {
    for (const double r : {radius, 0.0}) {
      EXPECT_EQ(build_udg(pts, r, UdgMethod::kNaive),
                build_udg(pts, r, UdgMethod::kGrid))
          << name << " n=" << n << " r=" << r;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomPlacements, UdgAgreementTest,
    ::testing::Combine(::testing::Values(2, 10, 50, 150, 400),
                       ::testing::Values(5.0, 25.0, 60.0),
                       ::testing::Values(101u, 202u, 303u)),
    [](const ::testing::TestParamInfo<UdgAgreementTest::ParamType>& param_info) {
      return "n" + std::to_string(std::get<0>(param_info.param)) + "_r" +
             std::to_string(static_cast<int>(std::get<1>(param_info.param))) +
             "_s" + std::to_string(std::get<2>(param_info.param));
    });

TEST(UdgTest, ForwardOffsetPairsCoverEveryOffsetAtExactlyR) {
  // The "3d-offsets" set does what it claims: at r = 25 and 60 every one
  // of the 13 forward offsets has its pair, linked at exactly r and not a
  // hair below.
  for (const int r : {25, 60}) {
    const auto pts = forward_offset_pairs(r, 4.0 * r);
    ASSERT_EQ(pts.size(), 26u) << "r=" << r;
    const Graph g = build_udg(pts, r, UdgMethod::kNaive);
    EXPECT_EQ(g.num_edges(), 13u) << "r=" << r;
    EXPECT_EQ(build_udg(pts, r), g) << "r=" << r;
    EXPECT_EQ(build_udg(pts, std::nextafter(r, 0.0)).num_edges(), 0u)
        << "r=" << r;
  }
}

// ---- Bulk link builder -------------------------------------------------

/// The filter-by-add_edge construction every keep-predicate build must
/// reproduce: the reference unit-disk graph, each edge re-added iff kept.
template <typename Keep>
Graph filtered_reference(const std::vector<Vec2>& pts, double radius,
                         Keep&& keep) {
  const Graph udg = build_udg(pts, radius, UdgMethod::kNaive);
  Graph g(udg.num_nodes());
  for (const auto& [u, v] : udg.edges()) {
    if (keep(u, v)) g.add_edge(u, v);
  }
  return g;
}

std::vector<Vec2> dense_points(int n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  return random_placement(n, Field::paper_field(), rng);
}

TEST(LinkBuilderTest, RadioFiltersEqualTheAddEdgeReference) {
  const auto pts = dense_points(120, 91);
  for (const RadioKind kind :
       {RadioKind::kUnitDisk, RadioKind::kShadowing,
        RadioKind::kProbabilistic}) {
    const RadioModel radio(kind, RadioParams{}, kPaperRadius);
    const Graph expected =
        filtered_reference(pts, kPaperRadius, [&](NodeId u, NodeId v) {
          return radio.link(u, v,
                            distance2(pts[static_cast<std::size_t>(u)],
                                      pts[static_cast<std::size_t>(v)]));
        });
    EXPECT_EQ(build_radio_links(pts, kPaperRadius, radio), expected)
        << to_string(kind);
  }
}

TEST(LinkBuilderTest, GabrielAndRngFiltersEqualTheAddEdgeReference) {
  const auto pts = dense_points(90, 92);
  const auto others = [&pts](NodeId u, NodeId v, auto&& blocks) {
    for (std::size_t w = 0; w < pts.size(); ++w) {
      if (w != static_cast<std::size_t>(u) &&
          w != static_cast<std::size_t>(v) && blocks(pts[w])) {
        return false;
      }
    }
    return true;
  };
  const auto at = [&pts](NodeId v) { return pts[static_cast<std::size_t>(v)]; };
  const Graph gabriel =
      filtered_reference(pts, kPaperRadius, [&](NodeId u, NodeId v) {
        const Vec2 mid = (at(u) + at(v)) * 0.5;
        const double r2 = distance2(at(u), at(v)) / 4.0;
        return others(u, v, [&](Vec2 w) { return distance2(w, mid) < r2; });
      });
  const Graph rng_graph =
      filtered_reference(pts, kPaperRadius, [&](NodeId u, NodeId v) {
        const double d2 = distance2(at(u), at(v));
        return others(u, v, [&](Vec2 w) {
          return distance2(w, at(u)) < d2 && distance2(w, at(v)) < d2;
        });
      });
  EXPECT_EQ(build_links(pts, kPaperRadius, LinkModel::kGabriel), gabriel);
  EXPECT_EQ(build_links(pts, kPaperRadius, LinkModel::kRng), rng_graph);
  EXPECT_EQ(build_gabriel(pts, kPaperRadius), gabriel);
  EXPECT_EQ(build_rng_graph(pts, kPaperRadius), rng_graph);
}

TEST(LinkBuilderTest, ActiveHostFilterEqualsTheAddEdgeReference) {
  // The traffic simulator's per-interval build: links among usable hosts
  // only, everyone else an isolated vertex.
  const auto pts = dense_points(100, 93);
  std::vector<char> usable(pts.size(), 1);
  for (std::size_t i = 0; i < usable.size(); i += 4) usable[i] = 0;
  const auto keep = [&usable](NodeId u, NodeId v) {
    return usable[static_cast<std::size_t>(u)] != 0 &&
           usable[static_cast<std::size_t>(v)] != 0;
  };
  Graph g;
  LinkBuilder builder;
  builder.build(pts, kPaperRadius, g, keep);
  EXPECT_EQ(g, filtered_reference(pts, kPaperRadius, keep));
}

TEST(LinkBuilderTest, KeepSeesEachPairOnceInAscendingOrder) {
  const auto pts = dense_points(80, 94);
  std::vector<std::pair<NodeId, NodeId>> seen;
  Graph g;
  LinkBuilder builder;
  builder.build(pts, kPaperRadius, g, [&seen](NodeId u, NodeId v) {
    seen.emplace_back(u, v);
    return true;
  });
  for (const auto& [u, v] : seen) EXPECT_LT(u, v);
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(seen, build_udg(pts, kPaperRadius, UdgMethod::kNaive).edges());
}

TEST(LinkBuilderTest, BulkGraphInvariants) {
  Graph g;
  LinkBuilder builder;
  std::uint64_t last_version = g.version();
  for (const std::uint64_t seed : {95u, 96u, 97u}) {
    for (const int n : {0, 1, 40, 150}) {
      const auto pts = dense_points(n, seed);
      builder.build(pts, kPaperRadius, g);  // same builder and graph reused
      EXPECT_NE(g.version(), last_version) << "stale version stamp";
      last_version = g.version();
      const Graph expected = Graph::from_edges(n, g.edges());
      EXPECT_EQ(g, expected);
      EXPECT_EQ(g, build_udg(pts, kPaperRadius, UdgMethod::kNaive));
      for (NodeId v = 0; v < n; ++v) {
        const auto row = g.neighbors(v);
        EXPECT_TRUE(std::adjacent_find(row.begin(), row.end(),
                                       std::greater_equal<>()) == row.end())
            << "row " << v << " not strictly ascending";
        EXPECT_EQ(g.slice_capacity(v), expected.slice_capacity(v))
            << "slice capacity of " << v << " differs from add_edge growth";
      }
    }
  }
}

/// The message of the std::invalid_argument `fn` throws; fails the test
/// when it throws nothing.
template <typename Fn>
std::string invalid_argument_message(Fn&& fn) {
  try {
    fn();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  ADD_FAILURE() << "no std::invalid_argument";
  return "";
}

TEST(LinkBuilderTest, RejectsHostsOffTheCellGrid) {
  // floor(coord / cell) must stay inside ±2^62 so that neighbour cells
  // never overflow; a non-finite coordinate has no cell at all.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double bad : {1e21, -1e21, inf, -inf, nan}) {
    for (int axis = 0; axis < 3; ++axis) {
      std::vector<Vec2> pts{{0.0, 0.0}, {10.0, 0.0}, {20.0, 0.0}};
      (axis == 0 ? pts[2].x : axis == 1 ? pts[2].y : pts[2].z) = bad;
      const std::string what = "bad=" + std::to_string(bad) +
                               " axis=" + std::to_string(axis);
      Graph g;
      LinkBuilder builder;
      EXPECT_NE(invalid_argument_message([&] {
                  builder.build(pts, kPaperRadius, g);
                }).find("host 2"),
                std::string::npos)
          << what;
      EXPECT_NE(invalid_argument_message([&] {
                  (void)build_udg(pts, 0.0);
                }).find("host 2"),
                std::string::npos)
          << what;
      EXPECT_NE(invalid_argument_message([&] {
                  const SpatialGrid grid(pts, kPaperRadius);
                }).find("host 2"),
                std::string::npos)
          << what;
    }
  }
  // The limit is on the cell index, not the coordinate: a tiny radius
  // pushes an ordinary coordinate off the grid, a huge one brings 1e21 in.
  EXPECT_THROW((void)build_udg({{0.0, 0.0}, {1.0, 0.0}}, 1e-300),
               std::invalid_argument);
  EXPECT_EQ(build_udg({{0.0, 0.0}, {1e21, 0.0}}, 1e10).num_edges(), 0u);
  EXPECT_EQ(build_udg({{1e21, 0.0}, {1e21, 5e9}}, 1e10).num_edges(), 1u);
}

TEST(SpatialGridTest, RejectsQueriesAndMovesOffTheCellGrid) {
  std::vector<Vec2> pts{{0.0, 0.0}, {1.0, 0.0}};
  SpatialGrid grid(pts, 5.0);
  EXPECT_NE(invalid_argument_message([&] {
              (void)grid.query({1e21, 0.0}, 5.0);
            }).find("query point"),
            std::string::npos);
  const Vec2 old_pos = pts[1];
  pts[1] = {0.0, -1e21};
  EXPECT_NE(invalid_argument_message([&] {
              grid.move(1, old_pos, pts[1]);
            }).find("host 1"),
            std::string::npos);
  // The failed move left host 1 filed where it was.
  pts[1] = old_pos;
  EXPECT_EQ(grid.query({0.0, 0.0}, 5.0, 0), (std::vector<NodeId>{1}));
}

}  // namespace
}  // namespace pacds
