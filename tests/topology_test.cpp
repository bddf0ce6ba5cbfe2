// Tests for random placement and the retry-until-connected generator.

#include "net/topology.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace pacds {
namespace {

TEST(TopologyTest, PlacementInsideField) {
  Xoshiro256 rng(1);
  const Field field = Field::paper_field();
  const auto pts = random_placement(200, field, rng);
  EXPECT_EQ(pts.size(), 200u);
  for (const Vec2 p : pts) EXPECT_TRUE(field.contains(p));
}

TEST(TopologyTest, PlacementZeroHosts) {
  Xoshiro256 rng(1);
  EXPECT_TRUE(random_placement(0, Field::paper_field(), rng).empty());
}

TEST(TopologyTest, PlacementNegativeThrows) {
  Xoshiro256 rng(1);
  EXPECT_THROW((void)random_placement(-1, Field::paper_field(), rng),
               std::invalid_argument);
}

TEST(TopologyTest, PlacementDeterministic) {
  const Field field = Field::paper_field();
  Xoshiro256 a(42);
  Xoshiro256 b(42);
  EXPECT_EQ(random_placement(10, field, a), random_placement(10, field, b));
}

TEST(TopologyTest, ConnectedPlacementIsConnected) {
  Xoshiro256 rng(7);
  const auto placed = random_connected_placement(40, Field::paper_field(),
                                                 kPaperRadius, rng, 1000);
  ASSERT_TRUE(placed.has_value());
  EXPECT_TRUE(placed->graph.is_connected());
  EXPECT_EQ(placed->positions.size(), 40u);
  EXPECT_GE(placed->attempts, 1);
  // Graph matches a rebuild from the returned positions.
  EXPECT_EQ(placed->graph, build_udg(placed->positions, kPaperRadius));
}

TEST(TopologyTest, DenseNetworkConnectsFirstTry) {
  Xoshiro256 rng(8);
  // Radius >= field diagonal: always one clique.
  const auto placed = random_connected_placement(10, Field::paper_field(),
                                                 200.0, rng, 3);
  ASSERT_TRUE(placed.has_value());
  EXPECT_EQ(placed->attempts, 1);
  EXPECT_TRUE(placed->graph.is_complete());
}

TEST(TopologyTest, ImpossibleConnectivityReturnsNullopt) {
  Xoshiro256 rng(9);
  // Radius 0 with several hosts: essentially never connected.
  const auto placed = random_connected_placement(5, Field::paper_field(),
                                                 0.0, rng, 10);
  EXPECT_FALSE(placed.has_value());
}

TEST(TopologyTest, SingleHostAlwaysConnected) {
  Xoshiro256 rng(10);
  const auto placed = random_connected_placement(1, Field::paper_field(),
                                                 0.0, rng, 1);
  ASSERT_TRUE(placed.has_value());
  EXPECT_TRUE(placed->graph.is_connected());
}

TEST(TopologyTest, PinnedAttemptsAndPositions) {
  // Attempts and positions depend only on the RNG draws, never on how an
  // attempt builds or tests its graph. n = 5-15 is where most attempts
  // are spent: here up to 389 of them.
  struct Pin {
    int n;
    std::uint64_t seed;
    int attempts;
    Vec2 first;
    Vec2 last;
    std::size_t edges;
  };
  const Pin pins[] = {
      {5, 1u, 7, {62.007694997055005, 68.959062454857118},
       {51.593963019786656, 91.867324808983824}, 8},
      {5, 2u, 262, {34.57507816113803, 29.866268696908538},
       {0.96968921115974105, 58.319257347289621}, 5},
      {5, 3u, 11, {44.953778267169483, 52.688266335216717},
       {63.228499871397069, 56.063735231262669}, 4},
      {5, 4u, 26, {13.13432325536602, 21.072174272759781},
       {54.117798561676011, 33.865706523721563}, 5},
      {10, 1u, 11, {45.57008821404601, 63.269894384159876},
       {78.199626398663696, 95.646473860950806}, 15},
      {10, 2u, 11, {67.194226334117545, 22.686095496605752},
       {36.845173028430523, 45.627185131002221}, 12},
      {10, 3u, 380, {79.913880693296491, 70.092574985558528},
       {39.025874410104464, 21.192412080655664}, 12},
      {10, 4u, 389, {38.996653401300073, 17.785481977875961},
       {52.897736365860538, 10.961409181788762}, 14},
      {15, 1u, 247, {24.006232889966771, 54.902802044717717},
       {16.144865517889563, 99.442202274363822}, 19},
      {15, 2u, 2, {42.869734277864445, 33.976707042931665},
       {68.221061027173889, 21.74422388693964}, 16},
      {15, 3u, 9, {52.269348270908466, 44.585621136143196},
       {72.149130038965495, 11.641559748705166}, 23},
      {15, 4u, 62, {68.774789116865108, 80.419237649379028},
       {74.983267903679462, 24.946203135604815}, 18},
  };
  for (const Pin& pin : pins) {
    Xoshiro256 rng(pin.seed);
    const auto placed = random_connected_placement(
        pin.n, Field::paper_field(), kPaperRadius, rng, 500);
    ASSERT_TRUE(placed.has_value()) << "n=" << pin.n << " seed=" << pin.seed;
    EXPECT_EQ(placed->attempts, pin.attempts)
        << "n=" << pin.n << " seed=" << pin.seed;
    ASSERT_EQ(placed->positions.size(), static_cast<std::size_t>(pin.n));
    EXPECT_EQ(placed->positions.front(), pin.first)
        << "n=" << pin.n << " seed=" << pin.seed;
    EXPECT_EQ(placed->positions.back(), pin.last)
        << "n=" << pin.n << " seed=" << pin.seed;
    EXPECT_EQ(placed->graph.num_edges(), pin.edges)
        << "n=" << pin.n << " seed=" << pin.seed;
    EXPECT_EQ(placed->graph, build_udg(placed->positions, kPaperRadius,
                                       UdgMethod::kNaive));
  }
  // Running out of retries consumes every attempt's draws (n = 10, seed 3
  // needs 380 attempts, so 10 fail).
  Xoshiro256 rng(3);
  EXPECT_FALSE(random_connected_placement(10, Field::paper_field(),
                                          kPaperRadius, rng, 10)
                   .has_value());
  EXPECT_EQ(rng.uniform01(), 0.090855146692889965);
}

TEST(TopologyTest, BadRetriesThrows) {
  Xoshiro256 rng(11);
  EXPECT_THROW((void)random_connected_placement(5, Field::paper_field(), 25.0,
                                                rng, 0),
               std::invalid_argument);
}

}  // namespace
}  // namespace pacds
