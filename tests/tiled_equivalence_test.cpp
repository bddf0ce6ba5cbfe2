// The tiled engine must be interchangeable with the flat engines wherever it
// is eligible: bit-identical TrialResults and traces across tile counts,
// thread counts, schemes and mobility intensities — plus hand-placed tile
// edge cases (hosts exactly on tile borders, exactly 2r from a tile
// rectangle, cross-border moves) where an off-by-epsilon dirt radius or a
// stale ownership list would first diverge.

#include "sim/tiled_engine.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "net/topology.hpp"
#include "sim/engine.hpp"
#include "sim/lifetime.hpp"

namespace pacds {
namespace {

SimConfig base_config() {
  SimConfig config;
  config.n_hosts = 80;
  config.field_width = 200.0;   // radius 25 -> finest grid is 4x4, so the
  config.field_height = 200.0;  // requested tile counts 1/4/16 all differ
  config.cds_options.strategy = Strategy::kSimultaneous;
  config.initial_energy = 60.0;  // keeps trials short
  return config;
}

void expect_identical(const TrialResult& a, const TrialResult& b) {
  EXPECT_EQ(a.intervals, b.intervals);
  EXPECT_EQ(a.avg_gateways, b.avg_gateways);  // exact, not approximate
  EXPECT_EQ(a.avg_marked, b.avg_marked);
  EXPECT_EQ(a.hit_cap, b.hit_cap);
  EXPECT_EQ(a.initial_connected, b.initial_connected);
  EXPECT_EQ(a.placement_attempts, b.placement_attempts);
}

void expect_identical(const SimTrace& a, const SimTrace& b) {
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    const IntervalRecord& ra = a.records[i];
    const IntervalRecord& rb = b.records[i];
    EXPECT_EQ(ra.interval, rb.interval) << "record " << i;
    EXPECT_EQ(ra.marked, rb.marked) << "record " << i;
    EXPECT_EQ(ra.gateways, rb.gateways) << "record " << i;
    EXPECT_EQ(ra.alive, rb.alive) << "record " << i;
    EXPECT_EQ(ra.min_energy, rb.min_energy) << "record " << i;
  }
}

void expect_matches_flat(SimConfig config, std::uint64_t seed) {
  SimTrace full_trace;
  SimTrace tiled_trace;
  config.engine = SimEngine::kFullRebuild;
  const TrialResult full = run_lifetime_trial(config, seed, &full_trace);
  config.engine = SimEngine::kTiled;
  const TrialResult tiled = run_lifetime_trial(config, seed, &tiled_trace);
  expect_identical(full, tiled);
  expect_identical(full_trace, tiled_trace);
}

// ---- Whole-trial equivalence across the tile/thread/scheme matrix ----------

class TiledEquivalenceTest
    : public ::testing::TestWithParam<
          std::tuple<int, int, RuleSet, double>> {};

TEST_P(TiledEquivalenceTest, TrialAndTraceBitIdentical) {
  const auto [tiles, threads, rs, stay] = GetParam();
  SimConfig config = base_config();
  config.tiles = tiles;
  config.threads = threads;
  config.rule_set = rs;
  config.stay_probability = stay;
  expect_matches_flat(config, 17u);
}

INSTANTIATE_TEST_SUITE_P(
    TilesThreadsSchemesMobility, TiledEquivalenceTest,
    ::testing::Combine(::testing::Values(1, 4, 16), ::testing::Values(1, 8),
                       ::testing::Values(RuleSet::kID, RuleSet::kND,
                                         RuleSet::kEL1, RuleSet::kEL2,
                                         RuleSet::kSEL),
                       ::testing::Values(0.5, 0.95)),
    [](const ::testing::TestParamInfo<TiledEquivalenceTest::ParamType>&
           param_info) {
      std::string name =
          "tiles" + std::to_string(std::get<0>(param_info.param)) +
          "_threads" + std::to_string(std::get<1>(param_info.param)) + "_" +
          to_string(std::get<2>(param_info.param)) + "_stay" +
          std::to_string(
              static_cast<int>(std::get<3>(param_info.param) * 100));
      for (char& c : name) {
        if (c == '-') c = '_';  // gtest names must be alphanumeric
      }
      return name;
    });

TEST(TiledEquivalenceTest, ShadowingRadioAcrossTileCounts) {
  // The radio's per-pair veto runs inside the tiled delta extraction; the
  // pruned link set must still respect every dirt radius (fading only ever
  // shrinks range below the nominal radius).
  for (const int tiles : {1, 4, 16}) {
    SimConfig config = base_config();
    config.tiles = tiles;
    config.rule_set = RuleSet::kEL2;
    config.radio = RadioKind::kShadowing;
    config.radio_params.sigma_db = 4.0;
    config.radio_params.fading_seed = 11;
    config.connect_retries = 5;  // faded graphs may stay disconnected
    expect_matches_flat(config, 29u);
  }
}

TEST(TiledEquivalenceTest, ThreeDFieldKeepsXyTilingSound) {
  // A deep field funnels whole z-columns into single xy tiles; dirt tests
  // must stay supersets (xy distance lower-bounds 3-D distance).
  SimConfig config = base_config();
  config.field_depth = 60.0;
  config.radius = 35.0;
  config.rule_set = RuleSet::kEL2;
  config.tiles = 4;
  config.connect_retries = 20;
  expect_matches_flat(config, 37u);
}

TEST(TiledEquivalenceTest, StabilityKeyDirtiesDecayingBuckets) {
  // SEL's EWMA decays at quiet hosts, so a stability bucket can change with
  // no topology change anywhere nearby — the tiled engine's stability diff
  // dirt must catch exactly those, across tile and thread counts.
  for (const int threads : {1, 8}) {
    SimConfig config = base_config();
    config.rule_set = RuleSet::kSEL;
    config.tiles = 16;
    config.threads = threads;
    config.stability_beta = 0.5;
    config.stability_quantum = 0.25;
    config.stay_probability = 0.9;  // mostly-quiet network: decay dominates
    expect_matches_flat(config, 41u);
  }
}

TEST(TiledEquivalenceTest, AutoTileCountAndNoRulesScheme) {
  SimConfig config = base_config();
  config.tiles = 0;  // auto: finest grid the 2r side constraint allows
  config.rule_set = RuleSet::kNR;
  expect_matches_flat(config, 23u);
}

TEST(TiledEquivalenceTest, UnquantizedKeysDirtyEverythingEveryInterval) {
  // quantum = 0: every alive node's key changes every interval, so every
  // tile is dirty every interval — the tiled engine must degrade to a
  // sharded full recompute, not diverge.
  SimConfig config = base_config();
  config.rule_set = RuleSet::kEL1;
  config.n_hosts = 40;
  config.energy_key_quantum = 0.0;
  expect_matches_flat(config, 5u);
}

TEST(TiledEquivalenceTest, WideFieldCapsTheTileCount) {
  // 46341 tiles of side 2r per axis fit this field at r = 25; their
  // product once wrapped int and aborted the engine. The grid is capped at
  // 4n + 64 tiles, and the gateways stay the full rebuild's.
  SimConfig config = base_config();
  config.n_hosts = 30;
  config.radius = 25.0;
  config.field_width = 2317050.0;
  config.field_height = 2317050.0;
  config.connect_retries = 1;  // hosts this sparse never connect
  expect_matches_flat(config, 43u);

  TileGrid grid;
  grid.reset(config.field_width, config.field_height, config.radius, 0, 30);
  EXPECT_LE(grid.tile_count(), 4 * 30 + 64);
  EXPECT_GT(grid.tiles_x(), 1);  // both axes shrink: tiles, not strips
  EXPECT_GT(grid.tiles_y(), 1);
}

// ---- Tile boundary edge cases (direct engine drive) ------------------------

// Field 600x600, radius 100: tile side is exactly 2r = 200, grid 3x3 with
// interior borders at x,y in {200, 400}. All coordinates below are exactly
// representable, so distances to tile rectangles are computed without
// rounding and "exactly on the border" / "exactly 2r away" mean just that.
SimConfig halo_config(int n_hosts) {
  SimConfig config;
  config.n_hosts = n_hosts;
  config.field_width = 600.0;
  config.field_height = 600.0;
  config.radius = 100.0;
  config.cds_options.strategy = Strategy::kSimultaneous;
  config.rule_set = RuleSet::kND;
  return config;
}

void expect_engines_agree_on(const SimConfig& config,
                             const std::vector<Vec2>& initial,
                             const std::vector<std::vector<Vec2>>& steps) {
  SimConfig full_cfg = config;
  full_cfg.engine = SimEngine::kFullRebuild;
  FullRebuildEngine full(full_cfg);
  TiledEngine tiled(config);
  const std::vector<double> levels(initial.size(), 100.0);

  auto check = [&](const std::vector<Vec2>& positions, int step) {
    full.update(positions, levels);
    tiled.update(positions, levels);
    ASSERT_EQ(full.gateways(), tiled.gateways())
        << "step " << step << ": full " << full.gateways().to_string()
        << " vs tiled " << tiled.gateways().to_string();
    ASSERT_EQ(full.counts().marked, tiled.counts().marked) << "step " << step;
  };
  check(initial, -1);
  for (std::size_t s = 0; s < steps.size(); ++s) {
    check(steps[s], static_cast<int>(s));
  }
}

TEST(TiledHaloTest, HostExactlyOnTileBorder) {
  // A five-host chain straddling the x = 200 border, with one host exactly
  // on it. Every marking/rule decision crosses the border, so any
  // ownership or halo misclassification of the border host shows up as a
  // gateway diff.
  const SimConfig config = halo_config(5);
  const std::vector<Vec2> chain = {
      {100.0, 300.0}, {200.0, 300.0},  // exactly on the tile border
      {300.0, 300.0}, {400.0, 300.0}, {500.0, 300.0}};
  // Nudge the border host to either side (ownership flips), then back.
  std::vector<std::vector<Vec2>> steps(3, chain);
  steps[0][1] = {199.0, 300.0};
  steps[1][1] = {201.0, 300.0};
  expect_engines_agree_on(config, chain, steps);
}

TEST(TiledHaloTest, HostExactlyTwoRadiiFromTileRectangle) {
  // Colinear chain where the host at x = 400 sits exactly 2r = 200 from
  // tile (0,1)'s rectangle [0,200]x[200,400]: it is the farthest host whose
  // row can still matter to a decision that tile owns (the host at x = 200
  // reads its neighbor's row, which holds it). Moving the chain end flips
  // decisions across that distance, so a dirt radius short by epsilon
  // would leave a stale decision behind.
  const SimConfig config = halo_config(5);
  const std::vector<Vec2> chain = {
      {100.0, 300.0}, {200.0, 300.0}, {300.0, 300.0},
      {400.0, 300.0},  // exactly 2r from the leftmost tile's rectangle
      {500.0, 300.0}};
  // Drop the chain end in and out of range so coverage decisions flip.
  std::vector<std::vector<Vec2>> steps(2, chain);
  steps[0][4] = {599.0, 300.0};  // breaks the 400-500 link
  expect_engines_agree_on(config, chain, steps);
}

TEST(TiledHaloTest, CrossBorderMoveMidTrial) {
  // A host jumps across a tile border (ownership must follow) while a
  // second host jumps two tiles away in the same interval. Both the old
  // and new neighborhoods span borders.
  const SimConfig config = halo_config(6);
  const std::vector<Vec2> initial = {{150.0, 150.0}, {210.0, 150.0},
                                     {290.0, 150.0}, {150.0, 250.0},
                                     {450.0, 450.0}, {500.0, 450.0}};
  std::vector<std::vector<Vec2>> steps;
  auto step = initial;
  step[1] = {190.0, 150.0};  // crosses x=200 right-to-left
  steps.push_back(step);
  step[1] = {210.0, 150.0};  // and back
  step[4] = {150.0, 350.0};  // two-tile jump into the far chain's tile column
  steps.push_back(step);
  step[4] = {450.0, 450.0};
  steps.push_back(step);
  expect_engines_agree_on(config, initial, steps);
}

// ---- Selection and eligibility ---------------------------------------------

TEST(TiledSelectionTest, ForcedTiledThrowsWhenIneligible) {
  SimConfig config = base_config();
  config.engine = SimEngine::kTiled;
  config.cds_options.strategy = Strategy::kSequential;
  EXPECT_THROW(make_lifetime_engine(config), std::invalid_argument);

  config = base_config();
  config.engine = SimEngine::kTiled;
  config.cds_options.clique_policy = CliquePolicy::kElectMaxKey;
  EXPECT_FALSE(tiled_engine_eligible(config));
  EXPECT_THROW(make_lifetime_engine(config), std::invalid_argument);
}

TEST(TiledSelectionTest, TileCountIsClampedNotRejected) {
  // Requesting more tiles than the 2r side constraint allows must clamp to
  // the finest legal grid (and still be bit-identical — covered above).
  SimConfig config = base_config();
  config.tiles = 1 << 20;
  config.engine = SimEngine::kTiled;
  const TrialResult r = run_lifetime_trial(config, 3);
  EXPECT_GT(r.intervals, 0);
}

}  // namespace
}  // namespace pacds
