// Tests for the paper's lifetime simulation loop.

#include "sim/lifetime.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace pacds {
namespace {

SimConfig small_config() {
  SimConfig config;
  config.n_hosts = 20;
  config.drain_model = DrainModel::kLinearTotal;
  config.rule_set = RuleSet::kEL1;
  return config;
}

TEST(LifetimeTest, Deterministic) {
  const SimConfig config = small_config();
  const TrialResult a = run_lifetime_trial(config, 99);
  const TrialResult b = run_lifetime_trial(config, 99);
  EXPECT_EQ(a.intervals, b.intervals);
  EXPECT_DOUBLE_EQ(a.avg_gateways, b.avg_gateways);
  EXPECT_DOUBLE_EQ(a.avg_marked, b.avg_marked);
}

TEST(LifetimeTest, DifferentSeedsDiffer) {
  const SimConfig config = small_config();
  const TrialResult a = run_lifetime_trial(config, 1);
  const TrialResult b = run_lifetime_trial(config, 2);
  // Interval counts could coincide, but the full metric tuple almost never
  // does.
  EXPECT_TRUE(a.intervals != b.intervals ||
              a.avg_gateways != b.avg_gateways);
}

TEST(LifetimeTest, TerminatesWithPositiveLifetime) {
  const TrialResult r = run_lifetime_trial(small_config(), 5);
  EXPECT_GT(r.intervals, 0);
  EXPECT_FALSE(r.hit_cap);
  EXPECT_GT(r.avg_gateways, 0.0);
  EXPECT_LE(r.avg_gateways, 20.0);
  EXPECT_GE(r.avg_marked, r.avg_gateways);  // rules only shrink
}

TEST(LifetimeTest, LifetimeBoundedByEnergyBudget) {
  // With d' = 1 and per-gateway drain >= 0, nobody can survive past
  // initial_energy intervals as a permanent non-gateway; with the linear
  // model the bound is much tighter, but initial/d' is a hard sanity cap
  // only when every node is a non-gateway every interval. Check the softer
  // invariant: lifetime <= initial_energy / min_drain where min_drain is
  // the smaller of d' and the smallest per-interval gateway drain (> 0 for
  // the linear model with |G'| <= n).
  SimConfig config = small_config();
  config.initial_energy = 10.0;
  const TrialResult r = run_lifetime_trial(config, 7);
  // Gateways pay N/|G'| >= 1; non-gateways pay 1 -> everyone loses >= 1 per
  // interval, so the first death happens within 10 intervals.
  EXPECT_LE(r.intervals, 10);
  EXPECT_GT(r.intervals, 0);
}

TEST(LifetimeTest, ZeroHostsThrows) {
  SimConfig config;
  config.n_hosts = 0;
  EXPECT_THROW((void)run_lifetime_trial(config, 1), std::invalid_argument);
}

TEST(LifetimeTest, RuleChoicesWithoutACustomKeyThrow) {
  // Without a custom key the scheme's own rules run, so a Rule k or
  // simple-form request would be silently ignored.
  SimConfig config;
  config.n_hosts = 12;
  config.max_intervals = 5;
  config.use_rule_k = true;
  EXPECT_THROW((void)run_lifetime_trial(config, 1), std::invalid_argument);
  config.use_rule_k = false;
  config.custom_rule2_form = Rule2Form::kSimple;
  EXPECT_THROW((void)run_lifetime_trial(config, 1), std::invalid_argument);
  config.custom_key = KeyKind::kDegreeId;
  EXPECT_NO_THROW((void)run_lifetime_trial(config, 1));
  config.use_rule_k = true;
  EXPECT_NO_THROW((void)run_lifetime_trial(config, 1));
}

TEST(LifetimeTest, SingleHostLivesForever) {
  // One host: no gateways, drains d' = 1 per interval -> dies at
  // initial_energy intervals exactly.
  SimConfig config = small_config();
  config.n_hosts = 1;
  config.initial_energy = 25.0;
  const TrialResult r = run_lifetime_trial(config, 3);
  EXPECT_EQ(r.intervals, 25);
  EXPECT_DOUBLE_EQ(r.avg_gateways, 0.0);
}

TEST(LifetimeTest, CapStopsDegenerateRuns) {
  // Zero drain for everyone: the network never dies; the cap must fire.
  SimConfig config = small_config();
  config.drain_params.nongateway_drain = 0.0;
  config.drain_model = DrainModel::kConstantTotal;
  config.drain_params.constant_base = 0.0;
  config.max_intervals = 50;
  const TrialResult r = run_lifetime_trial(config, 11);
  EXPECT_TRUE(r.hit_cap);
  EXPECT_EQ(r.intervals, 50);
}

TEST(LifetimeTest, AllSchemesRun) {
  for (const RuleSet rs : kAllRuleSets) {
    SimConfig config = small_config();
    config.rule_set = rs;
    const TrialResult r = run_lifetime_trial(config, 13);
    EXPECT_GT(r.intervals, 0) << to_string(rs);
  }
}

TEST(LifetimeTest, AllDrainModelsRun) {
  for (const DrainModel m :
       {DrainModel::kConstantTotal, DrainModel::kLinearTotal,
        DrainModel::kQuadraticTotal}) {
    SimConfig config = small_config();
    config.drain_model = m;
    const TrialResult r = run_lifetime_trial(config, 17);
    EXPECT_GT(r.intervals, 0) << to_string(m);
  }
}

TEST(LifetimeTest, HeavierTrafficShortensLife) {
  SimConfig config = small_config();
  config.drain_model = DrainModel::kConstantTotal;
  const TrialResult light = run_lifetime_trial(config, 19);
  config.drain_model = DrainModel::kQuadraticTotal;
  const TrialResult heavy = run_lifetime_trial(config, 19);
  EXPECT_LE(heavy.intervals, light.intervals);
}

TEST(LifetimeTest, ConnectivityRetryReported) {
  // Dense config: first placement should connect.
  SimConfig config = small_config();
  config.n_hosts = 60;
  const TrialResult r = run_lifetime_trial(config, 23);
  EXPECT_TRUE(r.initial_connected);
  EXPECT_GE(r.placement_attempts, 1);
}

TEST(LifetimeTest, SparseFallbackStillRuns) {
  // Three hosts with tiny radius: usually impossible to connect; the
  // simulation must still run on the disconnected graph.
  SimConfig config = small_config();
  config.n_hosts = 3;
  config.radius = 0.5;
  config.connect_retries = 5;
  const TrialResult r = run_lifetime_trial(config, 29);
  EXPECT_GT(r.intervals, 0);
}

}  // namespace
}  // namespace pacds
