// Tests for the traffic-driven lifetime simulation.

#include "sim/traffic_sim.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>

namespace pacds {
namespace {

TrafficSimConfig small_config() {
  TrafficSimConfig config;
  config.n_hosts = 20;
  config.flows_per_interval = 10;
  config.initial_energy = 100.0;
  return config;
}

/// Every field of a result, for exact whole-result comparisons.
auto fields(const TrafficSimResult& r) {
  return std::make_tuple(r.intervals, r.avg_gateways, r.delivery_ratio,
                         r.flows_attempted, r.flows_delivered,
                         r.energy_stddev_at_death, r.hit_cap);
}

TEST(TrafficSimTest, Deterministic) {
  const TrafficSimConfig config = small_config();
  const TrafficSimResult a = run_traffic_trial(config, 42);
  const TrafficSimResult b = run_traffic_trial(config, 42);
  EXPECT_EQ(a.intervals, b.intervals);
  EXPECT_EQ(a.flows_delivered, b.flows_delivered);
  EXPECT_DOUBLE_EQ(a.energy_stddev_at_death, b.energy_stddev_at_death);
}

TEST(TrafficSimTest, TerminatesWithReasonableMetrics) {
  const TrafficSimResult r = run_traffic_trial(small_config(), 7);
  EXPECT_GT(r.intervals, 0);
  EXPECT_FALSE(r.hit_cap);
  EXPECT_GT(r.flows_attempted, 0u);
  EXPECT_GE(r.flows_attempted, r.flows_delivered);
  // The placement starts connected but roaming fragments it over the run
  // (~100 intervals, no connectivity maintenance), so only a loose floor
  // holds.
  EXPECT_GT(r.delivery_ratio, 0.2);
  EXPECT_LE(r.delivery_ratio, 1.0);
  EXPECT_GT(r.avg_gateways, 0.0);
}

TEST(TrafficSimTest, TooFewHostsThrows) {
  TrafficSimConfig config = small_config();
  config.n_hosts = 1;
  EXPECT_THROW((void)run_traffic_trial(config, 1), std::invalid_argument);
  config.n_hosts = 20;
  config.flows_per_interval = -1;
  EXPECT_THROW((void)run_traffic_trial(config, 1), std::invalid_argument);
}

TEST(TrafficSimTest, MoreTrafficDiesFaster) {
  TrafficSimConfig config = small_config();
  config.flows_per_interval = 2;
  const TrafficSimResult light = run_traffic_trial(config, 11);
  config.flows_per_interval = 40;
  const TrafficSimResult heavy = run_traffic_trial(config, 11);
  EXPECT_LT(heavy.intervals, light.intervals);
}

TEST(TrafficSimTest, ZeroFlowsOnlyUpkeep) {
  TrafficSimConfig config = small_config();
  config.flows_per_interval = 0;
  config.costs.idle = 1.0;
  config.costs.beacon = 0.0;
  config.initial_energy = 30.0;
  const TrafficSimResult r = run_traffic_trial(config, 13);
  EXPECT_EQ(r.intervals, 30);  // pure idle drain: everyone dies together
  EXPECT_EQ(r.flows_attempted, 0u);
  EXPECT_DOUBLE_EQ(r.delivery_ratio, 1.0);  // vacuous
}

TEST(TrafficSimTest, AllSchemesRun) {
  for (const RuleSet rs : kAllRuleSets) {
    TrafficSimConfig config = small_config();
    config.rule_set = rs;
    const TrafficSimResult r = run_traffic_trial(config, 17);
    EXPECT_GT(r.intervals, 0) << to_string(rs);
  }
}

TEST(TrafficSimTest, ChurnReducesDelivery) {
  TrafficSimConfig config = small_config();
  config.initial_energy = 500.0;
  const TrafficSimResult stable = run_traffic_trial(config, 19);
  config.churn.off_probability = 0.3;
  config.churn.on_probability = 0.3;
  const TrafficSimResult churny = run_traffic_trial(config, 19);
  // Heavy churn fragments the topology: delivery suffers.
  EXPECT_LT(churny.delivery_ratio, stable.delivery_ratio);
}

TEST(TrafficSimTest, CapStopsEternalRuns) {
  TrafficSimConfig config = small_config();
  config.costs = EnergyCosts{0.0, 0.0, 0.0, 0.0};
  config.max_intervals = 25;
  const TrafficSimResult r = run_traffic_trial(config, 23);
  EXPECT_TRUE(r.hit_cap);
  EXPECT_EQ(r.intervals, 25);
}

TEST(TrafficSimTest, EnergyAwareBalancesBetter) {
  // The energy-keyed scheme should leave a tighter battery spread at death
  // than the static ID keys (averaged over a few seeds to damp noise).
  double id_spread = 0.0;
  double el_spread = 0.0;
  for (std::uint64_t seed = 30; seed < 40; ++seed) {
    TrafficSimConfig config = small_config();
    config.rule_set = RuleSet::kID;
    id_spread += run_traffic_trial(config, seed).energy_stddev_at_death;
    config.rule_set = RuleSet::kEL1;
    el_spread += run_traffic_trial(config, seed).energy_stddev_at_death;
  }
  EXPECT_LT(el_spread, id_spread * 1.15);  // never dramatically worse
}

TEST(TrafficSimTest, PinnedChurnResultsPerStrategy) {
  // Exact results of churned runs under the two strategies the extension
  // grids never run (they use the default sequential one). Placement,
  // mobility, parking, the backbone and the flow/churn draw order all feed
  // these numbers, so any drift in one of them fails here.
  struct Pin {
    RuleSet rule_set;
    Strategy strategy;
    long intervals;
    std::size_t attempted;
    std::size_t delivered;
    double avg_gateways;
    double energy_stddev;
  };
  const Pin pins[] = {
    {RuleSet::kNR, Strategy::kSimultaneous, 33, 330, 167, 7.0606060606060606,
     24.593643868894272},
    {RuleSet::kID, Strategy::kSimultaneous, 38, 380, 178, 5.5,
     24.145228695334424},
    {RuleSet::kND, Strategy::kSimultaneous, 33, 330, 167, 5.7272727272727275,
     24.737887313794623},
    {RuleSet::kEL1, Strategy::kSimultaneous, 38, 380, 175, 5.3947368421052628,
     23.791354916229572},
    {RuleSet::kEL2, Strategy::kSimultaneous, 38, 380, 175, 5.3947368421052628,
     23.791354916229572},
    {RuleSet::kNR, Strategy::kVerified, 33, 330, 167, 7.0606060606060606,
     24.593643868894272},
    {RuleSet::kID, Strategy::kVerified, 38, 380, 178, 5.5, 24.145228695334424},
    {RuleSet::kND, Strategy::kVerified, 33, 330, 167, 5.7272727272727275,
     24.737887313794623},
    {RuleSet::kEL1, Strategy::kVerified, 38, 380, 178, 5.4473684210526319,
     24.095496856259281},
    {RuleSet::kEL2, Strategy::kVerified, 38, 380, 178, 5.4473684210526319,
     24.095496856259281},
  };
  for (const Pin& pin : pins) {
    TrafficSimConfig config = small_config();
    config.churn = ChurnModel{0.1, 0.25};
    config.rule_set = pin.rule_set;
    config.cds_options.strategy = pin.strategy;
    const TrafficSimResult r = run_traffic_trial(config, 101);
    const std::string label =
        to_string(pin.rule_set) + "/" + to_string(pin.strategy);
    EXPECT_EQ(r.intervals, pin.intervals) << label;
    EXPECT_EQ(r.flows_attempted, pin.attempted) << label;
    EXPECT_EQ(r.flows_delivered, pin.delivered) << label;
    EXPECT_DOUBLE_EQ(r.avg_gateways, pin.avg_gateways) << label;
    EXPECT_DOUBLE_EQ(r.energy_stddev_at_death, pin.energy_stddev) << label;
    EXPECT_FALSE(r.hit_cap) << label;
  }
}

TEST(TrafficSimTest, DefaultsMatchTheExtensionGrids) {
  // perfbench's extension_loops golden digest and bench/extension_traffic
  // run on these defaults; the ones that differ from SimConfig's come from
  // TrafficSimConfig's constructor.
  const TrafficSimConfig config;
  EXPECT_DOUBLE_EQ(config.initial_energy, 200.0);
  EXPECT_EQ(config.max_intervals, 100000);
  EXPECT_EQ(config.n_hosts, 50);
  EXPECT_EQ(config.rule_set, RuleSet::kEL1);
  EXPECT_EQ(config.flows_per_interval, 20);
  EXPECT_EQ(config.mobility_kind, MobilityKind::kPaperJump);
  EXPECT_EQ(config.cds_options.strategy, Strategy::kSequential);
  EXPECT_DOUBLE_EQ(config.churn.off_probability, 0.0);
}

TEST(TrafficSimTest, ReadsTheSimConfigAxes) {
  // Gauss-Markov mobility, a shadowing radio, a 3-D field, SEL keys and the
  // simultaneous strategy (which auto runs on the incremental engine), with
  // churn so parked hosts come and go.
  const std::pair<const char*, std::function<void(TrafficSimConfig&)>>
      axes[] = {
          {"gauss-markov",
           [](TrafficSimConfig& c) {
             c.mobility_kind = MobilityKind::kGaussMarkov;
           }},
          {"shadowing",
           [](TrafficSimConfig& c) { c.radio = RadioKind::kShadowing; }},
          {"depth", [](TrafficSimConfig& c) { c.field_depth = 40.0; }},
          {"SEL", [](TrafficSimConfig& c) { c.rule_set = RuleSet::kSEL; }},
          {"simultaneous",
           [](TrafficSimConfig& c) {
             c.cds_options.strategy = Strategy::kSimultaneous;
           }},
      };
  TrafficSimConfig base = small_config();
  base.churn = ChurnModel{0.1, 0.25};
  TrafficSimConfig pack = base;
  for (const auto& [name, set] : axes) set(pack);
  const TrafficSimResult r = run_traffic_trial(pack, 35);
  EXPECT_EQ(fields(run_traffic_trial(pack, 35)), fields(r));
  EXPECT_GT(r.flows_attempted, 0u);
  EXPECT_LE(r.flows_delivered, r.flows_attempted);
  // Each axis alone moves the result off the default paper-jump run, so
  // none of them is dropped on the way to the placement or the engine.
  const auto plain = fields(run_traffic_trial(base, 35));
  EXPECT_NE(fields(r), plain);
  for (const auto& [name, set] : axes) {
    TrafficSimConfig config = base;
    set(config);
    EXPECT_NE(fields(run_traffic_trial(config, 35)), plain) << name;
  }
}

}  // namespace
}  // namespace pacds
