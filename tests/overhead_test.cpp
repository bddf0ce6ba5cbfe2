// Tests for the maintenance-overhead model.

#include "sim/overhead.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace pacds {
namespace {

OverheadConfig base_config() {
  OverheadConfig config;
  config.n_hosts = 30;
  config.intervals = 20;
  return config;
}

TEST(OverheadTest, Deterministic) {
  const MaintenanceOverhead a = measure_maintenance_overhead(base_config(), 4);
  const MaintenanceOverhead b = measure_maintenance_overhead(base_config(), 4);
  EXPECT_EQ(a.neighbor_msgs, b.neighbor_msgs);
  EXPECT_EQ(a.status_msgs, b.status_msgs);
}

TEST(OverheadTest, GlobalBaselineIsTwoNPerInterval) {
  const MaintenanceOverhead r = measure_maintenance_overhead(base_config(), 5);
  EXPECT_EQ(r.global_msgs, 2u * 30u * 20u);
  EXPECT_EQ(r.setup_msgs, 60u);
  EXPECT_EQ(r.intervals, 20u);
}

TEST(OverheadTest, StaticHostsSendNothingAfterSetup) {
  OverheadConfig config = base_config();
  config.mobility_kind = MobilityKind::kStatic;
  const MaintenanceOverhead r = measure_maintenance_overhead(config, 6);
  EXPECT_EQ(r.neighbor_msgs, 0u);
  EXPECT_EQ(r.status_msgs, 0u);
  EXPECT_DOUBLE_EQ(r.ratio(), 0.0);
}

TEST(OverheadTest, LocalizedBeatsGlobalUnderPaperMobility) {
  const MaintenanceOverhead r = measure_maintenance_overhead(base_config(), 7);
  EXPECT_GT(r.localized_total(), 0u);  // hosts do move
  EXPECT_LT(r.ratio(), 1.0);           // but far fewer messages than flooding
}

TEST(OverheadTest, SlowerMobilityFewerMessages) {
  OverheadConfig config = base_config();
  config.mobility_params.stay_probability = 0.95;  // rarely move
  const MaintenanceOverhead slow = measure_maintenance_overhead(config, 8);
  config.mobility_params.stay_probability = 0.0;  // always move
  const MaintenanceOverhead fast = measure_maintenance_overhead(config, 8);
  EXPECT_LT(slow.localized_total(), fast.localized_total());
}

TEST(OverheadTest, ZeroIntervals) {
  OverheadConfig config = base_config();
  config.intervals = 0;
  const MaintenanceOverhead r = measure_maintenance_overhead(config, 9);
  EXPECT_EQ(r.intervals, 0u);
  EXPECT_EQ(r.localized_total(), 0u);
  EXPECT_EQ(r.global_msgs, 0u);
}

TEST(OverheadTest, BadConfigThrows) {
  OverheadConfig config = base_config();
  config.n_hosts = 0;
  EXPECT_THROW((void)measure_maintenance_overhead(config, 1),
               std::invalid_argument);
  config = base_config();
  config.intervals = -1;
  EXPECT_THROW((void)measure_maintenance_overhead(config, 1),
               std::invalid_argument);
}

TEST(OverheadTest, AllRuleSetsWork) {
  for (const RuleSet rs : kAllRuleSets) {
    OverheadConfig config = base_config();
    config.rule_set = rs;
    config.intervals = 5;
    const MaintenanceOverhead r = measure_maintenance_overhead(config, 10);
    EXPECT_EQ(r.intervals, 5u) << to_string(rs);
  }
}

TEST(OverheadTest, PinnedMessagesPerMobilityModel) {
  // Exact message counts for every mobility model under both energy-keyed
  // schemes (the extension grids run only ND). Placement, mobility, the
  // link graph and the backbone all feed these numbers.
  struct Pin {
    MobilityKind mobility;
    RuleSet rule_set;
    std::size_t neighbor_msgs;
    std::size_t status_msgs;
  };
  const Pin pins[] = {
    {MobilityKind::kStatic, RuleSet::kEL1, 0, 0},
    {MobilityKind::kStatic, RuleSet::kEL2, 0, 0},
    {MobilityKind::kPaperJump, RuleSet::kEL1, 312, 97},
    {MobilityKind::kPaperJump, RuleSet::kEL2, 312, 130},
    {MobilityKind::kRandomWalk, RuleSet::kEL1, 371, 117},
    {MobilityKind::kRandomWalk, RuleSet::kEL2, 371, 142},
    {MobilityKind::kRandomWaypoint, RuleSet::kEL1, 427, 125},
    {MobilityKind::kRandomWaypoint, RuleSet::kEL2, 427, 136},
    {MobilityKind::kGaussMarkov, RuleSet::kEL1, 289, 103},
    {MobilityKind::kGaussMarkov, RuleSet::kEL2, 289, 127},
  };
  for (const Pin& pin : pins) {
    OverheadConfig config = base_config();
    config.mobility_kind = pin.mobility;
    config.rule_set = pin.rule_set;
    const MaintenanceOverhead r = measure_maintenance_overhead(config, 103);
    const std::string label =
        to_string(pin.mobility) + "/" + to_string(pin.rule_set);
    EXPECT_EQ(r.neighbor_msgs, pin.neighbor_msgs) << label;
    EXPECT_EQ(r.status_msgs, pin.status_msgs) << label;
    EXPECT_EQ(r.intervals, 20u) << label;
  }
}

}  // namespace
}  // namespace pacds
