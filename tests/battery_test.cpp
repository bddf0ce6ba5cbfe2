// Tests for BatteryBank: drain semantics, death detection, clamping.

#include "energy/battery.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace pacds {
namespace {

TEST(BatteryTest, InitialState) {
  const BatteryBank bank(4, 100.0);
  EXPECT_EQ(bank.size(), 4u);
  EXPECT_DOUBLE_EQ(bank.initial_level(), 100.0);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(bank.level(i), 100.0);
    EXPECT_TRUE(bank.alive(i));
  }
  EXPECT_EQ(bank.alive_count(), 4u);
  EXPECT_FALSE(bank.any_dead());
  EXPECT_DOUBLE_EQ(bank.min_level(), 100.0);
}

TEST(BatteryTest, NonPositiveInitialThrows) {
  EXPECT_THROW(BatteryBank(2, 0.0), std::invalid_argument);
  EXPECT_THROW(BatteryBank(2, -5.0), std::invalid_argument);
}

TEST(BatteryTest, DrainReduces) {
  BatteryBank bank(2, 10.0);
  EXPECT_FALSE(bank.drain(0, 3.0));
  EXPECT_DOUBLE_EQ(bank.level(0), 7.0);
  EXPECT_DOUBLE_EQ(bank.level(1), 10.0);
}

TEST(BatteryTest, DrainToExactlyZeroKills) {
  BatteryBank bank(2, 10.0);
  EXPECT_TRUE(bank.drain(0, 10.0));
  EXPECT_DOUBLE_EQ(bank.level(0), 0.0);
  EXPECT_FALSE(bank.alive(0));
  EXPECT_TRUE(bank.any_dead());
  EXPECT_EQ(bank.alive_count(), 1u);
  EXPECT_DOUBLE_EQ(bank.min_level(), 0.0);
}

TEST(BatteryTest, OverdrainClampsAtZero) {
  BatteryBank bank(1, 5.0);
  EXPECT_TRUE(bank.drain(0, 100.0));
  EXPECT_DOUBLE_EQ(bank.level(0), 0.0);
}

TEST(BatteryTest, DrainDeadHostIsNoop) {
  BatteryBank bank(1, 5.0);
  bank.drain(0, 5.0);
  EXPECT_FALSE(bank.drain(0, 1.0));  // does not "kill" again
  EXPECT_EQ(bank.alive_count(), 0u);
}

TEST(BatteryTest, ZeroDrainKeepsAlive) {
  BatteryBank bank(1, 5.0);
  EXPECT_FALSE(bank.drain(0, 0.0));
  EXPECT_TRUE(bank.alive(0));
}

TEST(BatteryTest, NegativeDrainThrows) {
  BatteryBank bank(1, 5.0);
  EXPECT_THROW(bank.drain(0, -1.0), std::invalid_argument);
}

TEST(BatteryTest, OutOfRangeThrows) {
  BatteryBank bank(2, 5.0);
  EXPECT_THROW((void)bank.level(2), std::out_of_range);
  EXPECT_THROW(bank.drain(2, 1.0), std::out_of_range);
}

TEST(BatteryTest, LevelsVectorMirrorsState) {
  BatteryBank bank(3, 5.0);
  bank.drain(1, 2.0);
  EXPECT_EQ(bank.levels(), (std::vector<double>{5.0, 3.0, 5.0}));
}

TEST(BatteryTest, MinLevelTracksLowest) {
  BatteryBank bank(3, 10.0);
  bank.drain(0, 4.0);
  bank.drain(1, 7.0);
  EXPECT_DOUBLE_EQ(bank.min_level(), 3.0);
}

}  // namespace
}  // namespace pacds
