// Tests for the discrete-event packet simulator.

#include "des/packet_sim.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>

namespace pacds::des {
namespace {

PacketSimConfig small_config() {
  PacketSimConfig config;
  config.n_hosts = 25;
  config.sim_time = 120.0;
  return config;
}

/// Every field of a result, for exact whole-result comparisons.
auto fields(const PacketSimResult& r) {
  return std::make_tuple(r.injected, r.delivered, r.drops.no_route,
                         r.drops.queue_full, r.drops.route_break, r.drops.ttl,
                         r.drops.loss, r.drops.crashed, r.drops.in_flight,
                         r.latency.mean, r.hops.mean, r.max_queue,
                         r.avg_gateways, r.fault_events);
}

TEST(PacketSimTest, Deterministic) {
  const PacketSimResult a = run_packet_sim(small_config(), 11);
  const PacketSimResult b = run_packet_sim(small_config(), 11);
  EXPECT_EQ(a.injected, b.injected);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_DOUBLE_EQ(a.latency.mean, b.latency.mean);
  EXPECT_DOUBLE_EQ(a.max_queue, b.max_queue);
}

TEST(PacketSimTest, AccountingBalances) {
  const PacketSimResult r = run_packet_sim(small_config(), 12);
  EXPECT_EQ(r.injected, r.delivered + r.drops.total());
  EXPECT_GT(r.injected, 0u);
  EXPECT_GT(r.delivered, 0u);
}

TEST(PacketSimTest, DeliversMostTrafficAtLowLoad) {
  PacketSimConfig config = small_config();
  config.injection_gap = 4.0;  // very light load
  const PacketSimResult r = run_packet_sim(config, 13);
  EXPECT_GT(r.delivery_ratio(), 0.7);
  EXPECT_GE(r.latency.mean, config.tx_time);  // at least one hop of service
  EXPECT_GE(r.hops.mean, 1.0);
}

TEST(PacketSimTest, LatencyGrowsWithLoad) {
  PacketSimConfig light = small_config();
  light.injection_gap = 4.0;
  PacketSimConfig heavy = small_config();
  heavy.injection_gap = 0.2;
  const PacketSimResult a = run_packet_sim(light, 14);
  const PacketSimResult b = run_packet_sim(heavy, 14);
  EXPECT_GT(b.latency.mean, a.latency.mean);
  EXPECT_GE(b.max_queue, a.max_queue);
}

TEST(PacketSimTest, TinyQueuesDropMore) {
  PacketSimConfig roomy = small_config();
  roomy.injection_gap = 0.2;
  roomy.queue_capacity = 64;
  PacketSimConfig cramped = roomy;
  cramped.queue_capacity = 1;
  const PacketSimResult a = run_packet_sim(roomy, 15);
  const PacketSimResult b = run_packet_sim(cramped, 15);
  EXPECT_GT(b.drops.queue_full, a.drops.queue_full);
}

TEST(PacketSimTest, FrozenNetworkNeverBreaksRoutes) {
  PacketSimConfig config = small_config();
  config.stay_probability = 1.0;  // nobody moves
  const PacketSimResult r = run_packet_sim(config, 16);
  EXPECT_EQ(r.drops.route_break, 0u);
  EXPECT_EQ(r.drops.no_route, 0u);  // started connected, stays connected
}

TEST(PacketSimTest, MobilityCausesBreakage) {
  PacketSimConfig config = small_config();
  config.sim_time = 300.0;
  config.update_interval = 10.0;
  const PacketSimResult r = run_packet_sim(config, 17);
  // Some breakage or routing failure is expected over 30 refreshes.
  EXPECT_GT(r.drops.route_break + r.drops.no_route, 0u);
}

TEST(PacketSimTest, AllSchemesRun) {
  for (const RuleSet rs : kAllRuleSets) {
    PacketSimConfig config = small_config();
    config.sim_time = 60.0;
    config.rule_set = rs;
    const PacketSimResult r = run_packet_sim(config, 18);
    EXPECT_GT(r.delivered, 0u) << to_string(rs);
    EXPECT_GT(r.avg_gateways, 0.0) << to_string(rs);
  }
}

TEST(PacketSimTest, BadConfigThrows) {
  PacketSimConfig config = small_config();
  config.n_hosts = 1;
  EXPECT_THROW((void)run_packet_sim(config, 1), std::invalid_argument);
  config = small_config();
  config.injection_gap = 0.0;
  EXPECT_THROW((void)run_packet_sim(config, 1), std::invalid_argument);
  config = small_config();
  config.sim_time = -1.0;
  EXPECT_THROW((void)run_packet_sim(config, 1), std::invalid_argument);
}

TEST(PacketSimTest, LossyRadioDropsAndRetransmits) {
  PacketSimConfig reliable = small_config();
  PacketSimConfig lossy = small_config();
  lossy.loss_probability = 0.3;
  lossy.max_retries = 1;
  const PacketSimResult a = run_packet_sim(reliable, 21);
  const PacketSimResult b = run_packet_sim(lossy, 21);
  EXPECT_EQ(a.drops.loss, 0u);
  EXPECT_GT(b.drops.loss, 0u);
  EXPECT_LT(b.delivery_ratio(), a.delivery_ratio());
  EXPECT_EQ(b.injected, b.delivered + b.drops.total());
}

TEST(PacketSimTest, RetriesRecoverFromModerateLoss) {
  PacketSimConfig fragile = small_config();
  fragile.loss_probability = 0.2;
  fragile.max_retries = 0;
  PacketSimConfig persistent = fragile;
  persistent.max_retries = 6;
  const PacketSimResult a = run_packet_sim(fragile, 22);
  const PacketSimResult b = run_packet_sim(persistent, 22);
  EXPECT_GT(b.delivery_ratio(), a.delivery_ratio());
  EXPECT_LT(b.drops.loss, a.drops.loss);
}

TEST(PacketSimTest, TtlCapsPathLength) {
  PacketSimConfig config = small_config();
  config.max_hops = 1;  // nothing beyond one hop survives
  const PacketSimResult r = run_packet_sim(config, 19);
  EXPECT_GT(r.drops.ttl, 0u);
  // Delivered packets are exactly the single-hop ones.
  if (r.delivered > 0) {
    EXPECT_DOUBLE_EQ(r.hops.max, 1.0);
  }
}

TEST(PacketSimTest, PinnedLossyResultsPerStrategy) {
  // Exact results of lossy runs under every strategy (the extension grids
  // run only the default sequential one, loss-free). Placement, mobility,
  // the backbone and the injection/loss draw order all feed these numbers.
  struct Pin {
    RuleSet rule_set;
    Strategy strategy;
    std::size_t injected;
    std::size_t delivered;
    std::size_t loss;
    std::size_t route_break;
    std::size_t no_route;
    double latency_mean;
    double max_queue;
    double avg_gateways;
  };
  const Pin pins[] = {
    {RuleSet::kNR, Strategy::kSequential, 240, 213, 0, 11, 7,
     4.6056338028169046, 3, 19.833333333333332},
    {RuleSet::kID, Strategy::kSequential, 240, 189, 0, 18, 31,
     7.8915343915343907, 12, 12.5},
    {RuleSet::kND, Strategy::kSequential, 240, 160, 1, 15, 52,
     5.0093749999999995, 7, 11.5},
    {RuleSet::kEL1, Strategy::kSequential, 240, 137, 0, 17, 86,
     4.5985401459854023, 7, 9.8333333333333339},
    {RuleSet::kEL2, Strategy::kSequential, 240, 160, 1, 15, 52,
     5.0093749999999995, 7, 11.5},
    {RuleSet::kNR, Strategy::kSimultaneous, 240, 213, 0, 11, 7,
     4.6056338028169046, 3, 19.833333333333332},
    {RuleSet::kID, Strategy::kSimultaneous, 240, 189, 0, 18, 31,
     7.8915343915343907, 12, 12.5},
    {RuleSet::kND, Strategy::kSimultaneous, 240, 147, 0, 16, 68,
     5.646258503401361, 8, 10},
    {RuleSet::kEL1, Strategy::kSimultaneous, 240, 147, 0, 16, 68,
     5.646258503401361, 8, 10},
    {RuleSet::kEL2, Strategy::kSimultaneous, 240, 147, 0, 16, 68,
     5.646258503401361, 8, 10},
    {RuleSet::kNR, Strategy::kVerified, 240, 213, 0, 11, 7, 4.6056338028169046,
     3, 19.833333333333332},
    {RuleSet::kID, Strategy::kVerified, 240, 189, 0, 18, 31, 7.8915343915343907,
     12, 12.5},
    {RuleSet::kND, Strategy::kVerified, 240, 160, 1, 15, 52, 5.0093749999999995,
     7, 11.5},
    {RuleSet::kEL1, Strategy::kVerified, 240, 137, 0, 17, 86,
     4.5985401459854023, 7, 9.8333333333333339},
    {RuleSet::kEL2, Strategy::kVerified, 240, 160, 1, 15, 52,
     5.0093749999999995, 7, 11.5},
  };
  for (const Pin& pin : pins) {
    PacketSimConfig config = small_config();
    config.loss_probability = 0.1;
    config.rule_set = pin.rule_set;
    config.cds_options.strategy = pin.strategy;
    const PacketSimResult r = run_packet_sim(config, 102);
    const std::string label =
        to_string(pin.rule_set) + "/" + to_string(pin.strategy);
    EXPECT_EQ(r.injected, pin.injected) << label;
    EXPECT_EQ(r.delivered, pin.delivered) << label;
    EXPECT_EQ(r.drops.loss, pin.loss) << label;
    EXPECT_EQ(r.drops.route_break, pin.route_break) << label;
    EXPECT_EQ(r.drops.no_route, pin.no_route) << label;
    EXPECT_DOUBLE_EQ(r.latency.mean, pin.latency_mean) << label;
    EXPECT_DOUBLE_EQ(r.max_queue, pin.max_queue) << label;
    EXPECT_DOUBLE_EQ(r.avg_gateways, pin.avg_gateways) << label;
    EXPECT_EQ(r.injected, r.delivered + r.drops.total()) << label;
  }
}

TEST(PacketSimTest, DefaultsMatchTheExtensionGrids) {
  // perfbench's extension_loops golden digest and bench/extension_latency
  // run on these defaults; the ones that differ from SimConfig's come from
  // PacketSimConfig's constructor.
  const PacketSimConfig config;
  EXPECT_EQ(config.n_hosts, 40);
  EXPECT_EQ(config.rule_set, RuleSet::kND);
  EXPECT_DOUBLE_EQ(config.initial_energy, 100.0);
  EXPECT_DOUBLE_EQ(config.sim_time, 400.0);
  EXPECT_DOUBLE_EQ(config.update_interval, 20.0);
  EXPECT_DOUBLE_EQ(config.injection_gap, 0.5);
  EXPECT_EQ(config.mobility_kind, MobilityKind::kPaperJump);
  EXPECT_EQ(config.cds_options.strategy, Strategy::kSequential);
  EXPECT_EQ(config.faults, nullptr);
}

TEST(PacketSimTest, EventFreePlanIsTheIdentity) {
  // FAULTS.md invariant 1: channel rates reach only the dist protocol, so a
  // plan without lifetime events leaves the run untouched.
  FaultPlan plan;
  plan.channel.drop = 0.2;
  PacketSimConfig config = small_config();
  const PacketSimResult plain = run_packet_sim(config, 31);
  config.faults = &plan;
  EXPECT_EQ(fields(run_packet_sim(config, 31)), fields(plain));
}

TEST(PacketSimTest, CrashesAndBlackoutDropPacketsAsCrashed) {
  FaultPlan plan;
  plan.crashes.push_back({3, 2, 5});  // down for backbone builds 2-4
  plan.crashes.push_back({7, 1, 0});  // down for good
  plan.blackouts.push_back({0.0, 0.0, 50.0, 50.0, 3, 6});
  PacketSimConfig config = small_config();
  const PacketSimResult clean = run_packet_sim(config, 32);
  config.faults = &plan;
  const PacketSimResult faulted = run_packet_sim(config, 32);
  EXPECT_GT(faulted.drops.crashed, 0u);
  // Two crashes and a recovery, plus the blackout's members going down and
  // coming back.
  EXPECT_GT(faulted.fault_events, 3u);
  EXPECT_EQ(faulted.injected, faulted.delivered + faulted.drops.total());
  // Exact values, as the DES gave them when it still rebuilt the backbone
  // itself from the parked positions: down hosts must stay off the graph.
  EXPECT_EQ(faulted.delivered, 90u);
  EXPECT_EQ(faulted.drops.crashed, 72u);
  EXPECT_EQ(faulted.drops.no_route, 72u);
  EXPECT_EQ(faulted.fault_events, 13u);
  EXPECT_DOUBLE_EQ(faulted.avg_gateways, 9.5);
  // The plan draws no randomness: its run injects exactly the packets of
  // its fault-free twin.
  EXPECT_EQ(faulted.injected, clean.injected);
  EXPECT_EQ(clean.drops.crashed, 0u);
  EXPECT_EQ(clean.fault_events, 0u);
}

TEST(PacketSimTest, TheftOfTheWholeBatteryTakesTheHostDown) {
  // The theft battery starts at initial_energy and nothing else drains it.
  FaultPlan plan;
  plan.thefts.push_back({4, 1, 60.0});
  PacketSimConfig config = small_config();
  config.faults = &plan;
  config.initial_energy = 60.0;
  const PacketSimResult killed = run_packet_sim(config, 33);
  EXPECT_EQ(killed.fault_events, 2u);  // the theft and the death it causes
  EXPECT_GT(killed.drops.crashed, 0u);  // host 4 stops sourcing and sinking
  EXPECT_EQ(killed.injected, killed.delivered + killed.drops.total());
  config.initial_energy = 61.0;
  const PacketSimResult robbed = run_packet_sim(config, 33);
  EXPECT_EQ(robbed.fault_events, 1u);  // the theft alone
  EXPECT_EQ(robbed.drops.crashed, 0u);
}

TEST(PacketSimTest, ReadsTheSimConfigAxes) {
  // Gauss-Markov mobility, a shadowing radio, a 3-D field, SEL keys and the
  // simultaneous strategy (which auto runs on the incremental engine).
  const std::pair<const char*, std::function<void(PacketSimConfig&)>>
      axes[] = {
          {"gauss-markov",
           [](PacketSimConfig& c) {
             c.mobility_kind = MobilityKind::kGaussMarkov;
           }},
          {"shadowing",
           [](PacketSimConfig& c) { c.radio = RadioKind::kShadowing; }},
          {"depth", [](PacketSimConfig& c) { c.field_depth = 40.0; }},
          {"SEL", [](PacketSimConfig& c) { c.rule_set = RuleSet::kSEL; }},
          {"simultaneous",
           [](PacketSimConfig& c) {
             c.cds_options.strategy = Strategy::kSimultaneous;
           }},
      };
  PacketSimConfig pack = small_config();
  for (const auto& [name, set] : axes) set(pack);
  const PacketSimResult r = run_packet_sim(pack, 34);
  EXPECT_EQ(fields(run_packet_sim(pack, 34)), fields(r));
  EXPECT_EQ(r.injected, r.delivered + r.drops.total());
  EXPECT_GT(r.delivered, 0u);
  // Each axis alone moves the result off the default paper-jump run, so
  // none of them is dropped on the way to the placement or the engine.
  const auto plain = fields(run_packet_sim(small_config(), 34));
  EXPECT_NE(fields(r), plain);
  for (const auto& [name, set] : axes) {
    PacketSimConfig config = small_config();
    set(config);
    EXPECT_NE(fields(run_packet_sim(config, 34)), plain) << name;
  }
}

}  // namespace
}  // namespace pacds::des
