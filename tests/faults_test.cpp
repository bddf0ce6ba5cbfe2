// Fault-injection subsystem: plan parsing/validation, the injector's down
// tracking, degraded-mode trial semantics, and the acceptance invariants of
// the fault layer —
//   1. an empty plan is the identity: bit-identical trials for both engines;
//   2. a seeded plan is deterministic: serial and pooled runs emit identical
//      fault_event/interval streams modulo *_ns timings, and the two engines
//      agree on everything but repair cost;
//   3. self-healing: killing a non-articulation gateway leaves the surviving
//      backbone connected and dominating within one repair round.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "baselines/cds22.hpp"
#include "core/articulation.hpp"
#include "core/bitset.hpp"
#include "core/cds.hpp"
#include "core/graph.hpp"
#include "energy/battery.hpp"
#include "io/json.hpp"
#include "io/json_parse.hpp"
#include "net/rng.hpp"
#include "net/space.hpp"
#include "net/topology.hpp"
#include "net/vec2.hpp"
#include "obs/jsonl.hpp"
#include "sim/faults.hpp"
#include "sim/lifetime.hpp"
#include "sim/montecarlo.hpp"
#include "sim/threadpool.hpp"
#include "sim/trace.hpp"

namespace pacds {
namespace {

// ---- plan parsing ----------------------------------------------------------

TEST(FaultPlanTest, EmptyObjectIsIdentityPlan) {
  const FaultPlan plan = parse_fault_plan("{}");
  EXPECT_TRUE(plan.empty());
  EXPECT_FALSE(plan.has_lifetime_events());
  EXPECT_EQ(plan.seed, 0u);
  EXPECT_EQ(plan.retry.max_attempts, 12);
  EXPECT_EQ(plan.retry.backoff_base, 1);
  EXPECT_EQ(plan.retry.backoff_cap, 8);
  EXPECT_FALSE(plan.channel.any());
}

// See PlanStructSizesArePinnedToTheWireFormat below.
constexpr std::size_t kExpectedCrashSpecSize = 24;
constexpr std::size_t kExpectedTheftSpecSize = 24;
constexpr std::size_t kExpectedBlackoutSpecSize = 48;
constexpr std::size_t kExpectedChannelFaultConfigSize = 24;
constexpr std::size_t kExpectedRetryPolicySize = 12;
constexpr std::size_t kExpectedFaultPlanSize = 120;

std::string plan_json(const FaultPlan& plan, unsigned indent = 0) {
  std::ostringstream text;
  JsonWriter json(text, indent);
  write_fault_plan(json, plan);
  return text.str();
}

/// Every member of every section away from its default (values chosen to
/// print and parse exactly).
FaultPlan full_plan() {
  FaultPlan plan;
  plan.seed = 42;
  plan.crashes = {{3, 2, 7}, {5, 4, 0}};
  plan.thefts = {{1, 3, 25.5}};
  plan.blackouts = {{10.25, 10.5, 40.75, 41.0, 6, 9}};
  plan.channel.drop = 0.25;
  plan.channel.duplicate = 0.05;
  plan.channel.delay = 0.1;
  plan.retry.max_attempts = 6;
  plan.retry.backoff_base = 2;
  plan.retry.backoff_cap = 16;
  return plan;
}

/// EXPECTs equality of every FaultPlan member, entry by entry. Update
/// together with the plan's wire format when a spec grows.
void expect_plan_eq(const FaultPlan& a, const FaultPlan& b) {
  EXPECT_EQ(a.seed, b.seed);
  ASSERT_EQ(a.crashes.size(), b.crashes.size());
  for (std::size_t i = 0; i < a.crashes.size(); ++i) {
    EXPECT_EQ(a.crashes[i].node, b.crashes[i].node) << i;
    EXPECT_EQ(a.crashes[i].at, b.crashes[i].at) << i;
    EXPECT_EQ(a.crashes[i].recover_at, b.crashes[i].recover_at) << i;
  }
  ASSERT_EQ(a.thefts.size(), b.thefts.size());
  for (std::size_t i = 0; i < a.thefts.size(); ++i) {
    EXPECT_EQ(a.thefts[i].node, b.thefts[i].node) << i;
    EXPECT_EQ(a.thefts[i].at, b.thefts[i].at) << i;
    EXPECT_EQ(a.thefts[i].amount, b.thefts[i].amount) << i;
  }
  ASSERT_EQ(a.blackouts.size(), b.blackouts.size());
  for (std::size_t i = 0; i < a.blackouts.size(); ++i) {
    EXPECT_EQ(a.blackouts[i].x0, b.blackouts[i].x0) << i;
    EXPECT_EQ(a.blackouts[i].y0, b.blackouts[i].y0) << i;
    EXPECT_EQ(a.blackouts[i].x1, b.blackouts[i].x1) << i;
    EXPECT_EQ(a.blackouts[i].y1, b.blackouts[i].y1) << i;
    EXPECT_EQ(a.blackouts[i].at, b.blackouts[i].at) << i;
    EXPECT_EQ(a.blackouts[i].until, b.blackouts[i].until) << i;
  }
  EXPECT_EQ(a.channel.drop, b.channel.drop);
  EXPECT_EQ(a.channel.duplicate, b.channel.duplicate);
  EXPECT_EQ(a.channel.delay, b.channel.delay);
  EXPECT_EQ(a.retry.max_attempts, b.retry.max_attempts);
  EXPECT_EQ(a.retry.backoff_base, b.retry.backoff_base);
  EXPECT_EQ(a.retry.backoff_cap, b.retry.backoff_cap);
}

TEST(FaultPlanTest, FullPlanRoundTripsThroughWriter) {
  const FaultPlan plan = full_plan();
  const std::string wire = plan_json(plan, 2);
  const FaultPlan back = parse_fault_plan(wire);
  expect_plan_eq(back, plan);
  // Byte stability: nothing is normalized or defaulted on the way back.
  EXPECT_EQ(plan_json(back, 2), wire);
}

// The exact wire bytes: key order, key spelling and number formatting.
// `pacds faults --json`, run manifests, serve digests and corpus files all
// carry these bytes, so any drift here is a format change.
TEST(FaultPlanTest, WireBytesArePinned) {
  EXPECT_EQ(plan_json(FaultPlan{}),
            R"({"seed":0,"crashes":[],"thefts":[],"blackouts":[],)"
            R"("channel":{"drop":0,"duplicate":0,"delay":0,)"
            R"("max_attempts":12,"backoff_base":1,"backoff_cap":8}})");
  EXPECT_EQ(plan_json(full_plan()),
            R"({"seed":42,"crashes":[{"node":3,"at":2,"recover_at":7},)"
            R"({"node":5,"at":4,"recover_at":0}],)"
            R"("thefts":[{"node":1,"at":3,"amount":25.5}],)"
            R"("blackouts":[{"x0":10.25,"y0":10.5,"x1":40.75,"y1":41,)"
            R"("at":6,"until":9}],"channel":{"drop":0.25,"duplicate":0.05,)"
            R"("delay":0.1,"max_attempts":6,"backoff_base":2,)"
            R"("backoff_cap":16}})");
}

// Tripwire: if this fails, a plan struct gained (or lost) a member. Add it
// to the plan's wire format, full_plan() and expect_plan_eq() above, then
// update the expected size.
TEST(FaultPlanTest, PlanStructSizesArePinnedToTheWireFormat) {
  EXPECT_EQ(sizeof(CrashSpec), kExpectedCrashSpecSize);
  EXPECT_EQ(sizeof(TheftSpec), kExpectedTheftSpecSize);
  EXPECT_EQ(sizeof(BlackoutSpec), kExpectedBlackoutSpecSize);
  EXPECT_EQ(sizeof(dist::ChannelFaultConfig), kExpectedChannelFaultConfigSize);
  EXPECT_EQ(sizeof(dist::RetryPolicy), kExpectedRetryPolicySize);
  EXPECT_EQ(sizeof(FaultPlan), kExpectedFaultPlanSize);
}

// A plan file's errors name the file, schema errors as well as parse ones.
TEST(FaultPlanTest, LoadPrefixesErrorsWithThePath) {
  const std::string path = ::testing::TempDir() + "/pacds_plan_bad_at.json";
  {
    std::ofstream file(path);
    file << R"({"crashes": [{"node": 1, "at": 0}]})";
  }
  try {
    (void)load_fault_plan(path);
    ADD_FAILURE() << "accepted a crash at interval 0";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()).rfind(path + ": fault plan: crashes[0].at",
                                          0),
              0u)
        << e.what();
  }
  std::remove(path.c_str());
}

TEST(FaultPlanTest, RejectsMalformedPlans) {
  // Unknown keys fail loudly so typos cannot silently disable faults.
  EXPECT_THROW((void)parse_fault_plan(R"({"crashs": []})"), std::runtime_error);
  EXPECT_THROW((void)parse_fault_plan(R"({"crashes": [{"node": 1}]})"),
               std::runtime_error);  // missing "at"
  EXPECT_THROW(
      (void)parse_fault_plan(R"({"crashes": [{"node": 1, "at": 0}]})"),
      std::runtime_error);  // intervals are 1-based
  EXPECT_THROW(
      (void)parse_fault_plan(
          R"({"crashes": [{"node": 1, "at": 5, "recover_at": 5}]})"),
      std::runtime_error);  // recovery must be after the crash
  EXPECT_THROW(
      (void)parse_fault_plan(
          R"({"thefts": [{"node": 1, "at": 2, "amount": 0}]})"),
      std::runtime_error);  // thefts steal a positive amount
  EXPECT_THROW((void)parse_fault_plan(R"({"channel": {"drop": 1.0}})"),
               std::runtime_error);  // rates live in [0, 1)
  EXPECT_THROW(
      (void)parse_fault_plan(
          R"({"channel": {"backoff_base": 4, "backoff_cap": 2}})"),
      std::runtime_error);
  EXPECT_THROW(
      (void)parse_fault_plan(
          R"({"blackouts": [{"x0": 5, "y0": 0, "x1": 1, "y1": 9, "at": 1}]})"),
      std::runtime_error);  // inverted region
  EXPECT_THROW((void)parse_fault_plan("[]"), std::runtime_error);
}

std::string parse_error_of(const std::string& text) {
  try {
    (void)parse_fault_plan(text);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  ADD_FAILURE() << "accepted: " << text;
  return "";
}

// JsonWriter writes a non-finite number as null, so a plan that accepted
// one would write back out as a plan that no longer parses.
TEST(FaultPlanTest, RejectsNonFiniteNumbers) {
  EXPECT_EQ(parse_error_of(R"({"thefts": [{"node": 1, "at": 2, )"
                           R"("amount": 1e400}]})"),
            "fault plan: thefts[0].amount must be finite");
  EXPECT_EQ(parse_error_of(R"({"blackouts": [{"x0": -1e400, "y0": 0, )"
                           R"("x1": 5, "y1": 5, "at": 1}]})"),
            "fault plan: blackouts[0].x0 must be finite");
  EXPECT_EQ(parse_error_of(R"({"blackouts": [{"x0": 0, "y0": 0, "x1": 5, )"
                           R"("y1": 1e400, "at": 1}]})"),
            "fault plan: blackouts[0].y1 must be finite");
}

// Seeds ride the wire as doubles. Past 2^53 - 1 an integer either is not
// exact or shares its double with a neighbour, and past 2^64 the cast to
// std::uint64_t is undefined, so the seed would change silently.
TEST(FaultPlanTest, SeedMustBeAnExactInteger) {
  EXPECT_EQ(parse_fault_plan(R"({"seed": 9007199254740991})").seed,
            9007199254740991u);
  for (const char* seed : {"1e300", "18446744073709551616",
                           "9007199254740993", "9007199254740992", "-1",
                           "1.5"}) {
    EXPECT_EQ(parse_error_of(std::string(R"({"seed": )") + seed + "}"),
              "fault plan: seed must be an integer in [0, 9007199254740991]")
        << seed;
  }
}

TEST(FaultPlanTest, ValidateChecksNodeRange) {
  FaultPlan plan;
  plan.crashes = {{9, 1, 0}};
  EXPECT_NO_THROW(validate_fault_plan(plan, 10));
  EXPECT_THROW(validate_fault_plan(plan, 9), std::invalid_argument);
  plan.crashes.clear();
  plan.thefts = {{-1, 1, 5.0}};
  EXPECT_THROW(validate_fault_plan(plan, 10), std::invalid_argument);
}

// validate_fault_plan holds a plan built in code to the parser's range
// rules, with the parser's wording.
TEST(FaultPlanTest, ValidateAppliesTheParserRangeRules) {
  const auto error_of = [](const FaultPlan& plan) -> std::string {
    try {
      validate_fault_plan(plan, 10);
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "";
  };
  FaultPlan plan;
  plan.crashes = {{1, 5, 5}};
  EXPECT_EQ(error_of(plan),
            "fault plan: crashes[0].recover_at must be 0 or > at");
  plan.crashes = {{1, 0, 0}};
  EXPECT_EQ(error_of(plan), "fault plan: crashes[0].at must be >= 1");
  plan.crashes.clear();
  plan.blackouts = {{5, 0, 1, 9, 1, 0}};
  EXPECT_EQ(error_of(plan),
            "fault plan: blackouts[0]: x1/y1 must not be below x0/y0");
  plan.blackouts.clear();
  plan.channel.delay = 1.0;
  EXPECT_EQ(error_of(plan), "fault plan: channel.delay must be in [0, 1)");
  plan.channel.delay = 0.0;
  plan.retry.backoff_cap = 0;
  EXPECT_EQ(error_of(plan),
            "fault plan: channel.backoff_cap must be >= channel.backoff_base");
}

TEST(FaultPlanTest, ValidateAppliesTheChannelRuleToRetryCounts) {
  // A parsed plan meets max_attempts >= 1 through its field list; one built
  // in code is held to it by the channel rule run_faulty_protocol applies.
  FaultPlan plan;
  plan.retry.max_attempts = 0;
  try {
    validate_fault_plan(plan, 10);
    ADD_FAILURE() << "max_attempts = 0 accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "fault plan: channel.max_attempts must be >= 1");
  }
}

TEST(FaultPlanTest, ScheduleSortsByIntervalStably) {
  FaultPlan plan;
  plan.crashes = {{0, 5, 8}, {1, 2, 0}};
  plan.thefts = {{2, 5, 10.0}};
  plan.blackouts = {{0, 0, 10, 10, 2, 5}};
  const std::vector<ScheduledFault> schedule = resolve_schedule(plan);
  ASSERT_EQ(schedule.size(), 6u);
  // Interval 2: crash(node 1) before blackout entry; interval 5: crash
  // before theft before blackout exit; interval 8: the recovery.
  EXPECT_EQ(schedule[0].interval, 2);
  EXPECT_EQ(schedule[0].node, 1);
  EXPECT_EQ(schedule[1].interval, 2);
  EXPECT_EQ(schedule[1].blackout, 0);
  EXPECT_EQ(schedule[2].interval, 5);
  EXPECT_EQ(schedule[2].kind, FaultKind::kCrash);
  EXPECT_EQ(schedule[3].kind, FaultKind::kTheft);
  EXPECT_EQ(schedule[4].kind, FaultKind::kRecover);
  EXPECT_EQ(schedule[4].cause, FaultCause::kBlackout);
  EXPECT_EQ(schedule[5].interval, 8);
  EXPECT_EQ(schedule[5].kind, FaultKind::kRecover);
}

// ---- injector --------------------------------------------------------------

TEST(FaultInjectorTest, CrashRecoverTheftAndDeath) {
  FaultPlan plan;
  plan.crashes = {{0, 2, 4}};
  plan.thefts = {{1, 3, 150.0}};  // overkill: must kill host 1
  FaultInjector injector(plan, 4, 100.0, 25.0);
  BatteryBank batteries(4, 100.0);
  const std::vector<Vec2> positions(4, Vec2{50.0, 50.0});
  std::vector<FaultRecord> events;

  injector.apply(1, positions, batteries, events);
  EXPECT_TRUE(events.empty());
  EXPECT_FALSE(injector.take_down_changed());

  injector.apply(2, positions, batteries, events);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, FaultKind::kCrash);
  EXPECT_EQ(events[0].node, 0);
  EXPECT_EQ(events[0].down, 1u);
  EXPECT_TRUE(injector.take_down_changed());
  EXPECT_FALSE(injector.take_down_changed());  // flag is one-shot
  EXPECT_TRUE(injector.down().test(0));

  events.clear();
  injector.apply(3, positions, batteries, events);
  // Theft drains host 1 to zero: one theft record plus one death record.
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, FaultKind::kTheft);
  EXPECT_DOUBLE_EQ(events[0].amount, 150.0);
  EXPECT_EQ(events[1].kind, FaultKind::kDeath);
  EXPECT_EQ(events[1].cause, FaultCause::kBattery);
  EXPECT_DOUBLE_EQ(batteries.levels()[1], 0.0);
  EXPECT_EQ(injector.down_count(), 2u);

  events.clear();
  injector.apply(4, positions, batteries, events);
  // Host 0 recovers; the dead host 1 stays down forever.
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, FaultKind::kRecover);
  EXPECT_FALSE(injector.down().test(0));
  EXPECT_TRUE(injector.down().test(1));
  EXPECT_EQ(injector.down_count(), 1u);
}

TEST(FaultInjectorTest, DeadHostsDoNotRecover) {
  FaultPlan plan;
  plan.crashes = {{0, 2, 5}};
  FaultInjector injector(plan, 2, 100.0, 25.0);
  BatteryBank batteries(2, 100.0);
  const std::vector<Vec2> positions(2, Vec2{1.0, 1.0});
  std::vector<FaultRecord> events;
  injector.apply(2, positions, batteries, events);
  // The crashed host's battery dies while it is down.
  injector.record_death(0, 3, events);
  events.clear();
  injector.record_death(0, 3, events);  // idempotent
  injector.apply(5, positions, batteries, events);
  EXPECT_TRUE(events.empty());  // no recover record: death is permanent
  EXPECT_TRUE(injector.down().test(0));
  EXPECT_EQ(injector.down_count(), 1u);
}

TEST(FaultInjectorTest, BlackoutCapturesAtEntryAndReleasesSameHosts) {
  FaultPlan plan;
  plan.blackouts = {{0.0, 0.0, 10.0, 10.0, 2, 4}};
  FaultInjector injector(plan, 3, 100.0, 25.0);
  BatteryBank batteries(3, 100.0);
  std::vector<Vec2> positions = {{5.0, 5.0}, {8.0, 2.0}, {50.0, 50.0}};
  std::vector<FaultRecord> events;

  injector.apply(2, positions, batteries, events);
  ASSERT_EQ(events.size(), 2u);  // hosts 0 and 1 are inside the region
  EXPECT_EQ(events[0].cause, FaultCause::kBlackout);
  EXPECT_EQ(injector.down_count(), 2u);

  // Membership was resolved at entry: moving host 0 out of the region does
  // not change who is released at exit.
  positions[0] = {90.0, 90.0};
  events.clear();
  injector.apply(4, positions, batteries, events);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, FaultKind::kRecover);
  EXPECT_EQ(events[1].kind, FaultKind::kRecover);
  EXPECT_EQ(injector.down_count(), 0u);
}

TEST(FaultInjectorTest, ParkedPositionsAreIsolated) {
  FaultPlan plan;
  plan.crashes = {{0, 1, 0}, {1, 1, 0}};
  const double radius = 25.0;
  FaultInjector injector(plan, 3, 100.0, radius);
  BatteryBank batteries(3, 100.0);
  const std::vector<Vec2> positions(3, Vec2{50.0, 50.0});
  std::vector<FaultRecord> events;
  injector.apply(1, positions, batteries, events);

  const std::vector<Vec2>& effective = injector.effective_positions(positions);
  ASSERT_EQ(effective.size(), 3u);
  EXPECT_EQ(effective[2], positions[2]);  // functioning host untouched
  // Parked hosts sit beyond the field and > radius from everything.
  for (const std::size_t host : {std::size_t{0}, std::size_t{1}}) {
    EXPECT_GT(effective[host].x, 100.0 + radius);
    EXPECT_GT(distance2(effective[host], effective[2]), radius * radius);
  }
  EXPECT_GT(distance2(effective[0], effective[1]), radius * radius);
}

TEST(FaultInjectorTest, EffectivePositionsIsPassThroughWhenNobodyIsDown) {
  const FaultPlan plan;
  FaultInjector injector(plan, 2, 100.0, 25.0);
  const std::vector<Vec2> positions(2, Vec2{1.0, 2.0});
  EXPECT_EQ(&injector.effective_positions(positions), &positions);
}

// ---- backbone health -------------------------------------------------------

TEST(AssessBackboneTest, ReportsCoverageAndConnectivity) {
  // Path 0-1-2-3-4 with gateways {1, 2, 3}: a valid CDS.
  Graph g(5);
  for (NodeId v = 0; v + 1 < 5; ++v) g.add_edge(v, v + 1);
  DynBitset gateways(5);
  gateways.set(1);
  gateways.set(2);
  gateways.set(3);
  DynBitset down(5);
  DynBitset scratch(5);

  BackboneHealth health = assess_backbone(g, gateways, down, scratch);
  EXPECT_TRUE(health.backbone_ok);
  EXPECT_DOUBLE_EQ(health.coverage, 1.0);
  EXPECT_EQ(health.active, 5u);
  EXPECT_EQ(health.active_gateways, 3u);
  EXPECT_TRUE(scratch.test(1));

  // Losing gateway 2 splits the backbone ({1} and {3} are not connected in
  // g) but leaves every active host dominated.
  down.set(2);
  health = assess_backbone(g, gateways, down, scratch);
  EXPECT_FALSE(scratch.test(2));  // scratch holds the active gateway set
  EXPECT_FALSE(health.backbone_ok);
  EXPECT_EQ(health.active, 4u);
  EXPECT_EQ(health.active_gateways, 2u);
  EXPECT_DOUBLE_EQ(health.coverage, 1.0);  // 0,1 via 1; 3,4 via 3

  // Losing gateways 1 and 3 instead leaves hosts 0 and 4 uncovered.
  down = DynBitset(5);
  down.set(1);
  down.set(3);
  health = assess_backbone(g, gateways, down, scratch);
  EXPECT_EQ(health.active_gateways, 1u);
  EXPECT_DOUBLE_EQ(health.coverage, 1.0 / 3.0);  // only 2 of {0, 2, 4}
}

// ---- degraded-mode trials --------------------------------------------------

SimConfig faulted_config(SimEngine engine) {
  SimConfig config;
  config.n_hosts = 24;
  config.cds_options.strategy = Strategy::kSimultaneous;
  config.engine = engine;
  config.max_intervals = 400;
  return config;
}

FaultPlan sample_plan() {
  FaultPlan plan;
  plan.crashes = {{3, 2, 6}, {7, 4, 0}};
  plan.thefts = {{1, 3, 30.0}};
  plan.blackouts = {{0.0, 0.0, 30.0, 30.0, 8, 12}};
  return plan;
}

void expect_same_trial(const TrialResult& a, const TrialResult& b) {
  EXPECT_EQ(a.intervals, b.intervals);
  EXPECT_DOUBLE_EQ(a.avg_gateways, b.avg_gateways);
  EXPECT_DOUBLE_EQ(a.avg_marked, b.avg_marked);
  EXPECT_EQ(a.hit_cap, b.hit_cap);
  EXPECT_EQ(a.initial_connected, b.initial_connected);
  EXPECT_EQ(a.placement_attempts, b.placement_attempts);
}

TEST(DegradedModeTest, EmptyPlanIsBitIdenticalToFaultFreeRun) {
  // Pinned acceptance invariant: a null-equivalent plan must take the exact
  // fault-free code path — same TrialResult, same trace, both engines.
  const FaultPlan empty;
  ASSERT_TRUE(empty.empty());
  for (const SimEngine engine :
       {SimEngine::kFullRebuild, SimEngine::kIncremental}) {
    const SimConfig config = faulted_config(engine);
    for (const std::uint64_t seed : {7u, 21u, 99u}) {
      SimTrace base_trace;
      SimTrace plan_trace;
      const TrialResult base = run_lifetime_trial(config, seed, &base_trace);
      const TrialResult with_plan =
          run_lifetime_trial(config, seed, &plan_trace, &empty);
      expect_same_trial(base, with_plan);
      EXPECT_EQ(with_plan.faults, FaultStats{});
      EXPECT_TRUE(plan_trace.fault_records.empty());
      ASSERT_EQ(base_trace.records.size(), plan_trace.records.size());
      for (std::size_t i = 0; i < base_trace.records.size(); ++i) {
        EXPECT_EQ(base_trace.records[i].gateways,
                  plan_trace.records[i].gateways);
        EXPECT_EQ(base_trace.records[i].marked, plan_trace.records[i].marked);
        EXPECT_EQ(base_trace.records[i].alive, plan_trace.records[i].alive);
        EXPECT_DOUBLE_EQ(base_trace.records[i].min_energy,
                         plan_trace.records[i].min_energy);
      }
    }
  }
}

TEST(DegradedModeTest, FaultedRunSharesPlacementWithFaultFreeTwin) {
  // The plan consumes no randomness: interval 1 (before any event applies)
  // must look identical to the fault-free twin of the same seed.
  const SimConfig config = faulted_config(SimEngine::kAuto);
  const FaultPlan plan = sample_plan();
  SimTrace faulted;
  SimTrace clean;
  (void)run_lifetime_trial(config, 33, &faulted, &plan);
  (void)run_lifetime_trial(config, 33, &clean);
  ASSERT_FALSE(faulted.records.empty());
  ASSERT_FALSE(clean.records.empty());
  EXPECT_EQ(faulted.records[0].gateways, clean.records[0].gateways);
  EXPECT_EQ(faulted.records[0].marked, clean.records[0].marked);
}

TEST(DegradedModeTest, EnginesAgreeOnFaultedRuns) {
  // Both engines must tell the same degraded-mode story; only the repair
  // cost fields (touched, ns) may differ — localized repair is the point.
  const FaultPlan plan = sample_plan();
  for (const std::uint64_t seed : {5u, 17u, 40u}) {
    SimTrace full_trace;
    SimTrace incr_trace;
    const TrialResult full = run_lifetime_trial(
        faulted_config(SimEngine::kFullRebuild), seed, &full_trace, &plan);
    const TrialResult incr = run_lifetime_trial(
        faulted_config(SimEngine::kIncremental), seed, &incr_trace, &plan);
    expect_same_trial(full, incr);

    FaultStats a = full.faults;
    FaultStats b = incr.faults;
    a.repair_ns_total = b.repair_ns_total = 0;
    a.repair_touched_total = b.repair_touched_total = 0;
    EXPECT_EQ(a, b);

    ASSERT_EQ(full_trace.fault_records.size(), incr_trace.fault_records.size());
    for (std::size_t i = 0; i < full_trace.fault_records.size(); ++i) {
      const FaultRecord& fr = full_trace.fault_records[i];
      const FaultRecord& ir = incr_trace.fault_records[i];
      EXPECT_EQ(fr.interval, ir.interval);
      EXPECT_EQ(fr.kind, ir.kind);
      EXPECT_EQ(fr.cause, ir.cause);
      EXPECT_EQ(fr.node, ir.node);
      EXPECT_EQ(fr.down, ir.down);
      EXPECT_EQ(fr.backbone_ok, ir.backbone_ok);
      EXPECT_DOUBLE_EQ(fr.coverage, ir.coverage);
      EXPECT_EQ(fr.gateways, ir.gateways);
    }
  }
}

TEST(DegradedModeTest, SerialAndPooledStreamsMatchModuloTimings) {
  // Acceptance invariant: with a seeded plan, serial vs. threaded runs emit
  // identical fault_event/interval streams modulo the *_ns fields.
  const SimConfig config = faulted_config(SimEngine::kAuto);
  const FaultPlan plan = sample_plan();

  std::ostringstream serial_out;
  obs::JsonlSink serial_sink(serial_out);
  (void)run_lifetime_trials(config, 3, 19, nullptr, &serial_sink, &plan);

  std::ostringstream pooled_out;
  obs::JsonlSink pooled_sink(pooled_out);
  ThreadPool pool(3);
  (void)run_lifetime_trials(config, 3, 19, &pool, &pooled_sink, &plan);

  EXPECT_EQ(serial_sink.records(), pooled_sink.records());
  std::istringstream serial_lines(serial_out.str());
  std::istringstream pooled_lines(pooled_out.str());
  std::string serial_line;
  std::string pooled_line;
  const auto is_timing = [](const std::string& key) {
    return key.size() > 3 && key.compare(key.size() - 3, 3, "_ns") == 0;
  };
  bool saw_fault_event = false;
  std::size_t line_number = 0;
  while (std::getline(serial_lines, serial_line)) {
    ASSERT_TRUE(static_cast<bool>(std::getline(pooled_lines, pooled_line)));
    ++line_number;
    const JsonValue serial_doc = parse_json(serial_line);
    const JsonValue pooled_doc = parse_json(pooled_line);
    const JsonObject& a = serial_doc.as_object();
    const JsonObject& b = pooled_doc.as_object();
    ASSERT_EQ(a.size(), b.size()) << "line " << line_number;
    const JsonValue* type = serial_doc.find("type");
    ASSERT_NE(type, nullptr) << "line " << line_number;
    if (type->as_string() == "fault_event") saw_fault_event = true;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].first, b[i].first) << "line " << line_number;
      if (is_timing(a[i].first)) continue;  // wall-clock: value may differ
      if (a[i].second.is_number()) {
        EXPECT_EQ(a[i].second.as_number(), b[i].second.as_number())
            << "line " << line_number << " key " << a[i].first;
      } else if (a[i].second.is_string()) {
        EXPECT_EQ(a[i].second.as_string(), b[i].second.as_string())
            << "line " << line_number << " key " << a[i].first;
      } else if (a[i].second.is_bool()) {
        EXPECT_EQ(a[i].second.as_bool(), b[i].second.as_bool())
            << "line " << line_number << " key " << a[i].first;
      } else {
        EXPECT_EQ(a[i].second.is_null(), b[i].second.is_null())
            << "line " << line_number << " key " << a[i].first;
      }
    }
  }
  EXPECT_FALSE(static_cast<bool>(std::getline(pooled_lines, pooled_line)));
  EXPECT_TRUE(saw_fault_event);
}

TEST(DegradedModeTest, ManifestEmbedsThePlan) {
  const SimConfig config = faulted_config(SimEngine::kAuto);
  const FaultPlan plan = sample_plan();
  std::ostringstream out;
  obs::JsonlSink sink(out);
  (void)run_lifetime_trials(config, 1, 3, nullptr, &sink, &plan);
  std::istringstream lines(out.str());
  std::string line;
  ASSERT_TRUE(static_cast<bool>(std::getline(lines, line)));
  const JsonValue manifest = parse_json(line);
  ASSERT_NE(manifest.find("type"), nullptr);
  EXPECT_EQ(manifest.find("type")->as_string(), "run_manifest");
  const JsonValue* faults = manifest.find("faults");
  ASSERT_NE(faults, nullptr);
  ASSERT_TRUE(faults->is_object());
  EXPECT_EQ(faults->find("crashes")->as_array().size(), 2u);

  // Fault-free runs pin the key to null (additive-schema guarantee).
  std::ostringstream clean_out;
  obs::JsonlSink clean_sink(clean_out);
  (void)run_lifetime_trials(config, 1, 3, nullptr, &clean_sink);
  std::istringstream clean_lines(clean_out.str());
  ASSERT_TRUE(static_cast<bool>(std::getline(clean_lines, line)));
  const JsonValue clean_manifest = parse_json(line);
  ASSERT_NE(clean_manifest.find("faults"), nullptr);
  EXPECT_TRUE(clean_manifest.find("faults")->is_null());
}

TEST(DegradedModeTest, RunContinuesPastFirstDeathAndCountsIt) {
  const SimConfig config = faulted_config(SimEngine::kAuto);
  const FaultPlan plan = sample_plan();
  SimTrace trace;
  const TrialResult faulted = run_lifetime_trial(config, 11, &trace, &plan);
  const TrialResult clean = run_lifetime_trial(config, 11);
  EXPECT_GT(faulted.intervals, clean.intervals);  // the degraded run goes on
  EXPECT_GT(faulted.faults.deaths, 0u);
  EXPECT_GT(faulted.faults.first_death_interval, 0);
  EXPECT_GT(faulted.faults.repairs, 0u);
  EXPECT_GT(faulted.faults.events, 0u);
  const auto crashes = static_cast<std::size_t>(std::count_if(
      trace.fault_records.begin(), trace.fault_records.end(),
      [](const FaultRecord& r) { return r.kind == FaultKind::kCrash; }));
  EXPECT_EQ(faulted.faults.crashes, crashes);
}

TEST(DegradedModeTest, DeathInFirstIntervalIsNotTheNoDeathSentinel) {
  // Regression: with the old 0-means-no-death sentinel, a death recorded at
  // interval 1 was only representable because intervals are 1-based — but
  // any code treating 0/"falsy" as "no death yet" could overwrite it with a
  // later death. The sentinel is -1 now; interval 1 is a real value.
  const SimConfig config = faulted_config(SimEngine::kAuto);
  FaultPlan plan;
  // A theft at interval 1 larger than the initial budget kills immediately.
  plan.thefts = {{0, 1, config.initial_energy + 1.0}};
  SimTrace trace;
  const TrialResult faulted = run_lifetime_trial(config, 11, &trace, &plan);
  EXPECT_EQ(faulted.faults.first_death_interval, 1);
  EXPECT_GE(faulted.faults.deaths, 1u);
  ASSERT_FALSE(trace.fault_records.empty());
  const auto first_death = std::find_if(
      trace.fault_records.begin(), trace.fault_records.end(),
      [](const FaultRecord& r) { return r.kind == FaultKind::kDeath; });
  ASSERT_NE(first_death, trace.fault_records.end());
  EXPECT_EQ(first_death->interval, 1);

  // And the no-death case reports -1, not 0: crash-only plan, short run.
  FaultPlan crash_only;
  crash_only.crashes = {{0, 1, 0}};
  SimConfig short_config = config;
  short_config.max_intervals = 3;
  const TrialResult no_death =
      run_lifetime_trial(short_config, 11, nullptr, &crash_only);
  EXPECT_EQ(no_death.faults.deaths, 0u);
  EXPECT_EQ(no_death.faults.first_death_interval, -1);
}

// ---- self-healing ----------------------------------------------------------

TEST(SelfHealingTest, NonArticulationGatewayCrashHealsInOneRepairRound) {
  // Killing a gateway that is not an articulation point of the link graph
  // must leave the surviving backbone connected and dominating within one
  // repair round. The verified strategy guarantees a valid CDS on every
  // graph, so the interval-2 repair record carries the whole assertion.
  int tested = 0;
  for (std::uint64_t seed = 1; seed <= 24 && tested < 3; ++seed) {
    SimConfig config;
    config.n_hosts = 30;
    config.mobility_kind = MobilityKind::kStatic;
    config.cds_options.strategy = Strategy::kVerified;
    config.max_intervals = 10;

    // Reproduce the trial's placement (the seed's first RNG consumer) to
    // pick the victim: a gateway of the initial backbone that is not an
    // articulation point of the initial graph.
    Xoshiro256 rng(seed);
    const Field field(config.field_width, config.field_height,
                      config.boundary);
    const auto placed = random_connected_placement(
        config.n_hosts, field, config.radius, rng, config.connect_retries);
    if (!placed) continue;
    const Graph& g = placed->graph;
    if (g.is_complete()) continue;
    const std::vector<double> uniform(
        static_cast<std::size_t>(config.n_hosts), 100.0);
    const CdsResult cds =
        compute_cds(g, config.rule_set, uniform, config.cds_options);
    const DynBitset cuts = articulation_points(g);
    int victim = -1;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      const auto vi = static_cast<std::size_t>(v);
      if (cds.gateways.test(vi) && !cuts.test(vi)) {
        victim = static_cast<int>(v);
        break;
      }
    }
    if (victim < 0) continue;

    FaultPlan plan;
    plan.crashes = {{victim, 2, 0}};
    SimTrace trace;
    (void)run_lifetime_trial(config, seed, &trace, &plan);

    const FaultRecord* repair = nullptr;
    for (const FaultRecord& record : trace.fault_records) {
      if (record.kind == FaultKind::kRepair && record.interval == 2) {
        repair = &record;
      }
    }
    ASSERT_NE(repair, nullptr) << "seed " << seed;
    EXPECT_TRUE(repair->backbone_ok) << "seed " << seed;
    EXPECT_DOUBLE_EQ(repair->coverage, 1.0) << "seed " << seed;
    EXPECT_GT(repair->gateways, 0u) << "seed " << seed;
    EXPECT_LE(repair->touched, static_cast<std::size_t>(config.n_hosts))
        << "seed " << seed;
    EXPECT_EQ(repair->down, 1u) << "seed " << seed;
    ++tested;
  }
  ASSERT_GE(tested, 3) << "not enough usable seeds";
}

TEST(SelfHealingTest, Cds22BackboneSurvivesAnySingleCrashWithoutRepair) {
  // The (2,2)-connected backbone is crash-proof by construction: when
  // greedy_cds22 achieves the full (2,2) property, removing any single
  // member leaves a set that still dominates and connects the survivors.
  // The engine keeps its cached backbone through the crash, so the trial
  // charges zero repair rounds and the backbone stays healthy the whole
  // run — unlike the per-interval scheme, which recomputes.
  int tested = 0;
  for (std::uint64_t seed = 1; seed <= 24 && tested < 1; ++seed) {
    SimConfig config;
    config.n_hosts = 30;
    config.mobility_kind = MobilityKind::kStatic;
    config.backbone = BackboneMode::kCds22;
    config.max_intervals = 6;

    // Reproduce the trial's placement (the seed's first RNG consumer) and
    // its backbone; the survival claim only holds when full_22 is true.
    Xoshiro256 rng(seed);
    const Field field(config.field_width, config.field_height,
                      config.boundary);
    const auto placed = random_connected_placement(
        config.n_hosts, field, config.radius, rng, config.connect_retries);
    if (!placed) continue;
    const Graph& g = placed->graph;
    if (g.is_complete()) continue;
    const Cds22Result backbone = greedy_cds22(g);
    if (!backbone.full_22) continue;
    const Cds22Check check = check_cds22(g, backbone.backbone);
    ASSERT_TRUE(check.ok()) << check.message << " (seed " << seed << ")";

    // Crash every backbone member in turn: no single loss may cost a
    // repair round or degrade coverage or connectivity.
    backbone.backbone.for_each_set([&](std::size_t member) {
      FaultPlan plan;
      plan.crashes = {{static_cast<int>(member), 2, 0}};
      SimTrace trace;
      const TrialResult result =
          run_lifetime_trial(config, seed, &trace, &plan);
      EXPECT_EQ(result.faults.repairs, 0u)
          << "seed " << seed << " victim " << member;
      EXPECT_EQ(result.faults.disconnected_intervals, 0)
          << "seed " << seed << " victim " << member;
      EXPECT_EQ(result.faults.uncovered_intervals, 0)
          << "seed " << seed << " victim " << member;
      EXPECT_DOUBLE_EQ(result.faults.min_coverage, 1.0)
          << "seed " << seed << " victim " << member;
      for (const FaultRecord& record : trace.fault_records) {
        EXPECT_NE(record.kind, FaultKind::kRepair)
            << "seed " << seed << " victim " << member;
      }
    });

    // Contrast: the scheme backbone pays a repair round for the same
    // crash, because every down-set change re-derives the gateway set.
    SimConfig scheme = config;
    scheme.backbone = BackboneMode::kScheme;
    int victim = -1;
    backbone.backbone.for_each_set([&](std::size_t member) {
      if (victim < 0) victim = static_cast<int>(member);
    });
    ASSERT_GE(victim, 0) << "seed " << seed;
    FaultPlan plan;
    plan.crashes = {{victim, 2, 0}};
    const TrialResult repaired = run_lifetime_trial(scheme, seed, nullptr,
                                                    &plan);
    EXPECT_GE(repaired.faults.repairs, 1u) << "seed " << seed;
    ++tested;
  }
  ASSERT_GE(tested, 1) << "not enough usable seeds";
}

}  // namespace
}  // namespace pacds
