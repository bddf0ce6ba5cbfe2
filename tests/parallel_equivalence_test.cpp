// Determinism of the intra-interval parallel layer: every sharded pipeline
// (marking + simultaneous rule passes) must produce gateway sets that are
// bit-identical to the serial computation, for every thread count, scheme,
// and mobility regime. Two layers of coverage:
//
//   - direct compute_cds / compute_cds_custom calls (the pairwise rules and
//     Rule k) on random geometric graphs, serial vs. ThreadPool executors;
//   - whole lifetime trials through SimConfig::threads, sweeping
//     threads {1,2,3,8} x keys {ID,ND,EL1,EL2} x stay {0.5,0.95}, for both
//     engines, comparing TrialResults and full per-interval traces; and
//     trials at n = 2000, wide enough that every pass of all three
//     engines splits across lanes.
//
// The TSAN build (PACDS_SANITIZE=thread) runs this binary to certify the
// fork/join layer free of data races.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "core/cds.hpp"
#include "core/incremental.hpp"
#include "core/workspace.hpp"
#include "net/rng.hpp"
#include "net/space.hpp"
#include "net/topology.hpp"
#include "net/udg.hpp"
#include "sim/engine.hpp"
#include "sim/lifetime.hpp"
#include "sim/threadpool.hpp"

namespace pacds {
namespace {

// ---- Direct kernel equivalence ---------------------------------------------

/// A connected-ish random unit-disk graph plus staggered energy levels.
struct Instance {
  Graph graph{0};
  std::vector<double> energy;
};

Instance make_instance(int n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  const Field field(100.0, 100.0, BoundaryPolicy::kClamp);
  const auto positions = random_placement(n, field, rng);
  Instance inst;
  inst.graph = build_links(positions, kPaperRadius, LinkModel::kUnitDisk);
  inst.energy.resize(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < inst.energy.size(); ++i) {
    // Deterministic, collision-rich levels so key tie-breaks matter.
    inst.energy[i] = static_cast<double>((i * 7919) % 17);
  }
  return inst;
}

void expect_identical(const CdsResult& serial, const CdsResult& parallel,
                      const std::string& what) {
  EXPECT_EQ(serial.marked_only, parallel.marked_only) << what;
  EXPECT_EQ(serial.gateways, parallel.gateways) << what;
  EXPECT_EQ(serial.marked_count, parallel.marked_count) << what;
  EXPECT_EQ(serial.gateway_count, parallel.gateway_count) << what;
}

class KernelEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<RuleSet, std::size_t>> {};

TEST_P(KernelEquivalenceTest, ComputeCdsMatchesSerial) {
  const auto [rs, lanes] = GetParam();
  ThreadPool pool(lanes - 1);  // lanes includes the calling thread
  CdsWorkspace ws;
  const ExecContext ctx{&pool, &ws};
  for (const std::uint64_t seed : {3u, 77u, 2001u}) {
    const Instance inst = make_instance(80, seed);
    const CdsResult serial = compute_cds(inst.graph, rs, inst.energy);
    const CdsResult par = compute_cds(inst.graph, rs, inst.energy, {}, ctx);
    expect_identical(serial, par,
                     to_string(rs) + " lanes=" + std::to_string(lanes) +
                         " seed=" + std::to_string(seed));
  }
}

INSTANTIATE_TEST_SUITE_P(
    SchemesByLanes, KernelEquivalenceTest,
    ::testing::Combine(::testing::Values(RuleSet::kNR, RuleSet::kID,
                                         RuleSet::kND, RuleSet::kEL1,
                                         RuleSet::kEL2),
                       ::testing::Values(std::size_t{2}, std::size_t{3},
                                         std::size_t{8})),
    [](const ::testing::TestParamInfo<KernelEquivalenceTest::ParamType>&
           param_info) {
      return to_string(std::get<0>(param_info.param)) + "_lanes" +
             std::to_string(std::get<1>(param_info.param));
    });

TEST(KernelEquivalenceTest, CustomKeyAndRuleKMatchSerial) {
  ThreadPool pool(7);
  CdsWorkspace ws;
  const ExecContext ctx{&pool, &ws};
  const Instance inst = make_instance(80, 13);
  for (const KeyKind kind :
       {KeyKind::kId, KeyKind::kDegreeId, KeyKind::kEnergyId,
        KeyKind::kEnergyDegreeId}) {
    RuleConfig rc;
    rc.rule2_form = Rule2Form::kRefined;
    rc.strategy = Strategy::kSimultaneous;
    expect_identical(
        compute_cds_custom(inst.graph, kind, rc, inst.energy),
        compute_cds_custom(inst.graph, kind, rc, inst.energy,
                           CliquePolicy::kNone, ctx),
        "custom key " + std::to_string(static_cast<int>(kind)));
    const RuleConfig rk{.use_rule_k = true,
                        .strategy = Strategy::kSimultaneous};
    expect_identical(
        compute_cds_custom(inst.graph, kind, rk, inst.energy),
        compute_cds_custom(inst.graph, kind, rk, inst.energy,
                           CliquePolicy::kNone, ctx),
        "rule k key " + std::to_string(static_cast<int>(kind)));
  }
}

TEST(KernelEquivalenceTest, SequentialStrategyUnaffectedByExecutor) {
  // Sequential and verified strategies stay serial by design; passing an
  // executor must be a no-op for the result.
  ThreadPool pool(3);
  CdsWorkspace ws;
  const ExecContext ctx{&pool, &ws};
  const Instance inst = make_instance(60, 21);
  for (const Strategy strategy : {Strategy::kSequential, Strategy::kVerified}) {
    CdsOptions options;
    options.strategy = strategy;
    expect_identical(compute_cds(inst.graph, RuleSet::kEL1, inst.energy,
                                 options),
                     compute_cds(inst.graph, RuleSet::kEL1, inst.energy,
                                 options, ctx),
                     "strategy " + std::to_string(static_cast<int>(strategy)));
  }
}

TEST(KernelEquivalenceTest, IncrementalFullRefreshMatchesSerial) {
  ThreadPool pool(7);
  CdsWorkspace ws;
  const Instance inst = make_instance(80, 99);
  for (const RuleSet rs : kAllRuleSets) {
    const std::vector<double> energy =
        uses_energy(rs) ? inst.energy : std::vector<double>{};
    const IncrementalCds serial(inst.graph, rs, energy);
    const IncrementalCds parallel(inst.graph, rs, energy, {},
                                  ExecContext{&pool, &ws});
    EXPECT_EQ(serial.gateways(), parallel.gateways()) << to_string(rs);
    EXPECT_EQ(serial.marked_only(), parallel.marked_only()) << to_string(rs);
    // A second refresh on the now-warm workspace.
    const IncrementalCds again(inst.graph, rs, energy, {},
                               ExecContext{&pool, &ws});
    EXPECT_EQ(serial.gateways(), again.gateways()) << to_string(rs);
  }
}

// ---- Whole-trial equivalence through SimConfig::threads --------------------

void expect_identical(const TrialResult& a, const TrialResult& b) {
  EXPECT_EQ(a.intervals, b.intervals);
  EXPECT_EQ(a.avg_gateways, b.avg_gateways);  // exact, not approximate
  EXPECT_EQ(a.avg_marked, b.avg_marked);
  EXPECT_EQ(a.hit_cap, b.hit_cap);
}

void expect_identical(const SimTrace& a, const SimTrace& b) {
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].gateways, b.records[i].gateways) << "record " << i;
    EXPECT_EQ(a.records[i].marked, b.records[i].marked) << "record " << i;
  }
}

class TrialEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<int, RuleSet, double>> {};

TEST_P(TrialEquivalenceTest, ThreadedTrialBitIdenticalToSerial) {
  const auto [threads, rs, stay] = GetParam();
  SimConfig config;
  config.n_hosts = 40;
  config.rule_set = rs;
  config.stay_probability = stay;
  config.cds_options.strategy = Strategy::kSimultaneous;
  config.initial_energy = 50.0;  // keeps trials short
  for (const SimEngine engine :
       {SimEngine::kFullRebuild, SimEngine::kIncremental}) {
    config.engine = engine;
    config.threads = 1;
    SimTrace serial_trace;
    const TrialResult serial = run_lifetime_trial(config, 17, &serial_trace);
    config.threads = threads;
    SimTrace threaded_trace;
    const TrialResult threaded =
        run_lifetime_trial(config, 17, &threaded_trace);
    expect_identical(serial, threaded);
    expect_identical(serial_trace, threaded_trace);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ThreadsKeysStay, TrialEquivalenceTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 8),
                       ::testing::Values(RuleSet::kID, RuleSet::kND,
                                         RuleSet::kEL1, RuleSet::kEL2),
                       ::testing::Values(0.5, 0.95)),
    [](const ::testing::TestParamInfo<TrialEquivalenceTest::ParamType>&
           param_info) {
      return "t" + std::to_string(std::get<0>(param_info.param)) + "_" +
             to_string(std::get<1>(param_info.param)) + "_stay" +
             std::to_string(
                 static_cast<int>(std::get<2>(param_info.param) * 100));
    });

TEST(TrialEquivalenceTest, HardwareConcurrencyKnob) {
  // threads = 0 (one lane per hardware thread) must agree with serial too.
  SimConfig config;
  config.n_hosts = 30;
  config.rule_set = RuleSet::kEL1;
  config.cds_options.strategy = Strategy::kSimultaneous;
  config.initial_energy = 40.0;
  config.threads = 1;
  const TrialResult serial = run_lifetime_trial(config, 5);
  config.threads = 0;
  const TrialResult autod = run_lifetime_trial(config, 5);
  expect_identical(serial, autod);
}

// ---- Trials wide enough to shard -------------------------------------------
// The trials above run n <= 40, one 64-bit word: every pass is one chunk
// and no helper lane ever runs. At n = 2000 on a 632 x 632 field (paper
// density) a pass cuts 11 chunks at 3 lanes and 16 at 4, so the sharded
// region passes of the incremental and tiled engines and the full
// rebuild's simultaneous passes all split across lanes.

class ShardedTrialEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<SimEngine, RuleSet>> {};

TEST_P(ShardedTrialEquivalenceTest, ThreadedTrialBitIdenticalToSerial) {
  const auto [engine, rs] = GetParam();
  SimConfig config;
  config.n_hosts = 2000;
  config.field_width = 632.0;
  config.field_height = 632.0;
  config.rule_set = rs;
  config.engine = engine;
  config.cds_options.strategy = Strategy::kSimultaneous;
  config.initial_energy = 20.0;  // keeps trials short
  config.threads = 1;
  SimTrace serial_trace;
  const TrialResult serial = run_lifetime_trial(config, 29, &serial_trace);
  for (const int threads : {3, 4}) {
    config.threads = threads;
    SimTrace threaded_trace;
    const TrialResult threaded =
        run_lifetime_trial(config, 29, &threaded_trace);
    expect_identical(serial, threaded);
    expect_identical(serial_trace, threaded_trace);
  }
}

INSTANTIATE_TEST_SUITE_P(
    EnginesKeys, ShardedTrialEquivalenceTest,
    ::testing::Combine(::testing::Values(SimEngine::kFullRebuild,
                                         SimEngine::kIncremental,
                                         SimEngine::kTiled),
                       ::testing::Values(RuleSet::kID, RuleSet::kEL2)),
    [](const ::testing::TestParamInfo<ShardedTrialEquivalenceTest::ParamType>&
           param_info) {
      return to_string(std::get<0>(param_info.param)) + "_" +
             to_string(std::get<1>(param_info.param));
    });

}  // namespace
}  // namespace pacds
