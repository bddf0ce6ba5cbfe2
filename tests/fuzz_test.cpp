// Tests for the differential fuzzing subsystem: scenario generation and the
// strict corpus format, the invariant-oracle suite, shrinking, and the
// end-to-end catch -> shrink -> write-reproducer -> replay pipeline. The
// oracle suite itself is mutation-tested: OracleOptions::mutation makes
// run_oracles perturb one oracle's observed data, proving a real defect of
// that class would be caught and minimized, not silently missed.

#include "fuzz/fuzzer.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "fuzz/oracles.hpp"
#include "fuzz/scenario.hpp"
#include "fuzz/shrink.hpp"
#include "io/json.hpp"
#include "sim/config_json.hpp"
#include "sim/engine.hpp"

namespace pacds::fuzz {
namespace {

namespace fs = std::filesystem;

/// Fresh scratch directory under the test temp root.
fs::path scratch_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("pacds_fuzz_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

bool same_scenario(const FuzzScenario& a, const FuzzScenario& b) {
  return a.id == b.id && a.trial_seed == b.trial_seed &&
         describe(a) == describe(b) &&
         scenario_to_json(a) == scenario_to_json(b);
}

/// First generated scenario index satisfying `pred`; -1 when none found in
/// the scan window (keeps mutation tests fast and deterministic).
template <typename Pred>
std::int64_t find_scenario(std::uint64_t seed, Pred pred, int window = 64) {
  for (int i = 0; i < window; ++i) {
    if (pred(random_scenario(seed, static_cast<std::uint64_t>(i)))) return i;
  }
  return -1;
}

bool fails_oracle(const FuzzScenario& s, int mutation,
                  const std::string& oracle) {
  for (const OracleFailure& f : run_oracles(s, OracleOptions{mutation})) {
    if (f.oracle == oracle) return true;
  }
  return false;
}

// ---- scenario generation and corpus format --------------------------------

TEST(FuzzScenarioTest, GenerationIsDeterministicAndSeedsFitJsonDoubles) {
  for (std::uint64_t i = 0; i < 32; ++i) {
    const FuzzScenario a = random_scenario(9, i);
    const FuzzScenario b = random_scenario(9, i);
    EXPECT_TRUE(same_scenario(a, b)) << describe(a);
    EXPECT_EQ(a.id, i);
    // Seeds must round-trip through the corpus' double-typed numbers.
    EXPECT_LT(a.trial_seed, std::uint64_t{1} << 53);
    EXPECT_LT(a.faults.seed, std::uint64_t{1} << 53);
    EXPECT_GE(a.config.n_hosts, 4);
  }
  // Different indices produce different instances.
  EXPECT_FALSE(same_scenario(random_scenario(9, 0), random_scenario(9, 1)));
}

TEST(FuzzScenarioTest, GeneratorPopulatesEveryOracleDomain) {
  int threaded = 0;
  int eligible = 0;
  int faulted = 0;
  int channel = 0;
  int event_free = 0;
  int chunked_ticks = 0;
  int one_shot_ticks = 0;
  for (std::uint64_t i = 0; i < 64; ++i) {
    const FuzzScenario s = random_scenario(3, i);
    if (s.config.threads > 1) ++threaded;
    if (incremental_engine_eligible(s.config)) ++eligible;
    if (s.faults.has_lifetime_events()) ++faulted;
    if (s.faults.channel.any()) ++channel;
    if (!s.faults.has_lifetime_events()) ++event_free;
    if (s.serve_ticks > 0) ++chunked_ticks;
    if (s.serve_ticks == 0) ++one_shot_ticks;
  }
  EXPECT_GT(threaded, 0);
  EXPECT_GT(eligible, 0);
  EXPECT_GT(faulted, 0);
  EXPECT_GT(channel, 0);
  EXPECT_GT(event_free, 0);
  EXPECT_GT(chunked_ticks, 0);
  EXPECT_GT(one_shot_ticks, 0);
}

TEST(FuzzScenarioTest, CorpusRoundTripsExactly) {
  for (const std::uint64_t i : {0u, 5u, 11u, 23u}) {
    const FuzzScenario original = random_scenario(4, i);
    const std::string text = scenario_to_json(original);
    const FuzzScenario parsed = parse_scenario(text);
    EXPECT_TRUE(same_scenario(original, parsed)) << text;
  }
}

TEST(FuzzScenarioTest, ParserIsStrict) {
  const std::string good = scenario_to_json(random_scenario(4, 0));
  EXPECT_NO_THROW((void)parse_scenario(good));
  // Unknown keys fail loudly (hand-edited reproducer typo protection).
  EXPECT_THROW((void)parse_scenario("{\"format\":\"pacds-fuzz-repro\","
                                    "\"schema\":1,\"oops\":1}"),
               std::runtime_error);
  // Wrong magic / missing schema / wrong version.
  EXPECT_THROW((void)parse_scenario("{\"format\":\"other\",\"schema\":1}"),
               std::runtime_error);
  EXPECT_THROW((void)parse_scenario("{\"format\":\"pacds-fuzz-repro\"}"),
               std::runtime_error);
  EXPECT_THROW((void)parse_scenario("{\"format\":\"pacds-fuzz-repro\","
                                    "\"schema\":999}"),
               std::runtime_error);
  // Bad enum value inside config.
  EXPECT_THROW(
      (void)parse_scenario("{\"format\":\"pacds-fuzz-repro\",\"schema\":1,"
                           "\"config\":{\"scheme\":\"EL9\"}}"),
      std::runtime_error);
  // Fault plan validated against the host count (validate_fault_plan's
  // exception type, not the parser's).
  EXPECT_THROW(
      (void)parse_scenario("{\"format\":\"pacds-fuzz-repro\",\"schema\":1,"
                           "\"config\":{\"n\":4},"
                           "\"faults\":{\"thefts\":[{\"node\":9,\"at\":1,"
                           "\"amount\":5}]}}"),
      std::invalid_argument);
}

TEST(FuzzScenarioTest, ServeTicksIsOptionalAndRangeChecked) {
  // Pre-serve corpus reproducers carry no "serve_ticks"; they must keep
  // parsing with the one-shot default.
  const FuzzScenario bare =
      parse_scenario("{\"format\":\"pacds-fuzz-repro\",\"schema\":1}");
  EXPECT_EQ(bare.serve_ticks, 0);
  const FuzzScenario chunked = parse_scenario(
      "{\"format\":\"pacds-fuzz-repro\",\"schema\":1,\"serve_ticks\":5}");
  EXPECT_EQ(chunked.serve_ticks, 5);
  EXPECT_THROW((void)parse_scenario("{\"format\":\"pacds-fuzz-repro\","
                                    "\"schema\":1,\"serve_ticks\":-1}"),
               std::runtime_error);
  EXPECT_THROW((void)parse_scenario("{\"format\":\"pacds-fuzz-repro\","
                                    "\"schema\":1,\"serve_ticks\":2.5}"),
               std::runtime_error);
}

std::string config_json(const SimConfig& config) {
  std::ostringstream out;
  JsonWriter json(out);
  write_sim_config_json(json, config);
  return out.str();
}

std::string plan_json(const FaultPlan& plan) {
  std::ostringstream out;
  JsonWriter json(out);
  write_fault_plan(json, plan);
  return out.str();
}

// The exact corpus bytes of one generated scenario: key order, nesting,
// pretty-printing and number formatting of the scenario, its config and its
// plan, an empty section included. Committed reproducers store these bytes,
// so a drift here is a format change (or a generator change: the scenario
// comes from random_scenario).
TEST(FuzzScenarioTest, CorpusBytesArePinned) {
  EXPECT_EQ(scenario_to_json(random_scenario(7, 0)), R"json({
  "format": "pacds-fuzz-repro",
  "schema": 1,
  "id": 0,
  "trial_seed": 97572084050422,
  "serve_ticks": 3,
  "config": {
    "n": 47,
    "field_width": 100,
    "field_height": 100,
    "field_depth": 43.1975331021705,
    "boundary": "clamp",
    "radius": 24.99851381978605,
    "link_model": "unit-disk",
    "radio": "probabilistic",
    "radio_params": {
      "sigma_db": 4,
      "path_loss_exp": 3,
      "link_prob": 0.837171081090524,
      "fading_seed": 28865151306764
    },
    "initial_energy": 36.06061455740351,
    "drain_model": "linear",
    "drain_params": {
      "nongateway_drain": 1,
      "constant_base": 2,
      "quadratic_divisor": 10
    },
    "stay_probability": 0.8327841467067347,
    "jump_min": 1,
    "jump_max": 6,
    "mobility": "random-waypoint",
    "mobility_params": {
      "stay_probability": 0.5,
      "jump_min": 1,
      "jump_max": 6,
      "step_min": 1,
      "step_max": 6,
      "speed_min": 1.4534037488301008,
      "speed_max": 6.22675932804678,
      "pause_intervals": 1,
      "mean_speed": 3,
      "alpha": 0.75,
      "speed_stddev": 1,
      "heading_stddev": 0.5
    },
    "scheme": "EL2",
    "strategy": "verified",
    "clique_policy": "none",
    "custom_key": null,
    "custom_rule2_form": "refined",
    "use_rule_k": false,
    "quantum": 0,
    "stability_beta": 0.7549932586362058,
    "stability_quantum": 0,
    "engine": "auto",
    "backbone": "scheme",
    "tiles": 1,
    "threads": 1,
    "max_intervals": 300,
    "connect_retries": 50
  },
  "faults": {
    "seed": 64588533554404,
    "crashes": [
      {
        "node": 19,
        "at": 15,
        "recover_at": 24
      },
      {
        "node": 5,
        "at": 14,
        "recover_at": 0
      }
    ],
    "thefts": [
      {
        "node": 20,
        "at": 3,
        "amount": 30.346906543780776
      }
    ],
    "blackouts": [],
    "channel": {
      "drop": 0.21438851585543756,
      "duplicate": 0.10543195722755705,
      "delay": 0.15246400465470744,
      "max_attempts": 12,
      "backoff_base": 1,
      "backoff_cap": 8
    }
  }
}
)json");
}

// See FuzzScenarioSizeIsPinnedToTheWireFormat below.
constexpr std::size_t kExpectedFuzzScenarioSize = 440;

TEST(FuzzScenarioTest, EveryMemberRoundTrips) {
  FuzzScenario s = random_scenario(7, 0);  // crashes, a theft, a channel
  s.id = 123456789012345;
  s.trial_seed = 987654321098765;
  s.serve_ticks = 7;
  s.faults.blackouts = {{1.5, 2.5, 30.25, 40.75, 3, 8}};
  s.faults.retry = {5, 2, 4};
  const FuzzScenario back = parse_scenario(scenario_to_json(s));
  EXPECT_EQ(back.id, s.id);
  EXPECT_EQ(back.trial_seed, s.trial_seed);
  EXPECT_EQ(back.serve_ticks, s.serve_ticks);
  // config_json_test and faults_test compare these two member by member.
  EXPECT_EQ(config_json(back.config), config_json(s.config));
  EXPECT_EQ(plan_json(back.faults), plan_json(s.faults));
}

// The corpus seeds take the plan seed's exact-integer bound: 2^53 - 1 is
// the largest that survives the JSON double round trip.
TEST(FuzzScenarioTest, SeedsTakeEveryExactInteger) {
  FuzzScenario s;
  s.id = 9007199254740991;
  s.trial_seed = 9007199254740991;
  const FuzzScenario back = parse_scenario(scenario_to_json(s));
  EXPECT_EQ(back.id, s.id);
  EXPECT_EQ(back.trial_seed, s.trial_seed);
  try {
    (void)parse_scenario(R"({"format":"pacds-fuzz-repro","schema":1,)"
                         R"("trial_seed":9007199254740992})");
    ADD_FAILURE() << "accepted a trial_seed past 2^53 - 1";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(),
                 "fuzz scenario: trial_seed must be an integer in "
                 "[0, 9007199254740991]");
  }
}

// Tripwire: if this fails, FuzzScenario gained (or lost) a member. Add it to
// the corpus format and to EveryMemberRoundTrips, then update the size.
TEST(FuzzScenarioTest, FuzzScenarioSizeIsPinnedToTheWireFormat) {
  EXPECT_EQ(sizeof(FuzzScenario), kExpectedFuzzScenarioSize);
}

// Every committed reproducer settles after one normalization: parse, write,
// parse and write again gives the same bytes, so the reader and the writer
// agree on every key the corpus uses.
TEST(FuzzScenarioTest, CommittedCorpusIsAWireFixedPoint) {
  std::size_t files = 0;
  for (const auto& entry : fs::directory_iterator(PACDS_CORPUS_DIR)) {
    if (entry.path().extension() != ".json") continue;
    ++files;
    const std::string once =
        scenario_to_json(load_scenario(entry.path().string()));
    EXPECT_EQ(scenario_to_json(parse_scenario(once)), once) << entry.path();
  }
  EXPECT_GT(files, 0u) << "committed corpus is empty";
}

// ---- oracle suite ---------------------------------------------------------

TEST(FuzzOracleTest, CleanOnGeneratedScenarios) {
  for (std::uint64_t i = 0; i < 24; ++i) {
    const FuzzScenario s = random_scenario(1, i);
    const std::vector<OracleFailure> failures = run_oracles(s);
    EXPECT_TRUE(failures.empty())
        << failures.front().oracle << ": " << failures.front().detail;
  }
}

TEST(FuzzOracleTest, CliqueElectionOnACompleteSnapshotIsClean) {
  // Every host in range of every other: the marking process marks nobody,
  // and elect-max-key adds the one gateway the rules never could.
  FuzzScenario s = random_scenario(1, 0);
  s.config.n_hosts = 5;
  s.config.radius = 200.0;
  s.config.link_model = LinkModel::kUnitDisk;
  s.config.radio = RadioKind::kUnitDisk;
  s.config.cds_options.clique_policy = CliquePolicy::kElectMaxKey;
  s.faults = FaultPlan{};
  const std::vector<OracleFailure> failures = run_oracles(s);
  EXPECT_TRUE(failures.empty())
      << failures.front().oracle << ": " << failures.front().detail;
}

TEST(FuzzOracleTest, EveryMutationIsCaughtByItsOracle) {
  // For each mutation hook, scan for a scenario inside that oracle's domain
  // and require (a) the mutated run reports exactly that oracle and (b) the
  // unmutated run is clean — the catch is the mutation's doing.
  struct Case {
    int mutation;
    const char* oracle;
    bool (*in_domain)(const FuzzScenario&);
  };
  const Case cases[] = {
      {kMutateCdsValidity, "cds-validity",
       [](const FuzzScenario&) { return true; }},
      {kMutateEngineIdentity, "engine-identity",
       [](const FuzzScenario& s) {
         return incremental_engine_eligible(s.config);
       }},
      {kMutateThreadsIdentity, "threads-identity",
       [](const FuzzScenario& s) { return s.config.threads > 1; }},
      {kMutateDistAgreement, "dist-agreement",
       [](const FuzzScenario&) { return true; }},
      {kMutateEnergyAccounting, "energy-conservation",
       [](const FuzzScenario&) { return true; }},
      {kMutateFaultStats, "fault-stats",
       [](const FuzzScenario& s) { return s.faults.has_lifetime_events(); }},
      {kMutateJsonl, "jsonl-schema", [](const FuzzScenario&) { return true; }},
      {kMutateEmptyPlanIdentity, "empty-plan-identity",
       [](const FuzzScenario& s) { return !s.faults.has_lifetime_events(); }},
      {kMutateServeIdentity, "serve-identity",
       [](const FuzzScenario&) { return true; }},
      // gap-bound's mutation is caught unconditionally by the bitmask
      // differential, which needs the exhaustive solver's n <= 20 domain
      // and a scenario dense enough that the connected snapshot the oracle
      // runs on actually exists (the 100x100 field is the generator's
      // default).
      {kMutateGapBound, "gap-bound",
       [](const FuzzScenario& s) {
         return s.config.n_hosts >= 8 && s.config.n_hosts <= 20 &&
                s.config.radius >= 35.0;
       }},
  };
  for (const Case& c : cases) {
    const std::int64_t index = find_scenario(1, c.in_domain);
    ASSERT_GE(index, 0) << c.oracle << ": no in-domain scenario in window";
    const FuzzScenario s =
        random_scenario(1, static_cast<std::uint64_t>(index));
    EXPECT_TRUE(fails_oracle(s, c.mutation, c.oracle))
        << c.oracle << " mutation not caught on " << describe(s);
    EXPECT_TRUE(run_oracles(s).empty())
        << c.oracle << ": scenario fails even unmutated";
  }
}

TEST(FuzzOracleTest, RuleKScenarioReachesCdsValidity) {
  // The snapshot oracles compute the scenario's own backbone: a Rule k
  // scenario whose Rule k set differs in size from its scheme's set must
  // show the Rule k count in the mutated cds-validity report.
  int checked = 0;
  for (std::uint64_t i = 0; i < 64 && checked < 3; ++i) {
    FuzzScenario s = random_scenario(1, i);
    s.config.custom_key = KeyKind::kEnergyId;
    s.config.use_rule_k = true;
    const auto snap = make_snapshot(s);
    if (!snap) continue;
    const CdsResult rule_k = compute_cds_custom(
        snap->graph, KeyKind::kEnergyId,
        RuleConfig{.use_rule_k = true,
                   .strategy = s.config.cds_options.strategy},
        snap->energy, s.config.cds_options.clique_policy);
    const CdsResult scheme = compute_cds(snap->graph, s.config.rule_set,
                                         snap->energy, s.config.cds_options);
    if (rule_k.gateway_count == scheme.gateway_count) continue;
    ++checked;
    const CdsResult seen = snapshot_cds(s, *snap);
    EXPECT_TRUE(seen.gateways == rule_k.gateways) << describe(s);
    const std::string expected =
        "gateway_count " + std::to_string(rule_k.gateway_count + 1) + " vs " +
        std::to_string(rule_k.gateway_count) + ")";
    bool reported = false;
    for (const OracleFailure& f :
         run_oracles(s, OracleOptions{kMutateCdsValidity})) {
      reported = reported || (f.oracle == "cds-validity" &&
                              f.detail.find(expected) != std::string::npos);
    }
    EXPECT_TRUE(reported) << "cds-validity did not check the Rule k set on "
                          << describe(s);
    const std::vector<OracleFailure> clean = run_oracles(s);
    EXPECT_TRUE(clean.empty())
        << clean.front().oracle << ": " << clean.front().detail;
  }
  EXPECT_EQ(checked, 3) << "too few Rule k scenarios in the scan window";
}

// ---- shrinking ------------------------------------------------------------

TEST(FuzzShrinkTest, ShrinksWhilePreservingTheFailingOracle) {
  // The energy-accounting mutation fails on every scenario, so shrinking
  // must drive the instance down to the n=4 floor and strip the fault plan
  // while the oracle keeps failing at every accepted step.
  const std::int64_t index = find_scenario(1, [](const FuzzScenario& s) {
    return s.config.n_hosts > 8 && s.faults.has_lifetime_events();
  });
  ASSERT_GE(index, 0);
  const FuzzScenario original =
      random_scenario(1, static_cast<std::uint64_t>(index));
  const ShrinkResult shrunk = shrink_scenario(
      original, "energy-conservation", OracleOptions{kMutateEnergyAccounting});
  EXPECT_EQ(shrunk.oracle, "energy-conservation");
  EXPECT_FALSE(shrunk.detail.empty());
  EXPECT_EQ(shrunk.scenario.config.n_hosts, 4);
  EXPECT_FALSE(shrunk.scenario.faults.has_lifetime_events());
  EXPECT_GT(shrunk.steps_kept, 0u);
  EXPECT_TRUE(fails_oracle(shrunk.scenario, kMutateEnergyAccounting,
                           "energy-conservation"));
}

TEST(FuzzShrinkTest, RejectsTransformsThatLoseTheFailure) {
  // The threads-identity mutation only fires for threads > 1, so the
  // serial-threads transform must be rejected and the shrunk scenario keeps
  // a multi-threaded config.
  const std::int64_t index = find_scenario(
      1, [](const FuzzScenario& s) { return s.config.threads > 1; });
  ASSERT_GE(index, 0);
  const FuzzScenario original =
      random_scenario(1, static_cast<std::uint64_t>(index));
  const ShrinkResult shrunk = shrink_scenario(
      original, "threads-identity", OracleOptions{kMutateThreadsIdentity});
  EXPECT_GT(shrunk.scenario.config.threads, 1);
  EXPECT_TRUE(fails_oracle(shrunk.scenario, kMutateThreadsIdentity,
                           "threads-identity"));
}

TEST(FuzzShrinkTest, ThrowsWhenScenarioDoesNotFail) {
  EXPECT_THROW((void)shrink_scenario(random_scenario(1, 0), "cds-validity"),
               std::invalid_argument);
}

// ---- end-to-end campaign --------------------------------------------------

TEST(FuzzCampaignTest, CleanRunReportsOk) {
  FuzzOptions options;
  options.seed = 1;
  options.iterations = 10;
  std::ostringstream log;
  const FuzzReport report = run_fuzz(options, log);
  EXPECT_TRUE(report.ok()) << log.str();
  EXPECT_EQ(report.iterations, 10u);
  EXPECT_EQ(report.corpus_replayed, 0u);
}

TEST(FuzzCampaignTest, InjectedFaultIsCaughtShrunkWrittenAndReplays) {
  // The acceptance pipeline: a deliberately injected defect (mutation hook)
  // must be caught, shrunk, written as a strict-JSON reproducer, and that
  // file must replay to the same oracle failure.
  const fs::path corpus = scratch_dir("pipeline");
  FuzzOptions options;
  options.seed = 1;
  options.iterations = 2;
  options.corpus_dir = corpus.string();
  options.mutation = kMutateEnergyAccounting;
  std::ostringstream log;
  const FuzzReport report = run_fuzz(options, log);
  ASSERT_FALSE(report.findings.empty()) << log.str();
  const FuzzFinding& finding = report.findings.front();
  EXPECT_EQ(finding.oracle, "energy-conservation");
  ASSERT_FALSE(finding.reproducer.empty());
  ASSERT_TRUE(fs::exists(finding.reproducer));

  // The written reproducer is strict JSON and replays to the same failure.
  const FuzzScenario loaded = load_scenario(finding.reproducer);
  EXPECT_TRUE(same_scenario(loaded, finding.scenario));
  EXPECT_TRUE(
      fails_oracle(loaded, kMutateEnergyAccounting, "energy-conservation"));

  // A replay-only campaign over the written corpus re-reports it...
  FuzzOptions replay = options;
  replay.iterations = 0;
  std::ostringstream replay_log;
  const FuzzReport replayed = run_fuzz(replay, replay_log);
  EXPECT_EQ(replayed.corpus_replayed, report.findings.size());
  ASSERT_FALSE(replayed.findings.empty());
  EXPECT_EQ(replayed.findings.front().oracle, "energy-conservation");

  // ...and with the defect "fixed" (mutation off) the corpus runs clean —
  // exactly how a committed regression reproducer behaves after the fix.
  FuzzOptions fixed = replay;
  fixed.mutation = kMutateNone;
  std::ostringstream fixed_log;
  const FuzzReport after_fix = run_fuzz(fixed, fixed_log);
  EXPECT_TRUE(after_fix.ok()) << fixed_log.str();
}

TEST(FuzzCampaignTest, CorruptCorpusFileIsAFinding) {
  const fs::path corpus = scratch_dir("corrupt");
  std::ofstream(corpus / "broken.json") << "{\"format\":\"wrong\"}";
  FuzzOptions options;
  options.iterations = 0;
  options.corpus_dir = corpus.string();
  std::ostringstream log;
  const FuzzReport report = run_fuzz(options, log);
  EXPECT_FALSE(report.ok());
  ASSERT_EQ(report.corpus_errors.size(), 1u);
  EXPECT_NE(report.corpus_errors.front().find("broken.json"),
            std::string::npos);
}

TEST(FuzzCampaignTest, DuplicateKeyCorpusFileIsRejectedNotReplayed) {
  // Companion to json_parse_test's duplicate-key rejection: a reproducer
  // whose document smuggles a second "trial_seed" is refused by the strict
  // parser before any scenario logic sees it, and the replay reports it as
  // a corrupt-corpus finding instead of silently testing one of the values.
  const fs::path corpus = scratch_dir("dupkey");
  std::ofstream(corpus / "dup.json")
      << "{\"format\":\"pacds-fuzz-repro\",\"schema\":1,"
         "\"trial_seed\":1,\"trial_seed\":2}";
  FuzzOptions options;
  options.iterations = 0;
  options.corpus_dir = corpus.string();
  std::ostringstream log;
  const FuzzReport report = run_fuzz(options, log);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.corpus_replayed, 0u);
  ASSERT_EQ(report.corpus_errors.size(), 1u);
  EXPECT_NE(report.corpus_errors.front().find("duplicate object key"),
            std::string::npos)
      << report.corpus_errors.front();
}

TEST(FuzzCampaignTest, CommittedCorpusReplaysClean) {
  // The repo's regression reproducers (tests/corpus/) must stay green; CI's
  // fuzz smoke job replays the same directory through the CLI.
  const fs::path corpus = fs::path(PACDS_CORPUS_DIR);
  ASSERT_TRUE(fs::is_directory(corpus)) << corpus;
  FuzzOptions options;
  options.iterations = 0;
  options.corpus_dir = corpus.string();
  std::ostringstream log;
  const FuzzReport report = run_fuzz(options, log);
  EXPECT_GT(report.corpus_replayed, 0u) << "committed corpus is empty";
  EXPECT_TRUE(report.ok()) << log.str();
}

}  // namespace
}  // namespace pacds::fuzz
