// Exhaustive tests for the SimConfig wire format (sim/config_json): every
// field must survive write -> parse -> write losslessly. The suite exists
// because the format once dropped keys silently — `mobility` and
// `mobility_params` were never written, so a Gauss-Markov serve tenant
// quietly simulated paper-jump. The per-field comparison plus the
// sizeof(SimConfig) tripwire below make the next added knob fail loudly
// here instead.

#include "sim/config_json.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

#include "io/json.hpp"
#include "io/json_parse.hpp"

namespace pacds {
namespace {

// See SimConfigSizeIsPinnedToTheWireFormat at the bottom.
constexpr std::size_t kExpectedSimConfigSize = 296;

std::string to_json(const SimConfig& config, unsigned indent = 2) {
  std::ostringstream out;
  JsonWriter json(out, indent);
  write_sim_config_json(json, config);
  return out.str();
}

SimConfig from_json(const std::string& text) {
  SimConfig config;
  parse_sim_config_json(parse_json(text), config, "test: ");
  return config;
}

/// EXPECTs equality of every SimConfig member. Update together with the
/// wire format when SimConfig grows.
void expect_config_eq(const SimConfig& a, const SimConfig& b) {
  EXPECT_EQ(a.n_hosts, b.n_hosts);
  EXPECT_EQ(a.field_width, b.field_width);
  EXPECT_EQ(a.field_height, b.field_height);
  EXPECT_EQ(a.field_depth, b.field_depth);
  EXPECT_EQ(a.boundary, b.boundary);
  EXPECT_EQ(a.radius, b.radius);
  EXPECT_EQ(a.link_model, b.link_model);
  EXPECT_EQ(a.radio, b.radio);
  EXPECT_EQ(a.radio_params, b.radio_params);
  EXPECT_EQ(a.initial_energy, b.initial_energy);
  EXPECT_EQ(a.drain_model, b.drain_model);
  EXPECT_EQ(a.drain_params.nongateway_drain, b.drain_params.nongateway_drain);
  EXPECT_EQ(a.drain_params.constant_base, b.drain_params.constant_base);
  EXPECT_EQ(a.drain_params.quadratic_divisor,
            b.drain_params.quadratic_divisor);
  EXPECT_EQ(a.stay_probability, b.stay_probability);
  EXPECT_EQ(a.jump_min, b.jump_min);
  EXPECT_EQ(a.jump_max, b.jump_max);
  EXPECT_EQ(a.mobility_kind, b.mobility_kind);
  EXPECT_EQ(a.mobility_params.stay_probability,
            b.mobility_params.stay_probability);
  EXPECT_EQ(a.mobility_params.jump_min, b.mobility_params.jump_min);
  EXPECT_EQ(a.mobility_params.jump_max, b.mobility_params.jump_max);
  EXPECT_EQ(a.mobility_params.step_min, b.mobility_params.step_min);
  EXPECT_EQ(a.mobility_params.step_max, b.mobility_params.step_max);
  EXPECT_EQ(a.mobility_params.speed_min, b.mobility_params.speed_min);
  EXPECT_EQ(a.mobility_params.speed_max, b.mobility_params.speed_max);
  EXPECT_EQ(a.mobility_params.pause_intervals,
            b.mobility_params.pause_intervals);
  EXPECT_EQ(a.mobility_params.mean_speed, b.mobility_params.mean_speed);
  EXPECT_EQ(a.mobility_params.alpha, b.mobility_params.alpha);
  EXPECT_EQ(a.mobility_params.speed_stddev, b.mobility_params.speed_stddev);
  EXPECT_EQ(a.mobility_params.heading_stddev,
            b.mobility_params.heading_stddev);
  EXPECT_EQ(a.rule_set, b.rule_set);
  EXPECT_EQ(a.cds_options.strategy, b.cds_options.strategy);
  EXPECT_EQ(a.cds_options.clique_policy, b.cds_options.clique_policy);
  EXPECT_EQ(a.custom_key, b.custom_key);
  EXPECT_EQ(a.custom_rule2_form, b.custom_rule2_form);
  EXPECT_EQ(a.use_rule_k, b.use_rule_k);
  EXPECT_EQ(a.energy_key_quantum, b.energy_key_quantum);
  EXPECT_EQ(a.stability_beta, b.stability_beta);
  EXPECT_EQ(a.stability_quantum, b.stability_quantum);
  EXPECT_EQ(a.engine, b.engine);
  EXPECT_EQ(a.backbone, b.backbone);
  EXPECT_EQ(a.tiles, b.tiles);
  EXPECT_EQ(a.threads, b.threads);
  EXPECT_EQ(a.connect_retries, b.connect_retries);
  EXPECT_EQ(a.max_intervals, b.max_intervals);
}

/// Every member set away from its default (the values are deliberately
/// "ugly" doubles that still print/parse exactly). link_model stays
/// unit-disk because a non-trivial radio requires it; the link-model loop
/// below covers the sparser graphs.
SimConfig non_default_config() {
  SimConfig c;
  c.n_hosts = 17;
  c.field_width = 120.5;
  c.field_height = 80.25;
  c.field_depth = 30.75;
  c.boundary = BoundaryPolicy::kReflect;
  c.radius = 27.5;
  c.link_model = LinkModel::kUnitDisk;
  c.radio = RadioKind::kShadowing;
  c.radio_params.sigma_db = 5.5;
  c.radio_params.path_loss_exp = 2.75;
  c.radio_params.link_prob = 0.65;
  c.radio_params.fading_seed = 123456789;
  c.initial_energy = 42.5;
  c.drain_model = DrainModel::kQuadraticTotal;
  c.drain_params.nongateway_drain = 0.125;
  c.drain_params.constant_base = 2.5;
  c.drain_params.quadratic_divisor = 7.0;
  c.stay_probability = 0.375;
  c.jump_min = 2;
  c.jump_max = 5;
  c.mobility_kind = MobilityKind::kGaussMarkov;
  c.mobility_params.stay_probability = 0.625;
  c.mobility_params.jump_min = 0;
  c.mobility_params.jump_max = 3;
  c.mobility_params.step_min = 0.5;
  c.mobility_params.step_max = 4.5;
  c.mobility_params.speed_min = 1.25;
  c.mobility_params.speed_max = 3.75;
  c.mobility_params.pause_intervals = 2;
  c.mobility_params.mean_speed = 2.25;
  c.mobility_params.alpha = 0.875;
  c.mobility_params.speed_stddev = 1.125;
  c.mobility_params.heading_stddev = 0.6875;
  c.rule_set = RuleSet::kSEL;
  c.cds_options.strategy = Strategy::kVerified;
  c.cds_options.clique_policy = CliquePolicy::kElectMaxKey;
  c.custom_key = KeyKind::kDegreeId;
  c.custom_rule2_form = Rule2Form::kSimple;
  c.use_rule_k = true;
  c.energy_key_quantum = 3.5;
  c.stability_beta = 0.8125;
  c.stability_quantum = 1.25;
  c.engine = SimEngine::kTiled;
  c.backbone = BackboneMode::kCds22;
  c.tiles = 9;
  c.threads = 4;
  c.connect_retries = 77;
  c.max_intervals = 1234;
  return c;
}

TEST(ConfigJsonTest, EveryFieldRoundTripsLossless) {
  // The pinned config's tiled engine cannot run its cds22 backbone, custom
  // key or clique policy, so the parser refuses it; the full-rebuild engine
  // runs them and is as far from the default.
  SimConfig original = non_default_config();
  original.engine = SimEngine::kFullRebuild;
  const std::string wire = to_json(original);
  const SimConfig parsed = from_json(wire);
  expect_config_eq(parsed, original);
  // Byte stability: re-serializing the parsed config reproduces the exact
  // document, so nothing is normalized or defaulted along the way.
  EXPECT_EQ(to_json(parsed), wire);
}

// The exact wire bytes: key order, key spelling and number formatting.
// Serve digests hash these bytes and corpus files store them, so any drift
// here is a format change, not a refactor.
TEST(ConfigJsonTest, WireBytesArePinned) {
  EXPECT_EQ(
      to_json(SimConfig{}, 0),
      R"({"n":50,"field_width":100,"field_height":100,"field_depth":0,)"
      R"("boundary":"clamp","radius":25,"link_model":"unit-disk",)"
      R"("radio":"unit-disk","radio_params":{"sigma_db":4,)"
      R"("path_loss_exp":3,"link_prob":0.85,"fading_seed":1},)"
      R"("initial_energy":100,"drain_model":"linear","drain_params":)"
      R"({"nongateway_drain":1,"constant_base":2,"quadratic_divisor":10},)"
      R"("stay_probability":0.5,"jump_min":1,"jump_max":6,)"
      R"("mobility":"paper-jump","mobility_params":{"stay_probability":0.5,)"
      R"("jump_min":1,"jump_max":6,"step_min":1,"step_max":6,"speed_min":1,)"
      R"("speed_max":6,"pause_intervals":0,"mean_speed":3,"alpha":0.75,)"
      R"("speed_stddev":1,"heading_stddev":0.5},"scheme":"EL1",)"
      R"("strategy":"sequential","clique_policy":"none","custom_key":null,)"
      R"("custom_rule2_form":"refined","use_rule_k":false,"quantum":1,)"
      R"("stability_beta":0.75,"stability_quantum":0.5,"engine":"auto",)"
      R"("backbone":"scheme","tiles":0,"threads":1,"max_intervals":200000,)"
      R"("connect_retries":500})");
  EXPECT_EQ(
      to_json(non_default_config(), 0),
      R"({"n":17,"field_width":120.5,"field_height":80.25,)"
      R"("field_depth":30.75,"boundary":"reflect","radius":27.5,)"
      R"("link_model":"unit-disk","radio":"shadowing","radio_params":)"
      R"({"sigma_db":5.5,"path_loss_exp":2.75,"link_prob":0.65,)"
      R"("fading_seed":123456789},"initial_energy":42.5,)"
      R"("drain_model":"quadratic","drain_params":{"nongateway_drain":0.125,)"
      R"("constant_base":2.5,"quadratic_divisor":7},"stay_probability":0.375,)"
      R"("jump_min":2,"jump_max":5,"mobility":"gauss-markov",)"
      R"("mobility_params":{"stay_probability":0.625,"jump_min":0,)"
      R"("jump_max":3,"step_min":0.5,"step_max":4.5,"speed_min":1.25,)"
      R"("speed_max":3.75,"pause_intervals":2,"mean_speed":2.25,)"
      R"("alpha":0.875,"speed_stddev":1.125,"heading_stddev":0.6875},)"
      R"("scheme":"SEL","strategy":"verified","clique_policy":"elect-max-key",)"
      R"("custom_key":"ND","custom_rule2_form":"simple","use_rule_k":true,)"
      R"("quantum":3.5,"stability_beta":0.8125,"stability_quantum":1.25,)"
      R"("engine":"tiled","backbone":"cds22","tiles":9,"threads":4,)"
      R"("max_intervals":1234,"connect_retries":77})");
}

TEST(ConfigJsonTest, DefaultsRoundTrip) {
  const SimConfig original;
  const std::string wire = to_json(original);
  const SimConfig parsed = from_json(wire);
  expect_config_eq(parsed, original);
  EXPECT_EQ(to_json(parsed), wire);
}

// The regression this file exists for: a non-default mobility model must
// come back as itself, not as paper-jump. Pins every kind.
TEST(ConfigJsonTest, EveryMobilityKindRoundTrips) {
  for (const MobilityKind kind :
       {MobilityKind::kPaperJump, MobilityKind::kRandomWalk,
        MobilityKind::kRandomWaypoint, MobilityKind::kGaussMarkov,
        MobilityKind::kStatic}) {
    SimConfig c;
    c.mobility_kind = kind;
    c.mobility_params.mean_speed = 4.25;  // must ride along for every kind
    const SimConfig parsed = from_json(to_json(c));
    EXPECT_EQ(parsed.mobility_kind, kind) << to_string(kind);
    EXPECT_EQ(parsed.mobility_params.mean_speed, 4.25) << to_string(kind);
  }
}

TEST(ConfigJsonTest, EveryRadioKindRoundTrips) {
  for (const RadioKind kind : {RadioKind::kUnitDisk, RadioKind::kShadowing,
                               RadioKind::kProbabilistic}) {
    SimConfig c;
    c.radio = kind;
    c.radio_params.fading_seed = 42;
    const SimConfig parsed = from_json(to_json(c));
    EXPECT_EQ(parsed.radio, kind) << to_string(kind);
    EXPECT_EQ(parsed.radio_params.fading_seed, 42u) << to_string(kind);
  }
}

TEST(ConfigJsonTest, EveryLinkModelRoundTrips) {
  for (const LinkModel model :
       {LinkModel::kUnitDisk, LinkModel::kGabriel, LinkModel::kRng}) {
    SimConfig c;
    c.link_model = model;
    EXPECT_EQ(from_json(to_json(c)).link_model, model) << to_string(model);
  }
}

TEST(ConfigJsonTest, EverySchemeRoundTrips) {
  for (const RuleSet rs : {RuleSet::kNR, RuleSet::kID, RuleSet::kND,
                           RuleSet::kEL1, RuleSet::kEL2, RuleSet::kSEL}) {
    SimConfig c;
    c.rule_set = rs;
    EXPECT_EQ(from_json(to_json(c)).rule_set, rs) << to_string(rs);
  }
}

TEST(ConfigJsonTest, CustomKeyRoundTripsIncludingUnset) {
  {
    SimConfig c;  // default: unset, written as JSON null
    EXPECT_FALSE(from_json(to_json(c)).custom_key.has_value());
  }
  for (const KeyKind kind :
       {KeyKind::kId, KeyKind::kDegreeId, KeyKind::kEnergyId,
        KeyKind::kEnergyDegreeId, KeyKind::kStabilityEnergyId}) {
    SimConfig c;
    c.custom_key = kind;
    const SimConfig parsed = from_json(to_json(c));
    ASSERT_TRUE(parsed.custom_key.has_value()) << to_string(kind);
    EXPECT_EQ(*parsed.custom_key, kind) << to_string(kind);
  }
}

// Older corpus entries predate most keys: absent keys keep the caller's
// defaults instead of failing or zeroing.
TEST(ConfigJsonTest, AbsentKeysKeepDefaults) {
  const SimConfig parsed = from_json("{\"n\": 7}");
  SimConfig expected;
  expected.n_hosts = 7;
  expect_config_eq(parsed, expected);
}

TEST(ConfigJsonTest, UnknownKeyFailsLoudly) {
  EXPECT_THROW((void)from_json("{\"mobilty\": \"static\"}"),
               std::runtime_error);
}

TEST(ConfigJsonTest, RadioRequiresUnitDiskLinks) {
  SimConfig c;
  c.radio = RadioKind::kShadowing;
  c.link_model = LinkModel::kGabriel;
  EXPECT_THROW((void)from_json(to_json(c)), std::runtime_error);
}

TEST(ConfigJsonTest, RuleChoicesRequireACustomKey) {
  // Without a custom key the scheme's own rules run: a Rule k or
  // simple-form request would be ignored while the manifest reported it.
  EXPECT_THROW((void)from_json(R"({"n":30,"scheme":"EL1","use_rule_k":true})"),
               std::runtime_error);
  EXPECT_THROW((void)from_json(R"({"custom_rule2_form":"simple"})"),
               std::runtime_error);
  const SimConfig parsed = from_json(
      R"({"custom_key":"ND","custom_rule2_form":"simple","use_rule_k":true})");
  EXPECT_TRUE(parsed.use_rule_k);
  EXPECT_EQ(parsed.custom_rule2_form, Rule2Form::kSimple);
}

TEST(ConfigJsonTest, FadingSeedBeyondExactDoubleRangeFails) {
  // 2^53 + 2 is representable as a double but past the exact-integer range.
  EXPECT_THROW(
      (void)from_json(
          "{\"radio_params\": {\"fading_seed\": 9007199254740994}}"),
      std::runtime_error);
}

TEST(ConfigJsonTest, ValidateHoldsCodeBuiltConfigsToTheWireRules) {
  EXPECT_EQ(validate_sim_config(SimConfig{}), "");
  SimConfig c;
  c.threads = 257;
  EXPECT_EQ(validate_sim_config(c),
            "config.threads must be an integer in [0, 256]");
  c = SimConfig{};
  c.radio_params.fading_seed = std::uint64_t{1} << 53;
  EXPECT_EQ(validate_sim_config(c),
            "config.radio_params.fading_seed must be an integer in [0, "
            "9007199254740991]");
  EXPECT_THROW((void)checked_sim_config(c), std::invalid_argument);
  // A refused config that still writes parses to the same message.
  c = SimConfig{};
  c.field_depth = 1e300;
  try {
    (void)from_json(to_json(c));
    ADD_FAILURE() << "field_depth 1e300 accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(e.what(), "test: " + validate_sim_config(c));
  }
}

TEST(ConfigJsonTest, OutOfRangeValuesFail) {
  EXPECT_THROW((void)from_json("{\"stability_beta\": 1.5}"),
               std::runtime_error);
  EXPECT_THROW((void)from_json("{\"field_depth\": -1}"), std::runtime_error);
  EXPECT_THROW(
      (void)from_json("{\"radio_params\": {\"link_prob\": 1.5}}"),
      std::runtime_error);
  EXPECT_THROW(
      (void)from_json(
          "{\"mobility_params\": {\"jump_min\": 4, \"jump_max\": 2}}"),
      std::runtime_error);
}

// Tripwire: if this fails, SimConfig gained (or lost) a member. Extend the
// field list in sim/config_json.cpp, non_default_config() and
// expect_config_eq() above, then update the expected size.
TEST(ConfigJsonTest, SimConfigSizeIsPinnedToTheWireFormat) {
  EXPECT_EQ(sizeof(SimConfig), kExpectedSimConfigSize)
      << "SimConfig changed shape. Every member must be in the field list "
         "of sim/config_json.cpp and covered by this suite's "
         "non_default_config/expect_config_eq before bumping this constant.";
}

}  // namespace
}  // namespace pacds
