// JSONL sink + lifetime metrics schema tests. The schema half is the
// ISSUE's acceptance test: every line a `pacds ... --metrics`-style run
// emits must parse as standalone JSON, lead with a run manifest, and carry
// the documented interval fields (DESIGN.md "Observability").

#include "obs/jsonl.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "io/json_parse.hpp"
#include "obs/metrics.hpp"
#include "obs/validate.hpp"
#include "sim/lifetime.hpp"
#include "sim/metrics_io.hpp"
#include "sim/montecarlo.hpp"

namespace pacds {
namespace {

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

TEST(JsonlSinkTest, RecordEmitsOneTerminatedObjectPerCall) {
  std::ostringstream out;
  obs::JsonlSink sink(out);
  EXPECT_EQ(sink.records(), 0u);
  sink.record([](JsonWriter& json) { json.key("a").value(1); });
  sink.record([](JsonWriter& json) {
    json.key("b").value("two");
    json.key("c").value(true);
  });
  EXPECT_EQ(sink.records(), 2u);
  EXPECT_EQ(out.str(), "{\"a\":1}\n{\"b\":\"two\",\"c\":true}\n");
}

TEST(JsonlSinkTest, UnbalancedFillThrowsBeforeNewline) {
  std::ostringstream out;
  obs::JsonlSink sink(out);
  EXPECT_THROW(sink.record([](JsonWriter& json) {
                 json.key("nested");
                 json.begin_object();  // left open
               }),
               std::logic_error);
  EXPECT_EQ(sink.records(), 0u);
}

TEST(JsonlSinkTest, SpliceAppendsCompleteLinesAndCountsThem) {
  std::ostringstream buffer_stream;
  obs::JsonlSink buffer(buffer_stream);
  buffer.record([](JsonWriter& json) { json.key("trial").value(0); });
  buffer.record([](JsonWriter& json) { json.key("trial").value(1); });

  std::ostringstream out;
  obs::JsonlSink sink(out);
  sink.splice(buffer_stream.str());
  EXPECT_EQ(sink.records(), 2u);
  EXPECT_EQ(out.str(), buffer_stream.str());

  sink.splice("");  // zero lines is fine
  EXPECT_EQ(sink.records(), 2u);
  EXPECT_THROW(sink.splice("{\"unterminated\": true}"), std::logic_error);
}

// ---------------------------------------------------------------------------
// Schema: every emitted line must be standalone-parseable JSON with the
// documented fields. This drives the real pipeline (run_lifetime_trials with
// a metrics sink), not hand-built records.

class MetricsSchemaTest : public ::testing::Test {
 protected:
  static SimConfig small_config() {
    SimConfig config;
    config.n_hosts = 20;
    config.rule_set = RuleSet::kEL2;
    config.cds_options.strategy = Strategy::kSimultaneous;
    config.engine = SimEngine::kIncremental;
    return config;
  }
};

TEST_F(MetricsSchemaTest, EveryLineParsesManifestFirstThenIntervals) {
  const SimConfig config = small_config();
  std::ostringstream out;
  obs::JsonlSink sink(out);
  const LifetimeSummary summary =
      run_lifetime_trials(config, 2, 2001, nullptr, &sink);
  ASSERT_GT(summary.intervals.mean, 0.0);

  const std::vector<std::string> lines = split_lines(out.str());
  ASSERT_EQ(lines.size(), sink.records());
  ASSERT_GE(lines.size(), 3u);  // manifest + at least one interval per trial

  // Line 0: the run manifest with the full config.
  const JsonValue manifest = parse_json(lines.front());
  EXPECT_EQ(manifest.find("type")->as_string(), "run_manifest");
  EXPECT_EQ(manifest.find("schema")->as_number(), kMetricsSchemaVersion);
  EXPECT_EQ(manifest.find("base_seed")->as_number(), 2001.0);
  EXPECT_EQ(manifest.find("trials")->as_number(), 2.0);
  EXPECT_EQ(manifest.find("n_hosts")->as_number(), 20.0);
  EXPECT_EQ(manifest.find("scheme")->as_string(), "EL2");
  EXPECT_EQ(manifest.find("engine")->as_string(), "incremental");
  EXPECT_EQ(manifest.find("backbone")->as_string(), "scheme");
  for (const char* key :
       {"threads", "field_width", "field_height", "boundary", "radius",
        "link_model", "initial_energy", "drain_model", "mobility",
        "strategy", "clique_policy", "max_intervals"}) {
    EXPECT_NE(manifest.find(key), nullptr) << "manifest missing " << key;
  }

  // Every other line: an interval record with the documented fields.
  std::size_t intervals_seen = 0;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const JsonValue record = parse_json(lines[i]);
    ASSERT_NE(record.find("type"), nullptr) << lines[i];
    EXPECT_EQ(record.find("type")->as_string(), "interval");
    EXPECT_EQ(record.find("schema")->as_number(), kMetricsSchemaVersion);
    EXPECT_EQ(record.find("scheme")->as_string(), "EL2");
    EXPECT_EQ(record.find("engine")->as_string(), "incremental");
    const double trial = record.find("trial")->as_number();
    EXPECT_TRUE(trial == 0.0 || trial == 1.0);
    for (const char* key : {"interval", "marked", "gateways", "alive",
                            "touched", "energy_min", "energy_mean",
                            "energy_max"}) {
      EXPECT_NE(record.find(key), nullptr) << "interval missing " << key;
    }
    for (std::size_t p = 0; p < obs::kPhaseCount; ++p) {
      const std::string key =
          std::string(obs::phase_name(static_cast<obs::Phase>(p))) + "_ns";
      EXPECT_NE(record.find(key), nullptr) << "interval missing " << key;
    }
    for (std::size_t c = 0; c < obs::kCounterCount; ++c) {
      const char* key = obs::counter_name(static_cast<obs::Counter>(c));
      EXPECT_NE(record.find(key), nullptr) << "interval missing " << key;
    }
    ++intervals_seen;
  }
  EXPECT_GT(intervals_seen, 0u);
}

TEST_F(MetricsSchemaTest, IntervalRecordsCarryLiveCountersAndTimers) {
  const SimConfig config = small_config();
  std::ostringstream out;
  obs::JsonlSink sink(out);
  (void)run_lifetime_trials(config, 1, 2001, nullptr, &sink);

  const std::vector<std::string> lines = split_lines(out.str());
  ASSERT_GE(lines.size(), 3u);

  // The first interval of a trial is always a full refresh with marking
  // time; later intervals on the incremental engine do localized updates.
  const JsonValue first = parse_json(lines[1]);
  EXPECT_EQ(first.find("interval")->as_number(), 1.0);
  EXPECT_EQ(first.find("full_refreshes")->as_number(), 1.0);
  EXPECT_GT(first.find("marking_ns")->as_number(), 0.0);
  EXPECT_GT(first.find("nodes_touched")->as_number(), 0.0);

  double localized = 0.0;
  for (std::size_t i = 2; i < lines.size(); ++i) {
    localized += parse_json(lines[i]).find("localized_updates")->as_number();
  }
  EXPECT_GT(localized, 0.0);
}

TEST_F(MetricsSchemaTest, RuleKIntervalsRecordMarkingAndRulesTime) {
  // A custom-key Rule k run goes through compute_cds_custom, which times
  // its marking and rules phases, so the run attributes its time.
  SimConfig config;
  config.n_hosts = 30;
  config.custom_key = KeyKind::kEnergyId;
  config.use_rule_k = true;
  config.cds_options.strategy = Strategy::kSequential;
  config.max_intervals = 20;
  std::ostringstream out;
  obs::JsonlSink sink(out);
  (void)run_lifetime_trials(config, 1, 2003, nullptr, &sink);

  const std::vector<std::string> lines = split_lines(out.str());
  ASSERT_GE(lines.size(), 2u);
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const JsonValue record = parse_json(lines[i]);
    EXPECT_GT(record.find("marking_ns")->as_number(), 0.0) << lines[i];
    EXPECT_GT(record.find("rules_ns")->as_number(), 0.0) << lines[i];
    EXPECT_EQ(record.find("full_refreshes")->as_number(), 1.0) << lines[i];
    EXPECT_EQ(record.find("nodes_touched")->as_number(), 30.0) << lines[i];
  }
}

// The exact manifest bytes for a config that takes every conditional
// branch of the writer: radio parameters (non-unit-disk radio), the
// Gauss-Markov parameter block, the SEL stability keys and the custom-key
// pair. Serve tenants tag these lines and the benchmark digests hash them.
TEST(RunManifestTest, BytesArePinned) {
  SimConfig config;
  config.n_hosts = 40;
  config.radio = RadioKind::kShadowing;
  config.radio_params.sigma_db = 6.5;
  config.radio_params.fading_seed = 99;
  config.mobility_kind = MobilityKind::kGaussMarkov;
  config.mobility_params.mean_speed = 2.5;
  config.mobility_params.alpha = 0.75;
  config.rule_set = RuleSet::kSEL;
  config.custom_key = KeyKind::kStabilityEnergyId;
  config.custom_rule2_form = Rule2Form::kSimple;
  config.cds_options.clique_policy = CliquePolicy::kElectMaxKey;
  config.stability_beta = 0.625;
  std::ostringstream out;
  obs::JsonlSink sink(out);
  write_run_manifest(sink, config, 2001, 3, nullptr);
  EXPECT_EQ(
      out.str(),
      R"({"type":"run_manifest","schema":1,"base_seed":2001,"trials":3,)"
      R"("scheme":"SEL","engine":"full-rebuild","engine_config":"auto",)"
      R"("backbone":"scheme","threads":1,"tiles":0,"n_hosts":40,)"
      R"("field_width":100,"field_height":100,"field_depth":0,)"
      R"("boundary":"clamp","radius":25,"link_model":"unit-disk",)"
      R"("radio":"shadowing","sigma_db":6.5,"path_loss_exp":3,)"
      R"("link_prob":0.85,"fading_seed":99,"initial_energy":100,)"
      R"("drain_model":"d=N/|G'|","nongateway_drain":1,"constant_base":2,)"
      R"("quadratic_divisor":10,"mobility":"gauss-markov",)"
      R"("stay_probability":0.5,"jump_min":1,"jump_max":6,)"
      R"("mean_speed":2.5,"alpha":0.75,"speed_stddev":1,)"
      R"("heading_stddev":0.5,"stability_beta":0.625,)"
      R"("stability_quantum":0.5,"strategy":"sequential",)"
      R"("clique_policy":"elect-max-key","custom_key":"SEL",)"
      R"("custom_rule2_form":"simple","use_rule_k":false,)"
      R"("energy_key_quantum":1,"connect_retries":500,)"
      R"("max_intervals":200000,"faults":null})"
      "\n");
}

// ---------------------------------------------------------------------------
// Shared stream validator (obs/validate.hpp): the one schema check behind
// `bench_report --validate-jsonl`, the fuzz harness's JSONL oracle, and CI.

TEST(StreamValidatorTest, AcceptsARealMetricsStreamAndCountsTypes) {
  SimConfig config;
  config.n_hosts = 16;
  config.max_intervals = 8;
  std::ostringstream out;
  obs::JsonlSink sink(out);
  (void)run_lifetime_trials(config, 2, 5, nullptr, &sink);
  std::istringstream in(out.str());
  const obs::StreamValidation v = obs::validate_metrics_stream(in);
  EXPECT_TRUE(v.ok) << v.error;
  EXPECT_EQ(v.count_of("run_manifest"), 1u);
  EXPECT_GE(v.count_of("interval"), 2u);
  EXPECT_EQ(v.lines, v.count_of("run_manifest") + v.count_of("interval"));
}

TEST(StreamValidatorTest, RejectsEnvelopeViolations) {
  const auto validate = [](const std::string& text) {
    std::istringstream in(text);
    return obs::validate_metrics_stream(in);
  };
  const std::string manifest = "{\"type\":\"run_manifest\",\"schema\":1}\n";
  const std::string interval = "{\"type\":\"interval\",\"schema\":1}\n";

  EXPECT_FALSE(validate("").ok);  // needs manifest + interval
  EXPECT_FALSE(validate(manifest).ok);
  EXPECT_TRUE(validate(manifest + interval).ok);

  const obs::StreamValidation bad_json = validate(manifest + "{oops\n");
  EXPECT_FALSE(bad_json.ok);
  EXPECT_NE(bad_json.error.find("line 2"), std::string::npos);

  EXPECT_FALSE(validate(manifest + "[1,2]\n").ok);        // not an object
  EXPECT_FALSE(validate(manifest + "{\"schema\":1}\n").ok);  // no type
  EXPECT_FALSE(
      validate(manifest + "{\"type\":\"interval\"}\n").ok);  // no schema
}

TEST(StreamValidatorTest, AcceptsAGapStreamWithoutIntervalRecords) {
  // `pacds gap` emits gap_manifest + gap_point records — a second valid
  // stream shape alongside run_manifest + interval. A manifest of either
  // kind without its points is still incomplete.
  const auto validate = [](const std::string& text) {
    std::istringstream in(text);
    return obs::validate_metrics_stream(in);
  };
  const std::string manifest = "{\"type\":\"gap_manifest\",\"schema\":1}\n";
  const std::string point =
      "{\"type\":\"gap_point\",\"schema\":1,\"n\":20,\"optimum\":7}\n";

  const obs::StreamValidation v = validate(manifest + point);
  EXPECT_TRUE(v.ok) << v.error;
  EXPECT_EQ(v.count_of("gap_manifest"), 1u);
  EXPECT_EQ(v.count_of("gap_point"), 1u);

  EXPECT_FALSE(validate(manifest).ok);  // manifest without points
  EXPECT_FALSE(validate(point).ok);     // points without a manifest
}

TEST(StreamValidatorTest, RejectsNonFiniteNumbersAnywhereInARecord) {
  // JsonWriter maps non-finite doubles to null, so the only way an inf
  // reaches a stream is an overflowing literal — grammatically valid JSON
  // that strtod turns into +inf. The validator must name where it hides.
  std::istringstream in(
      "{\"type\":\"run_manifest\",\"schema\":1}\n"
      "{\"type\":\"interval\",\"schema\":1,"
      "\"energy\":{\"mean\":3.5,\"levels\":[1.0,1e999]}}\n");
  const obs::StreamValidation v = obs::validate_metrics_stream(in);
  EXPECT_FALSE(v.ok);
  EXPECT_NE(v.error.find("line 2"), std::string::npos);
  EXPECT_NE(v.error.find("energy.levels[1]"), std::string::npos);
}

}  // namespace
}  // namespace pacds
