// Tests for the `pacds serve` layer: wire-protocol strictness, admission
// control, tenant lifecycle (digest caching, LRU eviction, shutdown), the
// socket transport, and the headline determinism claims — the serve path's
// metrics stream is bit-identical to a standalone run, and the output bytes
// do not depend on the server's --threads value.

#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#ifdef __unix__
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#endif

#include "io/json.hpp"
#include "io/json_parse.hpp"
#include "obs/jsonl.hpp"
#include "obs/validate.hpp"
#include "sim/config_json.hpp"
#include "sim/montecarlo.hpp"

namespace pacds::serve {
namespace {

std::string serve_lines(const std::vector<std::string>& lines,
                        ServeOptions options = {}) {
  std::ostringstream out;
  Server server(options, out);
  server.process_lines(lines);
  return out.str();
}

/// Splits a JSONL buffer into parsed records.
std::vector<JsonValue> records_of(const std::string& stream) {
  std::vector<JsonValue> records;
  std::istringstream in(stream);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) records.push_back(parse_json(line));
  }
  return records;
}

/// Records of one "type" (serve_response, serve_error, interval, ...).
std::vector<JsonValue> records_of_type(const std::string& stream,
                                       const std::string& type) {
  std::vector<JsonValue> out;
  for (JsonValue& record : records_of(stream)) {
    const JsonValue* t = record.find("type");
    if (t != nullptr && t->as_string() == type) out.push_back(record);
  }
  return out;
}

/// Re-serializes every record with the wall-clock "*_ns" fields zeroed and,
/// optionally, the serve envelope stripped for standalone comparison:
/// responses/errors dropped (no standalone counterpart) and the "tenant"
/// tag removed. Everything else — key order, number formatting, record
/// order — must match byte for byte.
std::string normalize(const std::string& stream, bool strip_envelope) {
  std::ostringstream out;
  std::istringstream in(stream);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const JsonValue record = parse_json(line);
    const JsonValue* type = record.find("type");
    if (strip_envelope && type != nullptr &&
        (type->as_string() == "serve_response" ||
         type->as_string() == "serve_error")) {
      continue;
    }
    JsonWriter json(out);
    json.begin_object();
    for (const auto& [key, value] : record.as_object()) {
      if (strip_envelope && key == "tenant") continue;
      json.key(key);
      if (value.is_number() && key.size() > 3 &&
          key.compare(key.size() - 3, 3, "_ns") == 0) {
        json.value(0);
      } else {
        write_json(json, value);
      }
    }
    json.end_object();
    out << "\n";
  }
  return out.str();
}

/// Canonical form for serve-vs-standalone comparison.
std::string canonicalize(const std::string& stream) {
  return normalize(stream, /*strip_envelope=*/true);
}

/// Timing-free form of a full serve stream, envelope included.
std::string zero_ns(const std::string& stream) {
  return normalize(stream, /*strip_envelope=*/false);
}

RequestError parse_error_of(const std::string& line) {
  RequestError error;
  EXPECT_FALSE(parse_request(line, 1, error).has_value()) << line;
  return error;
}

// ---------------------------------------------------------------- protocol

TEST(ServeProtocolTest, MalformedLinesAreParseErrors) {
  EXPECT_EQ(parse_error_of("not json").code, ErrorCode::kParse);
  EXPECT_EQ(parse_error_of("{\"op\":\"status\"").code, ErrorCode::kParse);
  EXPECT_EQ(parse_error_of("[1,2]").code, ErrorCode::kSchema);
  // Duplicate keys are rejected by the parser itself, before any schema
  // logic sees the line — a smuggled second "tenant" can't slip through.
  EXPECT_EQ(
      parse_error_of(R"({"op":"status","tenant":"a","tenant":"b"})").code,
      ErrorCode::kParse);
}

TEST(ServeProtocolTest, SchemaViolationsAreNamed) {
  EXPECT_EQ(parse_error_of(R"({"tenant":"a"})").code, ErrorCode::kSchema);
  EXPECT_EQ(parse_error_of(R"({"op":"warp","tenant":"a"})").code,
            ErrorCode::kSchema);
  // Per-op key whitelist: tick does not take config, status no intervals.
  EXPECT_EQ(parse_error_of(
                R"({"op":"tick","tenant":"a","config":{"n":5}})")
                .code,
            ErrorCode::kSchema);
  EXPECT_EQ(
      parse_error_of(R"({"op":"status","tenant":"a","intervals":3})").code,
      ErrorCode::kSchema);
  // Missing required keys.
  EXPECT_EQ(parse_error_of(R"({"op":"status"})").code, ErrorCode::kSchema);
  EXPECT_EQ(parse_error_of(R"({"op":"create","tenant":"a"})").code,
            ErrorCode::kSchema);
  // Range checks ride the shared config parser.
  EXPECT_EQ(parse_error_of(
                R"({"op":"create","tenant":"a","config":{"n":-3}})")
                .code,
            ErrorCode::kSchema);
}

// The fault plan is parsed from the request's own JSON value, so the error
// names the number as the client sent it (1e400 overflows to inf) rather
// than the null a text round trip would have turned it into.
TEST(ServeProtocolTest, FaultPlanErrorsNameTheSentValue) {
  const RequestError error = parse_error_of(
      R"({"op":"create","tenant":"a","config":{"n":5},)"
      R"("faults":{"thefts":[{"node":1,"at":2,"amount":1e400}]}})");
  EXPECT_EQ(error.code, ErrorCode::kSchema);
  EXPECT_EQ(error.message, "fault plan: thefts[0].amount must be finite");
}

TEST(ServeProtocolTest, TenantNamesAreIdentifiers) {
  EXPECT_TRUE(valid_tenant_name("a"));
  EXPECT_TRUE(valid_tenant_name("tenant-7.B_x"));
  EXPECT_FALSE(valid_tenant_name(""));
  EXPECT_FALSE(valid_tenant_name("has space"));
  EXPECT_FALSE(valid_tenant_name("quote\"inject"));
  EXPECT_FALSE(valid_tenant_name(std::string(65, 'a')));
  EXPECT_EQ(parse_error_of(R"({"op":"status","tenant":"a b"})").code,
            ErrorCode::kSchema);
}

TEST(ServeProtocolTest, ParsedCreateCarriesAllFields) {
  RequestError error;
  const auto request = parse_request(
      R"({"op":"create","tenant":"t1","config":{"n":9,"radius":40},)"
      R"("seed":11,"trials":3})",
      7, error);
  ASSERT_TRUE(request.has_value()) << error.message;
  EXPECT_EQ(request->op, Op::kCreate);
  EXPECT_EQ(request->seq, 7u);
  EXPECT_EQ(request->tenant, "t1");
  EXPECT_EQ(request->config.n_hosts, 9);
  EXPECT_DOUBLE_EQ(request->config.radius, 40.0);
  EXPECT_EQ(request->seed, 11u);
  EXPECT_EQ(request->trials, 3);
  EXPECT_FALSE(request->has_faults);
}

// See RequestSizeIsPinnedToTheWireFormat below.
constexpr std::size_t kExpectedRequestSize = 496;

// Every Request member the wire sets comes back as sent. No op takes every
// key, so a sweep and a tick between them cover the list.
TEST(ServeProtocolTest, EveryRequestMemberIsRead) {
  RequestError error;
  const auto sweep = parse_request(
      R"({"op":"sweep","tenant":"t-2","config":{"n":9,"scheme":"SEL"},)"
      R"("seed":12345678901,"trials":4,)"
      R"("faults":{"seed":3,"crashes":[{"node":2,"at":1}]}})",
      5, error);
  ASSERT_TRUE(sweep.has_value()) << error.message;
  EXPECT_EQ(sweep->op, Op::kSweep);
  EXPECT_EQ(sweep->seq, 5u);
  EXPECT_EQ(sweep->tenant, "t-2");
  EXPECT_EQ(sweep->config.n_hosts, 9);
  EXPECT_EQ(sweep->config.rule_set, RuleSet::kSEL);
  EXPECT_EQ(sweep->seed, 12345678901u);
  EXPECT_EQ(sweep->trials, 4);
  EXPECT_TRUE(sweep->has_faults);
  EXPECT_EQ(sweep->faults.seed, 3u);
  ASSERT_EQ(sweep->faults.crashes.size(), 1u);
  EXPECT_EQ(sweep->faults.crashes[0].node, 2);
  EXPECT_EQ(sweep->intervals, 0);

  const auto tick =
      parse_request(R"({"op":"tick","tenant":"t-2","intervals":6})", 6, error);
  ASSERT_TRUE(tick.has_value()) << error.message;
  EXPECT_EQ(tick->op, Op::kTick);
  EXPECT_EQ(tick->tenant, "t-2");
  EXPECT_EQ(tick->intervals, 6);

  // write_request writes what parse_request reads, member by member, for
  // every op (and for a configured op without a plan). Documents compare
  // by their wire bytes; their own tests pin those member by member.
  const auto wire = [](const auto& document) {
    std::ostringstream out;
    JsonWriter json(out);
    write_document(json, document);
    return out.str();
  };
  for (const auto& [op, with_faults] :
       {std::pair{Op::kCreate, true}, std::pair{Op::kCreate, false},
        std::pair{Op::kTick, false}, std::pair{Op::kStatus, false},
        std::pair{Op::kEvict, false}, std::pair{Op::kSweep, true},
        std::pair{Op::kShutdown, false}}) {
    Request r;
    r.op = op;
    r.seq = 8;
    if (op != Op::kShutdown) r.tenant = "t-3";
    if (op == Op::kCreate || op == Op::kSweep) {
      r.config.n_hosts = 11;
      r.config.rule_set = RuleSet::kEL2;
      r.seed = 9007199254740991u;
      r.trials = 3;
    }
    if (with_faults) {
      r.faults.seed = 4;
      r.faults.crashes.push_back({.node = 5, .at = 2});
      r.has_faults = true;
    }
    if (op == Op::kTick) r.intervals = 9;
    const std::string line = write_request(r);
    const auto back = parse_request(line, 8, error);
    ASSERT_TRUE(back.has_value()) << line << ": " << error.message;
    EXPECT_EQ(back->op, r.op) << line;
    EXPECT_EQ(back->seq, r.seq) << line;
    EXPECT_EQ(back->tenant, r.tenant) << line;
    EXPECT_EQ(wire(back->config), wire(r.config)) << line;
    EXPECT_EQ(back->seed, r.seed) << line;
    EXPECT_EQ(back->trials, r.trials) << line;
    EXPECT_EQ(wire(back->faults), wire(r.faults)) << line;
    EXPECT_EQ(back->has_faults, r.has_faults) << line;
    EXPECT_EQ(back->intervals, r.intervals) << line;
  }
}

// Seeds ride the wire as doubles, so the request seed takes the plan
// seed's exact-integer bound: 2^53 - 1 is the largest that round-trips.
TEST(ServeProtocolTest, SeedTakesEveryExactInteger) {
  RequestError error;
  const auto create = parse_request(
      R"({"op":"create","tenant":"a","config":{},"seed":9007199254740991})",
      1, error);
  ASSERT_TRUE(create.has_value()) << error.message;
  EXPECT_EQ(create->seed, 9007199254740991u);
  const RequestError past = parse_error_of(
      R"({"op":"create","tenant":"a","config":{},"seed":9007199254740992})");
  EXPECT_EQ(past.code, ErrorCode::kSchema);
  EXPECT_EQ(past.message,
            "serve: seed must be an integer in [0, 9007199254740991]");
}

// Tripwire: if this fails, Request gained (or lost) a member. Add it to the
// request's wire format and to EveryRequestMemberIsRead, then update the
// size.
TEST(ServeProtocolTest, RequestSizeIsPinnedToTheWireFormat) {
  EXPECT_EQ(sizeof(Request), kExpectedRequestSize);
}

TEST(ServeProtocolTest, DigestSeparatesStreamsNotSpellings) {
  SimConfig config;
  config.n_hosts = 12;
  const std::string base = tenant_digest(config, 5, 2, nullptr);
  EXPECT_EQ(base.size(), 16u);
  EXPECT_EQ(tenant_digest(config, 5, 2, nullptr), base);
  EXPECT_NE(tenant_digest(config, 6, 2, nullptr), base);
  EXPECT_NE(tenant_digest(config, 5, 3, nullptr), base);
  SimConfig other = config;
  other.n_hosts = 13;
  EXPECT_NE(tenant_digest(other, 5, 2, nullptr), base);
}

TEST(ServeProtocolTest, TagTenantLinesPrependsFirstMember) {
  EXPECT_EQ(tag_tenant_lines("{\"a\":1}\n", "t"),
            "{\"tenant\":\"t\",\"a\":1}\n");
  EXPECT_EQ(tag_tenant_lines("{}\n", "t"), "{\"tenant\":\"t\"}\n");
  EXPECT_EQ(tag_tenant_lines("{\"a\":1}\n{\"b\":2}\n", "t"),
            "{\"tenant\":\"t\",\"a\":1}\n{\"tenant\":\"t\",\"b\":2}\n");
  // Tagged lines still parse strictly (no duplicate keys introduced).
  const JsonValue tagged =
      parse_json("{\"tenant\":\"t\",\"a\":1}");
  EXPECT_EQ(tagged.find("tenant")->as_string(), "t");
}

// ------------------------------------------------------------------ server

TEST(ServeServerTest, CreateTickRoundTrip) {
  const std::string out = serve_lines(
      {R"({"op":"create","tenant":"a","config":{"n":16,"radius":35},)"
       R"("seed":3,"trials":1})",
       R"({"op":"tick","tenant":"a","intervals":2})"});
  const auto manifests = records_of_type(out, "run_manifest");
  ASSERT_EQ(manifests.size(), 1u);
  EXPECT_EQ(manifests[0].find("tenant")->as_string(), "a");
  EXPECT_EQ(manifests[0].as_object()[0].first, "tenant");

  const auto intervals = records_of_type(out, "interval");
  ASSERT_EQ(intervals.size(), 2u);
  EXPECT_EQ(intervals[0].find("tenant")->as_string(), "a");

  const auto responses = records_of_type(out, "serve_response");
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(responses[0].find("seq")->as_number(), 1.0);
  EXPECT_EQ(responses[0].find("op")->as_string(), "create");
  EXPECT_FALSE(responses[0].find("cached")->as_bool());
  EXPECT_EQ(responses[1].find("seq")->as_number(), 2.0);
  EXPECT_EQ(responses[1].find("intervals_run")->as_number(), 2.0);
  EXPECT_FALSE(responses[1].find("finished")->as_bool());
}

TEST(ServeServerTest, TiledTenantOnAWideFieldTicks) {
  // This field once overflowed the tiled engine's tile count, and the
  // server aborted before it answered either request.
  const std::string out = serve_lines(
      {R"({"op":"create","tenant":"w","config":{"n":30,"radius":25,)"
       R"("engine":"tiled","strategy":"simultaneous",)"
       R"("field_width":2317050,"field_height":2317050}})",
       R"({"op":"tick","tenant":"w","intervals":1})"});
  EXPECT_TRUE(records_of_type(out, "serve_error").empty()) << out;
  const auto responses = records_of_type(out, "serve_response");
  ASSERT_EQ(responses.size(), 2u) << out;
  EXPECT_EQ(responses[1].find("op")->as_string(), "tick");
  EXPECT_EQ(responses[1].find("intervals_run")->as_number(), 1.0);
}

TEST(ServeServerTest, UnknownTenantIsAnError) {
  for (const char* line :
       {R"({"op":"tick","tenant":"ghost"})", R"({"op":"status","tenant":"ghost"})",
        R"({"op":"evict","tenant":"ghost"})"}) {
    const std::string out = serve_lines({line});
    const auto errors = records_of_type(out, "serve_error");
    ASSERT_EQ(errors.size(), 1u) << line;
    EXPECT_EQ(errors[0].find("code")->as_string(), "unknown_tenant");
  }
}

TEST(ServeServerTest, RecreateIsCachedOnlyOnDigestMatch) {
  const std::string create =
      R"({"op":"create","tenant":"a","config":{"n":10},"seed":2})";
  const std::string out = serve_lines(
      {create, create,
       // Same stream, different threads: forced to 1 before digesting, so
       // still a cache hit.
       R"({"op":"create","tenant":"a","config":{"n":10,"threads":8},"seed":2})",
       // Different seed: a genuinely different stream, so a conflict.
       R"({"op":"create","tenant":"a","config":{"n":10},"seed":3})"});
  const auto responses = records_of_type(out, "serve_response");
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_FALSE(responses[0].find("cached")->as_bool());
  EXPECT_TRUE(responses[1].find("cached")->as_bool());
  EXPECT_TRUE(responses[2].find("cached")->as_bool());
  const auto errors = records_of_type(out, "serve_error");
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].find("code")->as_string(), "tenant_exists");
  // Only the first create emits a manifest; cache hits are silent.
  EXPECT_EQ(records_of_type(out, "run_manifest").size(), 1u);
}

TEST(ServeServerTest, LruEvictionNamesTheVictim) {
  ServeOptions options;
  options.max_tenants = 2;
  std::ostringstream out;
  Server server(options, out);
  server.process_lines(
      {R"({"op":"create","tenant":"a","config":{"n":8}})",
       R"({"op":"create","tenant":"b","config":{"n":8}})",
       R"({"op":"status","tenant":"a"})",  // refresh a; b is now LRU
       R"({"op":"create","tenant":"c","config":{"n":8}})"});
  EXPECT_EQ(server.tenant_count(), 2u);
  const auto responses = records_of_type(out.str(), "serve_response");
  ASSERT_EQ(responses.size(), 4u);
  const JsonValue* evicted = responses[3].find("evicted");
  ASSERT_NE(evicted, nullptr);
  EXPECT_EQ(evicted->as_string(), "b");
  server.process_lines({R"({"op":"status","tenant":"b"})"});
  const auto errors = records_of_type(out.str(), "serve_error");
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].find("code")->as_string(), "unknown_tenant");
}

TEST(ServeServerTest, QueueFullLinesGetErrorRecords) {
  std::ostringstream out;
  Server server(ServeOptions{}, out);
  std::vector<Server::RawLine> batch(3);
  batch[0].seq = 1;
  batch[0].text = R"({"op":"create","tenant":"a","config":{"n":8}})";
  batch[1].seq = 2;
  batch[1].rejected = true;  // shed by admission control, text gone
  batch[2].seq = 3;
  batch[2].text = R"({"op":"status","tenant":"a"})";
  EXPECT_TRUE(server.process_batch(batch));
  const auto errors = records_of_type(out.str(), "serve_error");
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].find("seq")->as_number(), 2.0);
  EXPECT_EQ(errors[0].find("code")->as_string(), "queue_full");
  // The shed line did not poison its neighbors.
  EXPECT_EQ(records_of_type(out.str(), "serve_response").size(), 2u);
}

TEST(ServeServerTest, ShutdownRejectsEverythingAfter) {
  std::ostringstream out;
  Server server(ServeOptions{}, out);
  EXPECT_FALSE(server.process_lines(
      {R"({"op":"create","tenant":"a","config":{"n":8}})",
       R"({"op":"shutdown"})",
       R"({"op":"status","tenant":"a"})"}));
  EXPECT_TRUE(server.shut_down());
  const auto errors = records_of_type(out.str(), "serve_error");
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].find("code")->as_string(), "shutdown");
  EXPECT_EQ(errors[0].find("seq")->as_number(), 3.0);
  // And later batches stay rejected.
  EXPECT_FALSE(server.process_lines({R"({"op":"status","tenant":"a"})"}));
}

TEST(ServeServerTest, StreamModeMatchesProcessLines) {
  const std::vector<std::string> lines = {
      R"({"op":"create","tenant":"a","config":{"n":12},"trials":1})",
      R"({"op":"tick","tenant":"a"})",
      R"({"op":"shutdown"})"};
  std::string piped;
  {
    std::ostringstream out;
    std::istringstream in(lines[0] + "\n\n" + lines[1] + "\n" + lines[2] +
                          "\n");
    Server server(ServeOptions{}, out);
    EXPECT_EQ(server.run(in), 0);
    piped = out.str();
  }
  EXPECT_EQ(zero_ns(piped), zero_ns(serve_lines(lines)));
}

TEST(ServeServerTest, TickZeroRunsAllRemainingTrials) {
  const std::string out = serve_lines(
      {R"({"op":"create","tenant":"a","config":{"n":14},"seed":5,"trials":2})",
       R"({"op":"tick","tenant":"a"})",
       R"({"op":"status","tenant":"a"})"});
  const auto responses = records_of_type(out, "serve_response");
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_TRUE(responses[1].find("finished")->as_bool());
  EXPECT_EQ(responses[1].find("trial")->as_number(), 2.0);
  EXPECT_TRUE(responses[2].find("finished")->as_bool());
  EXPECT_EQ(records_of_type(out, "trial_summary").size(), 0u)
      << "tick streams interval records only";
}

// The headline oracle: a tenant's serve stream — created, then advanced in
// uneven chunks across several requests — is bit-identical to a standalone
// run_lifetime_trials stream modulo the tenant tag and wall-clock fields.
TEST(ServeServerTest, TenantStreamMatchesStandaloneRun) {
  SimConfig config;
  config.n_hosts = 24;
  config.radius = 30.0;
  std::ostringstream standalone;
  {
    obs::JsonlSink sink(standalone);
    (void)run_lifetime_trials(config, 3, 77, nullptr, &sink, nullptr);
  }

  const std::string served = serve_lines(
      {R"({"op":"create","tenant":"iso","config":{"n":24,"radius":30},)"
       R"("seed":77,"trials":3})",
       R"({"op":"tick","tenant":"iso","intervals":5})",
       R"({"op":"tick","tenant":"iso","intervals":1})",
       R"({"op":"tick","tenant":"iso"})"});

  EXPECT_EQ(canonicalize(served), canonicalize(standalone.str()));
}

// Same oracle through the sweep op, which runs the Monte-Carlo path
// directly: identical stream, one request.
TEST(ServeServerTest, SweepStreamMatchesStandaloneRun) {
  SimConfig config;
  config.n_hosts = 18;
  std::ostringstream standalone;
  {
    obs::JsonlSink sink(standalone);
    (void)run_lifetime_trials(config, 2, 9, nullptr, &sink, nullptr);
  }
  const std::string served = serve_lines(
      {R"({"op":"sweep","tenant":"s","config":{"n":18},"seed":9,"trials":2})"});
  EXPECT_EQ(canonicalize(served), canonicalize(standalone.str()));
}

// Two tenants with identical configs and seeds produce identical canonical
// streams — interleaving their ticks does not leak state across tenants.
TEST(ServeServerTest, TenantsAreIsolated) {
  const std::string create_a =
      R"({"op":"create","tenant":"a","config":{"n":16},"seed":4,"trials":2})";
  const std::string create_b =
      R"({"op":"create","tenant":"b","config":{"n":16},"seed":4,"trials":2})";
  const std::string out = serve_lines(
      {create_a, create_b,
       R"({"op":"tick","tenant":"a","intervals":4})",
       R"({"op":"tick","tenant":"b","intervals":2})",
       R"({"op":"tick","tenant":"a"})",
       R"({"op":"tick","tenant":"b"})"});

  const auto tenant_only = [&](const std::string& name) {
    std::ostringstream filtered;
    std::istringstream in(out);
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      const JsonValue record = parse_json(line);
      const JsonValue* tenant = record.find("tenant");
      if (tenant != nullptr && tenant->is_string() &&
          tenant->as_string() == name) {
        filtered << line << "\n";
      }
    }
    return canonicalize(filtered.str());
  };
  const std::string a = tenant_only("a");
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, tenant_only("b"));
}

// The output stream is a pure function of the input lines: the server's
// thread count schedules work but cannot reorder or perturb records.
TEST(ServeServerTest, OutputIdenticalAcrossServerThreads) {
  const std::vector<std::string> lines = {
      R"({"op":"create","tenant":"a","config":{"n":14},"seed":1,"trials":2})",
      R"({"op":"create","tenant":"b","config":{"n":18},"seed":2,"trials":1})",
      R"({"op":"create","tenant":"c","config":{"n":10},"seed":3,"trials":2})",
      R"({"op":"tick","tenant":"b","intervals":6})",
      R"({"op":"tick","tenant":"a","intervals":3})",
      R"({"op":"sweep","tenant":"d","config":{"n":12},"seed":8,"trials":2})",
      R"({"op":"tick","tenant":"c","intervals":4})",
      R"({"op":"status","tenant":"a"})",
      R"({"op":"tick","tenant":"a"})",
      R"({"op":"tick","tenant":"c"})",
  };
  ServeOptions serial;
  serial.threads = 1;
  ServeOptions pooled;
  pooled.threads = 8;
  const std::string a = serve_lines(lines, serial);
  const std::string b = serve_lines(lines, pooled);
  EXPECT_EQ(zero_ns(a), zero_ns(b));
  EXPECT_EQ(records_of_type(a, "serve_response").size(), lines.size());
}

// The full serve output — responses and errors included — is a valid
// schema-v1 metrics stream, so CI can pipe it straight into
// `bench_report --validate-jsonl --strict`.
TEST(ServeServerTest, FullStreamPassesSchemaValidation) {
  const std::string out = serve_lines(
      {R"({"op":"create","tenant":"a","config":{"n":12},"trials":1})",
       R"({"op":"tick","tenant":"a"})",
       R"({"op":"bad"})"});
  std::istringstream in(out);
  const obs::StreamValidation result = obs::validate_metrics_stream(in);
  EXPECT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.count_of("run_manifest"), 1u);
  EXPECT_GE(result.count_of("interval"), 1u);
  EXPECT_EQ(result.count_of("serve_response"), 2u);
  EXPECT_EQ(result.count_of("serve_error"), 1u);
}

// A config the simulator would refuse is a schema error at create, so a
// tick on that tenant finds none, and a pooled server keeps answering.
TEST(ServeServerTest, RefusedConfigLeavesThePooledServerAnswering) {
  ServeOptions options;
  options.threads = 2;
  const std::string out = serve_lines(
      {R"({"op":"create","tenant":"bad","config":{"n":10,)"
       R"("mobility":"gauss-markov","mobility_params":{"alpha":2}}})",
       R"({"op":"tick","tenant":"bad","intervals":1})",
       R"({"op":"create","tenant":"good","config":{"n":12},"trials":1})",
       R"({"op":"tick","tenant":"good","intervals":2})",
       R"({"op":"status","tenant":"good"})"},
      options);
  const auto errors = records_of_type(out, "serve_error");
  ASSERT_EQ(errors.size(), 2u);
  EXPECT_EQ(errors[0].find("seq")->as_number(), 1.0);
  EXPECT_EQ(errors[0].find("code")->as_string(), "schema");
  EXPECT_NE(errors[0].find("error")->as_string().find("alpha"),
            std::string::npos);
  EXPECT_EQ(errors[1].find("seq")->as_number(), 2.0);
  EXPECT_EQ(errors[1].find("code")->as_string(), "unknown_tenant");
  const auto responses = records_of_type(out, "serve_response");
  ASSERT_EQ(responses.size(), 3u);
  for (std::size_t i = 0; i < responses.size(); ++i) {
    EXPECT_EQ(responses[i].find("seq")->as_number(),
              static_cast<double>(i + 3));
  }
  EXPECT_EQ(records_of_type(out, "interval").size(), 2u);
}

// tests/serve_rejects.jsonl, which CI pipes through `pacds serve`: every
// line gets exactly one terminal record, and the stream ends cleanly.
TEST(ServeServerTest, RejectsFileGetsOneTerminalRecordPerLine) {
  std::ifstream file(PACDS_SERVE_REJECTS);
  ASSERT_TRUE(file.good()) << PACDS_SERVE_REJECTS;
  std::ostringstream out;
  ServeOptions options;
  options.threads = 2;
  Server server(options, out);
  EXPECT_EQ(server.run(file), 0);
  std::vector<double> seqs;
  for (const JsonValue& record : records_of(out.str())) {
    const std::string type = record.find("type")->as_string();
    if (type == "serve_response" || type == "serve_error") {
      seqs.push_back(record.find("seq")->as_number());
    }
  }
  ASSERT_EQ(seqs.size(), 35u);
  for (std::size_t i = 0; i < seqs.size(); ++i) {
    EXPECT_EQ(seqs[i], static_cast<double>(i + 1));
  }
  EXPECT_EQ(records_of_type(out.str(), "serve_error").size(), 31u);
}

// ------------------------------------------------------------------ socket

#ifdef __unix__

/// Connects a client to the socket server at `path`, retrying while the
/// server thread binds. -1 once the server has returned, or after ~5 s.
int connect_to(const std::string& path, const std::atomic<bool>& server_done) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  for (int attempt = 0; attempt < 500 && !server_done; ++attempt) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      return fd;
    }
    ::close(fd);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return -1;
}

/// Sends `text`, half-closes the connection and reads the reply to EOF.
std::string send_and_half_close(int fd, const std::string& text) {
  std::size_t sent = 0;
  while (sent < text.size()) {
    const ssize_t put = ::write(fd, text.data() + sent, text.size() - sent);
    if (put <= 0) break;
    sent += static_cast<std::size_t>(put);
  }
  ::shutdown(fd, SHUT_WR);
  std::string reply;
  char chunk[4096];
  ssize_t got;
  while ((got = ::read(fd, chunk, sizeof(chunk))) > 0) {
    reply.append(chunk, static_cast<std::size_t>(got));
  }
  ::close(fd);
  return reply;
}

TEST(ServeSocketTest, HalfCloseAnswersTheUnterminatedLastRequest) {
  // Stdin mode answers a final line without a newline; the socket mode
  // must too when the client half-closes after it.
  const std::string path =
      "/tmp/pacds-serve-" + std::to_string(::getpid()) + ".sock";
  std::ostringstream unused;
  Server server(ServeOptions{}, unused);
  std::atomic<bool> done{false};
  int status = -1;
  std::thread thread([&] {
    status = server.run_unix_socket(path);
    done = true;
  });
  std::string reply;
  const int client = connect_to(path, done);
  if (client >= 0) {
    reply = send_and_half_close(
        client,
        R"({"op":"create","tenant":"a","config":{"n":8},"trials":1})"
        "\n"
        R"({"op":"status","tenant":"a"})");
    const int closer = connect_to(path, done);
    // Newline-terminated, so the server shuts down whatever it does with
    // an unterminated line.
    if (closer >= 0) {
      (void)send_and_half_close(closer, R"({"op":"shutdown"})" "\n");
    }
  }
  thread.join();
  ASSERT_GE(client, 0) << "cannot connect to " << path;
  EXPECT_EQ(status, 0);
  const auto responses = records_of_type(reply, "serve_response");
  EXPECT_EQ(records_of_type(reply, "serve_error").size(), 0u) << reply;
  ASSERT_EQ(responses.size(), 2u) << reply;
  EXPECT_EQ(responses[0].find("op")->as_string(), "create");
  EXPECT_EQ(responses[1].find("op")->as_string(), "status");
}

TEST(ServeSocketTest, ClientClosingBeforeItsReplyDoesNotStopTheServer) {
  // A client that sends a request and closes at once must cost only its own
  // reply: no SIGPIPE, and the next client is served. The holder keeps the
  // server busy until the early client has closed, so the reply always
  // meets a closed peer.
  const std::string path =
      "/tmp/pacds-serve-early-" + std::to_string(::getpid()) + ".sock";
  std::ostringstream unused;
  Server server(ServeOptions{}, unused);
  std::atomic<bool> done{false};
  int status = -1;
  std::thread thread([&] {
    status = server.run_unix_socket(path);
    done = true;
  });
  std::string reply;
  const int holder = connect_to(path, done);
  const int early = holder >= 0 ? connect_to(path, done) : -1;
  if (early >= 0) {
    const std::string request = R"({"op":"status","tenant":"x"})" "\n";
    EXPECT_EQ(::write(early, request.data(), request.size()),
              static_cast<ssize_t>(request.size()));
    ::close(early);
    (void)send_and_half_close(holder, "");
    const int client = connect_to(path, done);
    if (client >= 0) {
      reply = send_and_half_close(
          client,
          R"({"op":"create","tenant":"a","config":{"n":8},"trials":1})"
          "\n"
          R"({"op":"status","tenant":"a"})" "\n");
    }
    const int closer = connect_to(path, done);
    if (closer >= 0) {
      (void)send_and_half_close(closer, R"({"op":"shutdown"})" "\n");
    }
  } else if (holder >= 0) {
    (void)send_and_half_close(holder, R"({"op":"shutdown"})" "\n");
  }
  thread.join();
  ASSERT_GE(early, 0) << "cannot connect to " << path;
  EXPECT_EQ(status, 0);
  const auto responses = records_of_type(reply, "serve_response");
  ASSERT_EQ(responses.size(), 2u) << reply;
  EXPECT_EQ(responses[0].find("op")->as_string(), "create");
  EXPECT_EQ(responses[1].find("op")->as_string(), "status");
}

#endif  // __unix__

}  // namespace
}  // namespace pacds::serve
