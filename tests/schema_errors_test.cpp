// One table of malformed documents for the three strict JSON schemas the
// program reads besides a bare SimConfig: fault plans, fuzz corpus files and
// serve requests. Each row is a missing required key, a value of the wrong
// type or an unknown key at one nesting level, or a well-formed config that
// breaks a rule of validate_sim_config. Every row must be rejected with its
// module's error prefix ("fault plan: " wherever a plan sits, as a plan is
// read as a document of its own), a message that names the key, and for
// serve the schema error code.

#include <gtest/gtest.h>

#include <exception>
#include <string>

#include "fuzz/scenario.hpp"
#include "serve/protocol.hpp"
#include "sim/faults.hpp"

namespace pacds {
namespace {

enum class Doc { kPlan, kCorpus, kRequest };

struct Row {
  Doc doc;
  const char* text;
  const char* prefix;  ///< the message starts with this
  const char* names;   ///< and contains this
};

/// Corpus rows wrap their members after the required magic and version.
#define CORPUS(members) \
  R"({"format":"pacds-fuzz-repro","schema":1,)" members "}"
/// Request rows that need a valid create around the broken member.
#define CREATE(members) R"({"op":"create","tenant":"a",)" members "}"
/// The same for a sweep, which reads its config as create does.
#define SWEEP(members) R"({"op":"sweep","tenant":"a",)" members "}"

constexpr const char* kPlan = "fault plan: ";
constexpr const char* kCorpus = "fuzz scenario: ";
constexpr const char* kServe = "serve: ";

// clang-format off
constexpr Row kRows[] = {
    // fault plan, top level
    {Doc::kPlan, "[]", kPlan, "document"},
    {Doc::kPlan, R"({"seed":"7"})", kPlan, "seed"},
    {Doc::kPlan, R"({"crashes":{}})", kPlan, "crashes"},
    {Doc::kPlan, R"({"crashs":[]})", kPlan, "\"crashs\""},
    // fault plan, one entry of each list
    {Doc::kPlan, R"({"crashes":[1]})", kPlan, "crashes[0]"},
    {Doc::kPlan, R"({"crashes":[{"node":1}]})", kPlan, "\"at\""},
    {Doc::kPlan, R"({"crashes":[{"node":"1","at":2}]})", kPlan, "crashes[0].node"},
    {Doc::kPlan, R"({"crashes":[{"node":1,"at":2,"when":3}]})", kPlan, "\"when\""},
    {Doc::kPlan, R"({"thefts":[{"node":1,"at":2}]})", kPlan, "\"amount\""},
    {Doc::kPlan, R"({"thefts":[{"node":1,"at":2,"amount":"5"}]})", kPlan, "thefts[0].amount"},
    {Doc::kPlan, R"({"thefts":[{"node":1,"at":2,"amount":5,"amt":5}]})", kPlan, "\"amt\""},
    {Doc::kPlan, R"({"blackouts":[{"x0":0,"y0":0,"x1":5,"at":1}]})", kPlan, "\"y1\""},
    {Doc::kPlan, R"({"blackouts":[{"x0":0,"y0":0,"x1":5,"y1":true,"at":1}]})", kPlan, "blackouts[0].y1"},
    {Doc::kPlan, R"({"blackouts":[{"x0":0,"y0":0,"z0":0,"x1":5,"y1":5,"at":1}]})", kPlan, "\"z0\""},
    // fault plan, the channel object
    {Doc::kPlan, R"({"channel":[]})", kPlan, "channel"},
    {Doc::kPlan, R"({"channel":{"drop":"0.1"}})", kPlan, "channel.drop"},
    {Doc::kPlan, R"({"channel":{"max_attempts":true}})", kPlan, "channel.max_attempts"},
    {Doc::kPlan, R"({"channel":{"loss":0.1}})", kPlan, "\"loss\""},

    // corpus file, top level
    {Doc::kCorpus, R"({"format":"pacds-fuzz-repro"})", kCorpus, "\"schema\""},
    {Doc::kCorpus, R"({"schema":1})", kCorpus, "\"format\""},
    {Doc::kCorpus, R"({"format":7,"schema":1})", kCorpus, "format"},
    {Doc::kCorpus, CORPUS(R"("trial_seed":"5")"), kCorpus, "trial_seed"},
    {Doc::kCorpus, CORPUS(R"("serve_ticks":[])"), kCorpus, "serve_ticks"},
    {Doc::kCorpus, CORPUS(R"("oops":1)"), kCorpus, "\"oops\""},
    // corpus file, its config and a nested config object
    {Doc::kCorpus, CORPUS(R"("config":[])"), kCorpus, "config"},
    {Doc::kCorpus, CORPUS(R"("config":{"n":"5"})"), kCorpus, "config.n"},
    {Doc::kCorpus, CORPUS(R"("config":{"nn":5})"), kCorpus, "\"nn\""},
    {Doc::kCorpus, CORPUS(R"("config":{"radio_params":{"sigma_db":"4"}})"), kCorpus, "config.radio_params.sigma_db"},
    {Doc::kCorpus, CORPUS(R"("config":{"radio_params":{"sigma":4}})"), kCorpus, "\"sigma\""},
    // corpus file, its fault plan
    {Doc::kCorpus, CORPUS(R"("faults":null)"), kPlan, "faults"},
    {Doc::kCorpus, CORPUS(R"("faults":{"seed":"1"})"), kPlan, "seed"},
    {Doc::kCorpus, CORPUS(R"("faults":{"crashes":[{"node":1}]})"), kPlan, "\"at\""},
    {Doc::kCorpus, CORPUS(R"("faults":{"crashs":[]})"), kPlan, "\"crashs\""},
    {Doc::kCorpus, CORPUS(R"("faults":{"channel":{"loss":0.1}})"), kPlan, "\"loss\""},

    // serve request, top level
    {Doc::kRequest, R"({"tenant":"a"})", kServe, "\"op\""},
    {Doc::kRequest, R"({"op":"status"})", kServe, "\"tenant\""},
    {Doc::kRequest, R"({"op":"create","tenant":"a"})", kServe, "\"config\""},
    {Doc::kRequest, R"({"op":5})", kServe, "op"},
    {Doc::kRequest, R"({"op":"status","tenant":7})", kServe, "tenant"},
    {Doc::kRequest, CREATE(R"("config":{},"seed":"1")"), kServe, "seed"},
    {Doc::kRequest, CREATE(R"("config":{},"trials":1.5)"), kServe, "trials"},
    {Doc::kRequest, R"({"op":"tick","tenant":"a","intervals":"2"})", kServe, "intervals"},
    {Doc::kRequest, R"({"op":"status","tenant":"a","bogus":1})", kServe, "\"bogus\""},
    // serve request, its config and a nested config object
    {Doc::kRequest, CREATE(R"("config":7)"), kServe, "config"},
    {Doc::kRequest, CREATE(R"("config":{"n":"5"})"), kServe, "config.n"},
    {Doc::kRequest, CREATE(R"("config":{"nn":5})"), kServe, "\"nn\""},
    {Doc::kRequest, CREATE(R"("config":{"mobility_params":{"alpha":"x"}})"), kServe, "config.mobility_params.alpha"},
    {Doc::kRequest, CREATE(R"("config":{"radio_params":{"sigma":4}})"), kServe, "\"sigma\""},
    // serve request, its fault plan
    {Doc::kRequest, CREATE(R"("config":{},"faults":null)"), kPlan, "faults"},
    {Doc::kRequest, CREATE(R"("config":{},"faults":{"thefts":[{"node":1,"at":2}]})"), kPlan, "\"amount\""},
    {Doc::kRequest, CREATE(R"("config":{},"faults":{"crashes":[{"node":1,"at":"2"}]})"), kPlan, "crashes[0].at"},
    {Doc::kRequest, CREATE(R"("config":{},"faults":{"channel":{"loss":0.1}})"), kPlan, "\"loss\""},
    // serve request, a well-formed config the simulator would refuse
    {Doc::kRequest, CREATE(R"("config":{"field_width":1e308,"field_height":1e308})"), kServe, "field_width"},
    {Doc::kRequest, CREATE(R"("config":{"field_depth":1e300})"), kServe, "field_depth"},
    {Doc::kRequest, CREATE(R"("config":{"radius":1e-300})"), kServe, "radius"},
    {Doc::kRequest, CREATE(R"("config":{"mobility":"gauss-markov","mobility_params":{"alpha":2}})"), kServe, "mobility_params.alpha"},
    {Doc::kRequest, SWEEP(R"("config":{"mobility":"gauss-markov","mobility_params":{"alpha":2}})"), kServe, "mobility_params.alpha"},
    {Doc::kRequest, CREATE(R"("config":{"mobility":"random-walk","mobility_params":{"step_min":5,"step_max":1}})"), kServe, "mobility_params.step_max"},
    {Doc::kRequest, CREATE(R"("config":{"mobility":"random-waypoint","mobility_params":{"speed_min":-1}})"), kServe, "mobility_params.speed_min"},
    {Doc::kRequest, CREATE(R"("config":{"engine":"incremental"})"), kServe, "strategy"},
    {Doc::kRequest, CREATE(R"("config":{"engine":"incremental","strategy":"simultaneous","custom_key":"EL2","use_rule_k":true})"), kServe, "custom_key"},
    {Doc::kRequest, CREATE(R"("config":{"engine":"tiled","strategy":"simultaneous","clique_policy":"elect-max-key"})"), kServe, "clique_policy"},
    {Doc::kRequest, CREATE(R"("config":{"backbone":"cds22","engine":"incremental"})"), kServe, "backbone"},
    {Doc::kRequest, CREATE(R"("config":{"drain_params":{"nongateway_drain":-1}})"), kServe, "drain_params.nongateway_drain"},
    {Doc::kRequest, CREATE(R"("config":{"drain_model":"constant","drain_params":{"constant_base":-5}})"), kServe, "drain_params.constant_base"},
    {Doc::kRequest, CREATE(R"("config":{"drain_model":"quadratic","drain_params":{"quadratic_divisor":-1}})"), kServe, "drain_params.quadratic_divisor"},
    {Doc::kRequest, CREATE(R"("config":{"stability_quantum":-1})"), kServe, "stability_quantum"},
    {Doc::kRequest, CREATE(R"("config":{"n":200,"radius":32,"field_width":147573952589676396544},"faults":{"crashes":[{"node":199,"at":1}]})"), kServe, "field_width"},
};
// clang-format on

#undef CORPUS
#undef CREATE
#undef SWEEP

/// The row's error message, or "" when the document was accepted.
std::string error_of(const Row& row) {
  if (row.doc == Doc::kRequest) {
    serve::RequestError error;
    if (serve::parse_request(row.text, 1, error).has_value()) return "";
    EXPECT_EQ(error.code, serve::ErrorCode::kSchema) << row.text;
    return error.message;
  }
  try {
    if (row.doc == Doc::kPlan) {
      (void)parse_fault_plan(std::string_view(row.text));
    } else {
      (void)fuzz::parse_scenario(row.text);
    }
  } catch (const std::exception& e) {
    return e.what();
  }
  return "";
}

TEST(SchemaErrorsTest, EveryMalformedDocumentIsRejectedByName) {
  for (const Row& row : kRows) {
    const std::string message = error_of(row);
    ASSERT_FALSE(message.empty()) << "accepted: " << row.text;
    EXPECT_EQ(message.rfind(row.prefix, 0), 0u)
        << row.text << "\n  -> " << message;
    EXPECT_NE(message.find(row.names), std::string::npos)
        << row.text << "\n  -> " << message;
  }
}

// A sweep reads the request keys a create reads, so every create row must
// be rejected the same way when it is sent as a sweep.
TEST(SchemaErrorsTest, EveryCreateRowIsRejectedAsASweepToo) {
  const std::string create = R"({"op":"create",)";
  std::size_t creates = 0;
  for (const Row& row : kRows) {
    if (row.doc != Doc::kRequest || std::string(row.text).rfind(create, 0)) {
      continue;
    }
    ++creates;
    const std::string sweep =
        R"({"op":"sweep",)" + std::string(row.text).substr(create.size());
    const std::string message = error_of({row.doc, sweep.c_str(), "", ""});
    ASSERT_FALSE(message.empty()) << "accepted: " << sweep;
    EXPECT_EQ(message.rfind(row.prefix, 0), 0u) << sweep << "\n  -> " << message;
    EXPECT_NE(message.find(row.names), std::string::npos)
        << sweep << "\n  -> " << message;
  }
  EXPECT_GE(creates, 20u);
}

}  // namespace
}  // namespace pacds
