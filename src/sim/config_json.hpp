#pragma once
// The SimConfig wire format: one strict JSON object mapping knob names to
// values, shared by the fuzz corpus ("config" in a pacds-fuzz-repro file)
// and the serve request schema ("config" in a create request). Unknown
// keys, wrong types, out-of-range values and inconsistent combinations all
// throw — both consumers promise that a config that parses is one the
// simulator will accept, and neither tolerates silent key drops. The
// promise holds by construction: the parser's checks after its field walk
// are validate_sim_config, the rules every run checks.

#include <string>
#include <string_view>

#include "sim/lifetime.hpp"

namespace pacds {

class JsonReader;
class JsonValue;
class JsonWriter;

/// The one statement of what a SimConfig must satisfy to run (DESIGN.md
/// §14): returns the first rule `config` breaks as a message naming its
/// wire key ("config.radius must be > 0"), or "" when it may run. The
/// parser, run_lifetime_trials, LifetimeRun, make_lifetime_engine and
/// `pacds sim` apply it; class constructors keep their own invariants.
[[nodiscard]] std::string validate_sim_config(const SimConfig& config);

/// Returns `config`, or throws std::invalid_argument with
/// validate_sim_config's message when it breaks a rule.
const SimConfig& checked_sim_config(const SimConfig& config);

/// Applies the members of a parsed JSON config object onto `config`
/// (absent keys keep their current values, so defaults come from the
/// SimConfig the caller passes in). Throws std::runtime_error with
/// `error_prefix` prepended — e.g. "fuzz scenario: config.n must be ...".
void parse_sim_config_json(const JsonValue& value, SimConfig& config,
                           std::string_view error_prefix);

/// Writes the config object parse_sim_config_json accepts, every key
/// explicit, in the pinned corpus order. Exact round trip: parsing the
/// output reproduces the trial-relevant fields bit for bit. Enums are
/// written by their name tables (enum_name), so DrainModel goes out by its
/// wire name, not by its display label.
void write_sim_config_json(JsonWriter& json, const SimConfig& config);

/// Field-list hooks (io/json_fields.hpp): a SimConfig inside another
/// document, the "config" of a corpus file or a serve request, is read by
/// parse_sim_config_json with that document's error prefix and written by
/// write_sim_config_json.
void read_document(const JsonReader& in, const JsonValue& value,
                   const std::string& what, SimConfig& config);
void write_document(JsonWriter& json, const SimConfig& config);

}  // namespace pacds
