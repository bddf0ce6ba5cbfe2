#include "serve/protocol.hpp"

#include <sstream>

#include "io/json_fields.hpp"
#include "sim/config_json.hpp"

namespace pacds::serve {

namespace {

constexpr JsonReader kIn("serve: ");

[[noreturn]] void fail(const std::string& message) { kIn.fail(message); }

bool op_takes(Op op, const std::string& key) {
  const bool configured = op == Op::kCreate || op == Op::kSweep;
  if (key == "tenant") return op != Op::kShutdown;
  if (key == "config" || key == "seed" || key == "trials" || key == "faults") {
    return configured;
  }
  if (key == "intervals") return op == Op::kTick;
  return false;
}

}  // namespace

// The request schema (protocol.hpp). parse_request walks this list after
// its per-op key whitelist; `seq` and `has_faults` are not on the wire.
template <ConstOr<Request> R, typename Visit>
void fields(R& r, Visit&& visit) {
  visit("op", r.op);
  visit("tenant", r.tenant);
  // Documents of their own: the config keeps its checks under this
  // module's prefix, the plan its checks and its own "fault plan: " prefix.
  visit("config", r.config);
  visit("seed", r.seed, Range{0, kMaxExactJsonInteger});
  visit("trials", r.trials, Range{1, 1e6});
  visit("faults", r.faults);
  visit("intervals", r.intervals, Range{0, 1e9});
}

const char* error_code_name(ErrorCode code) noexcept {
  switch (code) {
    case ErrorCode::kParse: return "parse";
    case ErrorCode::kSchema: return "schema";
    case ErrorCode::kUnknownTenant: return "unknown_tenant";
    case ErrorCode::kTenantExists: return "tenant_exists";
    case ErrorCode::kQueueFull: return "queue_full";
    case ErrorCode::kShutdown: return "shutdown";
  }
  return "?";
}

bool valid_tenant_name(std::string_view name) noexcept {
  if (name.empty() || name.size() > 64) return false;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    if (!ok) return false;
  }
  return true;
}

std::optional<Request> parse_request(std::string_view line, std::uint64_t seq,
                                     RequestError& error) {
  JsonValue doc;
  try {
    doc = parse_json(line);
  } catch (const std::exception& e) {
    error = {ErrorCode::kParse, e.what()};
    return std::nullopt;
  }

  Request request;
  request.seq = seq;
  try {
    if (!doc.is_object()) fail("request must be a JSON object");
    const JsonValue* op_value = doc.find("op");
    if (op_value == nullptr) fail("request needs an \"op\" key");
    read_value(kIn, *op_value, "op", request.op);

    for (const auto& [key, value] : doc.as_object()) {
      if (key != "op" && !op_takes(request.op, key)) {
        fail("op \"" + to_string(request.op) + "\" does not take key \"" +
             key + "\"");
      }
    }
    read_fields(kIn, doc, "", request);

    if (request.op != Op::kShutdown) {
      if (doc.find("tenant") == nullptr) {
        fail("op \"" + to_string(request.op) + "\" needs a \"tenant\" key");
      }
      if (!valid_tenant_name(request.tenant)) {
        fail("tenant must be 1-64 chars of [A-Za-z0-9._-]");
      }
    }
    if ((request.op == Op::kCreate || request.op == Op::kSweep) &&
        doc.find("config") == nullptr) {
      fail("op \"" + to_string(request.op) + "\" needs a \"config\" key");
    }
    request.has_faults = doc.find("faults") != nullptr;
    if (request.has_faults) {
      validate_fault_plan(request.faults, request.config.n_hosts);
    }
  } catch (const std::exception& e) {
    error = {ErrorCode::kSchema, e.what()};
    return std::nullopt;
  }
  return request;
}

std::string write_request(const Request& request) {
  std::ostringstream line;
  JsonWriter json(line);
  json.begin_object();
  fields(request, [&](const char* key, const auto& member, Range = {}) {
    const std::string name = key;
    if (name != "op" && !op_takes(request.op, name)) return;
    if (name == "faults" && !request.has_faults) return;
    json.key(key);
    write_value(json, member);
  });
  json.end_object();
  return line.str();
}

std::string tenant_digest(const SimConfig& config, std::uint64_t seed,
                          long trials, const FaultPlan* faults) {
  std::ostringstream canonical;
  {
    JsonWriter json(canonical);
    json.begin_object();
    json.key("config");
    write_sim_config_json(json, config);
    json.key("seed").value(static_cast<std::int64_t>(seed));
    json.key("trials").value(static_cast<std::int64_t>(trials));
    json.key("faults");
    if (faults != nullptr && !faults->empty()) {
      write_fault_plan(json, *faults);
    } else {
      json.null();
    }
    json.end_object();
  }
  const std::string text = canonical.str();
  std::uint64_t hash = 14695981039346656037ULL;  // FNV-1a 64
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  static constexpr char kHex[] = "0123456789abcdef";
  std::string digest(16, '0');
  for (int i = 15; i >= 0; --i) {
    digest[static_cast<std::size_t>(i)] = kHex[hash & 0xF];
    hash >>= 4;
  }
  return digest;
}

void write_error_record(obs::JsonlSink& sink, std::uint64_t seq,
                        ErrorCode code, const std::string& message) {
  sink.record([&](JsonWriter& json) {
    json.key("type").value("serve_error");
    json.key("schema").value(kServeSchemaVersion);
    json.key("seq").value(static_cast<std::int64_t>(seq));
    json.key("code").value(error_code_name(code));
    json.key("error").value(message);
  });
}

std::string tag_tenant_lines(const std::string& lines,
                             const std::string& tenant) {
  std::string out;
  out.reserve(lines.size() + (tenant.size() + 16) * 8);
  std::size_t start = 0;
  while (start < lines.size()) {
    std::size_t stop = lines.find('\n', start);
    if (stop == std::string::npos) stop = lines.size();
    const std::string_view line(lines.data() + start, stop - start);
    if (!line.empty() && line.front() == '{') {
      out += "{\"tenant\":\"";
      out += tenant;
      out += '"';
      if (line.size() > 1 && line[1] != '}') out += ',';
      out.append(line.substr(1));
    } else {
      out.append(line);
    }
    out += '\n';
    start = stop + 1;
  }
  return out;
}

}  // namespace pacds::serve
