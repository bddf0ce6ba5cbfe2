#pragma once
// Wire protocol for `pacds serve`: one strict JSON object per input line
// (parsed with io/json_parse, so duplicate keys, trailing garbage and type
// mismatches are all hard errors), one or more schema-v1 JSONL records per
// request on the output stream. Request kinds:
//
//   {"op":"create","tenant":"a","config":{...},"seed":7,"trials":2,
//    "faults":{...}}          — register a tenant; emits its tenant-tagged
//                              run_manifest. Re-creating with an identical
//                              digest is an idempotent cache hit; with a
//                              different one, a tenant_exists error.
//   {"op":"tick","tenant":"a","intervals":K}
//                            — advance the tenant's cached trial state by K
//                              update intervals (0 = run every remaining
//                              trial to completion), streaming the same
//                              interval / fault_event records a standalone
//                              `pacds sim` run would emit.
//   {"op":"status","tenant":"a"} — progress probe, no compute.
//   {"op":"evict","tenant":"a"}  — drop the tenant's cached state.
//   {"op":"sweep","tenant":"a","config":{...},...}
//                            — one-shot: run config+trials to completion and
//                              stream the records without retaining state.
//   {"op":"shutdown"}        — stop serving; later requests get rejected.
//
// Every request is answered by exactly one terminal record: a
// `"type":"serve_response"` on success or a `"type":"serve_error"` carrying
// a code from the taxonomy below. Metrics records precede the response.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "core/enum_names.hpp"
#include "obs/jsonl.hpp"
#include "sim/faults.hpp"
#include "sim/lifetime.hpp"

namespace pacds::serve {

/// Version stamp on serve_response / serve_error records; the metrics
/// records themselves carry sim/metrics_io's kMetricsSchemaVersion.
inline constexpr int kServeSchemaVersion = 1;

enum class Op : std::uint8_t {
  kCreate,
  kTick,
  kStatus,
  kEvict,
  kSweep,
  kShutdown,
};

/// The request's "op" values.
constexpr auto enum_names(Op) {
  return std::to_array<EnumName<Op>>({{Op::kCreate, "create"},
                                      {Op::kTick, "tick"},
                                      {Op::kStatus, "status"},
                                      {Op::kEvict, "evict"},
                                      {Op::kSweep, "sweep"},
                                      {Op::kShutdown, "shutdown"}});
}

/// Error taxonomy (DESIGN.md §12). Every rejected request names exactly one.
enum class ErrorCode : std::uint8_t {
  kParse,         ///< line is not one well-formed JSON object
  kSchema,        ///< bad op / unknown key / wrong type / out-of-range value
  kUnknownTenant, ///< tick/status/evict for a name that is not resident
  kTenantExists,  ///< create with a different digest than the live tenant
  kQueueFull,     ///< shed by admission control; the line was never parsed
  kShutdown,      ///< received after a shutdown request was processed
};

[[nodiscard]] const char* error_code_name(ErrorCode code) noexcept;

/// One parsed request. `seq` is server-assigned (the 1-based input line
/// number) and echoed on every output record so responses correlate with
/// requests even across shed lines.
struct Request {
  Op op = Op::kShutdown;
  std::uint64_t seq = 0;
  std::string tenant;
  SimConfig config{};       // create / sweep
  std::uint64_t seed = 1;   // create / sweep
  long trials = 1;          // create / sweep
  FaultPlan faults{};       // create / sweep (optional)
  bool has_faults = false;
  long intervals = 0;       // tick; 0 = run remaining trials to completion
};

struct RequestError {
  ErrorCode code = ErrorCode::kParse;
  std::string message;
};

/// Parses one request line. Returns nullopt and fills `error` on any
/// malformed input — this function never throws, so a hostile line can
/// never take the server down.
[[nodiscard]] std::optional<Request> parse_request(std::string_view line,
                                                   std::uint64_t seq,
                                                   RequestError& error);

/// Writes `request` as one request line, without the newline: the keys of
/// its field list that its op takes, and "faults" only when `has_faults` is
/// set. parse_request reads the line back as the same request.
[[nodiscard]] std::string write_request(const Request& request);

/// Tenant names are identifiers, not free text: 1-64 chars from
/// [A-Za-z0-9._-]. Keeps names JSON-injection-proof (tenant tagging splices
/// them into records verbatim) and filesystem/display safe.
[[nodiscard]] bool valid_tenant_name(std::string_view name) noexcept;

/// FNV-1a 64 digest (16 hex chars) over the canonical wire serialization of
/// (config, seed, trials, faults). Two creates collide exactly when they
/// describe the same deterministic record stream.
[[nodiscard]] std::string tenant_digest(const SimConfig& config,
                                        std::uint64_t seed, long trials,
                                        const FaultPlan* faults);

/// Emits one serve_error record.
void write_error_record(obs::JsonlSink& sink, std::uint64_t seq,
                        ErrorCode code, const std::string& message);

/// Inserts `"tenant":"name"` as the first member of every record in
/// `lines` (zero or more '\n'-terminated JSON objects — a JsonlSink
/// buffer). The name must satisfy valid_tenant_name, so no escaping is
/// needed and the result still parses strictly.
[[nodiscard]] std::string tag_tenant_lines(const std::string& lines,
                                           const std::string& tenant);

}  // namespace pacds::serve
