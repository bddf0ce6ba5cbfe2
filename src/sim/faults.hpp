#pragma once
// Deterministic fault injection for the lifetime simulator and the packet
// DES: a seeded FaultPlan of scheduled events (per-node crash/recover,
// battery theft, region blackouts) plus channel fault rates for the dist
// protocol. A run with a plan enters *degraded mode*: instead of ending at
// the first host death, non-functioning hosts are removed from the radio
// graph (parked outside the field, so both lifetime engines see them as
// isolated), the CDS is repaired localizedly, and the run continues until
// at most one functioning host remains — reporting repair latency,
// backbone-disconnection intervals and domination coverage on the way.
//
// Everything is interval-scheduled — the lifetime side of a plan consumes
// NO randomness, so a faulted run draws the exact random stream of its
// fault-free twin (placement + mobility only) and the two are directly
// comparable. The plan's seed feeds only the dist channel. The JSON schema
// is specified in FAULTS.md; an empty plan is the identity (pinned by
// tests/faults_test).

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/bitset.hpp"
#include "core/graph.hpp"
#include "dist/channel.hpp"
#include "energy/battery.hpp"
#include "net/vec2.hpp"
#include "sim/trace.hpp"

namespace pacds {

class JsonReader;
class JsonValue;
class JsonWriter;

/// Host goes down at the start of interval `at`; comes back at the start of
/// interval `recover_at` (0 = never) if its battery is still positive.
struct CrashSpec {
  int node = 0;
  long at = 1;
  long recover_at = 0;
};

/// `amount` of energy vanishes from the host at the start of interval `at`
/// (the paper's adversarial counterpart to gateway drain). May kill.
struct TheftSpec {
  int node = 0;
  long at = 1;
  double amount = 0.0;
};

/// Every functioning host inside [x0,x1]x[y0,y1] *at the start of interval
/// `at`* goes down; the same hosts recover at interval `until` (0 = never).
/// Membership is resolved once, at entry, from true positions. On a 3D
/// field the rectangle is a z-column: membership ignores depth (a blackout
/// models a ground-area outage, which takes down every altitude above it).
struct BlackoutSpec {
  double x0 = 0.0;
  double y0 = 0.0;
  double x1 = 0.0;
  double y1 = 0.0;
  long at = 1;
  long until = 0;
};

/// The full fault model of one run. Every section is optional in the JSON
/// form and defaults to the no-fault identity; the keys inside an entry are
/// not (see FAULTS.md for the schema).
struct FaultPlan {
  std::uint64_t seed = 0;  ///< seeds the dist channel stream only
  std::vector<CrashSpec> crashes;
  std::vector<TheftSpec> thefts;
  std::vector<BlackoutSpec> blackouts;
  dist::ChannelFaultConfig channel{};
  dist::RetryPolicy retry{};

  /// True iff the plan schedules any lifetime-side event. Only such plans
  /// switch run_lifetime_trial into degraded mode; channel rates alone
  /// affect only the dist protocol.
  [[nodiscard]] bool has_lifetime_events() const noexcept {
    return !crashes.empty() || !thefts.empty() || !blackouts.empty();
  }
  [[nodiscard]] bool empty() const noexcept {
    return !has_lifetime_events() && !channel.any();
  }
};

/// Parses a plan object (strict; unknown keys are errors so typos fail
/// loudly). Range rules: numbers finite, seed an integer in [0, 2^53 - 1],
/// intervals >= 1, rates in [0, 1), amounts > 0, recover_at/until either 0
/// or > at, rectangles not inverted, backoff_cap >= backoff_base. Throws
/// std::runtime_error "fault plan: ..." naming the offending field. Serve
/// requests and corpus files pass the "faults" value they already parsed.
[[nodiscard]] FaultPlan parse_fault_plan(const JsonValue& doc);

/// As above, for a plan document in JSON text.
[[nodiscard]] FaultPlan parse_fault_plan(std::string_view text);

/// Reads and parses a plan file; errors are prefixed with the path.
[[nodiscard]] FaultPlan load_fault_plan(const std::string& path);

/// Emits the normalized plan as one JSON object (every field explicit, in
/// schema order) through a writer positioned to accept a value.
void write_fault_plan(JsonWriter& json, const FaultPlan& plan);

/// Field-list hooks (io/json_fields.hpp): a plan inside another document,
/// the "faults" of a corpus file or a serve request, is read with the
/// parser's checks and its "fault plan: " prefix, a non-object named by the
/// key `what` it sits under, and written by write_fault_plan.
void read_document(const JsonReader& in, const JsonValue& value,
                   const std::string& what, FaultPlan& plan);
void write_document(JsonWriter& json, const FaultPlan& plan);

/// Checks a plan built in code against the parser's range rules, and its
/// node ids against a concrete host count (parse_fault_plan cannot know
/// n). Throws std::invalid_argument "fault plan: ..." on a violation.
void validate_fault_plan(const FaultPlan& plan, int n_hosts);

/// One statically resolvable entry of a plan's schedule (blackout entries
/// carry the region index; their member hosts are only known at run time).
struct ScheduledFault {
  long interval = 0;
  FaultKind kind = FaultKind::kCrash;
  FaultCause cause = FaultCause::kPlan;
  int node = -1;      ///< -1 for blackout entries
  double amount = 0.0;
  int blackout = -1;  ///< index into FaultPlan::blackouts, or -1
};

/// The plan's schedule sorted by interval (stable: crashes, then thefts,
/// then blackouts, each in plan order — the exact application order the
/// injector uses). `pacds faults` prints this.
[[nodiscard]] std::vector<ScheduledFault> resolve_schedule(
    const FaultPlan& plan);

/// Health of the surviving backbone, measured each degraded-mode interval.
struct BackboneHealth {
  bool backbone_ok = true;   ///< active gateway set passes check_cds
  double coverage = 1.0;     ///< dominated fraction of active hosts
  std::size_t active = 0;          ///< hosts not down
  std::size_t active_gateways = 0; ///< gateways among them
};

/// Evaluates the gateway set against the current graph with `down` hosts
/// excised. `scratch` must be n bits and is left holding the active gateway
/// set (gateways minus down) — callers reuse it as the effective set.
[[nodiscard]] BackboneHealth assess_backbone(const Graph& g,
                                             const DynBitset& gateways,
                                             const DynBitset& down,
                                             DynBitset& scratch);

/// Degraded-mode aggregates of one trial (all zero for fault-free runs).
struct FaultStats {
  std::size_t events = 0;      ///< scheduled events applied
  std::size_t crashes = 0;     ///< crash events (plan + blackout members)
  std::size_t recoveries = 0;
  std::size_t thefts = 0;
  std::size_t deaths = 0;      ///< battery deaths (drain or theft)
  std::size_t repairs = 0;     ///< localized repair rounds
  long disconnected_intervals = 0;  ///< intervals failing check_cds
  long uncovered_intervals = 0;     ///< intervals with coverage < 1
  double min_coverage = 1.0;
  long first_death_interval = -1;   ///< -1 = no battery death
  std::uint64_t repair_ns_total = 0;
  std::size_t repair_touched_total = 0;

  bool operator==(const FaultStats&) const = default;
};

/// Where host i sits while off the air: outside the field, >= 2 * radius
/// from it and from every other parked host, so no link model or engine
/// links it (the spatial grid handles out-of-field coordinates). Down hosts
/// and the traffic trial's switched-off hosts park here.
[[nodiscard]] Vec2 park_position(std::size_t host, double field_width,
                                 double radius);

/// Applies a plan's schedule interval by interval. Owns the down set: a
/// host is down while crashed (scheduled or blackout) or once dead; dead
/// hosts never recover. Down hosts are excised from the radio graph by
/// reporting their park_position.
class FaultInjector {
 public:
  /// `plan` is borrowed and must outlive the injector.
  FaultInjector(const FaultPlan& plan, std::size_t n_hosts,
                double field_width, double radius);

  /// Applies every event scheduled for `interval` (intervals must be
  /// visited in increasing order starting at 1). Blackout membership is
  /// resolved from `positions`; thefts drain `batteries` and may kill.
  /// One FaultRecord per applied event is appended to `events`.
  void apply(long interval, const std::vector<Vec2>& positions,
             BatteryBank& batteries, std::vector<FaultRecord>& events);

  /// Marks a battery death discovered during the drain step: the host goes
  /// permanently down and a kDeath record is appended.
  void record_death(std::size_t host, long interval,
                    std::vector<FaultRecord>& events);

  [[nodiscard]] const DynBitset& down() const noexcept { return down_; }
  [[nodiscard]] std::size_t down_count() const noexcept { return down_count_; }

  /// True once per down-set change: whether the *next* engine update must
  /// repair (clears the flag).
  [[nodiscard]] bool take_down_changed() noexcept {
    const bool changed = down_changed_;
    down_changed_ = false;
    return changed;
  }

  /// Positions as the radio sees them: `positions` itself while nobody is
  /// down (the zero-overhead path), otherwise an internal copy with down
  /// hosts parked. Valid until the next call.
  [[nodiscard]] const std::vector<Vec2>& effective_positions(
      const std::vector<Vec2>& positions);

 private:
  void add_down_reason(std::size_t host);
  void remove_down_reason(std::size_t host);
  void refresh_down(std::size_t host);

  const FaultPlan* plan_;
  std::vector<ScheduledFault> schedule_;
  std::size_t cursor_ = 0;
  double field_width_;
  double radius_;

  /// A host is down iff dead or down_reasons_ > 0 (crash and blackout
  /// windows may overlap; recovery from one must not undo the other).
  std::vector<std::uint8_t> down_reasons_;
  std::vector<bool> dead_;
  DynBitset down_;
  std::size_t down_count_ = 0;
  bool down_changed_ = false;

  /// Hosts captured by each blackout at entry (released together at exit).
  std::vector<std::vector<std::size_t>> blackout_members_;
  std::vector<Vec2> effective_;
};

}  // namespace pacds
