#include "sim/faults.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/verify.hpp"
#include "io/json_fields.hpp"

namespace pacds {

namespace {

constexpr JsonReader kIn("fault plan: ");

// Node ids are checked against n by validate_fault_plan.
constexpr Range kHostId{.lo = 0, .hi = 1e9, .required = true};
constexpr Range kInterval{.lo = 1, .hi = 1e15, .required = true};
constexpr Range kEndInterval{.lo = 0, .hi = 1e15};  // 0 = never, else > at
constexpr Range kRetryCount{.lo = 1, .hi = 1e9};

/// The plan's "channel" object: the channel fault rates and the retry
/// policy share one JSON object.
template <typename Plan>  // FaultPlan or const FaultPlan
struct ChannelKeys {
  Plan& plan;
};

template <typename Plan, typename Visit>
void fields(ChannelKeys<Plan> keys, Visit&& visit) {
  visit("drop", keys.plan.channel.drop);
  visit("duplicate", keys.plan.channel.duplicate);
  visit("delay", keys.plan.channel.delay);
  visit("max_attempts", keys.plan.retry.max_attempts, kRetryCount);
  visit("backoff_base", keys.plan.retry.backoff_base, kRetryCount);
  visit("backoff_cap", keys.plan.retry.backoff_cap, kRetryCount);
}

/// The plan's range rules that need no host count, beyond the integer
/// bounds of the field lists: parse_fault_plan and validate_fault_plan
/// share them, so a plan built in code meets the rules a parsed one does.
/// Returns the first violation, naming the field, or "".
std::string range_error(const FaultPlan& plan) {
  const auto entry = [](const char* list, std::size_t i) {
    return std::string(list) + "[" + std::to_string(i) + "]";
  };
  for (std::size_t i = 0; i < plan.crashes.size(); ++i) {
    const CrashSpec& crash = plan.crashes[i];
    if (crash.at < 1) return entry("crashes", i) + ".at must be >= 1";
    if (crash.recover_at != 0 && crash.recover_at <= crash.at) {
      return entry("crashes", i) + ".recover_at must be 0 or > at";
    }
  }
  for (std::size_t i = 0; i < plan.thefts.size(); ++i) {
    const TheftSpec& theft = plan.thefts[i];
    if (theft.at < 1) return entry("thefts", i) + ".at must be >= 1";
    if (!(theft.amount > 0.0)) {
      return entry("thefts", i) + ".amount must be > 0";
    }
  }
  for (std::size_t i = 0; i < plan.blackouts.size(); ++i) {
    const BlackoutSpec& blackout = plan.blackouts[i];
    if (blackout.at < 1) return entry("blackouts", i) + ".at must be >= 1";
    if (blackout.x1 < blackout.x0 || blackout.y1 < blackout.y0) {
      return entry("blackouts", i) + ": x1/y1 must not be below x0/y0";
    }
    if (blackout.until != 0 && blackout.until <= blackout.at) {
      return entry("blackouts", i) + ".until must be 0 or > at";
    }
  }
  return dist::channel_error(plan.channel, plan.retry);
}

}  // namespace

// The plan's wire schema (FAULTS.md "Plan schema"): parse_fault_plan and
// write_fault_plan both walk these lists.

template <ConstOr<CrashSpec> S, typename Visit>
void fields(S& s, Visit&& visit) {
  visit("node", s.node, kHostId);
  visit("at", s.at, kInterval);
  visit("recover_at", s.recover_at, kEndInterval);
}

template <ConstOr<TheftSpec> S, typename Visit>
void fields(S& s, Visit&& visit) {
  visit("node", s.node, kHostId);
  visit("at", s.at, kInterval);
  visit("amount", s.amount, kRequired);
}

template <ConstOr<BlackoutSpec> S, typename Visit>
void fields(S& s, Visit&& visit) {
  visit("x0", s.x0, kRequired);
  visit("y0", s.y0, kRequired);
  visit("x1", s.x1, kRequired);
  visit("y1", s.y1, kRequired);
  visit("at", s.at, kInterval);
  visit("until", s.until, kEndInterval);
}

template <ConstOr<FaultPlan> P, typename Visit>
void fields(P& p, Visit&& visit) {
  visit("seed", p.seed, Range{0, kMaxExactJsonInteger});
  visit("crashes", p.crashes);
  visit("thefts", p.thefts);
  visit("blackouts", p.blackouts);
  visit("channel", ChannelKeys<P>{p});
}

FaultPlan parse_fault_plan(const JsonValue& doc) {
  FaultPlan plan;
  read_document(kIn, doc, "document", plan);
  return plan;
}

FaultPlan parse_fault_plan(std::string_view text) {
  return parse_fault_plan(parse_json(text));
}

FaultPlan load_fault_plan(const std::string& path) {
  const JsonValue doc = load_json_file(path);
  try {
    return parse_fault_plan(doc);
  } catch (const std::exception& e) {
    throw std::runtime_error(path + ": " + e.what());
  }
}

void write_fault_plan(JsonWriter& json, const FaultPlan& plan) {
  write_fields(json, plan);
}

void read_document(const JsonReader& /*in*/, const JsonValue& value,
                   const std::string& what, FaultPlan& plan) {
  if (!value.is_object()) kIn.fail(what + " must be a JSON object");
  read_fields(kIn, value, "", plan);
  if (const std::string error = range_error(plan); !error.empty()) {
    kIn.fail(error);
  }
}

void write_document(JsonWriter& json, const FaultPlan& plan) {
  write_fault_plan(json, plan);
}

void validate_fault_plan(const FaultPlan& plan, int n_hosts) {
  if (const std::string error = range_error(plan); !error.empty()) {
    throw std::invalid_argument("fault plan: " + error);
  }
  const auto check_node = [n_hosts](int node, const char* what) {
    if (node < 0 || node >= n_hosts) {
      throw std::invalid_argument(
          std::string("fault plan: ") + what + " node " +
          std::to_string(node) + " out of range [0, " +
          std::to_string(n_hosts) + ")");
    }
  };
  for (const CrashSpec& crash : plan.crashes) check_node(crash.node, "crash");
  for (const TheftSpec& theft : plan.thefts) check_node(theft.node, "theft");
}

std::vector<ScheduledFault> resolve_schedule(const FaultPlan& plan) {
  std::vector<ScheduledFault> schedule;
  for (const CrashSpec& crash : plan.crashes) {
    schedule.push_back({crash.at, FaultKind::kCrash, FaultCause::kPlan,
                        crash.node, 0.0, -1});
    if (crash.recover_at != 0) {
      schedule.push_back({crash.recover_at, FaultKind::kRecover,
                          FaultCause::kPlan, crash.node, 0.0, -1});
    }
  }
  for (const TheftSpec& theft : plan.thefts) {
    schedule.push_back({theft.at, FaultKind::kTheft, FaultCause::kPlan,
                        theft.node, theft.amount, -1});
  }
  for (std::size_t i = 0; i < plan.blackouts.size(); ++i) {
    const BlackoutSpec& blackout = plan.blackouts[i];
    schedule.push_back({blackout.at, FaultKind::kCrash, FaultCause::kBlackout,
                        -1, 0.0, static_cast<int>(i)});
    if (blackout.until != 0) {
      schedule.push_back({blackout.until, FaultKind::kRecover,
                          FaultCause::kBlackout, -1, 0.0,
                          static_cast<int>(i)});
    }
  }
  std::stable_sort(schedule.begin(), schedule.end(),
                   [](const ScheduledFault& a, const ScheduledFault& b) {
                     return a.interval < b.interval;
                   });
  return schedule;
}

BackboneHealth assess_backbone(const Graph& g, const DynBitset& gateways,
                               const DynBitset& down, DynBitset& scratch) {
  scratch = gateways;
  down.for_each_set([&scratch](std::size_t host) { scratch.reset(host); });
  BackboneHealth health;
  health.active = static_cast<std::size_t>(g.num_nodes()) - down.count();
  health.active_gateways = scratch.count();
  health.backbone_ok = check_cds(g, scratch).ok();
  std::size_t covered = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto vi = static_cast<std::size_t>(v);
    if (down.test(vi)) continue;
    if (scratch.test(vi)) {
      ++covered;
      continue;
    }
    for (const NodeId u : g.neighbors(v)) {
      if (scratch.test(static_cast<std::size_t>(u))) {
        ++covered;
        break;
      }
    }
  }
  health.coverage = health.active == 0
                        ? 1.0
                        : static_cast<double>(covered) /
                              static_cast<double>(health.active);
  return health;
}

// ---- FaultInjector ---------------------------------------------------------

Vec2 park_position(std::size_t host, double field_width, double radius) {
  const double spacing = 2.0 * (radius > 0.0 ? radius : 1.0);
  return {field_width + spacing * static_cast<double>(host + 1), -spacing};
}

FaultInjector::FaultInjector(const FaultPlan& plan, std::size_t n_hosts,
                             double field_width, double radius)
    : plan_(&plan),
      schedule_(resolve_schedule(plan)),
      field_width_(field_width),
      radius_(radius),
      down_reasons_(n_hosts, 0),
      dead_(n_hosts, false),
      down_(n_hosts),
      blackout_members_(plan.blackouts.size()) {}

void FaultInjector::add_down_reason(std::size_t host) {
  ++down_reasons_[host];
  refresh_down(host);
}

void FaultInjector::remove_down_reason(std::size_t host) {
  if (down_reasons_[host] > 0) --down_reasons_[host];
  refresh_down(host);
}

void FaultInjector::refresh_down(std::size_t host) {
  const bool should_be_down = dead_[host] || down_reasons_[host] > 0;
  if (should_be_down == down_.test(host)) return;
  down_.set(host, should_be_down);
  if (should_be_down) {
    ++down_count_;
  } else {
    --down_count_;
  }
  down_changed_ = true;
}

void FaultInjector::apply(long interval, const std::vector<Vec2>& positions,
                          BatteryBank& batteries,
                          std::vector<FaultRecord>& events) {
  while (cursor_ < schedule_.size() &&
         schedule_[cursor_].interval <= interval) {
    const ScheduledFault& event = schedule_[cursor_++];
    if (event.interval < interval) continue;  // defensive: already past
    switch (event.kind) {
      case FaultKind::kCrash: {
        if (event.blackout < 0) {
          const auto host = static_cast<std::size_t>(event.node);
          const bool was_down = down_.test(host);
          add_down_reason(host);
          if (!was_down) {
            events.push_back({interval, FaultKind::kCrash, FaultCause::kPlan,
                              event.node, 0.0, down_count_});
          }
          break;
        }
        // Blackout entry: capture every functioning host inside the region.
        const BlackoutSpec& region =
            plan_->blackouts[static_cast<std::size_t>(event.blackout)];
        auto& members =
            blackout_members_[static_cast<std::size_t>(event.blackout)];
        members.clear();
        for (std::size_t host = 0; host < positions.size(); ++host) {
          if (down_.test(host)) continue;
          const Vec2 p = positions[host];
          if (p.x < region.x0 || p.x > region.x1 || p.y < region.y0 ||
              p.y > region.y1) {
            continue;
          }
          members.push_back(host);
          add_down_reason(host);
          events.push_back({interval, FaultKind::kCrash,
                            FaultCause::kBlackout, static_cast<int>(host),
                            0.0, down_count_});
        }
        break;
      }
      case FaultKind::kRecover: {
        if (event.blackout < 0) {
          const auto host = static_cast<std::size_t>(event.node);
          remove_down_reason(host);
          if (!down_.test(host)) {
            events.push_back({interval, FaultKind::kRecover, FaultCause::kPlan,
                              event.node, 0.0, down_count_});
          }
          break;
        }
        // Blackout exit: release exactly the hosts captured at entry.
        auto& members =
            blackout_members_[static_cast<std::size_t>(event.blackout)];
        for (const std::size_t host : members) {
          remove_down_reason(host);
          if (!down_.test(host)) {  // dead hosts stay down
            events.push_back({interval, FaultKind::kRecover,
                              FaultCause::kBlackout, static_cast<int>(host),
                              0.0, down_count_});
          }
        }
        members.clear();
        break;
      }
      case FaultKind::kTheft: {
        const auto host = static_cast<std::size_t>(event.node);
        const bool killed = batteries.drain(host, event.amount);
        events.push_back({interval, FaultKind::kTheft, FaultCause::kPlan,
                          event.node, event.amount, down_count_});
        if (killed) record_death(host, interval, events);
        break;
      }
      case FaultKind::kDeath:
      case FaultKind::kRepair:
        break;  // never scheduled
    }
  }
}

void FaultInjector::record_death(std::size_t host, long interval,
                                 std::vector<FaultRecord>& events) {
  if (dead_[host]) return;
  dead_[host] = true;
  refresh_down(host);
  events.push_back({interval, FaultKind::kDeath, FaultCause::kBattery,
                    static_cast<int>(host), 0.0, down_count_});
}

const std::vector<Vec2>& FaultInjector::effective_positions(
    const std::vector<Vec2>& positions) {
  if (down_count_ == 0) return positions;
  effective_.assign(positions.begin(), positions.end());
  down_.for_each_set(
      [this](std::size_t host) {
        effective_[host] = park_position(host, field_width_, radius_);
      });
  return effective_;
}

}  // namespace pacds
