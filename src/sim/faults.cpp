#include "sim/faults.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "core/verify.hpp"
#include "io/json.hpp"
#include "io/json_parse.hpp"

namespace pacds {

namespace {

constexpr JsonReader kIn("fault plan: ");

[[noreturn]] void fail(const std::string& message) { kIn.fail(message); }

long interval_of(const JsonValue& value, const std::string& what) {
  const double raw = kIn.number_of(value, what);
  if (raw != std::floor(raw) || raw < 1.0 || raw > 1e15) {
    fail(what + " must be an integer interval >= 1");
  }
  return static_cast<long>(raw);
}

/// recover_at / until: 0 (never) or a later interval; the "> at" half is
/// checked by the caller once both ends are known.
long end_interval_of(const JsonValue& value, const std::string& what) {
  const double raw = kIn.number_of(value, what);
  if (raw != std::floor(raw) || raw < 0.0 || raw > 1e15) {
    fail(what + " must be 0 or an integer interval");
  }
  return static_cast<long>(raw);
}

int node_of(const JsonValue& value, const std::string& what) {
  const double raw = kIn.number_of(value, what);
  if (raw != std::floor(raw) || raw < 0.0 || raw > 1e9) {
    fail(what + " must be a non-negative integer host id");
  }
  return static_cast<int>(raw);
}

double rate_of(const JsonValue& value, const std::string& what) {
  const double raw = kIn.number_of(value, what);
  if (!(raw >= 0.0) || raw >= 1.0) fail(what + " must be in [0, 1)");
  return raw;
}

int positive_int_of(const JsonValue& value, const std::string& what) {
  const double raw = kIn.number_of(value, what);
  if (raw != std::floor(raw) || raw < 1.0 || raw > 1e9) {
    fail(what + " must be an integer >= 1");
  }
  return static_cast<int>(raw);
}

CrashSpec parse_crash(const JsonValue& value, std::size_t index) {
  const std::string at = "crashes[" + std::to_string(index) + "]";
  if (!value.is_object()) fail(at + " must be an object");
  CrashSpec spec;
  bool have_node = false;
  bool have_at = false;
  for (const auto& [key, member] : value.as_object()) {
    if (key == "node") {
      spec.node = node_of(member, at + ".node");
      have_node = true;
    } else if (key == "at") {
      spec.at = interval_of(member, at + ".at");
      have_at = true;
    } else if (key == "recover_at") {
      spec.recover_at = end_interval_of(member, at + ".recover_at");
    } else {
      fail(at + ": unknown key \"" + key + "\"");
    }
  }
  if (!have_node || !have_at) fail(at + " needs \"node\" and \"at\"");
  if (spec.recover_at != 0 && spec.recover_at <= spec.at) {
    fail(at + ".recover_at must be 0 or > at");
  }
  return spec;
}

TheftSpec parse_theft(const JsonValue& value, std::size_t index) {
  const std::string at = "thefts[" + std::to_string(index) + "]";
  if (!value.is_object()) fail(at + " must be an object");
  TheftSpec spec;
  bool have_node = false;
  bool have_at = false;
  bool have_amount = false;
  for (const auto& [key, member] : value.as_object()) {
    if (key == "node") {
      spec.node = node_of(member, at + ".node");
      have_node = true;
    } else if (key == "at") {
      spec.at = interval_of(member, at + ".at");
      have_at = true;
    } else if (key == "amount") {
      spec.amount = kIn.number_of(member, at + ".amount");
      have_amount = true;
    } else {
      fail(at + ": unknown key \"" + key + "\"");
    }
  }
  if (!have_node || !have_at || !have_amount) {
    fail(at + " needs \"node\", \"at\" and \"amount\"");
  }
  if (!(spec.amount > 0.0)) fail(at + ".amount must be > 0");
  return spec;
}

BlackoutSpec parse_blackout(const JsonValue& value, std::size_t index) {
  const std::string at = "blackouts[" + std::to_string(index) + "]";
  if (!value.is_object()) fail(at + " must be an object");
  BlackoutSpec spec;
  bool have[5] = {false, false, false, false, false};  // x0 y0 x1 y1 at
  for (const auto& [key, member] : value.as_object()) {
    if (key == "x0") {
      spec.x0 = kIn.number_of(member, at + ".x0");
      have[0] = true;
    } else if (key == "y0") {
      spec.y0 = kIn.number_of(member, at + ".y0");
      have[1] = true;
    } else if (key == "x1") {
      spec.x1 = kIn.number_of(member, at + ".x1");
      have[2] = true;
    } else if (key == "y1") {
      spec.y1 = kIn.number_of(member, at + ".y1");
      have[3] = true;
    } else if (key == "at") {
      spec.at = interval_of(member, at + ".at");
      have[4] = true;
    } else if (key == "until") {
      spec.until = end_interval_of(member, at + ".until");
    } else {
      fail(at + ": unknown key \"" + key + "\"");
    }
  }
  if (!have[0] || !have[1] || !have[2] || !have[3] || !have[4]) {
    fail(at + " needs \"x0\", \"y0\", \"x1\", \"y1\" and \"at\"");
  }
  if (spec.x1 < spec.x0 || spec.y1 < spec.y0) {
    fail(at + ": x1/y1 must not be below x0/y0");
  }
  if (spec.until != 0 && spec.until <= spec.at) {
    fail(at + ".until must be 0 or > at");
  }
  return spec;
}

void parse_channel(const JsonValue& value, FaultPlan& plan) {
  if (!value.is_object()) fail("channel must be an object");
  for (const auto& [key, member] : value.as_object()) {
    if (key == "drop") {
      plan.channel.drop = rate_of(member, "channel.drop");
    } else if (key == "duplicate") {
      plan.channel.duplicate = rate_of(member, "channel.duplicate");
    } else if (key == "delay") {
      plan.channel.delay = rate_of(member, "channel.delay");
    } else if (key == "max_attempts") {
      plan.retry.max_attempts = positive_int_of(member, "channel.max_attempts");
    } else if (key == "backoff_base") {
      plan.retry.backoff_base = positive_int_of(member, "channel.backoff_base");
    } else if (key == "backoff_cap") {
      plan.retry.backoff_cap = positive_int_of(member, "channel.backoff_cap");
    } else {
      fail("channel: unknown key \"" + key + "\"");
    }
  }
  if (plan.retry.backoff_cap < plan.retry.backoff_base) {
    fail("channel.backoff_cap must be >= channel.backoff_base");
  }
}

}  // namespace

FaultPlan parse_fault_plan(const JsonValue& doc) {
  if (!doc.is_object()) fail("document must be a JSON object");
  FaultPlan plan;
  for (const auto& [key, value] : doc.as_object()) {
    if (key == "seed") {
      plan.seed = static_cast<std::uint64_t>(
          kIn.integer_of(value, "seed", 0, kMaxExactJsonInteger));
    } else if (key == "crashes") {
      if (!value.is_array()) fail("crashes must be an array");
      const JsonArray& items = value.as_array();
      for (std::size_t i = 0; i < items.size(); ++i) {
        plan.crashes.push_back(parse_crash(items[i], i));
      }
    } else if (key == "thefts") {
      if (!value.is_array()) fail("thefts must be an array");
      const JsonArray& items = value.as_array();
      for (std::size_t i = 0; i < items.size(); ++i) {
        plan.thefts.push_back(parse_theft(items[i], i));
      }
    } else if (key == "blackouts") {
      if (!value.is_array()) fail("blackouts must be an array");
      const JsonArray& items = value.as_array();
      for (std::size_t i = 0; i < items.size(); ++i) {
        plan.blackouts.push_back(parse_blackout(items[i], i));
      }
    } else if (key == "channel") {
      parse_channel(value, plan);
    } else {
      fail("unknown top-level key \"" + key + "\"");
    }
  }
  return plan;
}

FaultPlan parse_fault_plan(std::string_view text) {
  return parse_fault_plan(parse_json(text));
}

FaultPlan load_fault_plan(const std::string& path) {
  std::ifstream file(path);
  if (!file) throw std::runtime_error(path + ": cannot open fault plan");
  std::ostringstream buffer;
  buffer << file.rdbuf();
  try {
    return parse_fault_plan(buffer.str());
  } catch (const std::exception& e) {
    throw std::runtime_error(path + ": " + e.what());
  }
}

void write_fault_plan(JsonWriter& json, const FaultPlan& plan) {
  json.begin_object();
  json.key("seed").value(static_cast<std::size_t>(plan.seed));
  json.key("crashes").begin_array();
  for (const CrashSpec& crash : plan.crashes) {
    json.begin_object();
    json.key("node").value(crash.node);
    json.key("at").value(static_cast<std::int64_t>(crash.at));
    json.key("recover_at").value(static_cast<std::int64_t>(crash.recover_at));
    json.end_object();
  }
  json.end_array();
  json.key("thefts").begin_array();
  for (const TheftSpec& theft : plan.thefts) {
    json.begin_object();
    json.key("node").value(theft.node);
    json.key("at").value(static_cast<std::int64_t>(theft.at));
    json.key("amount").value(theft.amount);
    json.end_object();
  }
  json.end_array();
  json.key("blackouts").begin_array();
  for (const BlackoutSpec& blackout : plan.blackouts) {
    json.begin_object();
    json.key("x0").value(blackout.x0);
    json.key("y0").value(blackout.y0);
    json.key("x1").value(blackout.x1);
    json.key("y1").value(blackout.y1);
    json.key("at").value(static_cast<std::int64_t>(blackout.at));
    json.key("until").value(static_cast<std::int64_t>(blackout.until));
    json.end_object();
  }
  json.end_array();
  json.key("channel").begin_object();
  json.key("drop").value(plan.channel.drop);
  json.key("duplicate").value(plan.channel.duplicate);
  json.key("delay").value(plan.channel.delay);
  json.key("max_attempts").value(plan.retry.max_attempts);
  json.key("backoff_base").value(plan.retry.backoff_base);
  json.key("backoff_cap").value(plan.retry.backoff_cap);
  json.end_object();
  json.end_object();
}

void validate_fault_plan(const FaultPlan& plan, int n_hosts) {
  const auto check_node = [n_hosts](int node, const char* what) {
    if (node < 0 || node >= n_hosts) {
      throw std::invalid_argument(
          std::string("fault plan: ") + what + " node " +
          std::to_string(node) + " out of range [0, " +
          std::to_string(n_hosts) + ")");
    }
  };
  for (const CrashSpec& crash : plan.crashes) {
    check_node(crash.node, "crash");
    if (crash.at < 1 || (crash.recover_at != 0 && crash.recover_at <= crash.at)) {
      throw std::invalid_argument("fault plan: bad crash schedule");
    }
  }
  for (const TheftSpec& theft : plan.thefts) {
    check_node(theft.node, "theft");
    if (theft.at < 1 || !(theft.amount > 0.0)) {
      throw std::invalid_argument("fault plan: bad theft schedule");
    }
  }
  for (const BlackoutSpec& blackout : plan.blackouts) {
    if (blackout.at < 1 ||
        (blackout.until != 0 && blackout.until <= blackout.at) ||
        blackout.x1 < blackout.x0 || blackout.y1 < blackout.y0) {
      throw std::invalid_argument("fault plan: bad blackout schedule");
    }
  }
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
