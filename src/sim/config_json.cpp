#include "sim/config_json.hpp"

#include <limits>
#include <stdexcept>
#include <utility>

#include "io/json_fields.hpp"
#include "net/udg.hpp"
#include "sim/engine.hpp"
#include "sim/tiled_engine.hpp"

namespace pacds {

// The wire schema. Each list names every key of one JSON object once, in
// the order the writer emits it, with the member it maps to and, for
// integers, the range the parser accepts. parse_sim_config_json and
// write_sim_config_json both walk these lists, so a key can be neither
// written without being parsed nor parsed without being written. Every key
// is optional on input: older corpus entries predate most of them (3-D
// fields, radios, drain shapes, mobility models, the (2,2) backbone,
// tiles), and an absent key keeps the caller's value.

template <ConstOr<RadioParams> P, typename Visit>
void fields(P& p, Visit&& visit) {
  visit("sigma_db", p.sigma_db);
  visit("path_loss_exp", p.path_loss_exp);
  visit("link_prob", p.link_prob);
  visit("fading_seed", p.fading_seed, Range{0, kMaxExactJsonInteger});
}

template <ConstOr<DrainParams> P, typename Visit>
void fields(P& p, Visit&& visit) {
  visit("nongateway_drain", p.nongateway_drain);
  visit("constant_base", p.constant_base);
  visit("quadratic_divisor", p.quadratic_divisor);
}

template <ConstOr<MobilityParams> P, typename Visit>
void fields(P& p, Visit&& visit) {
  visit("stay_probability", p.stay_probability);
  visit("jump_min", p.jump_min, Range{0, 1e6});
  visit("jump_max", p.jump_max, Range{0, 1e6});
  visit("step_min", p.step_min);
  visit("step_max", p.step_max);
  visit("speed_min", p.speed_min);
  visit("speed_max", p.speed_max);
  visit("pause_intervals", p.pause_intervals, Range{0, 1e6});
  visit("mean_speed", p.mean_speed);
  visit("alpha", p.alpha);
  visit("speed_stddev", p.speed_stddev);
  visit("heading_stddev", p.heading_stddev);
}

template <ConstOr<SimConfig> C, typename Visit>
void fields(C& c, Visit&& visit) {
  visit("n", c.n_hosts, Range{1, 1e6});
  visit("field_width", c.field_width);
  visit("field_height", c.field_height);
  visit("field_depth", c.field_depth);  // 0 = planar
  visit("boundary", c.boundary);
  visit("radius", c.radius);
  visit("link_model", c.link_model);
  visit("radio", c.radio);
  visit("radio_params", c.radio_params);
  visit("initial_energy", c.initial_energy);
  visit("drain_model", c.drain_model);
  visit("drain_params", c.drain_params);
  visit("stay_probability", c.stay_probability);
  visit("jump_min", c.jump_min, Range{0, 1e6});
  visit("jump_max", c.jump_max, Range{0, 1e6});
  // Once missing from the wire: every non-default mobility model then
  // round-tripped back to paper-jump, so serve tenants and replayed
  // scenarios simulated a different trajectory family than requested.
  visit("mobility", c.mobility_kind);
  visit("mobility_params", c.mobility_params);
  visit("scheme", c.rule_set);
  visit("strategy", c.cds_options.strategy);
  visit("clique_policy", c.cds_options.clique_policy);
  visit("custom_key", c.custom_key);  // null = unset
  visit("custom_rule2_form", c.custom_rule2_form);
  visit("use_rule_k", c.use_rule_k);
  visit("quantum", c.energy_key_quantum);
  visit("stability_beta", c.stability_beta);
  visit("stability_quantum", c.stability_quantum);
  visit("engine", c.engine);
  visit("backbone", c.backbone);
  // Requested tile count, 0 = auto. The TileGrid clamps, so any value is
  // safe.
  visit("tiles", c.tiles, Range{0, std::numeric_limits<int>::max()});
  visit("threads", c.threads, Range{0, 256});
  visit("max_intervals", c.max_intervals, Range{1, 1e9});
  visit("connect_retries", c.connect_retries, Range{1, 1e6});
}

std::string validate_sim_config(const SimConfig& c) {
  if (std::string error = field_range_error(c, "config"); !error.empty()) {
    return error;
  }
  const RadioParams& radio = c.radio_params;
  const MobilityParams& m = c.mobility_params;
  const DrainParams& drain = c.drain_params;
  const bool walk = c.mobility_kind == MobilityKind::kRandomWalk;
  const bool waypoint = c.mobility_kind == MobilityKind::kRandomWaypoint;
  const bool gauss = c.mobility_kind == MobilityKind::kGaussMarkov;
  const bool fast_engine =
      c.engine == SimEngine::kIncremental || c.engine == SimEngine::kTiled;
  const Vec2 last_parked = park_position(
      static_cast<std::size_t>(c.n_hosts - 1), c.field_width, c.radius);
  // One rule a row, {holds, message}; the first that fails is reported.
  // Paper-jump reads the top-level stay/jump trio. BatteryBank::drain takes
  // no negative amount; a quadratic divisor of 0 divides by zero and one of
  // -0 drains -inf. The link builder files hosts in radius-wide cells, and
  // hosts stay in the field or, while down, in the lane parked past its
  // width, where the last host sits farthest out.
  const std::pair<bool, const char*> rules[] = {
      {c.radius > 0.0, "config.radius must be > 0"},
      {c.field_width > 0.0 && c.field_height > 0.0,
       "config field dimensions must be > 0"},
      {c.initial_energy > 0.0, "config.initial_energy must be > 0"},
      {c.stay_probability >= 0.0 && c.stay_probability <= 1.0,
       "config.stay_probability must be in [0, 1]"},
      {c.jump_max >= c.jump_min, "config.jump_max must be >= config.jump_min"},
      {c.energy_key_quantum >= 0.0, "config.quantum must be >= 0"},
      {c.field_depth >= 0.0, "config.field_depth must be >= 0"},
      {c.radio == RadioKind::kUnitDisk || c.link_model == LinkModel::kUnitDisk,
       "config.radio other than unit-disk requires link_model unit-disk"},
      {c.custom_key || (!c.use_rule_k &&
                        c.custom_rule2_form == Rule2Form::kRefined),
       "config.use_rule_k and config.custom_rule2_form require "
       "config.custom_key"},
      {radio.sigma_db >= 0.0, "config.radio_params.sigma_db must be >= 0"},
      {radio.path_loss_exp > 0.0,
       "config.radio_params.path_loss_exp must be > 0"},
      {radio.link_prob >= 0.0 && radio.link_prob <= 1.0,
       "config.radio_params.link_prob must be in [0, 1]"},
      {c.stability_beta >= 0.0 && c.stability_beta <= 1.0,
       "config.stability_beta must be in [0, 1]"},
      {m.jump_max >= m.jump_min,
       "config.mobility_params.jump_max must be >= "
       "config.mobility_params.jump_min"},
      {m.stay_probability >= 0.0 && m.stay_probability <= 1.0,
       "config.mobility_params.stay_probability must be in [0, 1]"},
      {c.stability_quantum >= 0.0, "config.stability_quantum must be >= 0"},
      {!walk || m.step_min >= 0.0,
       "config.mobility_params.step_min must be >= 0"},
      {!walk || m.step_max >= m.step_min,
       "config.mobility_params.step_max must be >= "
       "config.mobility_params.step_min"},
      {!waypoint || m.speed_min >= 0.0,
       "config.mobility_params.speed_min must be >= 0"},
      {!waypoint || m.speed_max >= m.speed_min,
       "config.mobility_params.speed_max must be >= "
       "config.mobility_params.speed_min"},
      {!gauss || m.mean_speed >= 0.0,
       "config.mobility_params.mean_speed must be >= 0"},
      {!gauss || (m.alpha >= 0.0 && m.alpha <= 1.0),
       "config.mobility_params.alpha must be in [0, 1]"},
      {!gauss || m.speed_stddev >= 0.0,
       "config.mobility_params.speed_stddev must be >= 0"},
      {!gauss || m.heading_stddev >= 0.0,
       "config.mobility_params.heading_stddev must be >= 0"},
      {drain.nongateway_drain >= 0.0,
       "config.drain_params.nongateway_drain must be >= 0"},
      {c.drain_model != DrainModel::kConstantTotal ||
           drain.constant_base >= 0.0,
       "config.drain_params.constant_base must be >= 0"},
      {c.drain_model != DrainModel::kQuadraticTotal ||
           drain.quadratic_divisor > 0.0,
       "config.drain_params.quadratic_divisor must be > 0"},
      {last_parked.x / c.radius < kCellLimit,
       "config.field_width and its parking lane must span fewer than 2^62 "
       "cells of config.radius"},
      {c.field_height / c.radius < kCellLimit,
       "config.field_height must span fewer than 2^62 cells of "
       "config.radius"},
      {c.field_depth / c.radius < kCellLimit,
       "config.field_depth must span fewer than 2^62 cells of config.radius"},
      {!fast_engine || c.backbone == BackboneMode::kScheme,
       "config.backbone cds22 needs config.engine auto or full"},
      {c.engine != SimEngine::kIncremental || incremental_engine_eligible(c),
       "config.engine incremental needs config.strategy simultaneous, no "
       "config.custom_key and config.link_model unit-disk"},
      {c.engine != SimEngine::kTiled || tiled_engine_eligible(c),
       "config.engine tiled needs config.strategy simultaneous, no "
       "config.custom_key, config.link_model unit-disk and "
       "config.clique_policy none"},
  };
  for (const auto& [holds, broken] : rules) {
    if (!holds) return broken;
  }
  return "";
}

const SimConfig& checked_sim_config(const SimConfig& config) {
  if (std::string error = validate_sim_config(config); !error.empty()) {
    throw std::invalid_argument(error);
  }
  return config;
}

void parse_sim_config_json(const JsonValue& value, SimConfig& config,
                           std::string_view prefix) {
  const JsonReader in(prefix);
  read_fields(in, value, "config", config);
  if (const std::string error = validate_sim_config(config); !error.empty()) {
    in.fail(error);
  }
}

void write_sim_config_json(JsonWriter& json, const SimConfig& config) {
  write_fields(json, config);
}

void read_document(const JsonReader& in, const JsonValue& value,
                   const std::string& /*what*/, SimConfig& config) {
  parse_sim_config_json(value, config, in.prefix());
}

void write_document(JsonWriter& json, const SimConfig& config) {
  write_sim_config_json(json, config);
}

}  // namespace pacds
