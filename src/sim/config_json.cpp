#include "sim/config_json.hpp"

#include "io/json_fields.hpp"

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
  visit("tiles", c.tiles, Range{0, 1e6});
  visit("threads", c.threads, Range{0, 256});
  visit("max_intervals", c.max_intervals, Range{1, 1e9});
  visit("connect_retries", c.connect_retries, Range{1, 1e6});
}

void parse_sim_config_json(const JsonValue& value, SimConfig& config,
                           std::string_view prefix) {
  const JsonReader in(prefix);
  read_fields(in, value, "config", config);
  if (!(config.radius > 0.0)) in.fail("config.radius must be > 0");
  if (!(config.field_width > 0.0) || !(config.field_height > 0.0)) {
    in.fail("config field dimensions must be > 0");
  }
  if (!(config.initial_energy > 0.0)) {
    in.fail("config.initial_energy must be > 0");
  }
  if (!(config.stay_probability >= 0.0) || config.stay_probability > 1.0) {
    in.fail("config.stay_probability must be in [0, 1]");
  }
  if (config.jump_max < config.jump_min) {
    in.fail("config.jump_max must be >= config.jump_min");
  }
  if (config.energy_key_quantum < 0.0) {
    in.fail("config.quantum must be >= 0");
  }
  if (config.field_depth < 0.0) {
    in.fail("config.field_depth must be >= 0");
  }
  if (config.radio != RadioKind::kUnitDisk &&
      config.link_model != LinkModel::kUnitDisk) {
    in.fail("config.radio other than unit-disk requires link_model unit-disk");
  }
  if (!config.custom_key &&
      (config.use_rule_k || config.custom_rule2_form != Rule2Form::kRefined)) {
    in.fail("config.use_rule_k and config.custom_rule2_form require "
            "config.custom_key");
  }
  if (config.radio_params.sigma_db < 0.0) {
    in.fail("config.radio_params.sigma_db must be >= 0");
  }
  if (!(config.radio_params.path_loss_exp > 0.0)) {
    in.fail("config.radio_params.path_loss_exp must be > 0");
  }
  if (config.radio_params.link_prob < 0.0 ||
      config.radio_params.link_prob > 1.0) {
    in.fail("config.radio_params.link_prob must be in [0, 1]");
  }
  if (config.stability_beta < 0.0 || config.stability_beta > 1.0) {
    in.fail("config.stability_beta must be in [0, 1]");
  }
  if (config.mobility_params.jump_max < config.mobility_params.jump_min) {
    in.fail(
        "config.mobility_params.jump_max must be >= "
        "config.mobility_params.jump_min");
  }
  if (config.mobility_params.stay_probability < 0.0 ||
      config.mobility_params.stay_probability > 1.0) {
    in.fail("config.mobility_params.stay_probability must be in [0, 1]");
  }
}

void write_sim_config_json(JsonWriter& json, const SimConfig& config) {
  write_fields(json, config);
}

void read_document(const JsonReader& in, const JsonValue& value,
                   SimConfig& config) {
  parse_sim_config_json(value, config, in.prefix());
}

void write_document(JsonWriter& json, const SimConfig& config) {
  write_sim_config_json(json, config);
}

}  // namespace pacds
