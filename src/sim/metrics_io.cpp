#include "sim/metrics_io.hpp"

#include "obs/metrics.hpp"
#include "sim/engine.hpp"

namespace pacds {

void write_run_manifest(obs::JsonlSink& sink, const SimConfig& config,
                        std::uint64_t base_seed, std::size_t trials,
                        const FaultPlan* faults) {
  sink.record([&](JsonWriter& json) {
    json.key("type").value("run_manifest");
    json.key("schema").value(kMetricsSchemaVersion);
    json.key("base_seed").value(static_cast<std::size_t>(base_seed));
    json.key("trials").value(trials);
    json.key("scheme").value(to_string(config.rule_set));
    json.key("engine").value(resolved_engine_name(config));
    json.key("engine_config").value(to_string(config.engine));
    json.key("backbone").value(to_string(config.backbone));
    json.key("threads").value(config.threads);
    json.key("tiles").value(config.tiles);
    json.key("n_hosts").value(config.n_hosts);
    json.key("field_width").value(config.field_width);
    json.key("field_height").value(config.field_height);
    json.key("field_depth").value(config.field_depth);
    json.key("boundary").value(to_string(config.boundary));
    json.key("radius").value(config.radius);
    json.key("link_model").value(to_string(config.link_model));
    json.key("radio").value(to_string(config.radio));
    if (config.radio != RadioKind::kUnitDisk) {
      json.key("sigma_db").value(config.radio_params.sigma_db);
      json.key("path_loss_exp").value(config.radio_params.path_loss_exp);
      json.key("link_prob").value(config.radio_params.link_prob);
      json.key("fading_seed")
          .value(static_cast<std::size_t>(config.radio_params.fading_seed));
    }
    json.key("initial_energy").value(config.initial_energy);
    json.key("drain_model").value(to_string(config.drain_model));
    json.key("nongateway_drain").value(config.drain_params.nongateway_drain);
    json.key("constant_base").value(config.drain_params.constant_base);
    json.key("quadratic_divisor")
        .value(config.drain_params.quadratic_divisor);
    json.key("mobility").value(to_string(config.mobility_kind));
    json.key("stay_probability").value(config.stay_probability);
    json.key("jump_min").value(config.jump_min);
    json.key("jump_max").value(config.jump_max);
    switch (config.mobility_kind) {
      case MobilityKind::kRandomWalk:
        json.key("step_min").value(config.mobility_params.step_min);
        json.key("step_max").value(config.mobility_params.step_max);
        break;
      case MobilityKind::kRandomWaypoint:
        json.key("speed_min").value(config.mobility_params.speed_min);
        json.key("speed_max").value(config.mobility_params.speed_max);
        json.key("pause_intervals")
            .value(config.mobility_params.pause_intervals);
        break;
      case MobilityKind::kGaussMarkov:
        json.key("mean_speed").value(config.mobility_params.mean_speed);
        json.key("alpha").value(config.mobility_params.alpha);
        json.key("speed_stddev").value(config.mobility_params.speed_stddev);
        json.key("heading_stddev")
            .value(config.mobility_params.heading_stddev);
        break;
      case MobilityKind::kPaperJump:
      case MobilityKind::kStatic:
        break;  // the three legacy keys above already cover paper-jump
    }
    if (config.rule_set == RuleSet::kSEL ||
        config.custom_key == KeyKind::kStabilityEnergyId) {
      json.key("stability_beta").value(config.stability_beta);
      json.key("stability_quantum").value(config.stability_quantum);
    }
    json.key("strategy").value(to_string(config.cds_options.strategy));
    json.key("clique_policy")
        .value(to_string(config.cds_options.clique_policy));
    if (config.custom_key.has_value()) {
      json.key("custom_key").value(to_string(*config.custom_key));
      json.key("custom_rule2_form").value(to_string(config.custom_rule2_form));
    } else {
      json.key("custom_key").null();
    }
    json.key("use_rule_k").value(config.use_rule_k);
    json.key("energy_key_quantum").value(config.energy_key_quantum);
    json.key("connect_retries").value(config.connect_retries);
    json.key("max_intervals").value(static_cast<std::int64_t>(
        config.max_intervals));
    if (faults != nullptr && !faults->empty()) {
      json.key("faults");
      write_fault_plan(json, *faults);
    } else {
      json.key("faults").null();
    }
  });
}

JsonlIntervalObserver::JsonlIntervalObserver(obs::JsonlSink& sink,
                                             const SimConfig& config,
                                             std::size_t trial)
    : sink_(&sink),
      scheme_(to_string(config.rule_set)),
      engine_(resolved_engine_name(config)),
      trial_(trial) {}

void JsonlIntervalObserver::on_interval(const IntervalRecord& record) {
  sink_->record([&](JsonWriter& json) {
    json.key("type").value("interval");
    json.key("schema").value(kMetricsSchemaVersion);
    json.key("trial").value(trial_);
    json.key("scheme").value(scheme_);
    json.key("engine").value(engine_);
    json.key("interval").value(static_cast<std::int64_t>(record.interval));
    json.key("marked").value(record.marked);
    json.key("gateways").value(record.gateways);
    json.key("alive").value(record.alive);
    json.key("touched").value(record.touched);
    json.key("energy_min").value(record.min_energy);
    json.key("energy_mean").value(record.mean_energy);
    json.key("energy_max").value(record.max_energy);
    for (std::size_t i = 0; i < obs::kPhaseCount; ++i) {
      json.key(std::string(obs::phase_name(static_cast<obs::Phase>(i))) +
               "_ns")
          .value(static_cast<std::size_t>(record.phase_ns[i]));
    }
    for (std::size_t i = 0; i < obs::kCounterCount; ++i) {
      json.key(obs::counter_name(static_cast<obs::Counter>(i)))
          .value(static_cast<std::size_t>(record.counters[i]));
    }
  });
}

void JsonlIntervalObserver::on_fault(const FaultRecord& record) {
  sink_->record([&](JsonWriter& json) {
    json.key("type").value("fault_event");
    json.key("schema").value(kMetricsSchemaVersion);
    json.key("trial").value(trial_);
    json.key("scheme").value(scheme_);
    json.key("engine").value(engine_);
    json.key("interval").value(static_cast<std::int64_t>(record.interval));
    json.key("kind").value(to_string(record.kind));
    json.key("cause").value(to_string(record.cause));
    if (record.node >= 0) {
      json.key("node").value(record.node);
    } else {
      json.key("node").null();
    }
    json.key("amount").value(record.amount);
    json.key("down").value(record.down);
    if (record.kind == FaultKind::kRepair) {
      json.key("touched").value(record.touched);
      json.key("repair_ns").value(static_cast<std::size_t>(record.repair_ns));
      json.key("backbone_ok").value(record.backbone_ok);
      json.key("coverage").value(record.coverage);
      json.key("gateways").value(record.gateways);
    }
  });
}

}  // namespace pacds
