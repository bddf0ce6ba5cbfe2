#include "sim/lifetime.hpp"

#include <algorithm>
#include <chrono>
#include <optional>

#include "energy/battery.hpp"
#include "net/mobility.hpp"
#include "sim/config_json.hpp"
#include "sim/engine.hpp"

namespace pacds {

Hosts::Hosts(const SimConfig& config, Xoshiro256& rng)
    : field(config.field_width, config.field_height, config.field_depth,
            config.boundary) {
  if (auto placed = random_connected_placement(
          config.n_hosts, field, config.radius, rng, config.connect_retries)) {
    positions = std::move(placed->positions);
    placement_attempts = placed->attempts;
  } else {
    // No connected placement found (tiny n or sparse density): proceed with
    // a plain placement; the marking/rules handle components independently.
    positions = random_placement(config.n_hosts, field, rng);
    connected = false;
    placement_attempts = config.connect_retries;
  }

  MobilityParams mobility_params = config.mobility_params;
  if (config.mobility_kind == MobilityKind::kPaperJump) {
    mobility_params.stay_probability = config.stay_probability;
    mobility_params.jump_min = config.jump_min;
    mobility_params.jump_max = config.jump_max;
  }
  mobility = make_mobility(config.mobility_kind, mobility_params);
}

LifetimeRun::LifetimeRun(const SimConfig& config, std::uint64_t seed,
                         IntervalObserver* observer, const FaultPlan* faults)
    : config_(checked_sim_config(config)),
      rng_(seed),
      observer_(observer),
      batteries_(static_cast<std::size_t>(config.n_hosts),
                 config.initial_energy),
      hosts_(config_, rng_) {
  result_.placement_attempts = hosts_.placement_attempts;
  result_.initial_connected = hosts_.connected;

  // Placement and mobility are the only RNG consumers, so neither the choice
  // of engine nor a fault plan can perturb the random stream: both engines
  // yield bit-identical trials wherever the incremental one is eligible, and
  // a faulted run shares its fault-free twin's placement and trajectories.
  engine_ = make_lifetime_engine(config_);

  // Metrics are gathered only when someone is listening; with no observer
  // the engine keeps its null registry and every timer/counter is skipped.
  if (observer_ != nullptr) engine_->set_metrics(&metrics_);

  // Degraded mode: only a plan with scheduled lifetime events changes the
  // loop at all; an empty or null plan stays on the exact fault-free path.
  faulted_ = faults != nullptr && faults->has_lifetime_events();
  if (faulted_) {
    fault_plan_ = *faults;
    validate_fault_plan(fault_plan_, config_.n_hosts);
    injector_.emplace(fault_plan_, batteries_.size(), config_.field_width,
                      config_.radius);
    health_scratch_ = DynBitset(batteries_.size());
  }
}

LifetimeRun::~LifetimeRun() = default;

bool LifetimeRun::finished() const {
  return attrition_stop_ || result_.intervals >= config_.max_intervals;
}

void LifetimeRun::set_observer(IntervalObserver* observer) {
  observer_ = observer;
  engine_->set_metrics(observer_ != nullptr ? &metrics_ : nullptr);
}

bool LifetimeRun::step() {
  if (finished()) return false;
  metrics_.reset();  // per-interval slice
  const long interval = result_.intervals + 1;

  // 1. Inject this interval's scheduled faults (before the CDS update, so
  //    the engine always computes against the post-event topology).
  bool repair_due = false;
  if (faulted_) {
    fault_events_.clear();
    {
      const obs::PhaseTimer timer(observer_ != nullptr ? &metrics_ : nullptr,
                                  obs::Phase::kFaultApply);
      injector_->apply(interval, hosts_.positions, batteries_, fault_events_);
    }
    repair_due = injector_->take_down_changed();
  }

  // 2. Bring the gateway set up to date. Down hosts enter parked (hence
  //    isolated) — for the incremental engine the update IS the localized
  //    repair: only the k-hop ball around the excised links re-evaluates.
  const std::vector<Vec2>& radio_positions =
      faulted_ ? injector_->effective_positions(hosts_.positions)
               : hosts_.positions;
  std::uint64_t repair_ns = 0;
  if (repair_due) {
    const auto start = std::chrono::steady_clock::now();
    engine_->update(radio_positions, batteries_.levels());
    repair_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
  } else {
    engine_->update(radio_positions, batteries_.levels());
  }
  const DynBitset& gateways = engine_->gateways();
  IntervalCounts counts = engine_->counts();
  // A repair round happened only if the engine actually re-derived the set.
  // The cds22 backbone keeps its cached set through a member crash (the
  // survivors still verify), so a down-set change need not cost a repair.
  const bool repaired = repair_due && engine_->last_update_recomputed();

  // 3. Degraded-mode health: domination + connectivity of the surviving
  //    backbone. assess_backbone leaves the active gateway set in
  //    health_scratch_, which then also drives the drain step.
  BackboneHealth health;
  const DynBitset* drain_gateways = &gateways;
  if (faulted_) {
    health = assess_backbone(*engine_->graph(), gateways, injector_->down(),
                             health_scratch_);
    drain_gateways = &health_scratch_;
    counts.gateways = health.active_gateways;
  }
  gateway_sum_ += static_cast<double>(counts.gateways);
  marked_sum_ += static_cast<double>(counts.marked);

  // CDS churn: backbone membership turned over since the previous interval
  // (the stability ablation's headline metric). Judged on the engine's raw
  // gateway set so the fault-free and degraded paths measure the same thing.
  if (have_prev_gateways_ && prev_gateways_.size() == gateways.size()) {
    churn_scratch_ = gateways;
    churn_scratch_ ^= prev_gateways_;
    churn_sum_ += static_cast<double>(churn_scratch_.count());
  }
  prev_gateways_ = gateways;
  have_prev_gateways_ = true;

  // 4. Drain. Down hosts spend nothing (a crashed radio is off); gateway
  //    duty is judged against the active set.
  const double d = gateway_drain(config_.drain_model, batteries_.size(),
                                 counts.gateways, config_.drain_params);
  const double d_prime = config_.drain_params.nongateway_drain;
  bool someone_died = false;
  const std::size_t death_start = fault_events_.size();
  for (std::size_t host = 0; host < batteries_.size(); ++host) {
    if (faulted_ && injector_->down().test(host)) continue;
    const bool is_gateway = drain_gateways->test(host);
    if (batteries_.drain(host, is_gateway ? d : d_prime)) {
      someone_died = true;
      if (faulted_) injector_->record_death(host, interval, fault_events_);
    }
  }
  ++result_.intervals;

  // 5. Degraded-mode bookkeeping: event tallies, health aggregates, and
  //    the repair record for this interval's down-set change.
  FaultRecord repair_record;
  if (faulted_) {
    FaultStats& fs = result_.faults;
    for (const FaultRecord& event : fault_events_) {
      switch (event.kind) {
        case FaultKind::kCrash:
          ++fs.events;
          ++fs.crashes;
          break;
        case FaultKind::kRecover:
          ++fs.events;
          ++fs.recoveries;
          break;
        case FaultKind::kTheft:
          ++fs.events;
          ++fs.thefts;
          break;
        case FaultKind::kDeath:
          ++fs.deaths;
          if (fs.first_death_interval < 0) {
            fs.first_death_interval = event.interval;
          }
          break;
        case FaultKind::kRepair:
          break;
      }
    }
    if (!health.backbone_ok) ++fs.disconnected_intervals;
    if (health.coverage < 1.0) ++fs.uncovered_intervals;
    fs.min_coverage = std::min(fs.min_coverage, health.coverage);
    if (repaired) {
      ++fs.repairs;
      fs.repair_ns_total += repair_ns;
      fs.repair_touched_total += engine_->last_touched();
      repair_record = {interval,
                       FaultKind::kRepair,
                       FaultCause::kNone,
                       -1,
                       0.0,
                       injector_->down_count(),
                       engine_->last_touched(),
                       repair_ns,
                       health.backbone_ok,
                       health.coverage,
                       health.active_gateways};
    }
  }

  if (observer_ != nullptr) {
    if (faulted_) {
      metrics_.add(obs::Counter::kFaultEvents, fault_events_.size());
      metrics_.add(obs::Counter::kHostsDown, injector_->down_count());
    }
    IntervalRecord record;
    record.interval = result_.intervals;
    record.marked = counts.marked;
    record.gateways = counts.gateways;
    record.alive = batteries_.alive_count();
    record.min_energy = batteries_.min_level();
    double sum = 0.0;
    double max_level = 0.0;
    for (const double level : batteries_.levels()) {
      sum += level;
      max_level = std::max(max_level, level);
    }
    record.mean_energy = sum / static_cast<double>(batteries_.size());
    record.max_energy = max_level;
    record.touched = engine_->last_touched();
    record.phase_ns = metrics_.phases();
    record.counters = metrics_.counters();
    // Emission order: injected events, the repair that healed them, the
    // interval snapshot, then the drain deaths the interval caused.
    if (faulted_) {
      for (std::size_t i = 0; i < death_start; ++i) {
        observer_->on_fault(fault_events_[i]);
      }
      if (repaired) observer_->on_fault(repair_record);
    }
    observer_->on_interval(record);
    if (faulted_) {
      for (std::size_t i = death_start; i < fault_events_.size(); ++i) {
        observer_->on_fault(fault_events_[i]);
      }
    }
  }

  // 6. Stop: a degraded run keeps going until at most one host still
  //    functions; the paper's run ends at the first death. Mobility steps
  //    exactly as in the original loop: after every non-terminal interval,
  //    including the one the max_intervals cap then cuts off.
  if (faulted_) {
    if (batteries_.size() - injector_->down_count() <= 1) {
      attrition_stop_ = true;
      return true;
    }
  } else if (someone_died) {
    attrition_stop_ = true;
    return true;
  }
  hosts_.move(rng_);
  return true;
}

TrialResult LifetimeRun::result() const {
  TrialResult out = result_;
  out.hit_cap = !attrition_stop_ && out.intervals >= config_.max_intervals;
  double gateways = gateway_sum_;
  double marked = marked_sum_;
  double churn = churn_sum_;
  if (out.intervals > 0) {
    gateways /= static_cast<double>(out.intervals);
    marked /= static_cast<double>(out.intervals);
    churn /= static_cast<double>(out.intervals);
  }
  out.avg_gateways = gateways;
  out.avg_marked = marked;
  out.avg_cds_churn = churn;
  return out;
}

TrialResult run_lifetime_trial(const SimConfig& config, std::uint64_t seed,
                               IntervalObserver* observer,
                               const FaultPlan* faults) {
  LifetimeRun run(config, seed, observer, faults);
  while (run.step()) {
  }
  return run.result();
}

}  // namespace pacds
