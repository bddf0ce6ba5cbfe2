#pragma once
// Traffic-driven lifetime simulation — an extension beyond the paper's
// abstract drain models. Instead of charging gateways a formula
// d = traffic/|G'|, every interval a batch of random flows is actually
// ROUTED through the dominating-set backbone, and hosts pay for the packets
// they transmit, forward and receive. This exercises the claim the
// d-models abstract: gateways burn energy handling bypass traffic, so
// rotating gateway duty by energy level should extend the time to first
// death — now with load that concentrates on the real forwarding paths.
//
// Dead and switched-off hosts drop out of the topology; the simulation also
// reports packet delivery, so the energy/service trade-off is visible.

#include <cstdint>

#include "sim/lifetime.hpp"

namespace pacds {

/// Energy price list (arbitrary units per packet / per interval).
struct EnergyCosts {
  double tx = 1.0;      ///< transmitting one packet (source or forwarder)
  double rx = 0.5;      ///< receiving one packet (destination or forwarder)
  double idle = 0.05;   ///< per-interval baseline for every active host
  double beacon = 0.2;  ///< per-interval extra for gateways (table upkeep)
};

/// Host on/off churn (the paper's "switching on/off ... a special form of
/// mobility"). An inactive host vanishes from the topology and drains
/// nothing.
struct ChurnModel {
  double off_probability = 0.0;  ///< P(active host switches off) per interval
  double on_probability = 0.25;  ///< P(inactive host returns) per interval
};

/// A traffic trial: every SimConfig axis (field, placement, mobility,
/// radio, scheme, strategy, engine) plus the routed-traffic knobs. The
/// inherited drain_model and drain_params do not apply: hosts pay `costs`
/// per packet instead.
struct TrafficSimConfig : SimConfig {
  /// The traffic defaults that differ from SimConfig's.
  TrafficSimConfig() {
    initial_energy = 200.0;
    max_intervals = 100000;
  }

  EnergyCosts costs{};
  int flows_per_interval = 20;  ///< random src->dst packets each interval
  ChurnModel churn{};
};

struct TrafficSimResult {
  long intervals = 0;           ///< completed intervals at first death
  double avg_gateways = 0.0;    ///< mean |G'| per interval
  double delivery_ratio = 1.0;  ///< delivered / attempted flows
  std::size_t flows_attempted = 0;
  std::size_t flows_delivered = 0;
  double energy_stddev_at_death = 0.0;  ///< battery spread when the run ends
                                        ///< (lower = better balancing)
  bool hit_cap = false;
};

/// Runs one traffic-driven trial, fully determined by (config, seed).
[[nodiscard]] TrafficSimResult run_traffic_trial(const TrafficSimConfig& config,
                                                 std::uint64_t seed);

}  // namespace pacds
