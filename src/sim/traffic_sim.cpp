#include "sim/traffic_sim.hpp"

#include <cmath>
#include <stdexcept>
#include <vector>

#include "energy/battery.hpp"
#include "routing/routing.hpp"
#include "sim/engine.hpp"

namespace pacds {

TrafficSimResult run_traffic_trial(const TrafficSimConfig& config,
                                   std::uint64_t seed) {
  if (config.n_hosts < 2) {
    throw std::invalid_argument("run_traffic_trial: need at least two hosts");
  }
  if (config.flows_per_interval < 0) {
    throw std::invalid_argument("run_traffic_trial: negative flow count");
  }
  Xoshiro256 rng(seed);
  Hosts hosts(config, rng);

  const auto n = static_cast<std::size_t>(config.n_hosts);
  BatteryBank batteries(n, config.initial_energy);
  const auto engine = make_lifetime_engine(config);
  std::vector<char> active(n, 1);

  TrafficSimResult result;
  double gateway_sum = 0.0;
  std::vector<Vec2> radio_positions;
  std::vector<NodeId> usable_ids;
  while (result.intervals < config.max_intervals) {
    // Usable hosts: alive AND switched on. The others are parked off the
    // field, so they stay isolated vertices and indices line up with the
    // battery bank.
    radio_positions = hosts.positions;
    usable_ids.clear();
    for (std::size_t i = 0; i < n; ++i) {
      if (active[i] && batteries.alive(i)) {
        usable_ids.push_back(static_cast<NodeId>(i));
      } else {
        radio_positions[i] =
            park_position(i, config.field_width, config.radius);
      }
    }
    if (usable_ids.size() < 2) break;  // nothing left to route

    engine->update(radio_positions, batteries.levels());
    const DynBitset& gateways = engine->gateways();
    gateway_sum += static_cast<double>(engine->counts().gateways);

    // Per-interval baseline costs.
    bool someone_died = false;
    for (const NodeId host : usable_ids) {
      const auto hi = static_cast<std::size_t>(host);
      const double upkeep =
          config.costs.idle + (gateways.test(hi) ? config.costs.beacon : 0.0);
      someone_died |= batteries.drain(hi, upkeep);
    }

    // Route random flows through the backbone and charge per hop.
    const DominatingSetRouter router(*engine->graph(), gateways);
    for (int flow = 0; flow < config.flows_per_interval; ++flow) {
      const auto si = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(usable_ids.size()) - 1));
      auto ti = si;
      while (ti == si) {
        ti = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(usable_ids.size()) - 1));
      }
      const NodeId src = usable_ids[si];
      const NodeId dst = usable_ids[ti];
      ++result.flows_attempted;
      const RouteResult route = router.route(src, dst);
      if (!route.delivered) {
        // The source still spends a transmission trying.
        someone_died |= batteries.drain(static_cast<std::size_t>(src),
                                        config.costs.tx);
        continue;
      }
      ++result.flows_delivered;
      for (std::size_t hop = 0; hop < route.path.size(); ++hop) {
        const auto node = static_cast<std::size_t>(route.path[hop]);
        double cost = 0.0;
        if (hop + 1 < route.path.size()) cost += config.costs.tx;
        if (hop > 0) cost += config.costs.rx;
        someone_died |= batteries.drain(node, cost);
      }
    }

    ++result.intervals;
    if (someone_died) break;

    // Mobility and churn for the next interval.
    hosts.move(rng);
    for (std::size_t i = 0; i < n; ++i) {
      if (!batteries.alive(i)) continue;
      if (active[i]) {
        if (rng.bernoulli(config.churn.off_probability)) active[i] = 0;
      } else if (rng.bernoulli(config.churn.on_probability)) {
        active[i] = 1;
      }
    }
  }

  result.hit_cap =
      !batteries.any_dead() && result.intervals >= config.max_intervals;
  if (result.intervals > 0) {
    result.avg_gateways =
        gateway_sum / static_cast<double>(result.intervals);
  }
  if (result.flows_attempted > 0) {
    result.delivery_ratio = static_cast<double>(result.flows_delivered) /
                            static_cast<double>(result.flows_attempted);
  }
  // Energy spread at the end of the run (balance quality).
  double mean = 0.0;
  for (const double level : batteries.levels()) mean += level;
  mean /= static_cast<double>(n);
  double var = 0.0;
  for (const double level : batteries.levels()) {
    var += (level - mean) * (level - mean);
  }
  result.energy_stddev_at_death = std::sqrt(var / static_cast<double>(n));
  return result;
}

}  // namespace pacds
