#include "sim/overhead.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "sim/engine.hpp"

namespace pacds {

MaintenanceOverhead measure_maintenance_overhead(const OverheadConfig& config,
                                                 std::uint64_t seed) {
  if (config.n_hosts < 1 || config.intervals < 0) {
    throw std::invalid_argument("measure_maintenance_overhead: bad config");
  }
  // The one place an OverheadConfig becomes a SimConfig. Its paper jump
  // reads mobility_params' stay/jump trio, Hosts the top-level one.
  SimConfig sim;
  sim.n_hosts = config.n_hosts;
  sim.radius = config.radius;
  sim.rule_set = config.rule_set;
  sim.mobility_kind = config.mobility_kind;
  sim.mobility_params = config.mobility_params;
  sim.stay_probability = config.mobility_params.stay_probability;
  sim.jump_min = config.mobility_params.jump_min;
  sim.jump_max = config.mobility_params.jump_max;
  sim.connect_retries = config.connect_retries;
  Xoshiro256 rng(seed);
  Hosts hosts(sim, rng);
  const auto n = static_cast<std::size_t>(config.n_hosts);

  // No energy model here: the EL schemes see uniform levels (their keys
  // then degenerate to the corresponding static tie-break chains).
  const std::vector<double> uniform(n, 1.0);
  const auto engine = make_lifetime_engine(sim);
  engine->update(hosts.positions, uniform);
  Graph current = *engine->graph();
  DynBitset gateways = engine->gateways();

  MaintenanceOverhead result;
  // Setup: every host broadcasts its neighbor list, then its status.
  result.setup_msgs = 2 * n;

  for (int interval = 0; interval < config.intervals; ++interval) {
    hosts.move(rng);
    engine->update(hosts.positions, uniform);
    const Graph& next = *engine->graph();

    // Hosts whose adjacency changed re-broadcast their neighbor list.
    std::size_t changed_hosts = 0;
    for (NodeId v = 0; v < next.num_nodes(); ++v) {
      const auto vs = current.neighbors(v);
      const auto ns = next.neighbors(v);
      if (!std::equal(vs.begin(), vs.end(), ns.begin(), ns.end())) {
        ++changed_hosts;
      }
    }
    result.neighbor_msgs += changed_hosts;

    // Status flips after the (localized) recomputation.
    gateways ^= engine->gateways();
    result.status_msgs += gateways.count();

    result.global_msgs += 2 * n;  // naive baseline: full re-flood
    ++result.intervals;
    current = next;
    gateways = engine->gateways();
  }
  return result;
}

}  // namespace pacds
