#pragma once
// Discrete-event packet-level simulation of dominating-set routing with
// queueing. Each host owns a FIFO transmit queue and serves one packet per
// `tx_time`; packets follow source routes computed on the current backbone.
// Every `update_interval` the hosts move, the lifetime engine recomputes
// the link graph and gateway set, and in-flight packets whose next hop
// walked out of range are dropped (route breakage). The experiment this
// enables: smaller backbones concentrate forwarding on fewer hosts, so
// schemes trade backbone size against queueing delay — a dimension the
// paper's interval model cannot see.

#include <cstdint>
#include <vector>

#include "sim/faults.hpp"
#include "sim/lifetime.hpp"
#include "sim/stats.hpp"

namespace pacds::des {

/// A packet-level run: every SimConfig axis (field, placement, mobility,
/// radio, scheme, strategy, engine) plus the queueing knobs. The inherited
/// drain_model, drain_params and max_intervals do not apply: the DES drains
/// no battery, and sim_time / update_interval sets the run length.
struct PacketSimConfig : SimConfig {
  /// The DES defaults that differ from SimConfig's.
  PacketSimConfig() {
    n_hosts = 40;
    rule_set = RuleSet::kND;
  }

  double sim_time = 400.0;         ///< total simulated time
  double update_interval = 20.0;   ///< mobility + backbone refresh period

  double injection_gap = 0.5;      ///< one new packet every gap
  double tx_time = 1.0;            ///< service time per hop
  std::size_t queue_capacity = 16; ///< per-host FIFO depth
  int max_hops = 64;               ///< TTL safety net

  /// Per-transmission loss probability (lossy radio); lost frames are
  /// retransmitted up to max_retries, then the packet is dropped.
  double loss_probability = 0.0;
  int max_retries = 3;

  /// Optional fault plan (borrowed; must outlive the run). Crash/recover,
  /// theft and blackout events apply at backbone-refresh boundaries — the
  /// plan's interval t maps to the t-th backbone build. Down hosts leave
  /// the radio graph, their queued and in-flight packets are dropped as
  /// `crashed`, and they neither source nor sink new traffic. The plan
  /// consumes no randomness, so the mobility/injection/loss streams match
  /// the fault-free run of the same seed. The theft battery starts at
  /// initial_energy and nothing else drains it, so a theft kills its host
  /// only when `amount` >= initial_energy.
  const FaultPlan* faults = nullptr;
};

/// Why a packet never reached its destination.
struct DropCounts {
  std::size_t no_route = 0;     ///< router had no path at injection
  std::size_t queue_full = 0;   ///< FIFO overflow at some hop
  std::size_t route_break = 0;  ///< next hop out of range after an update
  std::size_t ttl = 0;          ///< exceeded max_hops
  std::size_t loss = 0;         ///< radio loss exhausted the retry budget
  std::size_t crashed = 0;      ///< lost with a host that went down
  std::size_t in_flight = 0;    ///< still queued when the simulation ended

  [[nodiscard]] std::size_t total() const {
    return no_route + queue_full + route_break + ttl + loss + crashed +
           in_flight;
  }
};

struct PacketSimResult {
  std::size_t injected = 0;
  std::size_t delivered = 0;
  DropCounts drops;
  Summary latency;          ///< end-to-end delay of delivered packets
  Summary hops;             ///< path length of delivered packets
  double max_queue = 0.0;   ///< deepest FIFO observed (congestion)
  double avg_gateways = 0.0;
  std::size_t fault_events = 0;  ///< injected fault events (0 without a plan)

  [[nodiscard]] double delivery_ratio() const {
    return injected == 0
               ? 1.0
               : static_cast<double>(delivered) /
                     static_cast<double>(injected);
  }
};

/// Runs one packet-level simulation, fully determined by (config, seed).
[[nodiscard]] PacketSimResult run_packet_sim(const PacketSimConfig& config,
                                             std::uint64_t seed);

}  // namespace pacds::des
