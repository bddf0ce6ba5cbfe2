#include "des/packet_sim.hpp"

#include <algorithm>
#include <deque>
#include <stdexcept>

#include "des/event_queue.hpp"
#include "energy/battery.hpp"
#include "routing/routing.hpp"
#include "sim/engine.hpp"

namespace pacds::des {

namespace {

struct Packet {
  std::vector<NodeId> route;  ///< full host sequence src..dst
  std::size_t at = 0;         ///< index of the host currently holding it
  SimTime injected_at = 0.0;
  int hops = 0;
  int retries = 0;            ///< retransmissions of the current hop
};

/// The whole simulation state; event thunks call back into this.
class Sim {
 public:
  Sim(const PacketSimConfig& config, std::uint64_t seed)
      : config_(config),
        rng_(seed),
        hosts_(config_, rng_),
        engine_(make_lifetime_engine(config_)),
        levels_(static_cast<std::size_t>(config_.n_hosts), 1.0),
        queues_(static_cast<std::size_t>(config_.n_hosts)),
        busy_(static_cast<std::size_t>(config_.n_hosts), 0) {
    if (config.faults != nullptr && config.faults->has_lifetime_events()) {
      validate_fault_plan(*config.faults, config.n_hosts);
      batteries_.emplace(static_cast<std::size_t>(config.n_hosts),
                         config.initial_energy);
      injector_.emplace(*config.faults, hosts_.positions.size(),
                        config.field_width, config.radius);
      apply_faults();  // the plan's interval 1 = the first backbone build
    }
    rebuild_backbone();
  }

  PacketSimResult run() {
    for (SimTime t = 0.0; t < config_.sim_time; t += config_.injection_gap) {
      events_.schedule(t, [this] { inject(); });
    }
    for (SimTime t = config_.update_interval; t < config_.sim_time;
         t += config_.update_interval) {
      events_.schedule(t, [this] { refresh_topology(); });
    }
    events_.run_until(config_.sim_time);

    // Whatever is still queued or mid-flight never arrived.
    result_.drops.in_flight =
        result_.injected - result_.delivered - result_.drops.no_route -
        result_.drops.queue_full - result_.drops.route_break -
        result_.drops.ttl - result_.drops.loss - result_.drops.crashed;
    result_.latency = Summary::of(latency_);
    result_.hops = Summary::of(hops_);
    result_.avg_gateways =
        backbone_samples_ == 0
            ? 0.0
            : gateway_sum_ / static_cast<double>(backbone_samples_);
    return result_;
  }

 private:
  [[nodiscard]] bool is_down(NodeId host) const {
    return injector_ && injector_->down().test(static_cast<std::size_t>(host));
  }

  /// Applies the current interval's scheduled faults and drops whatever a
  /// newly-down host was holding (its queue and service slot die with it).
  void apply_faults() {
    fault_scratch_.clear();
    injector_->apply(interval_, hosts_.positions, *batteries_,
                     fault_scratch_);
    result_.fault_events += fault_scratch_.size();
    if (!injector_->take_down_changed()) return;
    for (std::size_t h = 0; h < queues_.size(); ++h) {
      if (!injector_->down().test(h)) continue;
      result_.drops.crashed += queues_[h].size();
      queues_[h].clear();
      busy_[h] = 0;
    }
  }

  void rebuild_backbone() {
    const std::vector<Vec2>& radio_positions =
        injector_ ? injector_->effective_positions(hosts_.positions)
                  : hosts_.positions;
    engine_->update(radio_positions, levels_);
    router_.emplace(*engine_->graph(), engine_->gateways());
    gateway_sum_ += static_cast<double>(engine_->counts().gateways);
    ++backbone_samples_;
  }

  void refresh_topology() {
    hosts_.move(rng_);
    ++interval_;
    if (injector_) apply_faults();
    rebuild_backbone();
  }

  void inject() {
    ++result_.injected;
    const auto n = static_cast<std::int64_t>(config_.n_hosts);
    const auto src = static_cast<NodeId>(rng_.uniform_int(0, n - 1));
    auto dst = src;
    while (dst == src) dst = static_cast<NodeId>(rng_.uniform_int(0, n - 1));
    if (is_down(src) || is_down(dst)) {
      // A crashed host neither sources nor sinks traffic. The draws above
      // keep the injection stream aligned with the fault-free run.
      ++result_.drops.crashed;
      return;
    }
    RouteResult route = router_->route(src, dst);
    if (!route.delivered) {
      ++result_.drops.no_route;
      return;
    }
    if (route.path.size() == 1) {  // src == dst cannot happen; guard anyway
      ++result_.delivered;
      return;
    }
    Packet packet;
    packet.route = std::move(route.path);
    packet.injected_at = events_.now();
    enqueue(src, std::move(packet));
  }

  void enqueue(NodeId host, Packet packet) {
    auto& queue = queues_[static_cast<std::size_t>(host)];
    if (queue.size() >= config_.queue_capacity) {
      ++result_.drops.queue_full;
      return;
    }
    queue.push_back(std::move(packet));
    result_.max_queue =
        std::max(result_.max_queue, static_cast<double>(queue.size()));
    try_transmit(host);
  }

  void try_transmit(NodeId host) {
    const auto hi = static_cast<std::size_t>(host);
    if (busy_[hi] || queues_[hi].empty()) return;
    Packet packet = std::move(queues_[hi].front());
    queues_[hi].pop_front();
    const NodeId next = packet.route[packet.at + 1];
    if (!engine_->graph()->has_edge(host, next)) {
      // The next hop moved out of range since the route was computed.
      ++result_.drops.route_break;
      try_transmit(host);  // serve the next packet immediately
      return;
    }
    busy_[hi] = 1;
    events_.schedule(events_.now() + config_.tx_time,
                     [this, host, p = std::move(packet), next]() mutable {
                       busy_[static_cast<std::size_t>(host)] = 0;
                       if (is_down(host)) {
                         // The sender crashed mid-service; the frame and the
                         // rest of its queue died with it (see apply_faults).
                         ++result_.drops.crashed;
                         return;
                       }
                       if (config_.loss_probability > 0.0 &&
                           rng_.bernoulli(config_.loss_probability)) {
                         // Frame lost in the air: retransmit or give up.
                         if (p.retries < config_.max_retries) {
                           ++p.retries;
                           retransmit(host, std::move(p));
                         } else {
                           ++result_.drops.loss;
                           try_transmit(host);
                         }
                         return;
                       }
                       if (is_down(next)) {
                         ++result_.drops.crashed;
                         try_transmit(host);
                         return;
                       }
                       p.retries = 0;
                       arrive(next, std::move(p));
                       try_transmit(host);
                     });
  }

  /// Re-sends a lost frame at the head of the line (the host stays busy for
  /// another service time).
  void retransmit(NodeId host, Packet packet) {
    auto& queue = queues_[static_cast<std::size_t>(host)];
    queue.push_front(std::move(packet));
    try_transmit(host);
  }

  void arrive(NodeId host, Packet packet) {
    ++packet.at;
    ++packet.hops;
    if (packet.route[packet.at] != host) {
      // Defensive: routes are positional, this cannot diverge.
      ++result_.drops.route_break;
      return;
    }
    if (packet.at + 1 == packet.route.size()) {
      ++result_.delivered;
      latency_.add(events_.now() - packet.injected_at);
      hops_.add(static_cast<double>(packet.hops));
      return;
    }
    if (packet.hops >= config_.max_hops) {
      ++result_.drops.ttl;
      return;
    }
    enqueue(host, std::move(packet));
  }

  PacketSimConfig config_;
  Xoshiro256 rng_;
  Hosts hosts_;
  std::unique_ptr<LifetimeEngine> engine_;
  /// The backbone keys see one constant level per host: the DES drains no
  /// battery, and a theft must not reorder the keys.
  std::vector<double> levels_;
  std::optional<DominatingSetRouter> router_;

  /// Fault plumbing (engaged only when config.faults has lifetime events).
  long interval_ = 1;  ///< 1-based backbone-build counter (plan intervals)
  std::optional<FaultInjector> injector_;
  std::optional<BatteryBank> batteries_;  ///< theft target (no drain here)
  std::vector<FaultRecord> fault_scratch_;

  EventQueue events_;
  std::vector<std::deque<Packet>> queues_;
  std::vector<char> busy_;

  PacketSimResult result_;
  Welford latency_;
  Welford hops_;
  double gateway_sum_ = 0.0;
  std::size_t backbone_samples_ = 0;
};

}  // namespace

PacketSimResult run_packet_sim(const PacketSimConfig& config,
                               std::uint64_t seed) {
  if (config.n_hosts < 2 || config.sim_time <= 0.0 ||
      config.injection_gap <= 0.0 || config.tx_time <= 0.0 ||
      config.update_interval <= 0.0) {
    throw std::invalid_argument("run_packet_sim: bad configuration");
  }
  Sim sim(config, seed);
  return sim.run();
}

}  // namespace pacds::des
