#include "dist/protocol.hpp"

#include <stdexcept>
#include <string>

#include "core/verify.hpp"
#include "net/rng.hpp"

namespace pacds::dist {

namespace {

/// Delivers one broadcast to every radio neighbor of the sender.
void broadcast(const Graph& g, std::vector<HostAgent>& agents,
               const Message& msg) {
  for (const NodeId u : g.neighbors(msg.from)) {
    agents[static_cast<std::size_t>(u)].receive(msg);
  }
}

/// Lossy delivery: each neighbor independently misses the frame.
void broadcast_lossy(const Graph& g, std::vector<HostAgent>& agents,
                     const Message& msg, double loss, Xoshiro256& rng) {
  for (const NodeId u : g.neighbors(msg.from)) {
    if (!rng.bernoulli(loss)) {
      agents[static_cast<std::size_t>(u)].receive(msg);
    }
  }
}

}  // namespace

ProtocolResult run_protocol(const Graph& g, KeyKind kind, Rule2Form form,
                            const std::vector<double>& energy,
                            bool use_rules) {
  const auto n = static_cast<std::size_t>(g.num_nodes());
  if (!energy.empty() && energy.size() != n) {
    throw std::invalid_argument("run_protocol: energy size mismatch");
  }
  std::vector<HostAgent> agents;
  agents.reserve(n);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    agents.emplace_back(
        v, energy.empty() ? 0.0 : energy[static_cast<std::size_t>(v)]);
  }
  ProtocolResult result;
  result.gateways = DynBitset(n);

  // Round 1: HELLO.
  for (const HostAgent& agent : agents) {
    broadcast(g, agents, agent.make_hello());
    ++result.hello_msgs;
  }
  // Round 2: neighbor lists (2-hop knowledge).
  for (const HostAgent& agent : agents) {
    broadcast(g, agents, agent.make_neighbor_list());
    ++result.list_msgs;
  }
  // Round 3: marking + initial status announcements.
  for (HostAgent& agent : agents) agent.run_marking();
  for (const HostAgent& agent : agents) {
    broadcast(g, agents, agent.make_status());
    ++result.status_msgs;
  }
  if (use_rules) {
    // Round 4: Rule 1, decided simultaneously against round-3 statuses.
    // Decisions are collected first; flips are announced only afterwards so
    // every agent saw the same snapshot.
    std::vector<NodeId> flipped;
    for (HostAgent& agent : agents) {
      if (agent.run_rule1(kind)) flipped.push_back(agent.id());
    }
    for (const NodeId v : flipped) {
      broadcast(g, agents, agents[static_cast<std::size_t>(v)].make_status());
      ++result.status_msgs;
    }
    // Round 5: Rule 2 against round-4 statuses.
    flipped.clear();
    for (HostAgent& agent : agents) {
      if (agent.run_rule2(kind, form)) flipped.push_back(agent.id());
    }
    for (const NodeId v : flipped) {
      broadcast(g, agents, agents[static_cast<std::size_t>(v)].make_status());
      ++result.status_msgs;
    }
  }
  for (const HostAgent& agent : agents) {
    if (agent.is_gateway()) {
      result.gateways.set(static_cast<std::size_t>(agent.id()));
    }
  }
  return result;
}

ProtocolResult run_protocol_scheme(const Graph& g, RuleSet rs,
                                   const std::vector<double>& energy) {
  return run_protocol(g, key_kind_of(rs), rule2_form_of(rs), energy,
                      rs != RuleSet::kNR);
}

LossyProtocolResult run_lossy_protocol(const Graph& g, RuleSet rs,
                                       double loss, int repeats,
                                       std::uint64_t seed,
                                       const std::vector<double>& energy) {
  if (loss < 0.0 || loss >= 1.0 || repeats < 1) {
    throw std::invalid_argument("run_lossy_protocol: bad loss/repeats");
  }
  const auto n = static_cast<std::size_t>(g.num_nodes());
  if (!energy.empty() && energy.size() != n) {
    throw std::invalid_argument("run_lossy_protocol: energy size mismatch");
  }
  Xoshiro256 rng(seed);
  std::vector<HostAgent> agents;
  agents.reserve(n);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    agents.emplace_back(
        v, energy.empty() ? 0.0 : energy[static_cast<std::size_t>(v)]);
  }
  LossyProtocolResult result;
  result.protocol.gateways = DynBitset(n);

  const KeyKind kind = key_kind_of(rs);
  const Rule2Form form = rule2_form_of(rs);
  // Beaconing: HELLO and neighbor-list rounds repeat `repeats` times; a
  // neighbor missed every time stays unknown.
  for (int round = 0; round < repeats; ++round) {
    for (const HostAgent& agent : agents) {
      broadcast_lossy(g, agents, agent.make_hello(), loss, rng);
      ++result.protocol.hello_msgs;
    }
  }
  for (int round = 0; round < repeats; ++round) {
    for (const HostAgent& agent : agents) {
      broadcast_lossy(g, agents, agent.make_neighbor_list(), loss, rng);
      ++result.protocol.list_msgs;
    }
  }
  for (HostAgent& agent : agents) agent.run_marking();
  for (const HostAgent& agent : agents) {
    broadcast_lossy(g, agents, agent.make_status(), loss, rng);
    ++result.protocol.status_msgs;
  }
  if (rs != RuleSet::kNR) {
    std::vector<NodeId> flipped;
    for (HostAgent& agent : agents) {
      if (agent.run_rule1(kind)) flipped.push_back(agent.id());
    }
    for (const NodeId v : flipped) {
      broadcast_lossy(g, agents,
                      agents[static_cast<std::size_t>(v)].make_status(), loss,
                      rng);
      ++result.protocol.status_msgs;
    }
    flipped.clear();
    for (HostAgent& agent : agents) {
      if (agent.run_rule2(kind, form)) flipped.push_back(agent.id());
    }
    for (const NodeId v : flipped) {
      broadcast_lossy(g, agents,
                      agents[static_cast<std::size_t>(v)].make_status(), loss,
                      rng);
      ++result.protocol.status_msgs;
    }
  }
  for (const HostAgent& agent : agents) {
    if (agent.is_gateway()) {
      result.protocol.gateways.set(static_cast<std::size_t>(agent.id()));
    }
  }
  // Compare with the reliable execution and validate.
  const ProtocolResult reliable = run_protocol_scheme(g, rs, energy);
  DynBitset diff = result.protocol.gateways;
  diff ^= reliable.gateways;
  result.status_disagreements = diff.count();
  result.valid_cds = check_cds(g, result.protocol.gateways).ok();
  return result;
}

namespace {

/// One not-yet-acked (message, receiver) pair of an ARQ phase.
struct PendingLink {
  std::size_t msg;
  NodeId to;
};

/// Per-phase ARQ driver over the shared faulty channel. Pending links are
/// kept in (sender order, receiver ascending) order throughout, so the RNG
/// draw sequence — hence the whole execution — is deterministic.
class ArqChannel {
 public:
  ArqChannel(const Graph& g, std::vector<HostAgent>& agents,
             const ChannelFaultConfig& channel, const RetryPolicy& retry,
             Xoshiro256& rng, FaultyProtocolResult& result,
             const RadioModel* radio)
      : g_(&g),
        agents_(&agents),
        channel_(&channel),
        retry_(&retry),
        rng_(&rng),
        result_(&result),
        radio_(radio) {}

  /// Runs one phase to completion or the retry cap. `sent` receives one
  /// count per transmission (first attempts and retransmits alike), keeping
  /// the tally semantics of run_protocol's per-broadcast counters.
  void run_phase(const std::vector<Message>& msgs, std::size_t& sent) {
    pending_.clear();
    deferred_.clear();
    for (std::size_t m = 0; m < msgs.size(); ++m) {
      for (const NodeId u : g_->neighbors(msgs[m].from)) {
        pending_.push_back({m, u});
      }
    }
    // Attempt 1 is the plain broadcast round: every sender transmits once,
    // neighbors or not (matching run_protocol's accounting).
    sent += msgs.size();
    for (int attempt = 1; attempt <= retry_->max_attempts; ++attempt) {
      if (attempt > 1) {
        // Only senders with unacked receivers retransmit, after waiting out
        // this attempt's backoff window.
        const std::size_t senders = count_distinct_msgs();
        sent += senders;
        result_->retransmissions += senders;
        result_->backoff_rounds += backoff_rounds(attempt - 1);
      }
      transmit_pending(msgs);
      // Frames delayed in flight land at the attempt boundary — before the
      // sender's retry timer, so they count as acked in time.
      flush_deferred(msgs);
      if (pending_.empty()) break;
    }
    flush_deferred(msgs);
    if (!pending_.empty()) {
      result_->undelivered_links += pending_.size();
      result_->complete = false;
      pending_.clear();
    }
  }

 private:
  void deliver(const Message& msg, NodeId to) {
    (*agents_)[static_cast<std::size_t>(to)].receive(msg);
  }

  void transmit_pending(const std::vector<Message>& msgs) {
    next_.clear();
    for (const PendingLink& link : pending_) {
      // A faded pair's channel compounds with the global drop rate: the
      // frame survives only if both the channel and the pair's radio let it
      // through. radio_ == nullptr draws exactly the plain-channel stream.
      double drop = channel_->drop;
      if (radio_ != nullptr) {
        const double extra =
            radio_->arq_drop(msgs[link.msg].from, link.to);
        drop = 1.0 - (1.0 - drop) * (1.0 - extra);
      }
      if (drop > 0.0 && rng_->bernoulli(drop)) {
        ++result_->dropped_frames;
        next_.push_back(link);  // no ack; retried next attempt
        continue;
      }
      if (channel_->delay > 0.0 && rng_->bernoulli(channel_->delay)) {
        ++result_->delayed_frames;
        deferred_.push_back(link);
        continue;
      }
      deliver(msgs[link.msg], link.to);
      if (channel_->duplicate > 0.0 && rng_->bernoulli(channel_->duplicate)) {
        ++result_->duplicate_frames;
        deliver(msgs[link.msg], link.to);  // receive() is idempotent
      }
    }
    pending_.swap(next_);
  }

  void flush_deferred(const std::vector<Message>& msgs) {
    for (const PendingLink& link : deferred_) deliver(msgs[link.msg], link.to);
    deferred_.clear();
  }

  [[nodiscard]] std::size_t count_distinct_msgs() const {
    std::size_t count = 0;
    std::size_t last = static_cast<std::size_t>(-1);
    for (const PendingLink& link : pending_) {
      if (link.msg != last) {
        ++count;
        last = link.msg;
      }
    }
    return count;
  }

  /// Rounds idled before retransmit attempt a+1: min(base * 2^(a-1), cap).
  [[nodiscard]] std::size_t backoff_rounds(int failed_attempts) const {
    const auto base = static_cast<std::size_t>(retry_->backoff_base);
    const auto cap = static_cast<std::size_t>(retry_->backoff_cap);
    std::size_t window = base;
    for (int i = 1; i < failed_attempts && window < cap; ++i) window *= 2;
    return std::min(window, cap);
  }

  const Graph* g_;
  std::vector<HostAgent>* agents_;
  const ChannelFaultConfig* channel_;
  const RetryPolicy* retry_;
  Xoshiro256* rng_;
  FaultyProtocolResult* result_;
  const RadioModel* radio_;
  std::vector<PendingLink> pending_;
  std::vector<PendingLink> next_;
  std::vector<PendingLink> deferred_;
};

}  // namespace

FaultyProtocolResult run_faulty_protocol(const Graph& g, RuleSet rs,
                                         const ChannelFaultConfig& channel,
                                         const RetryPolicy& retry,
                                         std::uint64_t seed,
                                         const std::vector<double>& energy,
                                         const RadioModel* radio) {
  if (const std::string error = channel_error(channel, retry);
      !error.empty()) {
    throw std::invalid_argument("run_faulty_protocol: " + error);
  }
  const auto n = static_cast<std::size_t>(g.num_nodes());
  if (!energy.empty() && energy.size() != n) {
    throw std::invalid_argument("run_faulty_protocol: energy size mismatch");
  }
  Xoshiro256 rng(seed);
  std::vector<HostAgent> agents;
  agents.reserve(n);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    agents.emplace_back(
        v, energy.empty() ? 0.0 : energy[static_cast<std::size_t>(v)]);
  }
  FaultyProtocolResult result;
  result.protocol.gateways = DynBitset(n);
  ArqChannel arq(g, agents, channel, retry, rng, result, radio);

  const KeyKind kind = key_kind_of(rs);
  const Rule2Form form = rule2_form_of(rs);
  std::vector<Message> msgs;
  msgs.reserve(n);

  // Phase 1: HELLO.
  for (const HostAgent& agent : agents) msgs.push_back(agent.make_hello());
  arq.run_phase(msgs, result.protocol.hello_msgs);
  // Phase 2: neighbor lists (2-hop knowledge).
  msgs.clear();
  for (const HostAgent& agent : agents) {
    msgs.push_back(agent.make_neighbor_list());
  }
  arq.run_phase(msgs, result.protocol.list_msgs);
  // Phase 3: marking + initial status announcements.
  for (HostAgent& agent : agents) agent.run_marking();
  msgs.clear();
  for (const HostAgent& agent : agents) msgs.push_back(agent.make_status());
  arq.run_phase(msgs, result.protocol.status_msgs);
  if (rs != RuleSet::kNR) {
    // Phase 4: Rule 1 flips, decided against the phase-3 snapshot.
    msgs.clear();
    for (HostAgent& agent : agents) {
      if (agent.run_rule1(kind)) msgs.push_back(agent.make_status());
    }
    arq.run_phase(msgs, result.protocol.status_msgs);
    // Phase 5: Rule 2 flips against the phase-4 statuses.
    msgs.clear();
    for (HostAgent& agent : agents) {
      if (agent.run_rule2(kind, form)) msgs.push_back(agent.make_status());
    }
    arq.run_phase(msgs, result.protocol.status_msgs);
  }
  for (const HostAgent& agent : agents) {
    if (agent.is_gateway()) {
      result.protocol.gateways.set(static_cast<std::size_t>(agent.id()));
    }
  }
  // Compare with the reliable execution and validate.
  const ProtocolResult reliable = run_protocol_scheme(g, rs, energy);
  DynBitset diff = result.protocol.gateways;
  diff ^= reliable.gateways;
  result.status_disagreements = diff.count();
  result.valid_cds = check_cds(g, result.protocol.gateways).ok();
  return result;
}

}  // namespace pacds::dist
