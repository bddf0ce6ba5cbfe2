#include "dist/protocol.hpp"

#include <stdexcept>
#include <string>

#include "core/verify.hpp"
#include "net/rng.hpp"

namespace pacds::dist {

namespace {

/// The protocol's five rounds (agent.hpp), shared by all three runs. Each
/// round's frames go to `deliver(agents, msgs, sent)`, which hands them to
/// their senders' radio neighbors and adds each transmission to the
/// round's tally `sent`; how a frame reaches a neighbor is all that tells
/// the runs apart. `caller` names the run in the energy-size error.
template <typename Deliver>
ProtocolResult run_rounds(const Graph& g, RuleSet rs,
                          const std::vector<double>& energy,
                          const std::string& caller, Deliver&& deliver) {
  const auto n = static_cast<std::size_t>(g.num_nodes());
  if (!energy.empty() && energy.size() != n) {
    throw std::invalid_argument(caller + ": energy size mismatch");
  }
  std::vector<HostAgent> agents;
  agents.reserve(n);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    agents.emplace_back(
        v, energy.empty() ? 0.0 : energy[static_cast<std::size_t>(v)]);
  }
  ProtocolResult result;
  std::vector<Message> msgs;
  msgs.reserve(n);

  // Round 1: HELLO.
  for (const HostAgent& agent : agents) msgs.push_back(agent.make_hello());
  deliver(agents, msgs, result.hello_msgs);
  // Round 2: neighbor lists (2-hop knowledge).
  msgs.clear();
  for (const HostAgent& agent : agents) {
    msgs.push_back(agent.make_neighbor_list());
  }
  deliver(agents, msgs, result.list_msgs);
  // Round 3: marking + initial status announcements.
  msgs.clear();
  for (HostAgent& agent : agents) {
    agent.run_marking();
    msgs.push_back(agent.make_status());
  }
  deliver(agents, msgs, result.status_msgs);
  if (rs != RuleSet::kNR) {
    // Round 4: Rule 1, decided simultaneously against the round-3 statuses:
    // every host decides before any flip is delivered, so all saw the same
    // snapshot.
    const KeyKind kind = key_kind_of(rs);
    const Rule2Form form = rule2_form_of(rs);
    msgs.clear();
    for (HostAgent& agent : agents) {
      if (agent.run_rule1(kind)) msgs.push_back(agent.make_status());
    }
    deliver(agents, msgs, result.status_msgs);
    // Round 5: Rule 2 against the round-4 statuses.
    msgs.clear();
    for (HostAgent& agent : agents) {
      if (agent.run_rule2(kind, form)) msgs.push_back(agent.make_status());
    }
    deliver(agents, msgs, result.status_msgs);
  }
  result.gateways = DynBitset(n);
  for (const HostAgent& agent : agents) {
    if (agent.is_gateway()) {
      result.gateways.set(static_cast<std::size_t>(agent.id()));
    }
  }
  return result;
}

/// Scores a lossy or faulty run against the reliable one: the hosts that
/// decided differently, and whether its gateway set still passes check_cds.
template <typename Result>
Result scored(const Graph& g, RuleSet rs, const std::vector<double>& energy,
              Result result) {
  DynBitset diff = result.protocol.gateways;
  diff ^= run_protocol_scheme(g, rs, energy).gateways;
  result.status_disagreements = diff.count();
  result.valid_cds = check_cds(g, result.protocol.gateways).ok();
  return result;
}

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
  ArqChannel(const Graph& g, const ChannelFaultConfig& channel,
             const RetryPolicy& retry, Xoshiro256& rng,
             FaultyProtocolResult& result, const RadioModel* radio)
      : g_(&g),
        channel_(&channel),
        retry_(&retry),
        rng_(&rng),
        result_(&result),
        radio_(radio) {}

  /// Runs one phase to completion or the retry cap. `sent` receives one
  /// count per transmission (first attempts and retransmits alike), keeping
  /// the tally semantics of the reliable run's per-broadcast counters.
  void run_phase(std::vector<HostAgent>& agents,
                 const std::vector<Message>& msgs, std::size_t& sent) {
    pending_.clear();
    deferred_.clear();
    for (std::size_t m = 0; m < msgs.size(); ++m) {
      for (const NodeId u : g_->neighbors(msgs[m].from)) {
        pending_.push_back({m, u});
      }
    }
    // Attempt 1 is the plain broadcast round: every sender transmits once,
    // neighbors or not (matching the reliable run's accounting).
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
      transmit_pending(agents, msgs);
      // Frames delayed in flight land at the attempt boundary — before the
      // sender's retry timer, so they count as acked in time.
      flush_deferred(agents, msgs);
      if (pending_.empty()) break;
    }
    flush_deferred(agents, msgs);
    if (!pending_.empty()) {
      result_->undelivered_links += pending_.size();
      result_->complete = false;
      pending_.clear();
    }
  }

 private:
  void transmit_pending(std::vector<HostAgent>& agents,
                        const std::vector<Message>& msgs) {
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
      HostAgent& receiver = agents[static_cast<std::size_t>(link.to)];
      receiver.receive(msgs[link.msg]);
      if (channel_->duplicate > 0.0 && rng_->bernoulli(channel_->duplicate)) {
        ++result_->duplicate_frames;
        receiver.receive(msgs[link.msg]);  // receive() is idempotent
      }
    }
    pending_.swap(next_);
  }

  void flush_deferred(std::vector<HostAgent>& agents,
                      const std::vector<Message>& msgs) {
    for (const PendingLink& link : deferred_) {
      agents[static_cast<std::size_t>(link.to)].receive(msgs[link.msg]);
    }
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

ProtocolResult run_protocol_scheme(const Graph& g, RuleSet rs,
                                   const std::vector<double>& energy) {
  return run_rounds(
      g, rs, energy, "run_protocol",
      [&g](std::vector<HostAgent>& agents, const std::vector<Message>& msgs,
           std::size_t& sent) {
        // Every frame reaches every radio neighbor of its sender.
        for (const Message& msg : msgs) {
          for (const NodeId u : g.neighbors(msg.from)) {
            agents[static_cast<std::size_t>(u)].receive(msg);
          }
        }
        sent += msgs.size();
      });
}

LossyProtocolResult run_lossy_protocol(const Graph& g, RuleSet rs,
                                       double loss, int repeats,
                                       std::uint64_t seed,
                                       const std::vector<double>& energy) {
  if (loss < 0.0 || loss >= 1.0 || repeats < 1) {
    throw std::invalid_argument("run_lossy_protocol: bad loss/repeats");
  }
  Xoshiro256 rng(seed);
  LossyProtocolResult result;
  result.protocol = run_rounds(
      g, rs, energy, "run_lossy_protocol",
      [&](std::vector<HostAgent>& agents, const std::vector<Message>& msgs,
          std::size_t& sent) {
        // Beaconing: HELLO and neighbor-list frames go out `repeats` times;
        // a neighbor that misses every copy stays unknown.
        const bool beacon =
            !msgs.empty() && msgs.front().type != Message::Type::kStatus;
        for (int copy = 0; copy < (beacon ? repeats : 1); ++copy) {
          for (const Message& msg : msgs) {
            // Each neighbor independently misses the frame.
            for (const NodeId u : g.neighbors(msg.from)) {
              if (!rng.bernoulli(loss)) {
                agents[static_cast<std::size_t>(u)].receive(msg);
              }
            }
          }
          sent += msgs.size();
        }
      });
  return scored(g, rs, energy, result);
}

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
  Xoshiro256 rng(seed);
  FaultyProtocolResult result;
  ArqChannel arq(g, channel, retry, rng, result, radio);
  result.protocol = run_rounds(
      g, rs, energy, "run_faulty_protocol",
      [&arq](std::vector<HostAgent>& agents, const std::vector<Message>& msgs,
             std::size_t& sent) { arq.run_phase(agents, msgs, sent); });
  return scored(g, rs, energy, result);
}

}  // namespace pacds::dist
