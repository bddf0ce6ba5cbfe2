#pragma once
// Synchronous round driver for the distributed protocol: the only component
// that sees the global Graph, and it uses it exclusively as the radio
// medium. The reliable, lossy and ARQ runs share one round script and
// differ only in how a round's frames reach the sender's unit-disk
// neighbors, so a zero-rate ARQ channel, which delivers every frame at its
// first attempt, is exactly the reliable run. Comparing the reliable run
// with the centralized compute_cds (simultaneous strategy) is the
// library's proof that the algorithms are genuinely 2-hop-local.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/bitset.hpp"
#include "core/cds.hpp"
#include "core/graph.hpp"
#include "dist/agent.hpp"
#include "dist/channel.hpp"
#include "net/radio.hpp"

namespace pacds::dist {

/// Message tallies per round plus the final gateway set.
struct ProtocolResult {
  DynBitset gateways;
  std::size_t hello_msgs = 0;
  std::size_t list_msgs = 0;
  std::size_t status_msgs = 0;  ///< initial statuses + per-pass flips

  [[nodiscard]] std::size_t total_msgs() const {
    return hello_msgs + list_msgs + status_msgs;
  }
};

/// Executes the full protocol of scheme `rs` on one network snapshot over a
/// reliable radio. `energy` may be empty for the non-energy key kinds
/// (agents then exchange energy 0); NR stops after the marking round. The
/// result must equal compute_cds(g, rs, energy,
/// {.strategy = kSimultaneous}) — property-tested.
[[nodiscard]] ProtocolResult run_protocol_scheme(const Graph& g, RuleSet rs,
                                                 const std::vector<double>&
                                                     energy = {});

/// Lossy-radio study: every broadcast reaches each neighbor independently
/// with probability (1 - loss). `repeats` re-broadcasts of the HELLO and
/// neighbor-list rounds model periodic beaconing. The result's gateway set
/// may be WRONG (that is the point); compare against the reliable run.
struct LossyProtocolResult {
  ProtocolResult protocol;
  std::size_t status_disagreements = 0;  ///< hosts deciding differently from
                                         ///< the reliable execution
  bool valid_cds = false;                ///< does the lossy result still pass
                                         ///< check_cds?
};

[[nodiscard]] LossyProtocolResult run_lossy_protocol(
    const Graph& g, RuleSet rs, double loss, int repeats, std::uint64_t seed,
    const std::vector<double>& energy = {});

/// Outcome of an ARQ execution under a faulty channel. The embedded
/// ProtocolResult's message tallies count every transmission including
/// retransmits, so `protocol.total_msgs()` is the real airtime cost of
/// converging under loss.
struct FaultyProtocolResult {
  ProtocolResult protocol;
  std::size_t retransmissions = 0;   ///< extra broadcasts beyond attempt 1
  std::size_t dropped_frames = 0;    ///< per-link frames lost to drop
  std::size_t duplicate_frames = 0;  ///< per-link frames delivered twice
  std::size_t delayed_frames = 0;    ///< per-link frames deferred one attempt
  std::size_t backoff_rounds = 0;    ///< idle rounds spent backing off
  std::size_t undelivered_links = 0; ///< links still missing a frame at the
                                     ///< retry cap (any phase)
  bool complete = true;              ///< every phase fully delivered
  std::size_t status_disagreements = 0;  ///< hosts deciding differently from
                                         ///< the reliable execution
  bool valid_cds = false;            ///< result still passes check_cds
};

/// Retry-with-timeout execution: every protocol phase runs as an ARQ round
/// — each broadcast must reach every radio neighbor of its sender, per-link
/// acks are free and reliable, and senders retransmit (only to receivers
/// that have not acked) with bounded exponential backoff until the phase is
/// fully delivered or `retry.max_attempts` is exhausted. Delayed frames
/// arrive at the next attempt boundary (before the retry timer, so they are
/// acked in time); duplicated frames are received twice — harmless because
/// HostAgent::receive is idempotent.
///
/// Invariant the tests pin: when `complete` is true, every agent's 2-hop
/// knowledge and status view equals the reliable execution's, so the
/// gateway set is IDENTICAL to run_protocol_scheme(g, rs, energy) — loss
/// costs airtime and latency, never correctness. A zero-fault channel is
/// exactly run_protocol_scheme (no RNG draws). Fully deterministic in
/// (g, rs, channel, retry, seed, energy).
///
/// `radio` (optional, borrowed) degrades each link's channel by the pair's
/// deterministic fade: a frame on (u, v) is lost with probability
/// 1 - (1 - channel.drop) * (1 - radio->arq_drop(u, v)), so deeply faded
/// pairs retransmit more. The arq_drop cap keeps every compound rate < 1,
/// and a null radio (or RadioKind::kUnitDisk) is exactly the plain channel.
[[nodiscard]] FaultyProtocolResult run_faulty_protocol(
    const Graph& g, RuleSet rs, const ChannelFaultConfig& channel,
    const RetryPolicy& retry, std::uint64_t seed,
    const std::vector<double>& energy = {}, const RadioModel* radio = nullptr);

}  // namespace pacds::dist
