// ARQ execution of the distributed protocol under a faulty channel
// (dist::run_faulty_protocol). The contract under test: whenever the retry
// loop delivers every phase (`complete`), the gateway set is IDENTICAL to
// the reliable run — channel faults cost airtime, never correctness — and
// the whole execution is deterministic in (g, rs, channel, retry, seed).

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/cds.hpp"
#include "core/graph.hpp"
#include "core/verify.hpp"
#include "dist/channel.hpp"
#include "dist/protocol.hpp"
#include "net/radio.hpp"
#include "net/rng.hpp"
#include "net/space.hpp"
#include "net/topology.hpp"

namespace pacds {
namespace {

Graph random_graph(std::uint64_t seed, int n = 30) {
  Xoshiro256 rng(seed);
  const Field field(100.0, 100.0, BoundaryPolicy::kClamp);
  const auto placed =
      random_connected_placement(n, field, kPaperRadius, rng, 500);
  EXPECT_TRUE(placed.has_value());
  return placed->graph;
}

std::vector<double> ramp_energy(int n) {
  std::vector<double> energy(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    energy[static_cast<std::size_t>(i)] = 40.0 + static_cast<double>(i % 7);
  }
  return energy;
}

TEST(DistFaultsTest, ConvergesToLosslessCdsUnderSeededDrops) {
  // Satellite acceptance: drop rates 0.1 and 0.3 — once complete, the
  // gateway set equals the reliable protocol's (hence the centralized CDS).
  for (const double drop : {0.1, 0.3}) {
    dist::ChannelFaultConfig channel;
    channel.drop = drop;
    for (const RuleSet rs : {RuleSet::kNR, RuleSet::kID, RuleSet::kEL1}) {
      for (const std::uint64_t seed : {1u, 2u, 3u}) {
        const Graph g = random_graph(seed);
        const std::vector<double> energy = ramp_energy(g.num_nodes());
        const dist::FaultyProtocolResult faulty = dist::run_faulty_protocol(
            g, rs, channel, dist::RetryPolicy{}, seed, energy);
        ASSERT_TRUE(faulty.complete)
            << "drop " << drop << " seed " << seed << " not delivered";
        EXPECT_EQ(faulty.undelivered_links, 0u);
        EXPECT_EQ(faulty.status_disagreements, 0u);
        const dist::ProtocolResult reliable =
            dist::run_protocol_scheme(g, rs, energy);
        EXPECT_EQ(faulty.protocol.gateways, reliable.gateways)
            << "drop " << drop << " rs " << static_cast<int>(rs) << " seed "
            << seed;
        // Loss showed up as airtime, and the bookkeeping saw it.
        EXPECT_GT(faulty.dropped_frames, 0u);
        EXPECT_GT(faulty.retransmissions, 0u);
        EXPECT_GT(faulty.protocol.total_msgs(), reliable.total_msgs());
      }
    }
  }
}

TEST(DistFaultsTest, ZeroFaultChannelIsExactlyTheReliableRun) {
  // A zero-rate channel must not draw RNG: same gateways AND same message
  // tallies as run_protocol_scheme, no retransmissions, for any seed.
  const Graph g = random_graph(11);
  const std::vector<double> energy = ramp_energy(g.num_nodes());
  for (const RuleSet rs : {RuleSet::kID, RuleSet::kEL2}) {
    const dist::ProtocolResult reliable =
        dist::run_protocol_scheme(g, rs, energy);
    for (const std::uint64_t seed : {0u, 5u, 77u}) {
      const dist::FaultyProtocolResult faulty = dist::run_faulty_protocol(
          g, rs, dist::ChannelFaultConfig{}, dist::RetryPolicy{}, seed,
          energy);
      EXPECT_TRUE(faulty.complete);
      EXPECT_EQ(faulty.protocol.gateways, reliable.gateways);
      EXPECT_EQ(faulty.protocol.hello_msgs, reliable.hello_msgs);
      EXPECT_EQ(faulty.protocol.list_msgs, reliable.list_msgs);
      EXPECT_EQ(faulty.protocol.status_msgs, reliable.status_msgs);
      EXPECT_EQ(faulty.retransmissions, 0u);
      EXPECT_EQ(faulty.dropped_frames, 0u);
      EXPECT_EQ(faulty.duplicate_frames, 0u);
      EXPECT_EQ(faulty.delayed_frames, 0u);
      EXPECT_EQ(faulty.backoff_rounds, 0u);
      // valid_cds judges the (simultaneous-semantics) result itself, which
      // can legitimately fail check_cds — it must match the reliable run's
      // verdict, not be unconditionally true.
      EXPECT_EQ(faulty.valid_cds, check_cds(g, reliable.gateways).ok());
    }
  }
}

TEST(DistFaultsTest, DuplicationAndDelayAreHarmless) {
  // Duplicated frames hit idempotent receives; delayed frames arrive at the
  // next attempt boundary. Neither may change the converged gateway set.
  dist::ChannelFaultConfig channel;
  channel.drop = 0.15;
  channel.duplicate = 0.2;
  channel.delay = 0.25;
  for (const std::uint64_t seed : {4u, 9u}) {
    const Graph g = random_graph(seed);
    const std::vector<double> energy = ramp_energy(g.num_nodes());
    const dist::FaultyProtocolResult faulty = dist::run_faulty_protocol(
        g, RuleSet::kEL1, channel, dist::RetryPolicy{}, seed, energy);
    ASSERT_TRUE(faulty.complete) << "seed " << seed;
    EXPECT_GT(faulty.duplicate_frames, 0u);
    EXPECT_GT(faulty.delayed_frames, 0u);
    const dist::ProtocolResult reliable =
        dist::run_protocol_scheme(g, RuleSet::kEL1, energy);
    EXPECT_EQ(faulty.protocol.gateways, reliable.gateways);
    EXPECT_EQ(faulty.valid_cds, check_cds(g, reliable.gateways).ok());
  }
}

TEST(DistFaultsTest, RadioFadesDegradeTheChannelButNotTheResult) {
  // A faded radio compounds each link's drop rate:
  // 1 - (1 - channel.drop) * (1 - arq_drop(u, v)). Deeply faded pairs
  // retransmit more, but once complete the gateway set still equals the
  // reliable run's.
  const Graph g = random_graph(8);
  const std::vector<double> energy = ramp_energy(g.num_nodes());
  dist::ChannelFaultConfig channel;
  channel.drop = 0.1;
  RadioParams params;
  params.fading_seed = 21;
  const RadioModel radio(RadioKind::kShadowing, params, kPaperRadius);
  const dist::FaultyProtocolResult faded = dist::run_faulty_protocol(
      g, RuleSet::kEL1, channel, dist::RetryPolicy{}, 7, energy, &radio);
  ASSERT_TRUE(faded.complete);
  EXPECT_EQ(faded.status_disagreements, 0u);
  const dist::ProtocolResult reliable =
      dist::run_protocol_scheme(g, RuleSet::kEL1, energy);
  EXPECT_EQ(faded.protocol.gateways, reliable.gateways);
  // The compound rate strictly exceeds the plain channel's on every faded
  // link, so the faded run loses at least as many frames (same RNG stream,
  // each draw compared against a larger threshold).
  const dist::FaultyProtocolResult plain = dist::run_faulty_protocol(
      g, RuleSet::kEL1, channel, dist::RetryPolicy{}, 7, energy);
  EXPECT_GE(faded.dropped_frames, plain.dropped_frames);
  EXPECT_GT(faded.dropped_frames, 0u);
}

TEST(DistFaultsTest, UnitDiskRadioIsExactlyThePlainChannel) {
  // RadioKind::kUnitDisk contributes arq_drop == 0 everywhere, so passing
  // it must reproduce the null-radio run draw for draw.
  const Graph g = random_graph(12);
  const std::vector<double> energy = ramp_energy(g.num_nodes());
  dist::ChannelFaultConfig channel;
  channel.drop = 0.2;
  const RadioModel radio(RadioKind::kUnitDisk, {}, kPaperRadius);
  const dist::FaultyProtocolResult with_radio = dist::run_faulty_protocol(
      g, RuleSet::kEL2, channel, dist::RetryPolicy{}, 19, energy, &radio);
  const dist::FaultyProtocolResult without = dist::run_faulty_protocol(
      g, RuleSet::kEL2, channel, dist::RetryPolicy{}, 19, energy);
  EXPECT_EQ(with_radio.protocol.gateways, without.protocol.gateways);
  EXPECT_EQ(with_radio.protocol.total_msgs(), without.protocol.total_msgs());
  EXPECT_EQ(with_radio.retransmissions, without.retransmissions);
  EXPECT_EQ(with_radio.dropped_frames, without.dropped_frames);
}

TEST(DistFaultsTest, SelSchemeRunsAsEnergyIdOnSnapshots) {
  // Snapshots carry no churn history, so the SEL scheme's distributed form
  // is (energy, id) — it must agree with the centralized SEL computation
  // under empty stability.
  const Graph g = random_graph(15);
  const std::vector<double> energy = ramp_energy(g.num_nodes());
  const dist::ProtocolResult sel =
      dist::run_protocol_scheme(g, RuleSet::kSEL, energy);
  const CdsResult central = compute_cds(g, RuleSet::kSEL, energy,
                                        {.strategy = Strategy::kSimultaneous});
  EXPECT_EQ(sel.gateways, central.gateways);
}

TEST(DistFaultsTest, DeterministicInTheSeed) {
  const Graph g = random_graph(6);
  const std::vector<double> energy = ramp_energy(g.num_nodes());
  dist::ChannelFaultConfig channel;
  channel.drop = 0.3;
  channel.duplicate = 0.1;
  channel.delay = 0.1;
  const dist::FaultyProtocolResult a = dist::run_faulty_protocol(
      g, RuleSet::kEL1, channel, dist::RetryPolicy{}, 42, energy);
  const dist::FaultyProtocolResult b = dist::run_faulty_protocol(
      g, RuleSet::kEL1, channel, dist::RetryPolicy{}, 42, energy);
  EXPECT_EQ(a.protocol.gateways, b.protocol.gateways);
  EXPECT_EQ(a.protocol.total_msgs(), b.protocol.total_msgs());
  EXPECT_EQ(a.retransmissions, b.retransmissions);
  EXPECT_EQ(a.dropped_frames, b.dropped_frames);
  EXPECT_EQ(a.duplicate_frames, b.duplicate_frames);
  EXPECT_EQ(a.delayed_frames, b.delayed_frames);
  EXPECT_EQ(a.backoff_rounds, b.backoff_rounds);

  const dist::FaultyProtocolResult c = dist::run_faulty_protocol(
      g, RuleSet::kEL1, channel, dist::RetryPolicy{}, 43, energy);
  EXPECT_NE(a.dropped_frames, c.dropped_frames);  // seed actually matters
}

TEST(DistFaultsTest, CompletionMatchesUndeliveredCount) {
  // A starved retry policy (one attempt, heavy loss) must report the truth:
  // complete == (undelivered_links == 0), and an incomplete run may
  // disagree with the reliable gateway set but still says so.
  const Graph g = random_graph(8);
  dist::ChannelFaultConfig channel;
  channel.drop = 0.6;
  dist::RetryPolicy starved;
  starved.max_attempts = 1;
  const dist::FaultyProtocolResult faulty = dist::run_faulty_protocol(
      g, RuleSet::kID, channel, starved, 3);
  EXPECT_EQ(faulty.complete, faulty.undelivered_links == 0);
  EXPECT_FALSE(faulty.complete);  // 60% loss, no retries: cannot deliver all
  EXPECT_EQ(faulty.retransmissions, 0u);
}

TEST(DistFaultsTest, PinnedResults) {
  // Exact results of the ARQ run on a channel that drops, duplicates and
  // delays frames, under the default retry policy and under two attempts
  // (which leaves links undelivered), each with and without a shadowing
  // radio. Every field depends on the order of the channel draws, so a
  // change that reorders a draw, an attempt or a phase fails here.
  struct Pin {
    std::uint64_t graph_seed;
    int max_attempts;
    bool shadowing;
    const char* gateways;
    std::size_t hello_msgs;
    std::size_t list_msgs;
    std::size_t status_msgs;
    std::size_t retransmissions;
    std::size_t dropped_frames;
    std::size_t duplicate_frames;
    std::size_t delayed_frames;
    std::size_t backoff_rounds;
    std::size_t undelivered_links;
    bool complete;
    std::size_t status_disagreements;
    bool valid_cds;
  };
  const Pin pins[] = {
    {5, 12, false, "{2, 5, 9, 13, 16, 18, 19, 20, 25, 29}",
     58, 58, 78, 91, 133, 42, 82, 51, 0, true, 0, false},
    {5, 12, true, "{2, 5, 9, 13, 16, 18, 19, 20, 25, 29}",
     60, 65, 95, 117, 169, 41, 83, 51, 0, true, 0, false},
    {5, 2, false, "{2, 5, 9, 13, 15, 16, 18, 19, 20, 22, 25, 29}",
     51, 51, 67, 68, 123, 39, 79, 5, 21, false, 2, false},
    {5, 2, true, "{0, 2, 5, 9, 13, 16, 18, 20, 25, 26, 29}",
     51, 50, 71, 70, 140, 37, 87, 5, 27, false, 3, false},
    {13, 12, false, "{0, 4, 11, 13, 15, 16, 22, 23, 29}",
     51, 63, 72, 82, 115, 45, 62, 29, 0, true, 0, false},
    {13, 12, true, "{0, 4, 11, 13, 15, 16, 22, 23, 29}",
     57, 69, 77, 99, 143, 43, 65, 49, 0, true, 0, false},
    {13, 2, false, "{0, 4, 11, 13, 15, 16, 22, 23, 29}",
     47, 50, 66, 59, 110, 42, 60, 5, 16, false, 0, false},
    {13, 2, true, "{0, 4, 11, 13, 15, 16, 22, 23, 29}",
     48, 52, 67, 64, 133, 42, 58, 5, 27, false, 0, false},
  };
  dist::ChannelFaultConfig channel;
  channel.drop = 0.2;
  channel.duplicate = 0.1;
  channel.delay = 0.15;
  RadioParams params;
  params.fading_seed = 21;
  const RadioModel shadowing(RadioKind::kShadowing, params, kPaperRadius);
  for (const Pin& pin : pins) {
    const Graph g = random_graph(pin.graph_seed);
    dist::RetryPolicy retry;
    retry.max_attempts = pin.max_attempts;
    const dist::FaultyProtocolResult r = dist::run_faulty_protocol(
        g, RuleSet::kEL2, channel, retry, pin.graph_seed + 100,
        ramp_energy(g.num_nodes()), pin.shadowing ? &shadowing : nullptr);
    const std::string label = std::to_string(pin.graph_seed) + " attempts " +
                              std::to_string(pin.max_attempts) +
                              (pin.shadowing ? " shadowing" : "");
    EXPECT_EQ(r.protocol.gateways.to_string(), pin.gateways) << label;
    EXPECT_EQ(r.protocol.hello_msgs, pin.hello_msgs) << label;
    EXPECT_EQ(r.protocol.list_msgs, pin.list_msgs) << label;
    EXPECT_EQ(r.protocol.status_msgs, pin.status_msgs) << label;
    EXPECT_EQ(r.retransmissions, pin.retransmissions) << label;
    EXPECT_EQ(r.dropped_frames, pin.dropped_frames) << label;
    EXPECT_EQ(r.duplicate_frames, pin.duplicate_frames) << label;
    EXPECT_EQ(r.delayed_frames, pin.delayed_frames) << label;
    EXPECT_EQ(r.backoff_rounds, pin.backoff_rounds) << label;
    EXPECT_EQ(r.undelivered_links, pin.undelivered_links) << label;
    EXPECT_EQ(r.complete, pin.complete) << label;
    EXPECT_EQ(r.status_disagreements, pin.status_disagreements) << label;
    EXPECT_EQ(r.valid_cds, pin.valid_cds) << label;
  }
}

TEST(DistFaultsTest, RejectsInvalidConfigs) {
  const Graph g = random_graph(2, 10);
  dist::ChannelFaultConfig bad_rate;
  bad_rate.drop = 1.0;
  EXPECT_THROW((void)dist::run_faulty_protocol(g, RuleSet::kID, bad_rate,
                                               dist::RetryPolicy{}, 1),
               std::invalid_argument);
  dist::RetryPolicy bad_attempts;
  bad_attempts.max_attempts = 0;
  EXPECT_THROW(
      (void)dist::run_faulty_protocol(g, RuleSet::kID,
                                      dist::ChannelFaultConfig{},
                                      bad_attempts, 1),
      std::invalid_argument);
  dist::RetryPolicy bad_backoff;
  bad_backoff.backoff_base = 4;
  bad_backoff.backoff_cap = 2;
  EXPECT_THROW(
      (void)dist::run_faulty_protocol(g, RuleSet::kID,
                                      dist::ChannelFaultConfig{},
                                      bad_backoff, 1),
      std::invalid_argument);
}

}  // namespace
}  // namespace pacds
