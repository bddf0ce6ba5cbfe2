// Tests for the distributed message-passing emulation: agents acting only
// on their inboxes must compute exactly the same gateway set as the
// centralized implementation (simultaneous strategy).

#include "dist/protocol.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "core/verify.hpp"
#include "net/rng.hpp"
#include "net/topology.hpp"
#include "test_graphs.hpp"

namespace pacds {
namespace {

using testing::complete_graph;
using testing::figure1_graph;
using testing::path_graph;

CdsOptions simultaneous() {
  CdsOptions options;
  options.strategy = Strategy::kSimultaneous;
  return options;
}

TEST(DistProtocolTest, Figure1MatchesCentralized) {
  const Graph g = figure1_graph();
  const dist::ProtocolResult distributed =
      dist::run_protocol_scheme(g, RuleSet::kNR);
  const CdsResult central = compute_cds(g, RuleSet::kNR, {}, simultaneous());
  EXPECT_EQ(distributed.gateways, central.gateways);
  EXPECT_EQ(distributed.gateways.count(), 2u);  // v and w
}

TEST(DistProtocolTest, MessageCountsSetupRounds) {
  const Graph g = path_graph(6);
  const dist::ProtocolResult r = dist::run_protocol_scheme(g, RuleSet::kNR);
  EXPECT_EQ(r.hello_msgs, 6u);
  EXPECT_EQ(r.list_msgs, 6u);
  EXPECT_EQ(r.status_msgs, 6u);  // NR: statuses only, no rule flips
  EXPECT_EQ(r.total_msgs(), 18u);
}

TEST(DistProtocolTest, RuleFlipsAnnounceOnce) {
  // P6 under ID rules: marking marks {1,2,3,4}; the simultaneous rules
  // remove nobody on a path (no coverage), so no flip messages.
  const Graph g = path_graph(6);
  const dist::ProtocolResult r = dist::run_protocol_scheme(g, RuleSet::kID);
  EXPECT_EQ(r.status_msgs, 6u);
  // Twin gadget: Rule 1 removes one twin -> exactly one extra status.
  const Graph twins =
      Graph::from_edges(4, {{2, 0}, {2, 1}, {2, 3}, {3, 0}, {3, 1}});
  const dist::ProtocolResult t =
      dist::run_protocol_scheme(twins, RuleSet::kID);
  EXPECT_EQ(t.status_msgs, 4u + 1u);
}

TEST(DistProtocolTest, EnergySizeMismatchThrows) {
  const Graph g = path_graph(3);
  EXPECT_THROW((void)dist::run_protocol_scheme(g, RuleSet::kEL1, {1.0}),
               std::invalid_argument);
}

TEST(DistProtocolTest, CompleteGraphNobodyMarks) {
  const Graph g = complete_graph(5);
  const dist::ProtocolResult r = dist::run_protocol_scheme(g, RuleSet::kID);
  EXPECT_TRUE(r.gateways.none());
}

TEST(DistProtocolTest, EmptyGraph) {
  const dist::ProtocolResult r =
      dist::run_protocol_scheme(Graph(0), RuleSet::kID);
  EXPECT_EQ(r.total_msgs(), 0u);
  EXPECT_EQ(r.gateways.count(), 0u);
}

TEST(LossyProtocolTest, ZeroLossEqualsReliable) {
  Xoshiro256 rng(99);
  const Graph g =
      build_udg(random_placement(25, Field::paper_field(), rng), kPaperRadius);
  const dist::LossyProtocolResult lossy =
      dist::run_lossy_protocol(g, RuleSet::kID, 0.0, 1, 7);
  EXPECT_EQ(lossy.status_disagreements, 0u);
  EXPECT_EQ(lossy.protocol.gateways,
            dist::run_protocol_scheme(g, RuleSet::kID).gateways);
}

TEST(LossyProtocolTest, BadParamsThrow) {
  const Graph g = path_graph(4);
  EXPECT_THROW((void)dist::run_lossy_protocol(g, RuleSet::kID, -0.1, 1, 1),
               std::invalid_argument);
  EXPECT_THROW((void)dist::run_lossy_protocol(g, RuleSet::kID, 1.0, 1, 1),
               std::invalid_argument);
  EXPECT_THROW((void)dist::run_lossy_protocol(g, RuleSet::kID, 0.1, 0, 1),
               std::invalid_argument);
}

TEST(LossyProtocolTest, HeavyLossCausesDisagreements) {
  Xoshiro256 rng(100);
  const auto placed = random_connected_placement(40, Field::paper_field(),
                                                 kPaperRadius, rng, 2000);
  ASSERT_TRUE(placed.has_value());
  std::size_t total_disagreements = 0;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    total_disagreements += dist::run_lossy_protocol(placed->graph,
                                                    RuleSet::kND, 0.5, 1, seed)
                               .status_disagreements;
  }
  EXPECT_GT(total_disagreements, 0u);
}

TEST(LossyProtocolTest, BeaconRepeatsRecoverCorrectness) {
  // More HELLO/list repeats shrink the knowledge gap: disagreements at 8
  // repeats must not exceed those at 1 repeat (summed over seeds).
  Xoshiro256 rng(101);
  const auto placed = random_connected_placement(40, Field::paper_field(),
                                                 kPaperRadius, rng, 2000);
  ASSERT_TRUE(placed.has_value());
  std::size_t one = 0;
  std::size_t many = 0;
  for (std::uint64_t seed = 50; seed < 62; ++seed) {
    one += dist::run_lossy_protocol(placed->graph, RuleSet::kND, 0.3, 1, seed)
               .status_disagreements;
    many += dist::run_lossy_protocol(placed->graph, RuleSet::kND, 0.3, 8,
                                     seed)
                .status_disagreements;
  }
  EXPECT_LT(many, one);
}

TEST(LossyProtocolTest, MessageCountScalesWithRepeats) {
  const Graph g = path_graph(5);
  const dist::LossyProtocolResult r =
      dist::run_lossy_protocol(g, RuleSet::kNR, 0.1, 4, 3);
  EXPECT_EQ(r.protocol.hello_msgs, 20u);
  EXPECT_EQ(r.protocol.list_msgs, 20u);
}

TEST(LossyProtocolTest, PinnedResults) {
  // Exact results on three 40-host networks, with and without the rule
  // rounds. Every field depends on the order of the loss draws, so a change
  // that reorders a draw, a round or a beacon repeat fails here.
  struct Pin {
    std::uint64_t graph_seed;
    RuleSet rule_set;
    double loss;
    int repeats;
    const char* gateways;
    std::size_t hello_msgs;
    std::size_t list_msgs;
    std::size_t status_msgs;
    std::size_t status_disagreements;
    bool valid_cds;
  };
  const Pin pins[] = {
    {301, RuleSet::kNR, 0.05, 1,
     "{1, 2, 3, 4, 5, 7, 8, 9, 10, 11, 12, 13, 16, 17, 18, 19, 20, 22, 25, 26, "
     "27, 28, 30, 31, 32, 34, 35, 36, 37, 38}",
     40, 40, 40, 0, true},
    {301, RuleSet::kNR, 0.05, 3,
     "{1, 2, 3, 4, 5, 7, 8, 9, 10, 11, 12, 13, 16, 17, 18, 19, 20, 22, 25, 26, "
     "27, 28, 30, 31, 32, 34, 35, 36, 37, 38}",
     120, 120, 40, 0, true},
    {301, RuleSet::kNR, 0.3, 1,
     "{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 16, 17, 18, 19, 20, 22, "
     "23, 25, 26, 28, 30, 31, 32, 34, 35, 36, 37, 38}",
     40, 40, 40, 4, true},
    {301, RuleSet::kNR, 0.3, 3,
     "{1, 2, 3, 4, 5, 7, 8, 9, 10, 11, 12, 13, 16, 17, 18, 19, 20, 22, 25, 26, "
     "27, 28, 30, 31, 32, 34, 35, 36, 37, 38}",
     120, 120, 40, 0, true},
    {301, RuleSet::kEL2, 0.05, 1,
     "{2, 9, 10, 13, 17, 19, 20, 25, 26, 28, 31}",
     40, 40, 59, 1, false},
    {301, RuleSet::kEL2, 0.05, 3,
     "{2, 9, 10, 13, 17, 19, 25, 26, 28, 31, 34}",
     120, 120, 59, 1, false},
    {301, RuleSet::kEL2, 0.3, 1,
     "{0, 2, 4, 5, 8, 9, 11, 12, 13, 16, 17, 18, 19, 20, 22, 23, 25, 26, 28, "
     "31, 32, 34, 37, 38}",
     40, 40, 48, 16, false},
    {301, RuleSet::kEL2, 0.3, 3,
     "{2, 4, 8, 9, 10, 11, 13, 17, 19, 20, 22, 25, 26, 27, 28, 30, 31, 34, 38}",
     120, 120, 51, 9, true},
    {302, RuleSet::kNR, 0.05, 1,
     "{0, 1, 2, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 16, 17, 18, 19, 20, 23, "
     "24, 25, 26, 27, 28, 30, 32, 33, 34, 35, 36, 37, 39}",
     40, 40, 40, 0, true},
    {302, RuleSet::kNR, 0.05, 3,
     "{0, 1, 2, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 16, 17, 18, 19, 20, 23, "
     "24, 25, 26, 27, 28, 30, 32, 33, 34, 35, 36, 37, 39}",
     120, 120, 40, 0, true},
    {302, RuleSet::kNR, 0.3, 1,
     "{0, 1, 2, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, "
     "24, 25, 26, 27, 30, 31, 32, 33, 34, 35, 36, 37, 38, 39}",
     40, 40, 40, 5, false},
    {302, RuleSet::kNR, 0.3, 3,
     "{0, 1, 2, 4, 5, 7, 8, 9, 10, 11, 12, 13, 14, 16, 17, 18, 19, 20, 23, 24, "
     "25, 26, 27, 28, 30, 32, 33, 34, 35, 36, 37, 39}",
     120, 120, 40, 1, true},
    {302, RuleSet::kEL2, 0.05, 1,
     "{0, 7, 12, 13, 14, 17, 23, 28, 32, 34, 36}",
     40, 40, 62, 1, false},
    {302, RuleSet::kEL2, 0.05, 3,
     "{0, 7, 12, 13, 14, 17, 23, 32, 34, 36}",
     120, 120, 63, 0, false},
    {302, RuleSet::kEL2, 0.3, 1,
     "{0, 2, 4, 5, 6, 7, 9, 10, 11, 12, 13, 14, 15, 17, 18, 19, 20, 24, 26, "
     "27, 31, 32, 33, 34, 35, 36, 38}",
     40, 40, 47, 19, false},
    {302, RuleSet::kEL2, 0.3, 3,
     "{0, 7, 8, 12, 13, 14, 17, 23, 25, 26, 27, 32, 34, 35, 36}",
     120, 120, 57, 5, false},
    {303, RuleSet::kNR, 0.05, 1,
     "{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 14, 15, 16, 17, 19, 21, 22, 23, "
     "24, 27, 28, 30, 31, 32, 34, 35, 37, 38, 39}",
     40, 40, 40, 0, true},
    {303, RuleSet::kNR, 0.05, 3,
     "{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 14, 15, 16, 17, 19, 21, 22, 23, "
     "24, 27, 28, 30, 31, 32, 34, 35, 37, 38, 39}",
     120, 120, 40, 0, true},
    {303, RuleSet::kNR, 0.3, 1,
     "{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 14, 15, 16, 17, 19, 20, 21, "
     "22, 23, 24, 26, 27, 28, 30, 31, 35, 36, 37, 38, 39}",
     40, 40, 40, 6, false},
    {303, RuleSet::kNR, 0.3, 3,
     "{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 14, 15, 16, 17, 19, 21, 22, 23, "
     "24, 27, 28, 30, 31, 32, 34, 35, 37, 38, 39}",
     120, 120, 40, 0, true},
    {303, RuleSet::kEL2, 0.05, 1,
     "{1, 3, 6, 7, 8, 11, 16, 21, 23, 28, 31, 32, 39}",
     40, 40, 58, 2, false},
    {303, RuleSet::kEL2, 0.05, 3,
     "{1, 3, 8, 11, 16, 21, 23, 28, 31, 32, 39}",
     120, 120, 60, 0, false},
    {303, RuleSet::kEL2, 0.3, 1,
     "{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 14, 15, 16, 17, 19, 20, 21, "
     "23, 24, 26, 27, 28, 30, 31, 35, 36, 38, 39}",
     40, 40, 42, 22, false},
    {303, RuleSet::kEL2, 0.3, 3,
     "{1, 2, 3, 4, 8, 11, 16, 17, 19, 21, 22, 23, 28, 31, 32, 34, 39}",
     120, 120, 54, 6, true},
  };
  for (const Pin& pin : pins) {
    Xoshiro256 rng(pin.graph_seed);
    const auto placed = random_connected_placement(40, Field::paper_field(),
                                                   kPaperRadius, rng, 2000);
    ASSERT_TRUE(placed.has_value());
    std::vector<double> energy;
    for (int i = 0; i < 40; ++i) {
      energy.push_back(static_cast<double>(rng.uniform_int(1, 5)));
    }
    const dist::LossyProtocolResult r =
        dist::run_lossy_protocol(placed->graph, pin.rule_set, pin.loss,
                                 pin.repeats, pin.graph_seed + 40, energy);
    const std::string label = std::to_string(pin.graph_seed) + " " +
                              to_string(pin.rule_set) + " loss " +
                              std::to_string(pin.loss) + " repeats " +
                              std::to_string(pin.repeats);
    EXPECT_EQ(r.protocol.gateways.to_string(), pin.gateways) << label;
    EXPECT_EQ(r.protocol.hello_msgs, pin.hello_msgs) << label;
    EXPECT_EQ(r.protocol.list_msgs, pin.list_msgs) << label;
    EXPECT_EQ(r.protocol.status_msgs, pin.status_msgs) << label;
    EXPECT_EQ(r.status_disagreements, pin.status_disagreements) << label;
    EXPECT_EQ(r.valid_cds, pin.valid_cds) << label;
  }
}

class DistEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t, RuleSet>> {
};

TEST_P(DistEquivalenceTest, MatchesCentralizedSimultaneous) {
  const auto [n, seed, rs] = GetParam();
  Xoshiro256 rng(seed);
  const Graph g =
      build_udg(random_placement(n, Field::paper_field(), rng), kPaperRadius);
  std::vector<double> energy;
  for (int i = 0; i < n; ++i) {
    energy.push_back(static_cast<double>(rng.uniform_int(1, 5)));
  }
  const dist::ProtocolResult distributed =
      dist::run_protocol_scheme(g, rs, energy);
  const CdsResult central = compute_cds(g, rs, energy, simultaneous());
  EXPECT_EQ(distributed.gateways, central.gateways)
      << to_string(rs) << " n=" << n << " seed=" << seed << "\ndistributed "
      << distributed.gateways.to_string() << "\ncentral     "
      << central.gateways.to_string();
}

INSTANTIATE_TEST_SUITE_P(
    RandomNetworks, DistEquivalenceTest,
    ::testing::Combine(::testing::Values(12, 25, 45),
                       ::testing::Values(71u, 72u, 73u, 74u),
                       ::testing::Values(RuleSet::kNR, RuleSet::kID,
                                         RuleSet::kND, RuleSet::kEL1,
                                         RuleSet::kEL2)),
    [](const ::testing::TestParamInfo<DistEquivalenceTest::ParamType>&
           param_info) {
      return "n" + std::to_string(std::get<0>(param_info.param)) + "_s" +
             std::to_string(std::get<1>(param_info.param)) + "_" +
             to_string(std::get<2>(param_info.param));
    });

}  // namespace
}  // namespace pacds
