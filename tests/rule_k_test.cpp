// Tests for the generalized Rule k (Dai-Wu): coverage by connected sets of
// higher-priority neighbors, safety under every strategy (including the
// synchronous one the pairwise rules fail), and gadgets that only Rule k
// can reduce. Rule k runs through the one rule pipeline
// (RuleConfig::use_rule_k) like the pairwise rules.

#include <gtest/gtest.h>

#include <stdexcept>
#include <tuple>

#include "core/cds.hpp"
#include "core/rules.hpp"
#include "core/verify.hpp"
#include "net/rng.hpp"
#include "net/topology.hpp"
#include "test_graphs.hpp"

namespace pacds {
namespace {

using testing::complete_graph;
using testing::figure1_graph;
using testing::path_graph;

/// Rule k in place of the pairwise rules, under `strategy`.
RuleConfig rule_k(Strategy strategy) {
  return RuleConfig{.use_rule_k = true, .strategy = strategy};
}

/// Three-cover gadget: v=0 adjacent to u1=1, u2=2, u3=3 forming a path
/// 1-2-3 (connected), plus private leaves a=4 (on 1), b=5 (on 2), c=6
/// (on 3). N(0) = {1,2,3}; each ui covers the others' membership plus its
/// leaf. No PAIR of {1,2,3} covers N(0) ∪ leaves... but the triple does
/// cover N(0) = {1,2,3}: 1 ∈ N(2), 2 ∈ N(1), 3 ∈ N(2). A pair also covers
/// it, so extend N(0) with two extra nodes d=7, e=8 where d ∈ N(1) only
/// and e ∈ N(3) only; then {1,2,3} is needed: N(0) = {1,2,3,7,8},
/// 7 ∈ N(1) only, 8 ∈ N(3) only, 1 needs N(2), so no pair suffices.
Graph triple_cover_gadget() {
  return Graph::from_edges(9, {{0, 1},
                               {0, 2},
                               {0, 3},
                               {1, 2},
                               {2, 3},
                               {1, 4},
                               {2, 5},
                               {3, 6},
                               {0, 7},
                               {1, 7},
                               {0, 8},
                               {3, 8}});
}

TEST(RuleKTest, TripleCoverGadgetPreconditions) {
  const Graph g = triple_cover_gadget();
  const DynBitset marked = marking_process(g);
  for (const NodeId v : {0, 1, 2, 3}) {
    EXPECT_TRUE(marked.test(static_cast<std::size_t>(v))) << v;
  }
  // No pair of marked neighbors covers N(0) = {1,2,3,7,8}.
  EXPECT_FALSE(g.open_covered_by_pair(0, 1, 2));
  EXPECT_FALSE(g.open_covered_by_pair(0, 1, 3));
  EXPECT_FALSE(g.open_covered_by_pair(0, 2, 3));
}

TEST(RuleKTest, TripleCoverOnlyRuleKRemoves) {
  const Graph g = triple_cover_gadget();
  const DynBitset marked = marking_process(g);
  const PriorityKey key(KeyKind::kId, g);
  // The pairwise Rule 2 cannot fire for node 0...
  EXPECT_FALSE(rule2_would_unmark(g, marked, key, Rule2Form::kRefined, 0));
  EXPECT_FALSE(rule1_would_unmark(g, marked, key, 0));
  // ...but the connected triple {1,2,3} (all higher id) covers it.
  EXPECT_TRUE(rule_k_would_unmark(g, marked, key, 0));
}

TEST(RuleKTest, RequiresHigherPriorityCovers) {
  // Relabel so v has the HIGHEST id: nobody may remove it.
  // v=8 adjacent to 0,1,2 (path 0-1-2), leaves and privates as before.
  const Graph g = Graph::from_edges(9, {{8, 0},
                                        {8, 1},
                                        {8, 2},
                                        {0, 1},
                                        {1, 2},
                                        {0, 3},
                                        {1, 4},
                                        {2, 5},
                                        {8, 6},
                                        {0, 6},
                                        {8, 7},
                                        {2, 7}});
  const DynBitset marked = marking_process(g);
  ASSERT_TRUE(marked.test(8));
  const PriorityKey key(KeyKind::kId, g);
  EXPECT_FALSE(rule_k_would_unmark(g, marked, key, 8));
}

TEST(RuleKTest, RequiresConnectedCover) {
  // v=0 with neighbors 1 and 2 NOT adjacent; their union covers N(0) but
  // they are disconnected, so Rule k must not fire.
  // N(0) = {1,2}; 1 ∈ N(2)? no. Make N(0) = {1,2} with 1-3, 2-4 tails.
  const Graph g = Graph::from_edges(5, {{0, 1}, {0, 2}, {1, 3}, {2, 4}});
  const DynBitset marked = marking_process(g);
  ASSERT_TRUE(marked.test(0));
  const PriorityKey key(KeyKind::kId, g);
  // Even though {1,2} both marked and higher id, 1 ∉ N(2) and 2 ∉ N(1):
  // coverage of N(0) = {1,2} already fails, and they are disconnected.
  EXPECT_FALSE(rule_k_would_unmark(g, marked, key, 0));
}

TEST(RuleKTest, RequiresMarkedCovers) {
  const Graph g = triple_cover_gadget();
  DynBitset partial(9);
  partial.set(0);
  partial.set(1);  // 2 and 3 unmarked
  const PriorityKey key(KeyKind::kId, g);
  EXPECT_FALSE(rule_k_would_unmark(g, partial, key, 0));
}

TEST(RuleKTest, SubsumesRule1Gadget) {
  // Rule 1 case: N[v] ⊆ N[u] with higher-key u. Rule k sees u's component
  // {u} covering N(v).
  const Graph g = Graph::from_edges(
      5, {{2, 0}, {2, 1}, {2, 3}, {3, 0}, {3, 1}, {3, 4}});
  const DynBitset marked = marking_process(g);
  const PriorityKey key(KeyKind::kId, g);
  EXPECT_TRUE(rule_k_would_unmark(g, marked, key, 2));
  EXPECT_FALSE(rule_k_would_unmark(g, marked, key, 3));
}

TEST(RuleKTest, SimultaneousPassIsSafeOnGadgets) {
  for (const Graph& g :
       {triple_cover_gadget(), figure1_graph(), path_graph(8)}) {
    const PriorityKey key(KeyKind::kId, g);
    DynBitset after = marking_process(g);
    apply_rules(g, key, rule_k(Strategy::kSimultaneous), after);
    const CdsCheck check = check_cds(g, after);
    EXPECT_TRUE(check.ok()) << check.message;
  }
}

TEST(RuleKTest, ComputeApiValidatesEnergy) {
  const Graph g = path_graph(4);
  const RuleConfig config = rule_k(Strategy::kSimultaneous);
  EXPECT_THROW((void)compute_cds_custom(g, KeyKind::kEnergyId, config),
               std::invalid_argument);
  EXPECT_NO_THROW((void)compute_cds_custom(g, KeyKind::kId, config));
}

TEST(RuleKTest, CliquePolicyApplied) {
  const Graph g = complete_graph(4);
  const CdsResult r =
      compute_cds_custom(g, KeyKind::kId, rule_k(Strategy::kSimultaneous), {},
                         CliquePolicy::kElectMaxKey);
  EXPECT_EQ(r.gateway_count, 1u);
}

class RuleKPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(RuleKPropertyTest, AllStrategiesAndKeysSafe) {
  const auto [n, seed] = GetParam();
  Xoshiro256 rng(seed);
  const Field field = Field::paper_field();
  const Graph g = build_udg(random_placement(n, field, rng), kPaperRadius);
  std::vector<double> energy;
  for (int i = 0; i < n; ++i) {
    energy.push_back(static_cast<double>(rng.uniform_int(1, 5)));
  }
  for (const KeyKind kind : {KeyKind::kId, KeyKind::kDegreeId,
                             KeyKind::kEnergyId, KeyKind::kEnergyDegreeId}) {
    for (const Strategy strategy : {Strategy::kSimultaneous,
                                    Strategy::kSequential,
                                    Strategy::kVerified}) {
      const CdsResult r =
          compute_cds_custom(g, kind, rule_k(strategy), energy);
      const CdsCheck check = check_cds(g, r.gateways);
      // The headline property: Rule k is safe even under the SYNCHRONOUS
      // strategy where the pairwise refined rules fail ~30% of the time.
      EXPECT_TRUE(check.ok())
          << to_string(kind) << "/" << to_string(strategy) << " n=" << n
          << " seed=" << seed << ": " << check.message;
      EXPECT_TRUE(r.gateways.is_subset_of(r.marked_only));
    }
  }
}

TEST_P(RuleKPropertyTest, SubsumesKeyGuardedPairwiseDecisions) {
  // Theorems: on the same mark snapshot, (a) a Rule-1 removal (coverage by
  // one higher-key marked neighbor) is always a Rule-k removal, and (b) a
  // simple-Rule-2 removal (v key-min of a covered triple — both covers
  // strictly higher) is always a Rule-k removal. The converse is false:
  // Rule k accepts connected covers of any size. Note the *refined* Rule 2
  // is NOT subsumed — its case 1 removes without a priority guard, which is
  // precisely the unsafe part Rule k drops.
  const auto [n, seed] = GetParam();
  Xoshiro256 rng(seed ^ 0xfeed);
  const Field field = Field::paper_field();
  const Graph g = build_udg(random_placement(n, field, rng), kPaperRadius);
  const DynBitset marked = marking_process(g);
  for (const KeyKind kind : {KeyKind::kId, KeyKind::kDegreeId}) {
    const PriorityKey key(kind, g);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (rule1_would_unmark(g, marked, key, v) ||
          rule2_would_unmark(g, marked, key, Rule2Form::kSimple, v)) {
        EXPECT_TRUE(rule_k_would_unmark(g, marked, key, v))
            << "node " << v << " key " << to_string(kind);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomNetworks, RuleKPropertyTest,
    ::testing::Combine(::testing::Values(10, 25, 40, 60),
                       ::testing::Values(3u, 7u, 11u, 13u, 17u)),
    [](const ::testing::TestParamInfo<RuleKPropertyTest::ParamType>&
           param_info) {
      return "n" + std::to_string(std::get<0>(param_info.param)) + "_s" +
             std::to_string(std::get<1>(param_info.param));
    });

}  // namespace
}  // namespace pacds
