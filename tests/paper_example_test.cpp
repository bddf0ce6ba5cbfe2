// Encodes the fully-specified fragments of the paper's Section 3.3 worked
// example (Figures 6-9). The figures themselves are not in the text, but the
// text states exact neighbor sets for the node clusters {20..27} and
// {1..11}; we build graphs consistent with those sets and assert the exact
// unmark decisions the paper derives for Rules 1/1a/1b/1b' and 2/2a/2b/2b'.

#include <gtest/gtest.h>

#include <vector>

#include "core/marking.hpp"
#include "core/rules.hpp"
#include "core/verify.hpp"

namespace pacds {
namespace {

// ---- The 20..27 cluster (Rule 1 family) -----------------------------------
// Paper facts: N[21] = {21,22,23,24}, N[22] = {20,...,27},
// N[27] = {22,25,26,27}; nodes 21, 22, 27 are marked gateways.
// We map 20..27 -> 0..7 (node i represents paper node 20+i).
//
// Edges chosen consistent with the stated closed sets, with 23-24 and 25-26
// non-adjacent so that 21 and 27 are indeed marked.
Graph cluster20_graph() {
  return Graph::from_edges(8, {
                                  {1, 2},  // 21-22
                                  {1, 3},  // 21-23
                                  {1, 4},  // 21-24
                                  {2, 0},  // 22-20
                                  {2, 3},  // 22-23
                                  {2, 4},  // 22-24
                                  {2, 5},  // 22-25
                                  {2, 6},  // 22-26
                                  {2, 7},  // 22-27
                                  {7, 5},  // 27-25
                                  {7, 6},  // 27-26
                              });
}

// Paper Figure 8(g)/9(i) energies: el(21) < el(22) and el(22) == el(27).
std::vector<double> cluster20_energy() {
  std::vector<double> energy(8, 4.0);
  energy[1] = 2.0;  // node 21
  energy[2] = 4.0;  // node 22
  energy[7] = 4.0;  // node 27
  return energy;
}

TEST(PaperCluster20, StatedNeighborhoodsHold) {
  const Graph g = cluster20_graph();
  EXPECT_EQ(g.closed_row(1).to_string(), "{1, 2, 3, 4}");          // N[21]
  EXPECT_EQ(g.closed_row(2).to_string(), "{0, 1, 2, 3, 4, 5, 6, 7}");
  EXPECT_EQ(g.closed_row(7).to_string(), "{2, 5, 6, 7}");          // N[27]
  EXPECT_TRUE(g.closed_covered_by(1, 2));  // N[21] ⊆ N[22]
  EXPECT_TRUE(g.closed_covered_by(7, 2));  // N[27] ⊆ N[22]
}

TEST(PaperCluster20, MarkingMatchesFigure) {
  const DynBitset marked = marking_process(cluster20_graph());
  EXPECT_TRUE(marked.test(1));  // 21
  EXPECT_TRUE(marked.test(2));  // 22
  EXPECT_TRUE(marked.test(7));  // 27
  EXPECT_EQ(marked.count(), 3u);
}

TEST(PaperCluster20, Rule1UnmarksOnly21) {
  // "After applying Rule 1, node 21 will be unmarked" — 27 keeps its mark
  // because id(27) > id(22).
  const Graph g = cluster20_graph();
  const PriorityKey key(KeyKind::kId, g);
  const DynBitset after = simultaneous_rule1_pass(g, key, marking_process(g));
  EXPECT_FALSE(after.test(1));  // 21 unmarked
  EXPECT_TRUE(after.test(2));   // 22 stays
  EXPECT_TRUE(after.test(7));   // 27 stays
  EXPECT_TRUE(check_cds(g, after).ok());
}

TEST(PaperCluster20, Rule1aUnmarksBoth21And27) {
  // "After applying Rule 1a, both nodes 21 and 27 will be unmarked":
  // nd(21) = nd(27) = 3 < nd(22) = 7.
  const Graph g = cluster20_graph();
  ASSERT_EQ(g.degree(1), 3);
  ASSERT_EQ(g.degree(7), 3);
  ASSERT_EQ(g.degree(2), 7);
  const PriorityKey key(KeyKind::kDegreeId, g);
  const DynBitset after = simultaneous_rule1_pass(g, key, marking_process(g));
  EXPECT_FALSE(after.test(1));
  EXPECT_TRUE(after.test(2));
  EXPECT_FALSE(after.test(7));
  EXPECT_TRUE(check_cds(g, after).ok());
}

TEST(PaperCluster20, Rule1bUnmarksOnly21) {
  // "After applying Rule 1b, node 21 will be unmarked": el(21) < el(22);
  // 27 ties with 22 on energy and loses the id tie-break (27 > 22), so it
  // stays.
  const Graph g = cluster20_graph();
  const auto energy = cluster20_energy();
  const PriorityKey key(KeyKind::kEnergyId, g, &energy);
  const DynBitset after = simultaneous_rule1_pass(g, key, marking_process(g));
  EXPECT_FALSE(after.test(1));
  EXPECT_TRUE(after.test(2));
  EXPECT_TRUE(after.test(7));
}

TEST(PaperCluster20, Rule1bPrimeUnmarksBoth) {
  // "After applying Rule 1b', both nodes 21 and 27 will be unmarked":
  // el(21) < el(22); el(27) == el(22) and nd(27) < nd(22).
  const Graph g = cluster20_graph();
  const auto energy = cluster20_energy();
  const PriorityKey key(KeyKind::kEnergyDegreeId, g, &energy);
  const DynBitset after = simultaneous_rule1_pass(g, key, marking_process(g));
  EXPECT_FALSE(after.test(1));
  EXPECT_TRUE(after.test(2));
  EXPECT_FALSE(after.test(7));
}

// ---- The 1..11 cluster (Rule 2 family) ------------------------------------
// Paper facts (open sets, with the sloppy self-inclusion removed):
//   N(2) = {1,3,4,5,6,7,8,9},  N(4) = {1,2,3,9,10,11},
//   N(9) = {2,4,5,6,7,8,10}.
// Nodes 2, 4, 9 are marked; N(2) ⊆ N(4) ∪ N(9), N(9) ⊆ N(2) ∪ N(4),
// N(4) ⊄ N(2) ∪ N(9) (node 11 is private to 4).
// We map paper node i -> index i-1 on 11 vertices.
Graph cluster1_graph() {
  const auto e = [](int a, int b) {
    return std::pair<NodeId, NodeId>{a - 1, b - 1};
  };
  return Graph::from_edges(
      11, {e(2, 1), e(2, 3), e(2, 4), e(2, 5), e(2, 6), e(2, 7), e(2, 8),
           e(2, 9), e(4, 1), e(4, 3), e(4, 9), e(4, 10), e(4, 11), e(9, 5),
           e(9, 6), e(9, 7), e(9, 8), e(9, 10)});
}

constexpr NodeId kNode2 = 1;   // paper node 2
constexpr NodeId kNode4 = 3;   // paper node 4
constexpr NodeId kNode9 = 8;   // paper node 9

TEST(PaperCluster1, StatedCoverageHolds) {
  const Graph g = cluster1_graph();
  EXPECT_TRUE(g.open_covered_by_pair(kNode2, kNode4, kNode9));
  EXPECT_TRUE(g.open_covered_by_pair(kNode9, kNode2, kNode4));
  EXPECT_FALSE(g.open_covered_by_pair(kNode4, kNode2, kNode9));
}

TEST(PaperCluster1, Nodes249Marked) {
  const DynBitset marked = marking_process(cluster1_graph());
  EXPECT_TRUE(marked.test(static_cast<std::size_t>(kNode2)));
  EXPECT_TRUE(marked.test(static_cast<std::size_t>(kNode4)));
  EXPECT_TRUE(marked.test(static_cast<std::size_t>(kNode9)));
}

TEST(PaperCluster1, Rule2UnmarksNode2) {
  // Original Rule 2 (ID): node 2 has the min id among {2, 4, 9}.
  const Graph g = cluster1_graph();
  const PriorityKey key(KeyKind::kId, g);
  const DynBitset marked = marking_process(g);
  EXPECT_TRUE(rule2_would_unmark(g, marked, key, Rule2Form::kSimple, kNode2));
  EXPECT_FALSE(rule2_would_unmark(g, marked, key, Rule2Form::kSimple, kNode4));
  EXPECT_FALSE(rule2_would_unmark(g, marked, key, Rule2Form::kSimple, kNode9));
}

TEST(PaperCluster1, Rule2aUnmarksNode9) {
  // "nd(9) = 7 < nd(2) = 8": under Rule 2a the covered pair is {2, 9} and
  // the degree comparison removes 9, keeping 2 (paper Figure 7(f)).
  const Graph g = cluster1_graph();
  ASSERT_EQ(g.degree(kNode2), 8);
  ASSERT_EQ(g.degree(kNode9), 7);
  const PriorityKey key(KeyKind::kDegreeId, g);
  const DynBitset marked = marking_process(g);
  EXPECT_TRUE(rule2_would_unmark(g, marked, key, Rule2Form::kRefined, kNode9));
  EXPECT_FALSE(rule2_would_unmark(g, marked, key, Rule2Form::kRefined, kNode2));
  EXPECT_FALSE(rule2_would_unmark(g, marked, key, Rule2Form::kRefined, kNode4));
}

TEST(PaperCluster1, Rule2bUnmarksNode2OnEqualEnergy) {
  // "The EL of node 2 is the same as the EL of node 9 and the ID of node 2
  // is smaller" -> Rule 2b removes node 2 (paper Figure 8(h)).
  const Graph g = cluster1_graph();
  const std::vector<double> energy(11, 3.0);
  const PriorityKey key(KeyKind::kEnergyId, g, &energy);
  const DynBitset marked = marking_process(g);
  EXPECT_TRUE(rule2_would_unmark(g, marked, key, Rule2Form::kRefined, kNode2));
  EXPECT_FALSE(rule2_would_unmark(g, marked, key, Rule2Form::kRefined, kNode9));
}

TEST(PaperCluster1, Rule2bPrimeUnmarksNode9OnEqualEnergy) {
  // Under Rule 2b' an energy tie falls to node degree first:
  // nd(9) < nd(2), so node 9 yields instead (paper Figure 9(j) lists 9).
  const Graph g = cluster1_graph();
  const std::vector<double> energy(11, 3.0);
  const PriorityKey key(KeyKind::kEnergyDegreeId, g, &energy);
  const DynBitset marked = marking_process(g);
  EXPECT_TRUE(rule2_would_unmark(g, marked, key, Rule2Form::kRefined, kNode9));
  EXPECT_FALSE(rule2_would_unmark(g, marked, key, Rule2Form::kRefined, kNode2));
}

TEST(PaperCluster1, ResultsAreValidCds) {
  const Graph g = cluster1_graph();
  for (const KeyKind kind : {KeyKind::kId, KeyKind::kDegreeId}) {
    const PriorityKey key(kind, g);
    RuleConfig config;
    config.rule2_form =
        kind == KeyKind::kId ? Rule2Form::kSimple : Rule2Form::kRefined;
    DynBitset marked = marking_process(g);
    apply_rules(g, key, config, marked);
    const CdsCheck check = check_cds(g, marked);
    EXPECT_TRUE(check.ok()) << to_string(kind) << ": " << check.message;
  }
}

}  // namespace
}  // namespace pacds
