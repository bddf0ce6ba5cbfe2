// Tests for the generic reduction rules: Rule 1 under every key kind,
// the simple and refined Rule 2 case analyses, and the three application
// strategies. Gadget graphs are built so each paper case fires in isolation.

#include "core/rules.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "core/verify.hpp"
#include "test_graphs.hpp"

namespace pacds {
namespace {

using testing::complete_graph;
using testing::path_graph;

/// Rule 1 gadget: x=0, y=1 non-adjacent; v=2 and u=3 adjacent, both adjacent
/// to x and y; u additionally owns private neighbor z=4.
/// N[v] = {0,1,2,3} ⊆ N[u] = {0,1,2,3,4}; both v and u are marked.
Graph rule1_gadget() {
  return Graph::from_edges(
      5, {{2, 0}, {2, 1}, {2, 3}, {3, 0}, {3, 1}, {3, 4}});
}

/// Twin gadget (paper Fig. 3(b)): v=2, u=3 adjacent with identical closed
/// neighborhoods {0,1,2,3}; x=0, y=1 non-adjacent so both are marked.
Graph twin_gadget() {
  return Graph::from_edges(4, {{2, 0}, {2, 1}, {2, 3}, {3, 0}, {3, 1}});
}

/// Rule 2 gadget: triangle v=0, u=1, w=2; a=3 adjacent to v and u;
/// b=4 adjacent to w only. N(v) ⊆ N(u) ∪ N(w); u also covered; w not
/// (private neighbor b). All of v, u, w are marked.
Graph rule2_gadget() {
  return Graph::from_edges(
      5, {{0, 1}, {0, 2}, {1, 2}, {1, 3}, {0, 3}, {2, 4}});
}

/// Case-1 gadget: same as rule2_gadget but u=1 also gets a private neighbor
/// (5), so neither u nor w is covered while v=0 still is.
Graph rule2_case1_gadget() {
  Graph g = Graph::from_edges(
      6, {{0, 1}, {0, 2}, {1, 2}, {1, 3}, {0, 3}, {2, 4}, {1, 5}});
  return g;
}

/// Case-3 gadget: triangle 0,1,2 plus nodes 3 and 4 adjacent to all of
/// 0,1,2 but not to each other. Marked set = {0,1,2}; each is covered by
/// the other two.
Graph rule2_case3_gadget() {
  return Graph::from_edges(5, {{0, 1},
                               {0, 2},
                               {1, 2},
                               {3, 0},
                               {3, 1},
                               {3, 2},
                               {4, 0},
                               {4, 1},
                               {4, 2}});
}

DynBitset marks_of(const Graph& g) { return marking_process(g); }

// ---- Rule 1 --------------------------------------------------------------

TEST(Rule1Test, GadgetPreconditions) {
  const Graph g = rule1_gadget();
  const DynBitset marked = marks_of(g);
  EXPECT_TRUE(marked.test(2));
  EXPECT_TRUE(marked.test(3));
  EXPECT_TRUE(g.closed_covered_by(2, 3));
  EXPECT_FALSE(g.closed_covered_by(3, 2));
}

TEST(Rule1Test, IdKeyUnmarksCoveredLowerId) {
  const Graph g = rule1_gadget();
  const PriorityKey key(KeyKind::kId, g);
  const DynBitset marked = marks_of(g);
  EXPECT_TRUE(rule1_would_unmark(g, marked, key, 2));
  EXPECT_FALSE(rule1_would_unmark(g, marked, key, 3));
  const DynBitset after = simultaneous_rule1_pass(g, key, marked);
  EXPECT_FALSE(after.test(2));
  EXPECT_TRUE(after.test(3));
  EXPECT_TRUE(check_cds(g, after).ok());
}

TEST(Rule1Test, RequiresCoveringNodeMarked) {
  // If u were unmarked, v must stay. Force it by handing a mark set where
  // only v is marked.
  const Graph g = rule1_gadget();
  const PriorityKey key(KeyKind::kId, g);
  DynBitset only_v(5);
  only_v.set(2);
  EXPECT_FALSE(rule1_would_unmark(g, only_v, key, 2));
}

TEST(Rule1Test, TwinsRemoveExactlyOne) {
  const Graph g = twin_gadget();
  const PriorityKey key(KeyKind::kId, g);
  const DynBitset after = simultaneous_rule1_pass(g, key, marks_of(g));
  EXPECT_FALSE(after.test(2));  // smaller id yields
  EXPECT_TRUE(after.test(3));
  EXPECT_TRUE(check_cds(g, after).ok());
}

TEST(Rule1Test, DegreeKeyIgnoresIdOrder) {
  // v=2 has smaller degree than u=3 but LARGER id in this relabeled gadget:
  // v=4, u=3. Under ND the degree decides; under ID nothing fires for v.
  const Graph g = Graph::from_edges(
      5, {{4, 0}, {4, 1}, {4, 3}, {3, 0}, {3, 1}, {3, 2}});
  const DynBitset marked = marks_of(g);
  ASSERT_TRUE(marked.test(4));
  ASSERT_TRUE(marked.test(3));
  const PriorityKey nd_key(KeyKind::kDegreeId, g);
  const PriorityKey id_key(KeyKind::kId, g);
  EXPECT_TRUE(rule1_would_unmark(g, marked, nd_key, 4));   // nd 3 < nd 4
  EXPECT_FALSE(rule1_would_unmark(g, marked, id_key, 4));  // id 4 > 3
}

TEST(Rule1Test, EnergyKeyDecides) {
  const Graph g = rule1_gadget();
  // v=2 has MORE energy than u=3: v must stay under EL keys.
  std::vector<double> energy{1.0, 1.0, 9.0, 2.0, 1.0};
  const PriorityKey el_key(KeyKind::kEnergyId, g, &energy);
  const DynBitset marked = marks_of(g);
  EXPECT_FALSE(rule1_would_unmark(g, marked, el_key, 2));
  // Flip the energies: now v yields.
  energy[2] = 1.0;
  energy[3] = 9.0;
  EXPECT_TRUE(rule1_would_unmark(g, marked, el_key, 2));
}

TEST(Rule1Test, EnergyTieFallsBackToId) {
  const Graph g = twin_gadget();
  const std::vector<double> energy{1.0, 1.0, 5.0, 5.0};
  const PriorityKey key(KeyKind::kEnergyId, g, &energy);
  const DynBitset after = simultaneous_rule1_pass(g, key, marks_of(g));
  EXPECT_FALSE(after.test(2));
  EXPECT_TRUE(after.test(3));
}

TEST(Rule1Test, UnmarkedNodeNeverFires) {
  const Graph g = rule1_gadget();
  const PriorityKey key(KeyKind::kId, g);
  const DynBitset marked = marks_of(g);
  EXPECT_FALSE(rule1_would_unmark(g, marked, key, 0));
  EXPECT_FALSE(rule1_would_unmark(g, marked, key, 4));
}

// ---- Rule 2, simple form (paper Rule 2) -----------------------------------

TEST(Rule2SimpleTest, GadgetPreconditions) {
  const Graph g = rule2_gadget();
  const DynBitset marked = marks_of(g);
  EXPECT_TRUE(marked.test(0));
  EXPECT_TRUE(marked.test(1));
  EXPECT_TRUE(marked.test(2));
  EXPECT_TRUE(g.open_covered_by_pair(0, 1, 2));
  EXPECT_TRUE(g.open_covered_by_pair(1, 0, 2));
  EXPECT_FALSE(g.open_covered_by_pair(2, 0, 1));
}

TEST(Rule2SimpleTest, MinIdUnmarks) {
  const Graph g = rule2_gadget();
  const PriorityKey key(KeyKind::kId, g);
  const DynBitset marked = marks_of(g);
  EXPECT_TRUE(rule2_would_unmark(g, marked, key, Rule2Form::kSimple, 0));
  // Node 1 is not the min id; node 2 is not covered.
  EXPECT_FALSE(rule2_would_unmark(g, marked, key, Rule2Form::kSimple, 1));
  EXPECT_FALSE(rule2_would_unmark(g, marked, key, Rule2Form::kSimple, 2));
  const DynBitset after =
      simultaneous_rule2_pass(g, key, Rule2Form::kSimple, marked);
  EXPECT_FALSE(after.test(0));
  EXPECT_TRUE(after.test(1));
  EXPECT_TRUE(after.test(2));
  EXPECT_TRUE(check_cds(g, after).ok());
}

TEST(Rule2SimpleTest, NeedsBothNeighborsMarked) {
  const Graph g = rule2_gadget();
  const PriorityKey key(KeyKind::kId, g);
  DynBitset partial(5);
  partial.set(0);
  partial.set(1);  // w=2 not marked
  EXPECT_FALSE(rule2_would_unmark(g, partial, key, Rule2Form::kSimple, 0));
}

TEST(Rule2SimpleTest, PathInteriorNotCovered) {
  // Path interior vertices have no pair of neighbors covering them.
  const Graph g = path_graph(5);
  const PriorityKey key(KeyKind::kId, g);
  const DynBitset marked = marks_of(g);
  for (NodeId v = 0; v < 5; ++v) {
    EXPECT_FALSE(rule2_would_unmark(g, marked, key, Rule2Form::kSimple, v));
  }
}

// ---- Rule 2, refined form (Rules 2a / 2b / 2b') ---------------------------

TEST(Rule2RefinedTest, Case1UnmarksRegardlessOfKey) {
  const Graph g = rule2_case1_gadget();
  const DynBitset marked = marks_of(g);
  ASSERT_TRUE(marked.test(0));
  ASSERT_TRUE(marked.test(1));
  ASSERT_TRUE(marked.test(2));
  // Give v=0 the HIGHEST energy: the simple form would keep it, case 1 of
  // the refined form removes it anyway because neither competitor is
  // covered.
  const std::vector<double> energy{99.0, 1.0, 1.0, 1.0, 1.0, 1.0};
  const PriorityKey key(KeyKind::kEnergyId, g, &energy);
  EXPECT_TRUE(rule2_would_unmark(g, marked, key, Rule2Form::kRefined, 0));
  EXPECT_FALSE(rule2_would_unmark(g, marked, key, Rule2Form::kRefined, 1));
  EXPECT_FALSE(rule2_would_unmark(g, marked, key, Rule2Form::kRefined, 2));
}

TEST(Rule2RefinedTest, Case2KeyDecidesBetweenCoveredPair) {
  const Graph g = rule2_gadget();  // v=0 and u=1 covered, w=2 not
  const DynBitset marked = marks_of(g);
  const PriorityKey id_key(KeyKind::kId, g);
  EXPECT_TRUE(rule2_would_unmark(g, marked, id_key, Rule2Form::kRefined, 0));
  EXPECT_FALSE(rule2_would_unmark(g, marked, id_key, Rule2Form::kRefined, 1));
  EXPECT_FALSE(rule2_would_unmark(g, marked, id_key, Rule2Form::kRefined, 2));
  // With energies favoring 0, node 1 yields instead.
  const std::vector<double> energy{9.0, 1.0, 5.0, 5.0, 5.0};
  const PriorityKey el_key(KeyKind::kEnergyId, g, &energy);
  EXPECT_FALSE(rule2_would_unmark(g, marked, el_key, Rule2Form::kRefined, 0));
  EXPECT_TRUE(rule2_would_unmark(g, marked, el_key, Rule2Form::kRefined, 1));
}

TEST(Rule2RefinedTest, Case2SymmetricInPairOrder) {
  // Relabel rule2_gadget so the covered competitor has the larger id and
  // appears second in ascending pair enumeration; the decision must match.
  // v=2, u=1 (covered), w=0 (private neighbor 4): triangle 0,1,2; 3 adj to
  // 1,2; 4 adj to 0.
  const Graph g = Graph::from_edges(
      5, {{2, 1}, {2, 0}, {1, 0}, {1, 3}, {2, 3}, {0, 4}});
  const DynBitset marked = marks_of(g);
  ASSERT_TRUE(marked.test(0));
  ASSERT_TRUE(marked.test(1));
  ASSERT_TRUE(marked.test(2));
  const PriorityKey key(KeyKind::kId, g);
  // v=1 is the min id of the covered pair {1, 2}; it yields, 2 stays.
  EXPECT_TRUE(rule2_would_unmark(g, marked, key, Rule2Form::kRefined, 1));
  EXPECT_FALSE(rule2_would_unmark(g, marked, key, Rule2Form::kRefined, 2));
}

TEST(Rule2RefinedTest, Case3StrictMinimumYields) {
  const Graph g = rule2_case3_gadget();
  const DynBitset marked = marks_of(g);
  ASSERT_EQ(marked.count(), 3u);
  const PriorityKey key(KeyKind::kId, g);
  EXPECT_TRUE(rule2_would_unmark(g, marked, key, Rule2Form::kRefined, 0));
  EXPECT_FALSE(rule2_would_unmark(g, marked, key, Rule2Form::kRefined, 1));
  EXPECT_FALSE(rule2_would_unmark(g, marked, key, Rule2Form::kRefined, 2));
  const DynBitset after =
      simultaneous_rule2_pass(g, key, Rule2Form::kRefined, marked);
  EXPECT_EQ(after.count(), 2u);
  EXPECT_TRUE(check_cds(g, after).ok());
}

TEST(Rule2RefinedTest, Case3EnergyMinimumYields) {
  const Graph g = rule2_case3_gadget();
  const DynBitset marked = marks_of(g);
  const std::vector<double> energy{5.0, 2.0, 5.0, 5.0, 5.0};
  const PriorityKey key(KeyKind::kEnergyId, g, &energy);
  EXPECT_FALSE(rule2_would_unmark(g, marked, key, Rule2Form::kRefined, 0));
  EXPECT_TRUE(rule2_would_unmark(g, marked, key, Rule2Form::kRefined, 1));
  EXPECT_FALSE(rule2_would_unmark(g, marked, key, Rule2Form::kRefined, 2));
}

TEST(Rule2RefinedTest, Case3FullEnergyTieFallsToDegreeThenId) {
  const Graph g = rule2_case3_gadget();
  const DynBitset marked = marks_of(g);
  // All energies equal; degrees of 0,1,2 equal too -> id decides (EL2 chain).
  const std::vector<double> energy(5, 7.0);
  const PriorityKey key(KeyKind::kEnergyDegreeId, g, &energy);
  EXPECT_TRUE(rule2_would_unmark(g, marked, key, Rule2Form::kRefined, 0));
  EXPECT_FALSE(rule2_would_unmark(g, marked, key, Rule2Form::kRefined, 1));
  EXPECT_FALSE(rule2_would_unmark(g, marked, key, Rule2Form::kRefined, 2));
}

// ---- Strategies and pipelines ---------------------------------------------

RuleConfig config_with(Strategy strategy,
                       Rule2Form form = Rule2Form::kRefined) {
  RuleConfig config;
  config.strategy = strategy;
  config.rule2_form = form;
  return config;
}

TEST(StrategyTest, SimultaneousAppliesRule1ThenRule2) {
  const Graph g = rule1_gadget();
  const PriorityKey key(KeyKind::kId, g);
  DynBitset marked = marks_of(g);
  apply_rules(g, key, config_with(Strategy::kSimultaneous), marked);
  EXPECT_FALSE(marked.test(2));
  EXPECT_TRUE(marked.test(3));
  EXPECT_TRUE(check_cds(g, marked).ok());
}

TEST(StrategyTest, Rule2SeesPostRule1Marks) {
  // In rule1_gadget, after Rule 1 removes v=2, node u=3 has only one marked
  // neighbor left — Rule 2 must not fire using the stale pre-Rule-1 marks.
  const Graph g = rule1_gadget();
  const PriorityKey key(KeyKind::kId, g);
  DynBitset marked = marks_of(g);
  apply_rules(g, key, config_with(Strategy::kSimultaneous), marked);
  EXPECT_EQ(marked.count(), 1u);
}

TEST(StrategyTest, DisableRule1) {
  const Graph g = rule1_gadget();
  const PriorityKey key(KeyKind::kId, g);
  RuleConfig config = config_with(Strategy::kSimultaneous);
  config.use_rule1 = false;
  DynBitset marked = marks_of(g);
  const DynBitset before = marked;
  apply_rules(g, key, config, marked);
  // Rule 2 alone cannot fire here (v has only one marked neighbor).
  EXPECT_EQ(marked, before);
}

TEST(StrategyTest, DisableRule2) {
  const Graph g = rule2_gadget();
  const PriorityKey key(KeyKind::kId, g);
  RuleConfig config = config_with(Strategy::kSimultaneous);
  config.use_rule2 = false;
  DynBitset marked = marks_of(g);
  apply_rules(g, key, config, marked);
  // Rule 1 alone fires only for the twin pair 0/1 (N[0] = N[1] = {0,1,2,3});
  // with Rule 2 disabled the covered triple stays otherwise intact.
  EXPECT_FALSE(marked.test(0));
  EXPECT_TRUE(marked.test(1));
  EXPECT_TRUE(marked.test(2));
  EXPECT_EQ(marked.count(), 2u);
}

TEST(StrategyTest, SequentialNeverLargerThanSimultaneous) {
  for (const Graph& g : {rule1_gadget(), rule2_gadget(), rule2_case1_gadget(),
                         rule2_case3_gadget(), twin_gadget()}) {
    const PriorityKey key(KeyKind::kId, g);
    DynBitset sim = marks_of(g);
    apply_rules(g, key, config_with(Strategy::kSimultaneous), sim);
    DynBitset seq = marks_of(g);
    apply_rules(g, key, config_with(Strategy::kSequential), seq);
    EXPECT_LE(seq.count(), sim.count());
    EXPECT_TRUE(check_cds(g, seq).ok());
  }
}

TEST(StrategyTest, VerifiedAlwaysValid) {
  for (const Graph& g : {rule1_gadget(), rule2_gadget(), rule2_case1_gadget(),
                         rule2_case3_gadget(), twin_gadget()}) {
    const PriorityKey key(KeyKind::kId, g);
    DynBitset marked = marks_of(g);
    apply_rules(g, key, config_with(Strategy::kVerified), marked);
    const CdsCheck check = check_cds(g, marked);
    EXPECT_TRUE(check.ok()) << check.message;
  }
}

TEST(StrategyTest, CompleteGraphNothingToDo) {
  const Graph g = complete_graph(5);
  const PriorityKey key(KeyKind::kId, g);
  DynBitset marked = marks_of(g);
  apply_rules(g, key, config_with(Strategy::kSimultaneous), marked);
  EXPECT_TRUE(marked.none());
}

TEST(StrategyTest, ToStringCoverage) {
  EXPECT_EQ(to_string(Rule2Form::kSimple), "simple");
  EXPECT_EQ(to_string(Rule2Form::kRefined), "refined");
  EXPECT_EQ(to_string(Strategy::kSimultaneous), "simultaneous");
  EXPECT_EQ(to_string(Strategy::kSequential), "sequential");
  EXPECT_EQ(to_string(Strategy::kVerified), "verified");
}

}  // namespace
}  // namespace pacds
