// Single-sweep oracle for the sequential rule strategies. The library runs
// kSequential / kVerified (pairwise rules and Rule k alike) as ONE sweep in
// ascending key order on the dense kernels; the historical implementation
// swept with the merge predicates until nothing changed. Whether a node
// fires is monotone in the marked set and marks only shrink, so the two must
// agree exactly — this suite checks that against a test-local copy of the
// fixpoint loop built only from the public merge predicates, and checks
// that one more sweep over the library's output unmarks nothing.

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "core/cds.hpp"
#include "core/rules.hpp"
#include "core/verify.hpp"
#include "net/rng.hpp"
#include "net/space.hpp"
#include "net/topology.hpp"
#include "net/udg.hpp"

namespace pacds {
namespace {

constexpr KeyKind kKinds[] = {KeyKind::kId, KeyKind::kDegreeId,
                              KeyKind::kEnergyId, KeyKind::kEnergyDegreeId,
                              KeyKind::kStabilityEnergyId};
constexpr Strategy kSweepStrategies[] = {Strategy::kSequential,
                                         Strategy::kVerified};
constexpr Rule2Form kForms[] = {Rule2Form::kSimple, Rule2Form::kRefined};

/// Would the pairwise rules unmark v under `marked` (merge predicates)?
bool pairwise_fires(const Graph& g, const DynBitset& marked,
                    const PriorityKey& key, Rule2Form form, NodeId v) {
  return rule1_would_unmark(g, marked, key, v) ||
         rule2_would_unmark(g, marked, key, form, v);
}

/// One sequential sweep with the merge predicates; returns whether it
/// unmarked anything.
bool pairwise_sweep(const Graph& g, const PriorityKey& key, Rule2Form form,
                    bool verified, DynBitset& marked) {
  bool changed = false;
  for (const NodeId v : key.ascending_order()) {
    if (!marked.test(static_cast<std::size_t>(v))) continue;
    if (!pairwise_fires(g, marked, key, form, v)) continue;
    if (verified && !removal_is_safe(g, marked, v)) continue;
    marked.reset(static_cast<std::size_t>(v));
    changed = true;
  }
  return changed;
}

/// The fixpoint loop sequential rule application used to run.
DynBitset pairwise_fixpoint(const Graph& g, const PriorityKey& key,
                            Rule2Form form, bool verified) {
  DynBitset marked = marking_process(g);
  for (int sweep = 0; sweep < 64; ++sweep) {
    if (!pairwise_sweep(g, key, form, verified, marked)) break;
  }
  return marked;
}

/// One sequential Rule k sweep with the merge form of rule_k_would_unmark.
bool rule_k_sweep(const Graph& g, const PriorityKey& key, DynBitset& marked) {
  bool changed = false;
  for (const NodeId v : key.ascending_order()) {
    if (rule_k_would_unmark(g, marked, key, v)) {
      marked.reset(static_cast<std::size_t>(v));
      changed = true;
    }
  }
  return changed;
}

DynBitset rule_k_fixpoint(const Graph& g, const PriorityKey& key) {
  DynBitset marked = marking_process(g);
  for (int sweep = 0; sweep < 64; ++sweep) {
    if (!rule_k_sweep(g, key, marked)) break;
  }
  return marked;
}

/// Levels drawn from three values, so energy (and stability) ties are
/// common and the id / degree tie-breaks decide.
std::vector<double> tied_levels(std::size_t n, Xoshiro256& rng) {
  std::vector<double> levels(n);
  for (double& level : levels) {
    level = static_cast<double>(rng.uniform_int(1, 3));
  }
  return levels;
}

std::string describe(KeyKind kind, Strategy strategy, Rule2Form form) {
  return to_string(kind) + "/" + to_string(strategy) + "/" + to_string(form);
}

class SequentialSweepTest
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(SequentialSweepTest, OneSweepEqualsTheFixpoint) {
  const auto [n, radius] = GetParam();
  const Field field = Field::paper_field();
  for (const std::uint64_t seed : {11u, 12u, 13u}) {
    Xoshiro256 rng(seed * 1000 + static_cast<std::uint64_t>(n));
    const auto positions = random_placement(n, field, rng);
    const Graph g = build_udg(positions, radius);
    const auto nn = static_cast<std::size_t>(n);
    const std::vector<double> energy = tied_levels(nn, rng);
    const std::vector<double> stability = tied_levels(nn, rng);
    CdsWorkspace ws;  // one workspace across calls, as the engines hold one
    const ExecContext ctx{nullptr, &ws, nullptr};
    for (const KeyKind kind : kKinds) {
      const bool sel = kind == KeyKind::kStabilityEnergyId;
      const PriorityKey key(kind, g, &energy, sel ? &stability : nullptr);
      for (const Strategy strategy : kSweepStrategies) {
        const bool verified = strategy == Strategy::kVerified;
        for (const Rule2Form form : kForms) {
          RuleConfig config;
          config.rule2_form = form;
          config.strategy = strategy;
          const CdsResult got =
              compute_cds_custom(g, kind, config, energy, CliquePolicy::kNone,
                                 ctx, sel ? stability : std::vector<double>{});
          const DynBitset expected =
              pairwise_fixpoint(g, key, form, verified);
          ASSERT_EQ(got.gateways, expected)
              << "seed " << seed << " " << describe(kind, strategy, form);
          DynBitset again = got.gateways;
          EXPECT_FALSE(pairwise_sweep(g, key, form, verified, again))
              << "a second sweep unmarked nodes: seed " << seed << " "
              << describe(kind, strategy, form);
        }
        // Rule k: kVerified's per-removal check never vetoes a Rule k
        // removal, so both strategies equal the unverified fixpoint.
        DynBitset marked = marking_process(g);
        apply_rules(g, key,
                    RuleConfig{.use_rule_k = true, .strategy = strategy}, ctx,
                    marked);
        ASSERT_EQ(marked, rule_k_fixpoint(g, key))
            << "Rule k, seed " << seed << " " << to_string(kind) << "/"
            << to_string(strategy);
        EXPECT_FALSE(rule_k_sweep(g, key, marked))
            << "a second Rule k sweep unmarked nodes: seed " << seed << " "
            << to_string(kind);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomUdgs, SequentialSweepTest,
    ::testing::Combine(::testing::Values(8, 30, 60, 100, 150),
                       ::testing::Values(15.0, 25.0, 40.0)),
    [](const ::testing::TestParamInfo<SequentialSweepTest::ParamType>& p) {
      return "n" + std::to_string(std::get<0>(p.param)) + "_r" +
             std::to_string(static_cast<int>(std::get<1>(p.param)));
    });

TEST(SequentialSweepTest, MergeFallbackAboveTheDenseLimit) {
  // Above DenseAdjacency::kMaxNodes the sweep runs on the merge predicates;
  // it must still equal the fixpoint. The field grows with n so the degree
  // stays at paper density.
  const int n = DenseAdjacency::kMaxNodes + 904;
  const Field field(1000.0, 500.0);
  Xoshiro256 rng(4242);
  const auto positions = random_placement(n, field, rng);
  const Graph g = build_udg(positions, kPaperRadius);
  const std::vector<double> energy =
      tied_levels(static_cast<std::size_t>(n), rng);
  CdsWorkspace ws;
  const ExecContext ctx{nullptr, &ws, nullptr};
  const PriorityKey key(KeyKind::kEnergyId, g, &energy);

  RuleConfig config;
  config.strategy = Strategy::kSequential;
  const CdsResult got = compute_cds_custom(g, KeyKind::kEnergyId, config,
                                           energy, CliquePolicy::kNone, ctx);
  EXPECT_FALSE(ws.dense.active());
  EXPECT_EQ(got.gateways,
            pairwise_fixpoint(g, key, Rule2Form::kRefined, false));
  EXPECT_TRUE(check_cds(g, got.gateways).ok());

  DynBitset marked = marking_process(g);
  apply_rules(g, key,
              RuleConfig{.use_rule_k = true, .strategy = Strategy::kSequential},
              ctx, marked);
  EXPECT_EQ(marked, rule_k_fixpoint(g, key));
}

}  // namespace
}  // namespace pacds
