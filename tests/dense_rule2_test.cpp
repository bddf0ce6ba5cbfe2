// Dense Rule 2 against the merge predicates, node by node. Up to
// DenseAdjacency::kMaxNodes hosts the simultaneous Rule 2 pass decides on
// the workspace's dense rows; without a workspace the same call runs the
// merge predicates (rule2_would_unmark) instead. The two must agree on
// every node, for every key kind and both Rule 2 forms, over the whole
// dense range: rows from 1 word (n = 40) up to 64 words (n = 4096). The
// field grows with n so the degree stays at the paper's density (50 hosts
// per 100 x 100, r = 25), and the input is the marking process's output.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "core/marking.hpp"
#include "core/rules.hpp"
#include "net/rng.hpp"
#include "net/space.hpp"
#include "net/topology.hpp"
#include "net/udg.hpp"

namespace pacds {
namespace {

constexpr KeyKind kKinds[] = {KeyKind::kId, KeyKind::kDegreeId,
                              KeyKind::kEnergyId, KeyKind::kEnergyDegreeId,
                              KeyKind::kStabilityEnergyId};
constexpr Rule2Form kForms[] = {Rule2Form::kSimple, Rule2Form::kRefined};

/// Levels drawn from three values, so energy (and stability) ties are
/// common and the id / degree tie-breaks decide.
std::vector<double> tied_levels(std::size_t n, Xoshiro256& rng) {
  std::vector<double> levels(n);
  for (double& level : levels) {
    level = static_cast<double>(rng.uniform_int(1, 3));
  }
  return levels;
}

/// The lowest node on which the two mark sets disagree (for the message).
std::size_t first_difference(const DynBitset& a, const DynBitset& b) {
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a.test(i) != b.test(i)) return i;
  }
  return a.size();
}

class DenseRule2Test : public ::testing::TestWithParam<int> {};

TEST_P(DenseRule2Test, PassMatchesTheMergePredicates) {
  const int n = GetParam();
  const double side = 100.0 * std::sqrt(static_cast<double>(n) / 50.0);
  const Field field(side, side);
  const auto nn = static_cast<std::size_t>(n);
  for (const std::uint64_t seed : {1u, 2u}) {
    Xoshiro256 rng(seed * 10007 + static_cast<std::uint64_t>(n));
    const Graph g = build_udg(random_placement(n, field, rng), kPaperRadius);
    const std::vector<double> energy = tied_levels(nn, rng);
    const std::vector<double> stability = tied_levels(nn, rng);
    const DynBitset marked = marking_process(g);
    CdsWorkspace ws;
    const ExecContext dense_ctx{nullptr, &ws, nullptr};
    for (const KeyKind kind : kKinds) {
      const bool sel = kind == KeyKind::kStabilityEnergyId;
      const PriorityKey key(kind, g, &energy, sel ? &stability : nullptr);
      for (const Rule2Form form : kForms) {
        const std::string what = "seed " + std::to_string(seed) + " " +
                                 to_string(kind) + "/" + to_string(form);
        DynBitset dense;
        simultaneous_rule2_pass_into(g, key, form, marked, dense_ctx, dense);
        ASSERT_TRUE(ws.dense.active()) << what;
        DynBitset merge;
        simultaneous_rule2_pass_into(g, key, form, marked, ExecContext{},
                                     merge);
        ASSERT_EQ(dense, merge)
            << what << ": first differing node "
            << first_difference(dense, merge);
        // Not vacuous: Rule 2 unmarks nodes at this density.
        EXPECT_LT(dense.count(), marked.count()) << what;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(PaperDensity, DenseRule2Test,
                         ::testing::Values(40, 100, 400, 1000, 4096),
                         [](const ::testing::TestParamInfo<int>& p) {
                           return "n" + std::to_string(p.param);
                         });

}  // namespace
}  // namespace pacds
