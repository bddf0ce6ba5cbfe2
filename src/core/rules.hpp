#pragma once
// The selective-removal rules (paper Sections 2.2 and 3). A marked node
// unmarks itself when its neighborhood is covered by one (Rule 1) or two
// connected (Rule 2) *marked* neighbors and it loses the priority
// comparison. The four families (ID / ND / EL1 / EL2) are obtained by
// plugging the corresponding PriorityKey into the generic rules:
//
//   Rule 1 (all families): N[v] ⊆ N[u], u marked, key(v) < key(u).
//   Rule 2, simple form (ID family, paper Rule 2):
//       N(v) ⊆ N(u) ∪ N(w), u,w marked neighbors, key(v) = min of three.
//   Rule 2, refined form (a/b/b' families, paper Rules 2a/2b/2b'):
//       three-way case analysis on which of {v,u,w} are covered by the
//       other two; only covered nodes compete, and v yields iff it loses
//       the key comparison against every *covered* competitor.
//
// The paper's case enumeration is asymmetric in u and w (its case 2 assumes
// the covered competitor is u); we evaluate both orderings of the pair,
// which is exactly what a distributed node iterating over all its
// marked-neighbor pairs would do, and matches the paper's worked example.
//
// Rule k (Dai & Wu 2004) is the follow-up that fixes the pairwise rules'
// unsafe simultaneous case and subsumes Rules 1 and 2 in their key-guarded
// forms: a marked node v unmarks itself when its open neighborhood is
// covered by the union of neighborhoods of a CONNECTED set of marked
// neighbors that all have strictly HIGHER priority. Because every remover
// defers to strictly higher-priority covers, even simultaneous application
// is safe — the priority-maximal cover chain always survives. It is one
// more removal test in the same pipeline (RuleConfig::use_rule_k), run
// under every strategy; with the energy keys it is the power-aware variant
// bench/extension_rule_k measures.

#include <cstdint>
#include <string>
#include <vector>

#include "core/bitset.hpp"
#include "core/enum_names.hpp"
#include "core/graph.hpp"
#include "core/keys.hpp"
#include "core/marking.hpp"
#include "core/workspace.hpp"

namespace pacds {

/// Which formulation of Rule 2 to apply.
enum class Rule2Form : std::uint8_t {
  kSimple,   ///< paper Rule 2: unmark iff key-min of the covered triple
  kRefined,  ///< paper Rules 2a/2b/2b': coverage-symmetry case analysis
};

/// How rule decisions are committed.
enum class Strategy : std::uint8_t {
  /// Synchronous distributed semantics: one simultaneous Rule 1 pass
  /// evaluated against the marking-process output, then one simultaneous
  /// Rule 2 pass evaluated against the post-Rule-1 marks. NOTE: with the
  /// refined Rule 2 as published, simultaneous commits are NOT always safe —
  /// two nodes can each be removed relying on the other as cover (measured
  /// at roughly 30% of dense random unit-disk instances by
  /// bench/ablation_strategies; Dai & Wu 2004 later added the missing
  /// priority guard). Provided for fidelity studies.
  kSimultaneous,
  /// Asynchronous distributed semantics and the library default: nodes
  /// yield one at a time in ascending key order, removals taking effect
  /// immediately, in one sweep. One sweep is already the fixpoint: whether
  /// a node fires grows with the marked set and marks only shrink, so a
  /// node that kept its mark when visited keeps it for good (DESIGN.md §5).
  /// Each single removal is covered by the paper's G' - {v} correctness
  /// argument, so the result is always a valid CDS.
  kSequential,
  /// kSequential plus a per-removal safety check: a node is only unmarked
  /// if the remaining set still dominates and stays connected inside its
  /// component. Guaranteed-valid output even where the raw rules are not.
  /// Safety is monotone in the marked set too, so one sweep still suffices.
  kVerified,
};

constexpr auto enum_names(Rule2Form) {
  return std::to_array<EnumName<Rule2Form>>(
      {{Rule2Form::kSimple, "simple"}, {Rule2Form::kRefined, "refined"}});
}

constexpr auto enum_names(Strategy) {
  return std::to_array<EnumName<Strategy>>(
      {{Strategy::kSimultaneous, "simultaneous"},
       {Strategy::kSequential, "sequential"},
       {Strategy::kVerified, "verified"}});
}

/// Full rule-application configuration.
struct RuleConfig {
  bool use_rule1 = true;
  bool use_rule2 = true;
  Rule2Form rule2_form = Rule2Form::kRefined;
  /// Rule k in place of Rules 1 and 2 (the three fields above are then
  /// ignored).
  bool use_rule_k = false;
  Strategy strategy = Strategy::kSequential;
};

// ---- Single-node decisions (distributed view) ---------------------------
// Each predicate answers: "given the current marks, would node v unmark
// itself by this rule?" They are the building blocks of every strategy;
// the localized engines (IncrementalCds, TiledEngine) run them over their
// regions through for_each_set_sharded.

[[nodiscard]] bool rule1_would_unmark(const Graph& g, const DynBitset& marked,
                                      const PriorityKey& key, NodeId v);

/// Rule 2 in either form. `scratch` receives v's marked neighbors (contents
/// clobbered), so per-node evaluation in hot loops allocates nothing; the
/// overload without it uses a local buffer.
[[nodiscard]] bool rule2_would_unmark(const Graph& g, const DynBitset& marked,
                                      const PriorityKey& key, Rule2Form form,
                                      NodeId v, std::vector<NodeId>& scratch);
[[nodiscard]] bool rule2_would_unmark(const Graph& g, const DynBitset& marked,
                                      const PriorityKey& key, Rule2Form form,
                                      NodeId v);

/// Rule k: true iff marked node v is covered by a connected set of
/// higher-priority marked neighbors. Checks each connected component of the
/// induced subgraph on {u ∈ N(v) : marked(u), key(v) < key(u)} — taking a
/// whole component is the maximal connected candidate, so no subset search
/// is needed. With `dense` rows the component unions and the coverage test
/// run word-parallel instead of per-bit; decisions are identical. The
/// scratch overload allocates nothing once `scratch` is warm; the other
/// uses a local one.
[[nodiscard]] bool rule_k_would_unmark(const Graph& g, const DynBitset& marked,
                                       const PriorityKey& key, NodeId v,
                                       const DenseAdjacency* dense,
                                       RuleKLane& scratch);
[[nodiscard]] bool rule_k_would_unmark(const Graph& g, const DynBitset& marked,
                                       const PriorityKey& key, NodeId v,
                                       const DenseAdjacency* dense = nullptr);

// ---- Whole-graph passes --------------------------------------------------

/// One simultaneous Rule 1 pass: decisions are evaluated against `marked`
/// and committed together. Returns the new mark set.
[[nodiscard]] DynBitset simultaneous_rule1_pass(const Graph& g,
                                                const PriorityKey& key,
                                                const DynBitset& marked);

/// One simultaneous Rule 2 pass (either form).
[[nodiscard]] DynBitset simultaneous_rule2_pass(const Graph& g,
                                                const PriorityKey& key,
                                                Rule2Form form,
                                                const DynBitset& marked);

// Sharded/in-place variants. Every decision is evaluated against the frozen
// input `marked`, so the node range can be split across `ctx.executor` and
// the committed result is bit-identical to the serial pass for any thread
// count (shards only clear bits inside their own word-aligned range of
// `next`). `next` receives the new mark set; reusing a warm buffer makes the
// pass allocation-free. When `ctx.workspace` carries an active
// DenseAdjacency (small n), coverage runs word-parallel on cached rows; it
// also provides Rule 2's per-lane marked-neighbor buffers (function-local
// buffers when null).

void simultaneous_rule1_pass_into(const Graph& g, const PriorityKey& key,
                                  const DynBitset& marked,
                                  const ExecContext& ctx, DynBitset& next);

void simultaneous_rule2_pass_into(const Graph& g, const PriorityKey& key,
                                  Rule2Form form, const DynBitset& marked,
                                  const ExecContext& ctx, DynBitset& next);

/// Applies the configured rules to `marked` in place. The simultaneous
/// strategy runs one pass per rule (Rule 1, then Rule 2 against the
/// post-Rule-1 marks; or one Rule k pass). The sequential and verified
/// strategies run one sweep in ascending key order, which is already the
/// fixpoint (see Strategy::kSequential); under Rule k the verified
/// strategy's per-removal check never vetoes, because Rule k removals are
/// safe.
void apply_rules(const Graph& g, const PriorityKey& key,
                 const RuleConfig& config, DynBitset& marked);

/// As above, with explicit execution context. Only the simultaneous strategy
/// shards across `ctx.executor` (its per-node decisions read frozen inputs);
/// the sequential/verified strategies cascade removals immediately and
/// therefore always run serially, executor or not — same results either way.
/// Every strategy runs its coverage tests on the workspace's dense rows when
/// they are active (n <= DenseAdjacency::kMaxNodes) and on the merge
/// predicates above that; the decisions are identical.
void apply_rules(const Graph& g, const PriorityKey& key,
                 const RuleConfig& config, const ExecContext& ctx,
                 DynBitset& marked);

}  // namespace pacds
