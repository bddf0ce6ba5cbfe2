#pragma once
// Generalized coverage rule ("Rule k", Dai & Wu 2004) — the follow-up that
// fixes the pairwise rules' unsafe simultaneous case and subsumes Rules 1
// and 2: a marked node v unmarks itself when its open neighborhood is
// covered by the union of neighborhoods of a CONNECTED set of neighbors
// that all have strictly HIGHER priority. Because every remover defers to
// strictly higher-priority covers, synchronous (simultaneous) application
// is provably safe — the priority-maximal cover chain always survives.
//
// Plugging the energy-based keys into Rule k yields the power-aware variant
// this library adds as an extension experiment (bench/extension_rule_k):
// the paper's "future work" of deeper power-aware selection.

#include "core/bitset.hpp"
#include "core/cds.hpp"
#include "core/graph.hpp"
#include "core/keys.hpp"
#include "core/marking.hpp"
#include "core/rules.hpp"

namespace pacds {

/// True iff marked node v is covered by a connected set of higher-priority
/// marked neighbors. Checks each connected component of the induced
/// subgraph on {u ∈ N(v) : marked(u), key(v) < key(u)} — taking a whole
/// component is the maximal connected candidate, so no subset search is
/// needed. With `dense` rows available the component unions and the
/// coverage test run word-parallel through the core/simd word primitives
/// instead of per-bit; decisions are identical.
[[nodiscard]] bool rule_k_would_unmark(const Graph& g, const DynBitset& marked,
                                       const PriorityKey& key, NodeId v,
                                       const DenseAdjacency* dense = nullptr);

/// One synchronous Rule-k pass (decisions against `marked`, committed
/// together). Safe by the priority argument above.
[[nodiscard]] DynBitset simultaneous_rule_k_pass(const Graph& g,
                                                 const PriorityKey& key,
                                                 const DynBitset& marked);

/// Sharded/in-place variant: decisions are evaluated against the frozen
/// input and committed into `next`, node range split across the context's
/// executor when non-null — bit-identical to the serial pass for any thread
/// count. The context's workspace supplies the dense-row fast path.
void simultaneous_rule_k_pass_into(const Graph& g, const PriorityKey& key,
                                   const DynBitset& marked,
                                   const ExecContext& ctx, DynBitset& next);
void simultaneous_rule_k_pass_into(const Graph& g, const PriorityKey& key,
                                   const DynBitset& marked, Executor* exec,
                                   DynBitset& next);

/// Applies Rule k to `marked` in place with the chosen strategy: one
/// simultaneous pass (the distributed semantics), or one sequential sweep
/// in ascending key order — which is the sequential fixpoint, because
/// whether v fires is monotone in the marked set (DESIGN.md §5). Rule k
/// removals are provably safe, so kVerified runs the plain sweep. The
/// ExecContext overload shards the simultaneous pass, and both strategies
/// use the workspace's dense rows when active; the sweep always runs
/// serially.
void apply_rule_k(const Graph& g, const PriorityKey& key, Strategy strategy,
                  DynBitset& marked);
void apply_rule_k(const Graph& g, const PriorityKey& key, Strategy strategy,
                  const ExecContext& ctx, DynBitset& marked);

/// Marking process + Rule k in one call, mirroring compute_cds: `ctx`
/// shards the marking and Rule-k passes across its executor, shares one
/// dense-row sync between them, and receives the marking and rules phase
/// times plus the full-refresh counters.
[[nodiscard]] CdsResult compute_cds_rule_k(
    const Graph& g, KeyKind kind, const std::vector<double>& energy = {},
    Strategy strategy = Strategy::kSimultaneous,
    CliquePolicy clique_policy = CliquePolicy::kNone,
    const ExecContext& ctx = {}, const std::vector<double>& stability = {});

/// As compute_cds_rule_k, writing into `out` (its bitsets are reused).
void compute_cds_rule_k_into(const Graph& g, KeyKind kind,
                             const std::vector<double>& energy,
                             Strategy strategy, CliquePolicy clique_policy,
                             const ExecContext& ctx,
                             const std::vector<double>& stability,
                             CdsResult& out);

}  // namespace pacds
