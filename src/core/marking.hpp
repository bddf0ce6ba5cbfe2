#pragma once
// Wu & Li's marking process (paper Section 2.2): every node with two
// neighbors that are not directly connected marks itself a gateway. The
// marked set V' is a connected dominating set of every non-complete
// connected component (Properties 1-3 of the paper).

#include "core/bitset.hpp"
#include "core/enum_names.hpp"
#include "core/graph.hpp"
#include "core/keys.hpp"
#include "core/parallel.hpp"
#include "core/workspace.hpp"

namespace pacds {

/// Runs the marking process on the whole graph and returns the marked set.
///
/// A node v is marked iff ∃ u, w ∈ N(v), u ≠ w, {u, w} ∉ E. Complete
/// components (including isolated vertices and K2) therefore contribute no
/// marked nodes — see `CliquePolicy` in rules.hpp for the routing-level
/// fallback.
[[nodiscard]] DynBitset marking_process(const Graph& g);

/// Allocation-conscious variant: resizes/clears `marked` and fills it with
/// the marking-process output, sharding the node range across
/// `ctx.executor` when non-null. Each node's decision reads only the graph,
/// so the result is bit-identical to the serial pass for every executor
/// (shards write disjoint 64-bit words of `marked`). When `ctx.workspace`
/// is present and the graph is small enough, the pass runs against the
/// workspace's DenseAdjacency rows (word-parallel subset tests) instead of
/// CSR merge scans — bit-identical either way.
void marking_process_into(const Graph& g, const ExecContext& ctx,
                          DynBitset& marked);

/// Marking decision for a single node (the distributed per-node step; each
/// host needs only its 2-hop neighborhood, i.e. the N(u) lists its
/// neighbors exchanged).
[[nodiscard]] bool marks_itself(const Graph& g, NodeId v);

/// What to do with complete components, which the marking process leaves
/// without any gateway.
enum class CliquePolicy : std::uint8_t {
  kNone,         ///< paper-faithful: complete components get no gateway
  kElectMaxKey,  ///< elect the highest-priority node of each complete
                 ///< component as its gateway (routing-friendly)
};

constexpr auto enum_names(CliquePolicy) {
  return std::to_array<EnumName<CliquePolicy>>(
      {{CliquePolicy::kNone, "none"},
       {CliquePolicy::kElectMaxKey, "elect-max-key"}});
}

/// Applies `policy` to the marked set: for kElectMaxKey, each connected
/// component with no marked node (necessarily complete, or a singleton)
/// of size >= 2 gets its key-maximum node marked. Singletons stay unmarked
/// (they have nobody to route for).
void apply_clique_policy(const Graph& g, const PriorityKey& key,
                         CliquePolicy policy, DynBitset& marked);

}  // namespace pacds
