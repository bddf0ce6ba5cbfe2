#pragma once
// Validity checks for gateway sets: domination, connectivity of the induced
// subgraph, and the paper's Property 3 (shortest paths need no non-gateway
// interior vertex). These back the property-based tests and the kVerified
// rule-application strategy.

#include <string>

#include "core/bitset.hpp"
#include "core/graph.hpp"

namespace pacds {

/// Outcome of a connected-dominating-set check.
struct CdsCheck {
  bool dominating = true;          ///< every relevant node covered
  bool induced_connected = true;   ///< marked set connected per component
  std::string message;             ///< first violation, for test diagnostics

  [[nodiscard]] bool ok() const { return dominating && induced_connected; }
};

/// Checks that `set` is a connected dominating set of `g`, component-wise:
/// within each connected component of g that contains at least one marked
/// node, every node must be in `set` or adjacent to a member, and the
/// members must induce a connected subgraph.
///
/// Components with *no* marked node fail domination unless they are complete
/// (or singletons) and `exempt_complete_components` is true — the marking
/// process legitimately leaves cliques gateway-less (paper Property 1
/// assumes a non-complete graph).
[[nodiscard]] CdsCheck check_cds(const Graph& g, const DynBitset& set,
                                 bool exempt_complete_components = true);

/// True iff removing `v` from `set` keeps check_cds passing. Used by the
/// kVerified strategy; O(component) per call.
[[nodiscard]] bool removal_is_safe(const Graph& g, const DynBitset& set,
                                   NodeId v);

/// Paper Property 3: for every pair (s, t), some shortest path in G uses
/// only gateway nodes as interior vertices; equivalently the
/// gateway-interior-restricted distance equals the true distance.
/// Holds for the raw marking-process output; generally *not* after rules.
[[nodiscard]] bool property3_holds(const Graph& g, const DynBitset& gateways);

}  // namespace pacds
