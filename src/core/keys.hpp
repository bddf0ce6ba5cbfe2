#pragma once
// Priority keys: the single abstraction that unifies the paper's four rule
// families. Every reduction rule removes a marked node whose neighborhood is
// covered by higher-priority marked nodes; the families differ only in how
// "higher priority" is decided:
//
//   ID   (Rules 1,  2 )  — node id only                     (Wu & Li)
//   ND   (Rules 1a, 2a)  — (degree, id)                     lexicographic
//   EL1  (Rules 1b, 2b)  — (energy level, id)               lexicographic
//   EL2  (Rules 1b',2b') — (energy level, degree, id)       lexicographic
//   SEL                  — (stability, energy, id)          lexicographic
//
// A *smaller* key means the node is the one that yields (unmarks itself);
// i.e. the paper's "el(v) < el(u)" style conditions translate to
// less(v, u) == true. Ids are distinct, so every comparator below is a
// strict total order.
//
// SEL is the scenario pack's stability-aware extension (after the stable-CDS
// route-discovery line of work): each node carries a predicted link
// *instability* — an EWMA of its neighborhood churn — and nodes with higher
// churn yield first, so the backbone prefers hosts whose neighborhoods are
// quiet and changes less under mobility. With an all-equal stability vector
// SEL degenerates to exactly EL1.

#include <cstdint>
#include <string>
#include <vector>

#include "core/enum_names.hpp"
#include "core/graph.hpp"

namespace pacds {

/// Which node attribute chain decides yielding priority.
enum class KeyKind : std::uint8_t {
  kId,                 ///< id — Rules 1/2
  kDegreeId,           ///< (degree, id) — Rules 1a/2a
  kEnergyId,           ///< (energy, id) — Rules 1b/2b
  kEnergyDegreeId,     ///< (energy, degree, id) — Rules 1b'/2b'
  kStabilityEnergyId,  ///< (stability, energy, id) — scenario-pack SEL
};

/// The same names as the RuleSet each key chain belongs to.
constexpr auto enum_names(KeyKind) {
  return std::to_array<EnumName<KeyKind>>(
      {{KeyKind::kId, "ID"},
       {KeyKind::kDegreeId, "ND"},
       {KeyKind::kEnergyId, "EL1"},
       {KeyKind::kEnergyDegreeId, "EL2"},
       {KeyKind::kStabilityEnergyId, "SEL"}});
}

/// True iff the key chain reads node energy levels (EL1, EL2, SEL).
[[nodiscard]] bool uses_energy(KeyKind kind);

/// True iff the key chain reads the per-node stability estimate (SEL).
[[nodiscard]] bool uses_stability(KeyKind kind);

/// Strict-total-order comparator over the nodes of one graph snapshot.
///
/// Holds non-owning views of the graph (for degrees) and the energy vector;
/// both must outlive the comparator. Energy levels are compared exactly
/// (==/<): ties are *meaningful* in the paper (all nodes start at the same
/// level and drain in lockstep groups), so no epsilon is applied.
class PriorityKey {
 public:
  /// `energy` may be null for kId / kDegreeId; it is required (and must have
  /// one entry per node) for the energy-based kinds. `stability` carries the
  /// per-node churn estimate for kStabilityEnergyId; null means "all equal"
  /// (a fresh network with no observed churn), which makes SEL coincide with
  /// EL1 — distributed snapshots that have no tracker use exactly that.
  PriorityKey(KeyKind kind, const Graph& graph,
              const std::vector<double>* energy = nullptr,
              const std::vector<double>* stability = nullptr);

  [[nodiscard]] KeyKind kind() const noexcept { return kind_; }

  /// True iff v has strictly lower priority than u (v is the one removed
  /// when coverage conditions hold).
  [[nodiscard]] bool less(NodeId v, NodeId u) const;

  /// True iff v is the strict minimum of {v, u, w}.
  [[nodiscard]] bool is_min_of_three(NodeId v, NodeId u, NodeId w) const;

  /// Nodes of the graph sorted by ascending priority.
  [[nodiscard]] std::vector<NodeId> ascending_order() const;

  /// As ascending_order, into `out` (reused: no allocation once its
  /// capacity covers the node count).
  void ascending_order_into(std::vector<NodeId>& out) const;

 private:
  [[nodiscard]] double energy_of(NodeId v) const;
  [[nodiscard]] double stability_of(NodeId v) const;

  KeyKind kind_;
  const Graph* graph_;
  const std::vector<double>* energy_;
  const std::vector<double>* stability_;
};

}  // namespace pacds
