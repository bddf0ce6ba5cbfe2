#pragma once
// Localized gateway-status maintenance (the paper's Section 2.2 locality
// feature): when the topology changes — hosts move, switch on or off — only
// hosts near the change need to re-decide their gateway status.
//
// Maintenance is *stage-split*: under the simultaneous strategy every node's
// status is the composition of three per-node decisions, each of which reads
// only inputs within the node's closed neighborhood N[v]:
//
//   marking      — adjacency rows of v and its neighbors (2-hop topology)
//   Rule 1 pass  — marking output, rows, and keys within N[v]
//   Rule 2 pass  — post-Rule-1 marks, rows, and keys within N[v]
//
// So given P = nodes whose adjacency row changed and X = nodes whose
// priority key changed, the marking stage re-evaluates N[P]; each rule stage
// re-evaluates the closed neighborhood of P ∪ X plus the flips recorded by
// the stage before it. Nodes outside those regions provably keep their
// decisions, and the result is bit-identical to a full recomputation.
// Property tests assert that equivalence on random dynamic topologies.
//
// Energy drain therefore no longer forces a full refresh: advance diffs the
// supplied (typically already-quantized) levels against the stored ones and
// seeds X with the nodes whose level actually changed — under coarse
// quantization most intervals change few or no keys.

#include <cstddef>
#include <utility>
#include <vector>

#include "core/bitset.hpp"
#include "core/cds.hpp"
#include "core/graph.hpp"
#include "core/workspace.hpp"

namespace pacds {

/// A batch of topology changes.
struct EdgeDelta {
  std::vector<std::pair<NodeId, NodeId>> added;
  std::vector<std::pair<NodeId, NodeId>> removed;

  [[nodiscard]] bool empty() const { return added.empty() && removed.empty(); }

  void clear() {
    added.clear();
    removed.clear();
  }
};

/// Maintains the gateway set of an evolving graph with localized updates.
///
/// Always uses Strategy::kSimultaneous: the sequential strategies cascade
/// removals arbitrarily far, which defeats locality — only the synchronous
/// semantics has the per-stage neighborhood guarantee. Gateways therefore
/// match compute_cds(..., {.strategy = kSimultaneous, .clique_policy = ...}).
///
/// advance reuses member scratch buffers and sizes every lane's Rule 2
/// buffer before its region pass shards; steady-state calls allocate
/// nothing once those buffers have reached their high-water marks.
class IncrementalCds {
 public:
  /// `exec` controls how the passes run: with an executor, the initial full
  /// computation shards its marking and rule passes across the executor's
  /// workers, and each localized update shards its three region passes the
  /// same way (the neighbourhood closures that grow the regions stay
  /// serial). Both referents of `exec` are borrowed and must outlive this
  /// object; results are bit-identical for every executor.
  ///
  /// `stability` seeds the per-node churn estimates for RuleSet::kSEL; an
  /// empty vector means "no churn observed yet" (all zeros). Ignored — and
  /// required empty-or-n — for the other schemes.
  IncrementalCds(Graph g, RuleSet rs, std::vector<double> energy = {},
                 CliquePolicy clique_policy = CliquePolicy::kNone,
                 ExecContext exec = {}, std::vector<double> stability = {});

  [[nodiscard]] const Graph& graph() const noexcept { return graph_; }
  [[nodiscard]] const DynBitset& gateways() const noexcept { return gateways_; }
  [[nodiscard]] const DynBitset& marked_only() const noexcept {
    return marked_only_;
  }
  [[nodiscard]] RuleSet rule_set() const noexcept { return rule_set_; }
  [[nodiscard]] const std::vector<double>& energy() const noexcept {
    return energy_;
  }

  /// Number of nodes re-evaluated by the most recent update (union over all
  /// three stages) — the locality metric (n for a full refresh).
  [[nodiscard]] std::size_t last_touched() const noexcept {
    return last_touched_;
  }

  /// One interval's update: applies the edge insertions/removals in
  /// `delta`, replaces the energy levels and (kSEL only) the per-node
  /// stability estimates, then re-evaluates once over the union of the
  /// dirty sets — the rows the delta changed and the marked nodes whose
  /// (typically already-quantized) key input changed. Keys are read on the
  /// post-delta graph. `energy` is ignored for schemes whose key ignores
  /// it; `stability` must be empty for every scheme but kSEL. Throws
  /// std::invalid_argument if an added edge already exists, a removed edge
  /// is absent, or a vector has the wrong size.
  void advance(const EdgeDelta& delta, const std::vector<double>& energy,
               const std::vector<double>& stability = {});

  /// Points subsequent updates at a metrics registry (null detaches).
  /// Phase timings (marking/rules/delta_apply) and touched-node counters
  /// record into it; recording with a registry attached allocates nothing.
  void set_metrics(obs::MetricsRegistry* metrics) noexcept {
    exec_.metrics = metrics;
  }

 private:
  /// Full recomputation from scratch (the constructor's first pass).
  void full_refresh();
  /// Mutates the graph per `delta` (validating it) and accumulates the
  /// endpoints into dirty_rows_.
  void ingest_delta(const EdgeDelta& delta);
  /// Diffs `energy` against energy_, accumulating changed nodes into
  /// dirty_keys_ (only for energy-based schemes), and stores the new levels.
  void ingest_energy(const std::vector<double>& energy);
  /// Same diff-and-store for the stability estimates (kSEL only).
  void ingest_stability(const std::vector<double>& stability);
  /// Re-evaluates the three stages from dirty_rows_ / dirty_keys_, then
  /// clears both. Updates last_touched_.
  void propagate();
  /// region |= N(region) on the current graph.
  void close_neighborhood(DynBitset& region);

  /// Workspace actually in use: the caller's, or own_ws_.
  [[nodiscard]] CdsWorkspace& workspace() noexcept {
    return exec_.workspace != nullptr ? *exec_.workspace : own_ws_;
  }

  Graph graph_;
  RuleSet rule_set_;
  std::vector<double> energy_;
  std::vector<double> stability_;  ///< kSEL churn estimates (else empty)
  CliquePolicy clique_policy_;
  ExecContext exec_;
  CdsWorkspace own_ws_;

  DynBitset marked_only_;  ///< marking-process output
  DynBitset after_rule1_;  ///< after the simultaneous Rule 1 pass
  DynBitset final_;        ///< after the simultaneous Rule 2 pass
  DynBitset gateways_;     ///< final_ plus clique policy
  std::size_t last_touched_ = 0;

  // Dirty sets consumed by propagate().
  DynBitset dirty_rows_;  ///< P: nodes whose adjacency row changed
  DynBitset dirty_keys_;  ///< X: nodes whose priority key changed
  // Scratch reused across updates (no steady-state allocation).
  DynBitset region_;
  DynBitset seed_;
  DynBitset touched_;
  DynBitset grow_src_;
};

}  // namespace pacds
