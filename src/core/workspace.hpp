#pragma once
// Reusable scratch state for the CDS pipeline. One CdsWorkspace owned by a
// long-lived engine turns every steady-state recomputation into a
// zero-heap-allocation operation: stage double-buffers and the per-lane
// candidate buffers are sized once on first use and only touched
// (never reallocated) afterwards. The per-lane vectors pair with
// Executor::run_chunks lane indices — concurrent chunks get distinct lanes,
// so lock-free indexed access is safe.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/bitset.hpp"
#include "core/dense.hpp"
#include "core/graph.hpp"
#include "core/parallel.hpp"
#include "core/simd.hpp"

namespace pacds {

namespace obs {
class MetricsRegistry;  // full definition in obs/metrics.hpp
}

/// Scratch of one rule_k_would_unmark call: v's candidate covers, their
/// union-find parents, and the closed-neighborhood cover of one candidate
/// component. Only capacity persists between calls.
struct RuleKLane {
  std::vector<NodeId> cands;
  std::vector<std::size_t> parent;
  DynBitset cover;
};

/// One candidate cover c of v in the dense Rule 2 pair test: its id (for
/// the key) and its open-neighborhood row N(c), as wide as N(v)'s.
struct Rule2Candidate {
  NodeId id;
  const simd::Word* row;
};

/// Scratch buffers threaded through compute_cds / apply_rules /
/// IncrementalCds. Contents are clobbered by every pipeline call; only
/// capacity persists.
struct CdsWorkspace {
  /// Per-executor-lane Rule 2 marked-neighbor buffers (merge predicates).
  std::vector<std::vector<NodeId>> lane_neighbors;
  /// Per-executor-lane Rule 2 candidate buffers (dense rows).
  std::vector<std::vector<Rule2Candidate>> lane_candidates;
  /// Per-executor-lane Rule k scratch.
  std::vector<RuleKLane> lane_rule_k;
  /// Double buffer for simultaneous passes (next mark set under
  /// construction).
  DynBitset stage;
  /// Ascending key order for the sequential sweeps.
  std::vector<NodeId> order;
  /// Dense-row acceleration for the full-graph passes at small n; synced
  /// on demand against Graph::version() (see dense.hpp).
  DenseAdjacency dense;

  /// Ensures per-lane buffers exist for at least `lanes` lanes.
  /// Allocation-free once warm.
  void reserve_lanes(std::size_t lanes) {
    if (lane_neighbors.size() < lanes) lane_neighbors.resize(lanes);
    if (lane_candidates.size() < lanes) lane_candidates.resize(lanes);
    if (lane_rule_k.size() < lanes) lane_rule_k.resize(lanes);
  }

  /// As above, with room for `capacity` ids in every lane's marked-neighbor
  /// buffer. The localized region passes reserve the graph's maximum degree
  /// before they shard: which lane claims which chunk depends on
  /// scheduling, so a buffer grown on demand could allocate in any warm
  /// interval.
  void reserve_neighbor_lanes(std::size_t lanes, std::size_t capacity) {
    reserve_lanes(lanes);
    for (std::vector<NodeId>& buffer : lane_neighbors) buffer.reserve(capacity);
  }
};

/// How a pipeline entry point should execute: which executor shards the
/// node range (null = serial inline), which workspace provides scratch
/// (null = function-local buffers), and which metrics registry receives
/// phase timings and counters (null = record nothing, pay nothing). All
/// referents are borrowed and must outlive the call.
struct ExecContext {
  Executor* executor = nullptr;
  CdsWorkspace* workspace = nullptr;
  obs::MetricsRegistry* metrics = nullptr;

  [[nodiscard]] std::size_t lanes() const {
    return executor != nullptr ? executor->max_lanes() : 1;
  }
};

}  // namespace pacds
