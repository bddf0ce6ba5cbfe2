#pragma once
// The tiled lifetime engine: spatial tiles (core/tiles.hpp) over a
// persistent CSR graph. Each interval it
//
//   1. takes the edge delta from the MovingLinks front end it shares with
//      IncrementalEngine (spatial-grid re-file + sorted neighbor diff) and
//      applies it to the global graph;
//   2. marks dirty every tile whose rectangle intersects the 3r bounding
//      box of a changed position, or the 2r box of a marked host whose
//      quantized key changed — a superset of the tiles any stage decision
//      can flip in (DESIGN.md §10, locality radii in core/tiles.hpp);
//   3. re-files moved hosts between tile owned-lists;
//   4. re-decides marking, Rule 1 and Rule 2, in that order, for the hosts
//      the dirty tiles own (the region). Each stage runs the merge
//      predicates over the region on the global graph, sharded in
//      word-aligned pieces across the pool (for_each_set_sharded), and
//      writes its decisions straight into its stage bitset; the next stage
//      reads the finished bitset. Hosts outside the region keep their
//      bits, which the locality argument proves unchanged.
//
// The result is bit-identical to the flat engines for every tile count and
// thread count wherever tiled_engine_eligible holds; memory is O(n + m),
// the incremental engine's plus the tiles' owned lists.

#include <optional>
#include <string>
#include <vector>

#include "core/tiles.hpp"
#include "sim/engine.hpp"

namespace pacds {

class TiledEngine final : public LifetimeEngine {
 public:
  /// The config must satisfy tiled_engine_eligible; make_lifetime_engine
  /// checks it through validate_sim_config.
  explicit TiledEngine(const SimConfig& config);

  void update(const std::vector<Vec2>& positions,
              const std::vector<double>& levels) override;
  [[nodiscard]] const DynBitset& gateways() const override {
    return gateways_;
  }
  [[nodiscard]] const Graph* graph() const override {
    return graph_ ? &*graph_ : nullptr;
  }
  [[nodiscard]] IntervalCounts counts() const override {
    return {marked_.count(), gateways_.count()};
  }
  /// Owned hosts of the dirty tiles — the nodes re-evaluated this interval.
  [[nodiscard]] std::size_t last_touched() const override {
    return last_touched_;
  }
  [[nodiscard]] std::string name() const override { return "tiled"; }

 private:
  void initialize(const std::vector<Vec2>& positions);
  /// Dirties 2r around every host marked last interval whose entry in `now`
  /// differs from `before`, then stores `now` in `before`.
  void dirty_changed_keys(const std::vector<Vec2>& positions,
                          const std::vector<double>& now,
                          std::vector<double>& before);
  /// Re-decides the three stages for the dirty tiles' owned hosts, then
  /// clears the tile dirt.
  void run_stages(const std::vector<double>& keys);

  SimConfig config_;
  /// Its radio can only veto unit-disk links, never add longer ones, so the
  /// 3r/2r tile dirt radii stay valid supersets.
  MovingLinks links_;
  std::optional<ThreadPool> pool_;
  /// Rule 2's per-lane marked-neighbour buffers.
  CdsWorkspace workspace_;
  std::optional<Graph> graph_;

  TileGrid tiles_;

  // Global stage state (same staging as IncrementalCds).
  DynBitset marked_;       ///< marking-process output
  DynBitset after_rule1_;  ///< after the simultaneous Rule 1 pass
  DynBitset final_;        ///< after the simultaneous Rule 2 pass
  DynBitset gateways_;     ///< final_ (clique policy kNone by eligibility)

  DynBitset dirty_tiles_;  ///< one bit per tile
  DynBitset region_;       ///< hosts owned by the dirty tiles
  std::size_t last_touched_ = 0;

  // Steady-state scratch — reused, never reallocated after warm-up.
  std::vector<double> prev_keys_;
  /// Last interval's quantized stability buckets (kSEL only): the diff
  /// drives 2r key-dirt exactly like prev_keys_, and is what catches
  /// decay-driven bucket drops at hosts with no nearby topology change.
  std::vector<double> prev_stab_;
  std::vector<double> key_scratch_;
};

/// True iff TiledEngine provably reproduces the full rebuild for this
/// configuration: everything incremental_engine_eligible requires, plus no
/// clique policy (electing a per-component maximum is a component-global
/// decision, which tiles cannot evaluate locally).
[[nodiscard]] bool tiled_engine_eligible(const SimConfig& config);

}  // namespace pacds
