#include "sim/tiled_engine.hpp"

namespace pacds {

TiledEngine::TiledEngine(const SimConfig& config)
    : config_(config), links_(config) {
  make_interval_pool(config_.threads, pool_);
}

void TiledEngine::initialize(const std::vector<Vec2>& positions) {
  const obs::PhaseTimer timer(metrics_, obs::Phase::kLinkBuild);
  graph_.emplace();
  links_.reset(positions, *graph_);
  tiles_.reset(config_.field_width, config_.field_height, config_.radius,
               config_.tiles, positions.size());
  tiles_.assign_all(positions);

  const auto n = positions.size();
  marked_.resize_clear(n);
  after_rule1_.resize_clear(n);
  final_.resize_clear(n);
  gateways_.resize_clear(n);
  region_.resize_clear(n);
  dirty_tiles_.resize_clear(static_cast<std::size_t>(tiles_.tile_count()));
  dirty_tiles_.set_all();
}

void TiledEngine::dirty_changed_keys(const std::vector<Vec2>& positions,
                                     const std::vector<double>& now,
                                     std::vector<double>& before) {
  const double dirt = 2.0 * tiles_.radius();
  for (std::size_t i = 0; i < now.size(); ++i) {
    if (now[i] != before[i] && marked_.test(i)) {
      tiles_.mark_dirty_around(positions[i], dirt, dirty_tiles_);
    }
  }
  before = now;
}

void TiledEngine::run_stages(const std::vector<double>& keys) {
  const bool needs_energy = uses_energy(config_.rule_set);
  const StabilityTracker* tracker = links_.tracker();
  const Graph& g = *graph_;
  const PriorityKey key(key_kind_of(config_.rule_set), g,
                        needs_energy ? &keys : nullptr,
                        tracker ? &tracker->stability() : nullptr);
  region_.reset_all();
  dirty_tiles_.for_each_set([&](std::size_t t) {
    for (const NodeId v : tiles_.owned(static_cast<int>(t))) {
      region_.set(static_cast<std::size_t>(v));
    }
  });
  last_touched_ = region_.count();
  Executor* exec = pool_ ? &*pool_ : nullptr;

  // Each stage reads the finished bitset of the one before it and writes
  // bit i of its own, so the region shards across the pool.
  {
    const obs::PhaseTimer timer(metrics_, obs::Phase::kMarking);
    for_each_set_sharded(exec, region_, [&](std::size_t i, std::size_t) {
      marked_.set(i, marks_itself(g, static_cast<NodeId>(i)));
    });
  }
  {
    const obs::PhaseTimer timer(metrics_, obs::Phase::kRules);
    if (config_.rule_set == RuleSet::kNR) {
      after_rule1_ = marked_;
      final_ = marked_;
    } else {
      for_each_set_sharded(exec, region_, [&](std::size_t i, std::size_t) {
        after_rule1_.set(i, marked_.test(i) &&
                                !rule1_would_unmark(g, marked_, key,
                                                    static_cast<NodeId>(i)));
      });
      const Rule2Form form = rule2_form_of(config_.rule_set);
      workspace_.reserve_neighbor_lanes(
          pool_ ? pool_->max_lanes() : 1,
          static_cast<std::size_t>(g.max_degree()));
      for_each_set_sharded(exec, region_, [&](std::size_t i, std::size_t lane) {
        final_.set(i, after_rule1_.test(i) &&
                          !rule2_would_unmark(g, after_rule1_, key, form,
                                              static_cast<NodeId>(i),
                                              workspace_.lane_neighbors[lane]));
      });
    }
  }
  gateways_ = final_;

  if (metrics_ != nullptr) {
    metrics_->add(obs::Counter::kNodesTouched,
                  static_cast<std::uint64_t>(last_touched_));
  }
  dirty_tiles_.reset_all();
}

void TiledEngine::update(const std::vector<Vec2>& positions,
                         const std::vector<double>& levels) {
  with_pool_accounting(pool_, [&] {
    const auto& keys =
        quantize_key_levels(levels, config_.energy_key_quantum, key_scratch_);
    const StabilityTracker* tracker = links_.tracker();
    if (!graph_) {
      initialize(positions);
      if (uses_energy(config_.rule_set)) prev_keys_ = keys;
      if (tracker) prev_stab_ = tracker->stability();
      if (metrics_ != nullptr) metrics_->add(obs::Counter::kFullRefreshes);
      run_stages(keys);
      return;
    }
    {
      const obs::PhaseTimer timer(metrics_, obs::Phase::kDeltaExtract);
      links_.advance(positions, *graph_, metrics_);
      // Dirty both endpoints of every jump and re-file the host's tile.
      const double dirt = 3.0 * tiles_.radius();
      for (const auto& [v, from] : links_.moves()) {
        const Vec2 to = positions[static_cast<std::size_t>(v)];
        tiles_.mark_dirty_around(from, dirt, dirty_tiles_);
        tiles_.mark_dirty_around(to, dirt, dirty_tiles_);
        tiles_.move_host(v, from, to);
      }
    }
    const EdgeDelta& delta = links_.delta();
    for (const auto& [u, v] : delta.removed) graph_->remove_edge(u, v);
    for (const auto& [u, v] : delta.added) graph_->add_edge(u, v);
    if (tracker) {
      // Stability-bucket changes dirty 2r around the host exactly like the
      // energy-key diff below (same marked-node filter, same locality
      // argument). This pass is what catches EWMA *decay*: a long-quiet
      // host's bucket can drop with no topology change anywhere near it,
      // so mover dirt alone would miss the key flip.
      dirty_changed_keys(positions, tracker->stability(), prev_stab_);
    }
    if (uses_energy(config_.rule_set)) {
      // A key change re-decides rules out to 2r around the host: key(i) is
      // read only by deciders within r (Rule 1 compares v against neighbor
      // keys; Rule 2/k draw candidates from N(v)), and a flipped Rule 1
      // decision at distance r can flip Rule 2 deciders one more hop out.
      // Marking reads no keys, so 2r covers the whole cascade — position
      // changes keep their 3r radius separately. Churn-aware filter
      // (mirrors the flat incremental engine's marked-filtered key diffs):
      // keys are only ever read for nodes in the marked set — Rule 1
      // compares marked v against marked u, Rule 2 draws its candidate
      // pairs from the post-Rule-1 set ⊆ marked — and marking itself is
      // pure topology. So a key change at a host that was unmarked last
      // interval flips no decision unless its marking flips too, and a
      // marking flip needs a topology change within r of the host, whose
      // mover endpoints (within r) already dirtied every tile within 3r —
      // covering all deciders within 2r of the host. EL2's steady energy
      // drain on non-backbone hosts therefore stops dirtying tiles
      // (DESIGN.md §11 spells out the argument).
      dirty_changed_keys(positions, keys, prev_keys_);
    }
    run_stages(keys);
  });
}

bool tiled_engine_eligible(const SimConfig& config) {
  return incremental_engine_eligible(config) &&
         config.cds_options.clique_policy == CliquePolicy::kNone;
}

}  // namespace pacds
