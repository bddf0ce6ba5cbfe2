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
  tile_local_.resize(static_cast<std::size_t>(tiles_.tile_count()));
  // Sized now: which lane claims which tile depends on scheduling.
  const auto n = positions.size();
  lane_scratch_.assign(pool_ ? pool_->max_lanes() : 1,
                       {std::vector<std::int32_t>(n),
                        std::vector<std::uint64_t>(n), 0});

  marked_.resize_clear(n);
  after_rule1_.resize_clear(n);
  final_.resize_clear(n);
  gateways_.resize_clear(n);
  dirty_tiles_.resize_clear(static_cast<std::size_t>(tiles_.tile_count()));
  for (std::size_t t = 0; t < dirty_tiles_.size(); ++t) dirty_tiles_.set(t);
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

void TiledEngine::run_stages(const std::vector<Vec2>& positions,
                             const std::vector<double>& keys) {
  const bool needs_energy = uses_energy(config_.rule_set);
  const StabilityTracker* tracker = links_.tracker();
  const PriorityKey key(key_kind_of(config_.rule_set), *graph_,
                        needs_energy ? &keys : nullptr,
                        tracker ? &tracker->stability() : nullptr);
  dirty_list_.clear();
  last_touched_ = 0;
  dirty_tiles_.for_each_set([&](std::size_t t) {
    dirty_list_.push_back(static_cast<int>(t));
    last_touched_ += tiles_.owned(static_cast<int>(t)).size();
  });
  Executor* exec = pool_ ? &*pool_ : nullptr;

  const auto for_each_dirty = [&](auto&& per_tile) {
    auto chunk = [&](std::size_t begin, std::size_t end, std::size_t lane) {
      for (std::size_t k = begin; k < end; ++k) {
        per_tile(dirty_list_[k], lane);
      }
    };
    run_sharded(exec, dirty_list_.size(), 1, chunk);
  };
  const auto scatter_dirty = [&](DynBitset& global) {
    for (const int t : dirty_list_) {
      scatter_tile_out(tile_local_[static_cast<std::size_t>(t)], global);
    }
  };

  // Local universes and dense rows, once per dirty tile per interval; all
  // three stages reuse them.
  for_each_dirty([&](int t, std::size_t lane) {
    build_tile_local(*graph_, tiles_, positions, t, lane_scratch_[lane],
                     tile_local_[static_cast<std::size_t>(t)]);
  });

  {
    const obs::PhaseTimer timer(metrics_, obs::Phase::kMarking);
    for_each_dirty([&](int t, std::size_t /*lane*/) {
      tile_marking_stage(tile_local_[static_cast<std::size_t>(t)]);
    });
    scatter_dirty(marked_);
  }
  {
    const obs::PhaseTimer timer(metrics_, obs::Phase::kRules);
    if (config_.rule_set == RuleSet::kNR) {
      after_rule1_ = marked_;
      final_ = marked_;
    } else {
      for_each_dirty([&](int t, std::size_t /*lane*/) {
        tile_rule1_stage(key, marked_, tile_local_[static_cast<std::size_t>(t)]);
      });
      scatter_dirty(after_rule1_);
      const bool simple = rule2_form_of(config_.rule_set) == Rule2Form::kSimple;
      for_each_dirty([&](int t, std::size_t /*lane*/) {
        tile_rule2_stage(key, simple, after_rule1_,
                         tile_local_[static_cast<std::size_t>(t)]);
      });
      scatter_dirty(final_);
    }
  }
  gateways_ = final_;

  if (metrics_ != nullptr) {
    metrics_->add(obs::Counter::kNodesTouched,
                  static_cast<std::uint64_t>(last_touched_));
  }
  dirty_tiles_.resize_clear(dirty_tiles_.size());
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
      run_stages(positions, keys);
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
    run_stages(positions, keys);
  });
}

bool tiled_engine_eligible(const SimConfig& config) {
  return incremental_engine_eligible(config) &&
         config.cds_options.clique_policy == CliquePolicy::kNone;
}

}  // namespace pacds
