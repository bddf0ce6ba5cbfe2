#include "sim/tiled_engine.hpp"

#include <algorithm>

namespace pacds {

TiledEngine::TiledEngine(const SimConfig& config)
    : config_(config), moved_(static_cast<std::size_t>(config.n_hosts)) {
  make_interval_pool(config_.threads, pool_);
  if (config_.radio != RadioKind::kUnitDisk) {
    radio_.emplace(config_.radio, config_.radio_params, config_.radius);
  }
  if (uses_stability(config_.rule_set)) {
    tracker_.emplace(static_cast<std::size_t>(config_.n_hosts),
                     config_.stability_beta, config_.stability_quantum);
  }
}

void TiledEngine::initialize(const std::vector<Vec2>& positions) {
  const obs::PhaseTimer timer(metrics_, obs::Phase::kLinkBuild);
  prev_positions_ = positions;
  const double cell = config_.radius > 0.0 ? config_.radius : 1.0;
  grid_.emplace(prev_positions_, cell);
  graph_.emplace();
  {
    LinkBuilder builder;
    build_sim_links(config_, radio_ ? &*radio_ : nullptr, positions, builder,
                    *graph_);
  }
  tiles_.reset(config_.field_width, config_.field_height, config_.radius,
               config_.tiles, positions.size());
  tiles_.assign_all(prev_positions_);
  tile_local_.resize(static_cast<std::size_t>(tiles_.tile_count()));
  lane_scratch_.resize(pool_ ? pool_->max_lanes() : 1);

  const auto nbits = positions.size();
  marked_.resize_clear(nbits);
  after_rule1_.resize_clear(nbits);
  final_.resize_clear(nbits);
  gateways_.resize_clear(nbits);
  dirty_tiles_.resize_clear(static_cast<std::size_t>(tiles_.tile_count()));
  for (std::size_t t = 0; t < dirty_tiles_.size(); ++t) dirty_tiles_.set(t);
}

void TiledEngine::extract_delta(const std::vector<Vec2>& positions) {
  const double dirt = 3.0 * tiles_.radius();
  delta_.clear();
  movers_.clear();
  for (std::size_t i = 0; i < positions.size(); ++i) {
    if (positions[i] != prev_positions_[i]) {
      movers_.push_back(static_cast<NodeId>(i));
      moved_.set(i);
    }
  }
  // Re-file every mover first so neighborhood queries see the full new
  // configuration; dirty both endpoints of the jump while the old position
  // is still at hand.
  for (const NodeId v : movers_) {
    const auto vi = static_cast<std::size_t>(v);
    tiles_.mark_dirty_around(prev_positions_[vi], dirt, dirty_tiles_);
    tiles_.mark_dirty_around(positions[vi], dirt, dirty_tiles_);
    tiles_.move_host(v, prev_positions_[vi], positions[vi]);
    grid_->move(v, prev_positions_[vi], positions[vi]);
    prev_positions_[vi] = positions[vi];
  }
  for (const NodeId v : movers_) {
    grid_->query_into(prev_positions_[static_cast<std::size_t>(v)],
                      config_.radius, v, nbrs_);
    // The stored rows are radio-filtered, so the candidate list must be
    // too, or the diff would re-add edges the channel vetoes.
    if (radio_) {
      nbrs_.erase(
          std::remove_if(
              nbrs_.begin(), nbrs_.end(),
              [&](NodeId u) {
                return !radio_->link(
                    v, u,
                    distance2(prev_positions_[static_cast<std::size_t>(v)],
                              prev_positions_[static_cast<std::size_t>(u)]));
              }),
          nbrs_.end());
    }
    // Two-pointer diff of old vs new sorted neighbor lists. A pair whose
    // endpoints both moved shows up in both diffs; keep it only for the
    // smaller endpoint.
    const auto keep = [&](NodeId u) {
      return !moved_.test(static_cast<std::size_t>(u)) || v < u;
    };
    const auto old = graph_->neighbors(v);
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < old.size() || j < nbrs_.size()) {
      if (j == nbrs_.size() || (i < old.size() && old[i] < nbrs_[j])) {
        if (keep(old[i])) delta_.removed.emplace_back(v, old[i]);
        ++i;
      } else if (i == old.size() || nbrs_[j] < old[i]) {
        if (keep(nbrs_[j])) delta_.added.emplace_back(v, nbrs_[j]);
        ++j;
      } else {
        ++i;
        ++j;
      }
    }
  }
  for (const NodeId v : movers_) moved_.reset(static_cast<std::size_t>(v));
}

void TiledEngine::run_stages(const std::vector<double>& keys) {
  const bool needs_energy = uses_energy(config_.rule_set);
  const PriorityKey key(key_kind_of(config_.rule_set), *graph_,
                        needs_energy ? &keys : nullptr,
                        tracker_ ? &tracker_->stability() : nullptr);
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
    build_tile_local(*graph_, tiles_, prev_positions_, t, lane_scratch_[lane],
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
    if (!graph_) {
      initialize(positions);
      if (uses_energy(config_.rule_set)) prev_keys_ = keys;
      if (tracker_) {
        // First interval: commit on zero counts (no link history) so the
        // EWMA cadence is one commit per update, as in the other engines.
        tracker_->commit();
        prev_stab_ = tracker_->stability();
      }
      if (metrics_ != nullptr) metrics_->add(obs::Counter::kFullRefreshes);
      run_stages(keys);
      return;
    }
    {
      const obs::PhaseTimer timer(metrics_, obs::Phase::kDeltaExtract);
      extract_delta(positions);
    }
    if (metrics_ != nullptr) {
      metrics_->add(obs::Counter::kEdgesAdded, delta_.added.size());
      metrics_->add(obs::Counter::kEdgesRemoved, delta_.removed.size());
    }
    for (const auto& [u, v] : delta_.removed) graph_->remove_edge(u, v);
    for (const auto& [u, v] : delta_.added) graph_->add_edge(u, v);
    if (tracker_) {
      // Both endpoints of every (deduped) delta edge — the same counts the
      // full-rebuild engine derives from row diffs.
      for (const auto& [u, v] : delta_.added) {
        tracker_->count(u);
        tracker_->count(v);
      }
      for (const auto& [u, v] : delta_.removed) {
        tracker_->count(u);
        tracker_->count(v);
      }
      tracker_->commit();
      // Stability-bucket changes dirty 2r around the host exactly like the
      // energy-key diff below (same marked-node filter, same locality
      // argument). This pass is what catches EWMA *decay*: a long-quiet
      // host's bucket can drop with no topology change anywhere near it,
      // so mover dirt alone would miss the key flip.
      const std::vector<double>& stab = tracker_->stability();
      const double dirt = 2.0 * tiles_.radius();
      for (std::size_t i = 0; i < stab.size(); ++i) {
        if (stab[i] != prev_stab_[i] && marked_.test(i)) {
          tiles_.mark_dirty_around(prev_positions_[i], dirt, dirty_tiles_);
        }
      }
      prev_stab_ = stab;
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
      const double dirt = 2.0 * tiles_.radius();
      for (std::size_t i = 0; i < keys.size(); ++i) {
        if (keys[i] != prev_keys_[i] && marked_.test(i)) {
          tiles_.mark_dirty_around(prev_positions_[i], dirt, dirty_tiles_);
        }
      }
      prev_keys_ = keys;
    }
    run_stages(keys);
  });
}

bool tiled_engine_eligible(const SimConfig& config) {
  return incremental_engine_eligible(config) &&
         config.cds_options.clique_policy == CliquePolicy::kNone;
}

}  // namespace pacds
