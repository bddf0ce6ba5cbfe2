#include "sim/engine.hpp"

#include <algorithm>
#include <cmath>
#include <thread>

#include "baselines/cds22.hpp"
#include "core/verify.hpp"
#include "net/geometric.hpp"
#include "sim/config_json.hpp"
#include "sim/tiled_engine.hpp"

namespace pacds {
namespace {

/// Walks two sorted rows once, calling `gone(x)` for each x only in
/// `old_row` and `fresh(x)` for each x only in `new_row`.
template <typename Gone, typename Fresh>
void diff_sorted(std::span<const NodeId> old_row,
                 std::span<const NodeId> new_row, Gone&& gone,
                 Fresh&& fresh) {
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < old_row.size() || j < new_row.size()) {
    if (j == new_row.size() ||
        (i < old_row.size() && old_row[i] < new_row[j])) {
      gone(old_row[i++]);
    } else if (i == old_row.size() || new_row[j] < old_row[i]) {
      fresh(new_row[j++]);
    } else {
      ++i;
      ++j;
    }
  }
}

}  // namespace

void make_interval_pool(int threads, std::optional<ThreadPool>& pool) {
  std::size_t lanes = threads > 0 ? static_cast<std::size_t>(threads) : 1;
  if (threads == 0) {
    lanes = std::max(1u, std::thread::hardware_concurrency());
  }
  if (lanes > 1) pool.emplace(lanes - 1);
}

const std::vector<double>& quantize_key_levels(
    const std::vector<double>& levels, double quantum,
    std::vector<double>& scratch) {
  if (quantum <= 0.0) return levels;
  scratch.resize(levels.size());
  for (std::size_t i = 0; i < levels.size(); ++i) {
    scratch[i] = std::floor(levels[i] / quantum);
  }
  return scratch;
}

void build_sim_links(const SimConfig& config, const RadioModel* radio,
                     const std::vector<Vec2>& positions, LinkBuilder& builder,
                     Graph& out) {
  if (radio != nullptr) {
    build_radio_links_into(positions, config.radius, *radio, builder, out);
  } else {
    build_links_into(positions, config.radius, config.link_model, builder,
                     out);
  }
}

KeyKind key_kind_of(const SimConfig& config) {
  return config.custom_key ? *config.custom_key : key_kind_of(config.rule_set);
}

RuleConfig rules_of(const SimConfig& config) {
  if (!config.custom_key) {
    return rule_config_of(config.rule_set, config.cds_options.strategy);
  }
  RuleConfig rules;
  rules.rule2_form = config.custom_rule2_form;
  rules.use_rule_k = config.use_rule_k;
  rules.strategy = config.cds_options.strategy;
  return rules;
}

// ---- FullRebuildEngine -----------------------------------------------------

FullRebuildEngine::FullRebuildEngine(const SimConfig& config)
    : config_(config),
      kind_(key_kind_of(config)),
      rules_(rules_of(config)) {
  make_interval_pool(config_.threads, pool_);
  if (config_.radio != RadioKind::kUnitDisk) {
    radio_.emplace(config_.radio, config_.radio_params, config_.radius);
  }
  if (uses_stability(kind_)) {
    tracker_.emplace(static_cast<std::size_t>(config_.n_hosts),
                     config_.stability_beta, config_.stability_quantum);
  }
}

void FullRebuildEngine::update(const std::vector<Vec2>& positions,
                               const std::vector<double>& levels) {
  with_pool_accounting(pool_, [&] {
    {
      const obs::PhaseTimer timer(metrics_, obs::Phase::kLinkBuild);
      build_sim_links(config_, radio_ ? &*radio_ : nullptr, positions, links_,
                      spare_);
    }
    if (tracker_) {
      if (have_graph_) {
        // Diff each node's sorted row against last interval: every endpoint
        // of every changed edge accrues exactly one count — the same
        // accounting MovingLinks gets from counting both endpoints of its
        // delta edges, so the EWMA streams (and hence the SEL keys) agree
        // bit-for-bit across engines.
        const auto n = static_cast<NodeId>(positions.size());
        for (NodeId v = 0; v < n; ++v) {
          const auto count = [&](NodeId) { tracker_->count(v); };
          diff_sorted(graph_.neighbors(v), spare_.neighbors(v), count, count);
        }
      }
      tracker_->commit();
    }
    std::swap(graph_, spare_);
    have_graph_ = true;
    const auto& keys =
        quantize_key_levels(levels, config_.energy_key_quantum, key_scratch_);
    const std::vector<double> no_stability;
    const std::vector<double>& stability =
        tracker_ ? tracker_->stability() : no_stability;
    const ExecContext ctx{pool_ ? &*pool_ : nullptr, &workspace_, metrics_};
    compute_cds_custom_into(graph_, kind_, rules_, keys,
                            config_.cds_options.clique_policy, ctx, stability,
                            cds_);
  });
}

std::size_t FullRebuildEngine::last_touched() const {
  return cds_.gateways.size();
}

// ---- MovingLinks ----------------------------------------------------------

MovingLinks::MovingLinks(const SimConfig& config)
    : config_(config), moved_(static_cast<std::size_t>(config.n_hosts)) {
  if (config_.radio != RadioKind::kUnitDisk) {
    radio_.emplace(config_.radio, config_.radio_params, config_.radius);
  }
  if (uses_stability(key_kind_of(config_))) {
    tracker_.emplace(static_cast<std::size_t>(config_.n_hosts),
                     config_.stability_beta, config_.stability_quantum);
  }
}

void MovingLinks::reset(const std::vector<Vec2>& positions, Graph& out) {
  positions_ = positions;
  grid_.emplace(positions_, config_.radius > 0.0 ? config_.radius : 1.0);
  LinkBuilder builder;
  build_sim_links(config_, radio_ ? &*radio_ : nullptr, positions, builder,
                  out);
  if (tracker_) tracker_->commit();
}

void MovingLinks::advance(const std::vector<Vec2>& positions,
                          const Graph& last, obs::MetricsRegistry* metrics) {
  delta_.clear();
  moves_.clear();
  for (std::size_t i = 0; i < positions.size(); ++i) {
    if (positions[i] != positions_[i]) {
      moves_.push_back({static_cast<NodeId>(i), positions_[i]});
      moved_.set(i);
    }
  }
  // Re-file every mover first so neighborhood queries see the full new
  // configuration (the grid reads through positions_).
  for (const Move& move : moves_) {
    const auto i = static_cast<std::size_t>(move.host);
    grid_->move(move.host, move.from, positions[i]);
    positions_[i] = positions[i];
  }
  for (const Move& move : moves_) {
    const NodeId v = move.host;
    const Vec2 at = positions_[static_cast<std::size_t>(v)];
    grid_->query_into(at, config_.radius, v, nbrs_);
    // The stored rows are radio-filtered, so the candidate list must be
    // too, or the diff would re-add edges the channel vetoes. Safe pairwise
    // because the radio's fade is a pure hash of (seed, pair): re-evaluating
    // one mover's links cannot disturb anyone else's.
    if (radio_) {
      std::erase_if(nbrs_, [&](NodeId u) {
        return !radio_->link(
            v, u, distance2(at, positions_[static_cast<std::size_t>(u)]));
      });
    }
    // A pair whose endpoints both moved shows up in both diffs; keep it only
    // for the smaller endpoint. The kept pairs are the symmetric difference
    // of the two link sets, so counting both endpoints of each matches the
    // full rebuild's row-diff counts.
    const auto record = [&](std::vector<std::pair<NodeId, NodeId>>& pairs,
                            NodeId u) {
      if (moved_.test(static_cast<std::size_t>(u)) && u < v) return;
      pairs.emplace_back(v, u);
      if (tracker_) {
        tracker_->count(v);
        tracker_->count(u);
      }
    };
    diff_sorted(
        last.neighbors(v), nbrs_, [&](NodeId u) { record(delta_.removed, u); },
        [&](NodeId u) { record(delta_.added, u); });
  }
  for (const Move& m : moves_) moved_.reset(static_cast<std::size_t>(m.host));
  if (tracker_) tracker_->commit();
  if (metrics != nullptr) {
    metrics->add(obs::Counter::kEdgesAdded, delta_.added.size());
    metrics->add(obs::Counter::kEdgesRemoved, delta_.removed.size());
  }
}

// ---- IncrementalEngine -----------------------------------------------------

IncrementalEngine::IncrementalEngine(const SimConfig& config)
    : config_(config), links_(config) {
  make_interval_pool(config_.threads, pool_);
}

void IncrementalEngine::update(const std::vector<Vec2>& positions,
                               const std::vector<double>& levels) {
  with_pool_accounting(pool_, [&] {
    const auto& keys =
        quantize_key_levels(levels, config_.energy_key_quantum, key_scratch_);
    // The tracker's estimates, refreshed in place by each reset / advance.
    const std::vector<double> no_stability;
    const std::vector<double>& stability =
        links_.tracker() ? links_.tracker()->stability() : no_stability;
    if (!cds_) {
      Graph graph;
      {
        const obs::PhaseTimer timer(metrics_, obs::Phase::kLinkBuild);
        links_.reset(positions, graph);
      }
      cds_.emplace(
          std::move(graph), config_.rule_set,
          uses_energy(config_.rule_set) ? keys : std::vector<double>{},
          config_.cds_options.clique_policy,
          ExecContext{pool_ ? &*pool_ : nullptr, &workspace_, metrics_},
          stability);
      return;
    }
    {
      const obs::PhaseTimer timer(metrics_, obs::Phase::kDeltaExtract);
      links_.advance(positions, cds_->graph(), metrics_);
    }
    cds_->advance(links_.delta(), keys, stability);
  });
}

// ---- Cds22Engine -----------------------------------------------------------

Cds22Engine::Cds22Engine(const SimConfig& config) : config_(config) {
  if (config_.radio != RadioKind::kUnitDisk) {
    radio_.emplace(config_.radio, config_.radio_params, config_.radius);
  }
}

void Cds22Engine::update(const std::vector<Vec2>& positions,
                         const std::vector<double>& /*levels*/) {
  {
    const obs::PhaseTimer timer(metrics_, obs::Phase::kLinkBuild);
    if (!graph_) graph_.emplace();
    build_sim_links(config_, radio_ ? &*radio_ : nullptr, positions, links_,
                    *graph_);
  }
  // Keep the cached backbone while it still verifies as a plain CDS of the
  // current links. Deliberately *not* check_cds22: after a member crash the
  // survivors are no longer (2,2) but are still a valid CDS — demanding the
  // full property back would force exactly the repair round the (2,2)
  // backbone exists to avoid.
  if (have_backbone_ && check_cds(*graph_, backbone_).ok()) {
    last_recomputed_ = false;
    return;
  }
  const Cds22Result result = greedy_cds22(*graph_);
  backbone_ = result.backbone;
  full_22_ = result.full_22;
  have_backbone_ = true;
  last_recomputed_ = true;
  if (metrics_ != nullptr) {
    metrics_->add(obs::Counter::kFullRefreshes);
    metrics_->add(obs::Counter::kNodesTouched,
                  static_cast<std::uint64_t>(graph_->num_nodes()));
  }
}

std::size_t Cds22Engine::last_touched() const {
  return last_recomputed_ && graph_
             ? static_cast<std::size_t>(graph_->num_nodes())
             : 0;
}

// ---- Selection -------------------------------------------------------------

bool incremental_engine_eligible(const SimConfig& config) {
  return config.cds_options.strategy == Strategy::kSimultaneous &&
         !config.custom_key.has_value() &&
         config.link_model == LinkModel::kUnitDisk &&
         config.backbone == BackboneMode::kScheme;
}

std::unique_ptr<LifetimeEngine> make_lifetime_engine(const SimConfig& config) {
  checked_sim_config(config);
  if (config.backbone == BackboneMode::kCds22) {
    return std::make_unique<Cds22Engine>(config);
  }
  switch (config.engine) {
    case SimEngine::kFullRebuild:
      return std::make_unique<FullRebuildEngine>(config);
    case SimEngine::kIncremental:
      return std::make_unique<IncrementalEngine>(config);
    case SimEngine::kTiled:
      return std::make_unique<TiledEngine>(config);
    case SimEngine::kAuto:
      break;
  }
  if (incremental_engine_eligible(config)) {
    return std::make_unique<IncrementalEngine>(config);
  }
  return std::make_unique<FullRebuildEngine>(config);
}

std::string resolved_engine_name(const SimConfig& config) {
  if (config.backbone == BackboneMode::kCds22) return "cds22";
  switch (config.engine) {
    case SimEngine::kFullRebuild:
      return "full-rebuild";
    case SimEngine::kIncremental:
      return "incremental";
    case SimEngine::kTiled:
      return "tiled";
    case SimEngine::kAuto:
      break;
  }
  return incremental_engine_eligible(config) ? "incremental" : "full-rebuild";
}

}  // namespace pacds
