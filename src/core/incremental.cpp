#include "core/incremental.hpp"

#include <stdexcept>
#include <string>

#include "obs/metrics.hpp"

namespace pacds {

IncrementalCds::IncrementalCds(Graph g, RuleSet rs, std::vector<double> energy,
                               CliquePolicy clique_policy, ExecContext exec,
                               std::vector<double> stability)
    : graph_(std::move(g)),
      rule_set_(rs),
      energy_(std::move(energy)),
      stability_(std::move(stability)),
      clique_policy_(clique_policy),
      exec_(exec),
      marked_only_(static_cast<std::size_t>(graph_.num_nodes())),
      after_rule1_(static_cast<std::size_t>(graph_.num_nodes())),
      final_(static_cast<std::size_t>(graph_.num_nodes())),
      gateways_(static_cast<std::size_t>(graph_.num_nodes())),
      dirty_rows_(static_cast<std::size_t>(graph_.num_nodes())),
      dirty_keys_(static_cast<std::size_t>(graph_.num_nodes())),
      region_(static_cast<std::size_t>(graph_.num_nodes())),
      seed_(static_cast<std::size_t>(graph_.num_nodes())),
      touched_(static_cast<std::size_t>(graph_.num_nodes())),
      grow_src_(static_cast<std::size_t>(graph_.num_nodes())) {
  if (uses_energy(rule_set_) &&
      energy_.size() != static_cast<std::size_t>(graph_.num_nodes())) {
    throw std::invalid_argument(
        "IncrementalCds: energy-based scheme needs one level per node");
  }
  if (uses_stability(rule_set_)) {
    // Empty = "no churn observed yet": a fresh network starts all-stable.
    if (stability_.empty()) {
      stability_.assign(static_cast<std::size_t>(graph_.num_nodes()), 0.0);
    } else if (stability_.size() !=
               static_cast<std::size_t>(graph_.num_nodes())) {
      throw std::invalid_argument(
          "IncrementalCds: stability needs one estimate per node");
    }
  } else if (!stability_.empty()) {
    throw std::invalid_argument(
        "IncrementalCds: stability vector given but the scheme ignores it");
  }
  full_refresh();
}

void IncrementalCds::close_neighborhood(DynBitset& region) {
  grow_src_ = region;
  grow_src_.for_each_set([&](std::size_t i) {
    for (const NodeId x : graph_.neighbors(static_cast<NodeId>(i))) {
      region.set(static_cast<std::size_t>(x));
    }
  });
}

void IncrementalCds::propagate() {
  if (dirty_rows_.none() && dirty_keys_.none()) {
    last_touched_ = 0;
    return;
  }
  const obs::PhaseTimer timer(exec_.metrics, obs::Phase::kDeltaApply);
  const bool needs_energy = uses_energy(rule_set_);
  const PriorityKey key(key_kind_of(rule_set_), graph_,
                        needs_energy ? &energy_ : nullptr,
                        uses_stability(rule_set_) ? &stability_ : nullptr);
  // Each stage reads only the graph, the keys and the finished stage before
  // it, and writes only bit i of its outputs (its stage bitset, and seed_ in
  // the first two), so its region shards across the executor in
  // word-aligned pieces (for_each_set_sharded). The regions themselves are
  // grown serially: close_neighborhood writes neighbours' bits.
  Executor* exec = exec_.executor;

  // Stage 1 — marking over N[P]. Marking reads topology only, so key
  // changes (X) cannot flip it. seed_ accumulates the inputs of the next
  // stage: P, X, and the mark flips found here.
  region_ = dirty_rows_;
  close_neighborhood(region_);
  touched_ = region_;
  seed_ = dirty_rows_;
  seed_ |= dirty_keys_;
  for_each_set_sharded(exec, region_, [&](std::size_t i, std::size_t) {
    const bool m = marks_itself(graph_, static_cast<NodeId>(i));
    if (m != marked_only_.test(i)) {
      marked_only_.set(i, m);
      seed_.set(i);
    }
  });

  if (rule_set_ == RuleSet::kNR) {
    // No reduction rules: both downstream stages mirror the marking.
    region_.for_each_set([&](std::size_t i) {
      after_rule1_.set(i, marked_only_.test(i));
      final_.set(i, marked_only_.test(i));
    });
  } else {
    const Rule2Form form = rule2_form_of(rule_set_);
    // Stage 2 — Rule 1 decisions against the marking output, over
    // N[P ∪ X ∪ mark-flips]. seed_ is rebuilt for stage 3 with the Rule 1
    // flips (mark flips only matter downstream via Rule 1's output).
    region_ = seed_;
    close_neighborhood(region_);
    touched_ |= region_;
    seed_ = dirty_rows_;
    seed_ |= dirty_keys_;
    for_each_set_sharded(exec, region_, [&](std::size_t i, std::size_t) {
      const auto v = static_cast<NodeId>(i);
      const bool stays = marked_only_.test(i) &&
                         !rule1_would_unmark(graph_, marked_only_, key, v);
      if (stays != after_rule1_.test(i)) {
        after_rule1_.set(i, stays);
        seed_.set(i);
      }
    });
    // Stage 3 — Rule 2 decisions against the post-Rule-1 marks, over
    // N[P ∪ X ∪ rule1-flips].
    region_ = seed_;
    close_neighborhood(region_);
    touched_ |= region_;
    CdsWorkspace& ws = workspace();
    ws.reserve_neighbor_lanes(exec_.lanes(),
                              static_cast<std::size_t>(graph_.max_degree()));
    for_each_set_sharded(exec, region_, [&](std::size_t i, std::size_t lane) {
      const auto v = static_cast<NodeId>(i);
      const bool stays = after_rule1_.test(i) &&
                         !rule2_would_unmark(graph_, after_rule1_, key, form, v,
                                             ws.lane_neighbors[lane]);
      final_.set(i, stays);
    });
  }
  // The clique policy is component-global but O(n); reapply it wholesale.
  gateways_ = final_;
  apply_clique_policy(graph_, key, clique_policy_, gateways_);
  last_touched_ = touched_.count();
  if (exec_.metrics != nullptr) {
    exec_.metrics->add(obs::Counter::kLocalizedUpdates);
    exec_.metrics->add(obs::Counter::kNodesTouched, last_touched_);
  }
  dirty_rows_.reset_all();
  dirty_keys_.reset_all();
}

void IncrementalCds::full_refresh() {
  // Direct full-range recomputation of all three stages — equivalent to a
  // propagate() over an all-dirty region, minus the region bookkeeping, and
  // sharded across exec_.executor when one is set. Each pass evaluates the
  // same per-node decisions the localized updater would, so the stored stage
  // outputs are bit-identical either way.
  const bool needs_energy = uses_energy(rule_set_);
  const PriorityKey key(key_kind_of(rule_set_), graph_,
                        needs_energy ? &energy_ : nullptr,
                        uses_stability(rule_set_) ? &stability_ : nullptr);
  ExecContext pass_ctx = exec_;
  pass_ctx.workspace = &workspace();
  {
    const obs::PhaseTimer timer(exec_.metrics, obs::Phase::kMarking);
    marking_process_into(graph_, pass_ctx, marked_only_);
  }
  {
    const obs::PhaseTimer timer(exec_.metrics, obs::Phase::kRules);
    if (rule_set_ == RuleSet::kNR) {
      after_rule1_ = marked_only_;
      final_ = marked_only_;
    } else {
      simultaneous_rule1_pass_into(graph_, key, marked_only_, pass_ctx,
                                   after_rule1_);
      simultaneous_rule2_pass_into(graph_, key, rule2_form_of(rule_set_),
                                   after_rule1_, pass_ctx, final_);
    }
    gateways_ = final_;
    apply_clique_policy(graph_, key, clique_policy_, gateways_);
  }
  last_touched_ = static_cast<std::size_t>(graph_.num_nodes());
  if (exec_.metrics != nullptr) {
    exec_.metrics->add(obs::Counter::kFullRefreshes);
    exec_.metrics->add(obs::Counter::kNodesTouched, last_touched_);
  }
  dirty_rows_.reset_all();
  dirty_keys_.reset_all();
}

void IncrementalCds::ingest_delta(const EdgeDelta& delta) {
  for (const auto& [u, v] : delta.added) {
    if (!graph_.add_edge(u, v)) {
      throw std::invalid_argument("IncrementalCds::advance: edge {" +
                                  std::to_string(u) + "," + std::to_string(v) +
                                  "} already present");
    }
    dirty_rows_.set(static_cast<std::size_t>(u));
    dirty_rows_.set(static_cast<std::size_t>(v));
  }
  for (const auto& [u, v] : delta.removed) {
    if (!graph_.remove_edge(u, v)) {
      throw std::invalid_argument("IncrementalCds::advance: edge {" +
                                  std::to_string(u) + "," + std::to_string(v) +
                                  "} not present");
    }
    dirty_rows_.set(static_cast<std::size_t>(u));
    dirty_rows_.set(static_cast<std::size_t>(v));
  }
}

void IncrementalCds::ingest_energy(const std::vector<double>& energy) {
  if (!uses_energy(rule_set_)) {
    // Key ignores energy: store nothing, dirty nothing. (Callers may pass
    // an empty or full vector; either way statuses cannot change.)
    return;
  }
  if (energy.size() != static_cast<std::size_t>(graph_.num_nodes())) {
    throw std::invalid_argument(
        "IncrementalCds::advance: need one level per node");
  }
  for (std::size_t i = 0; i < energy.size(); ++i) {
    // Keys are only ever compared between marked nodes (Rule 1 candidates
    // and Rule 2 coverage pairs all carry the mark), so a key change at an
    // unmarked node cannot flip any decision and need not dirty anything.
    // A node that *becomes* marked is re-seeded by the mark-flip path, and
    // energy_ itself is always refreshed in full, so late readers (e.g. the
    // clique policy) still see current levels.
    if (energy[i] != energy_[i] && marked_only_.test(i)) dirty_keys_.set(i);
  }
  energy_.assign(energy.begin(), energy.end());
}

void IncrementalCds::ingest_stability(const std::vector<double>& stability) {
  if (!uses_stability(rule_set_)) {
    if (!stability.empty()) {
      throw std::invalid_argument(
          "IncrementalCds: stability vector given but the scheme ignores it");
    }
    return;
  }
  if (stability.size() != static_cast<std::size_t>(graph_.num_nodes())) {
    throw std::invalid_argument(
        "IncrementalCds: stability needs one estimate per node");
  }
  for (std::size_t i = 0; i < stability.size(); ++i) {
    // Same reasoning as ingest_energy: keys are only compared between
    // marked nodes, so only a marked node's changed estimate can flip a
    // decision; stability_ itself is refreshed in full below.
    if (stability[i] != stability_[i] && marked_only_.test(i)) {
      dirty_keys_.set(i);
    }
  }
  stability_.assign(stability.begin(), stability.end());
}

void IncrementalCds::advance(const EdgeDelta& delta,
                             const std::vector<double>& energy,
                             const std::vector<double>& stability) {
  // Ingest the topology first so the size checks and the keys all see the
  // post-delta graph, then resolve everything in one pass.
  ingest_delta(delta);
  ingest_energy(energy);
  ingest_stability(stability);
  propagate();
}

}  // namespace pacds
