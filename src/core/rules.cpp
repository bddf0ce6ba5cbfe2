#include "core/rules.hpp"

#include <bit>
#include <vector>

#include "core/verify.hpp"

namespace pacds {

bool rule1_would_unmark(const Graph& g, const DynBitset& marked,
                        const PriorityKey& key, NodeId v) {
  if (!marked.test(static_cast<std::size_t>(v))) return false;
  for (const NodeId u : g.neighbors(v)) {
    if (!marked.test(static_cast<std::size_t>(u))) continue;
    if (key.less(v, u) && g.closed_covered_by(v, u)) return true;
  }
  return false;
}

namespace {

/// Collects the currently-marked neighbors of v into `out` (reused buffer).
void marked_neighbors(const Graph& g, const DynBitset& marked, NodeId v,
                      std::vector<NodeId>& out) {
  out.clear();
  for (const NodeId u : g.neighbors(v)) {
    if (marked.test(static_cast<std::size_t>(u))) out.push_back(u);
  }
}

/// Dense-row variant: N(v) ∧ marked word by word, iterating set bits. Same
/// candidate SET as marked_neighbors, in ascending id order — the pair
/// decision is existential over unordered pairs, so order is immaterial.
void marked_neighbors_dense(const DynBitset& row, const DynBitset& marked,
                            std::vector<NodeId>& out) {
  out.clear();
  const auto& rw = row.words();
  const auto& mw = marked.words();
  const std::size_t n = std::min(rw.size(), mw.size());
  for (std::size_t i = 0; i < n; ++i) {
    simd::Word w = rw[i] & mw[i];
    while (w != 0) {
      out.push_back(static_cast<NodeId>(
          i * 64 + static_cast<std::size_t>(std::countr_zero(w))));
      w &= w - 1;
    }
  }
}

// ---- Dense fast path -----------------------------------------------------
// With cached DynBitset rows available (DenseAdjacency, small n), the pair
// loop runs through the blocked engine (rule2_blocked.hpp): residuals
// N(v) \ N(u) are built once per candidate in L1-sized blocks and every
// coverage row is streamed once per block instead of once per pair, with
// all word traffic going through the core/simd word primitives. On unit-disk
// instances most candidate pairs still die on the popcount-vs-degree gate
// or the first residual word.

/// Dense-row twin of rule1_would_unmark (v already known marked). With
/// u ∈ N(v), N[v] ⊆ N[u] reduces to N(v) \ {u} ⊆ N(u).
bool rule1_dense_would_unmark(const Graph& g, const DenseAdjacency& dense,
                              const DynBitset& marked, const PriorityKey& key,
                              NodeId v) {
  const DynBitset& rv = dense.row(v);
  for (const NodeId u : g.neighbors(v)) {
    if (!marked.test(static_cast<std::size_t>(u))) continue;
    if (key.less(v, u) &&
        rv.is_subset_of_except(dense.row(u), static_cast<std::size_t>(u))) {
      return true;
    }
  }
  return false;
}

/// Blocked-engine geometry over the dense full-graph rows: candidates are
/// the marked neighbors of v (global ids in `scratch`).
struct DenseRule2Env {
  const Graph& g;
  const DenseAdjacency& dense;
  const PriorityKey& key;
  NodeId v;
  const std::vector<NodeId>& cands;

  [[nodiscard]] const simd::Word* vrow() const {
    return dense.row(v).words().data();
  }
  [[nodiscard]] const simd::Word* row(std::size_t i) const {
    return dense.row(cands[i]).words().data();
  }
  [[nodiscard]] std::size_t degree(std::size_t i) const {
    return static_cast<std::size_t>(g.degree(cands[i]));
  }
  [[nodiscard]] bool min3(std::size_t i, std::size_t j) const {
    return key.is_min_of_three(v, cands[i], cands[j]);
  }
  [[nodiscard]] bool refined_cases(std::size_t i, std::size_t j, bool cov_u,
                                   bool cov_w) const {
    return rule2_refined_cases(key, v, cands[i], cands[j], cov_u, cov_w);
  }
};

/// Dense-row twin of rule2_{simple,refined}_would_unmark (v already known
/// marked). Decision-identical to the merge-based predicates: the pair
/// decision is existential, and each pair sees the same coverage tests and
/// refined case analysis.
bool rule2_dense_would_unmark(const Graph& g, const DenseAdjacency& dense,
                              const DynBitset& marked, const PriorityKey& key,
                              Rule2Form form, NodeId v,
                              std::vector<NodeId>& scratch,
                              CdsWorkspace::Rule2Lane& lane) {
  marked_neighbors_dense(dense.row(v), marked, scratch);
  if (scratch.size() < 2) return false;
  const DenseRule2Env env{g, dense, key, v, scratch};
  return rule2_blocked_fires(env, scratch.size(),
                             dense.row(v).words().size(),
                             form == Rule2Form::kSimple, lane);
}

/// Syncs the workspace dense cache against `g` and returns it when usable.
const DenseAdjacency* synced_dense(const ExecContext& ctx, const Graph& g) {
  if (ctx.workspace == nullptr) return nullptr;
  return ctx.workspace->dense.sync(g) ? &ctx.workspace->dense : nullptr;
}

}  // namespace

/// Case 1: neither competitor covered -> v yields unconditionally.
/// Case 2: exactly one covered        -> v yields iff it loses to that one.
/// Case 3: both covered               -> v yields iff strict key-min.
bool rule2_refined_cases(const PriorityKey& key, NodeId v, NodeId u, NodeId w,
                         bool cov_u, bool cov_w) {
  if (!cov_u && !cov_w) return true;
  if (cov_u && !cov_w) return key.less(v, u);
  if (cov_w && !cov_u) return key.less(v, w);
  return key.less(v, u) && key.less(v, w);
}

bool rule2_simple_would_unmark(const Graph& g, const DynBitset& marked,
                               const PriorityKey& key, NodeId v,
                               std::vector<NodeId>& scratch) {
  if (!marked.test(static_cast<std::size_t>(v))) return false;
  marked_neighbors(g, marked, v, scratch);
  for (std::size_t i = 0; i < scratch.size(); ++i) {
    for (std::size_t j = i + 1; j < scratch.size(); ++j) {
      const NodeId u = scratch[i];
      const NodeId w = scratch[j];
      if (!key.is_min_of_three(v, u, w)) continue;
      if (g.open_covered_by_pair(v, u, w)) return true;
    }
  }
  return false;
}

bool rule2_refined_would_unmark(const Graph& g, const DynBitset& marked,
                                const PriorityKey& key, NodeId v,
                                std::vector<NodeId>& scratch) {
  if (!marked.test(static_cast<std::size_t>(v))) return false;
  marked_neighbors(g, marked, v, scratch);
  for (std::size_t i = 0; i < scratch.size(); ++i) {
    for (std::size_t j = i + 1; j < scratch.size(); ++j) {
      const NodeId u = scratch[i];
      const NodeId w = scratch[j];
      if (!g.open_covered_by_pair(v, u, w)) continue;
      const bool cov_u = g.open_covered_by_pair(u, v, w);
      const bool cov_w = g.open_covered_by_pair(w, u, v);
      if (rule2_refined_cases(key, v, u, w, cov_u, cov_w)) return true;
    }
  }
  return false;
}

bool rule2_simple_would_unmark(const Graph& g, const DynBitset& marked,
                               const PriorityKey& key, NodeId v) {
  std::vector<NodeId> scratch;
  return rule2_simple_would_unmark(g, marked, key, v, scratch);
}

bool rule2_refined_would_unmark(const Graph& g, const DynBitset& marked,
                                const PriorityKey& key, NodeId v) {
  std::vector<NodeId> scratch;
  return rule2_refined_would_unmark(g, marked, key, v, scratch);
}

bool rule2_would_unmark(const Graph& g, const DynBitset& marked,
                        const PriorityKey& key, Rule2Form form, NodeId v,
                        std::vector<NodeId>& scratch) {
  return form == Rule2Form::kSimple
             ? rule2_simple_would_unmark(g, marked, key, v, scratch)
             : rule2_refined_would_unmark(g, marked, key, v, scratch);
}

bool rule2_would_unmark(const Graph& g, const DynBitset& marked,
                        const PriorityKey& key, Rule2Form form, NodeId v) {
  std::vector<NodeId> scratch;
  return rule2_would_unmark(g, marked, key, form, v, scratch);
}

void simultaneous_rule1_pass_into(const Graph& g, const PriorityKey& key,
                                  const DynBitset& marked,
                                  const ExecContext& ctx, DynBitset& next) {
  next = marked;
  const DenseAdjacency* dense = synced_dense(ctx, g);
  auto body = [&](std::size_t begin, std::size_t end, std::size_t /*lane*/) {
    marked.for_each_set_in_range(begin, end, [&](std::size_t i) {
      const auto v = static_cast<NodeId>(i);
      const bool fires =
          dense != nullptr ? rule1_dense_would_unmark(g, *dense, marked, key, v)
                           : rule1_would_unmark(g, marked, key, v);
      if (fires) next.reset(i);
    });
  };
  run_sharded(ctx.executor, marked.size(), DynBitset::kWordBits, body);
}

void simultaneous_rule1_pass_into(const Graph& g, const PriorityKey& key,
                                  const DynBitset& marked, Executor* exec,
                                  DynBitset& next) {
  ExecContext ctx;
  ctx.executor = exec;
  simultaneous_rule1_pass_into(g, key, marked, ctx, next);
}

void simultaneous_rule2_pass_into(const Graph& g, const PriorityKey& key,
                                  Rule2Form form, const DynBitset& marked,
                                  const ExecContext& ctx, DynBitset& next) {
  next = marked;
  const std::size_t lanes = ctx.lanes();
  CdsWorkspace local;
  CdsWorkspace& ws = ctx.workspace != nullptr ? *ctx.workspace : local;
  if (ws.lane_neighbors.size() < lanes) ws.lane_neighbors.resize(lanes);
  if (ws.lane_residuals.size() < lanes) ws.lane_residuals.resize(lanes);
  const DenseAdjacency* dense =
      ws.dense.sync(g) ? &ws.dense : nullptr;
  auto body = [&](std::size_t begin, std::size_t end, std::size_t lane) {
    std::vector<NodeId>& scratch = ws.lane_neighbors[lane];
    CdsWorkspace::Rule2Lane& resid = ws.lane_residuals[lane];
    marked.for_each_set_in_range(begin, end, [&](std::size_t i) {
      const auto v = static_cast<NodeId>(i);
      const bool fires =
          dense != nullptr
              ? rule2_dense_would_unmark(g, *dense, marked, key, form, v,
                                         scratch, resid)
              : rule2_would_unmark(g, marked, key, form, v, scratch);
      if (fires) next.reset(i);
    });
  };
  run_sharded(ctx.executor, marked.size(), DynBitset::kWordBits, body);
}

namespace {

/// Workspace for the convenience (context-free) pass entry points. Without
/// it every call would rebuild the version-keyed dense row cache from
/// scratch, defeating its "repeated passes over an unchanged graph pay the
/// build exactly once" contract; a thread-local keeps the wrappers pure
/// while letting back-to-back passes hit the cache.
CdsWorkspace& convenience_workspace() {
  static thread_local CdsWorkspace ws;
  return ws;
}

}  // namespace

DynBitset simultaneous_rule1_pass(const Graph& g, const PriorityKey& key,
                                  const DynBitset& marked) {
  DynBitset next;
  ExecContext ctx;
  ctx.workspace = &convenience_workspace();
  simultaneous_rule1_pass_into(g, key, marked, ctx, next);
  return next;
}

DynBitset simultaneous_rule2_pass(const Graph& g, const PriorityKey& key,
                                  Rule2Form form, const DynBitset& marked) {
  DynBitset next;
  ExecContext ctx;
  ctx.workspace = &convenience_workspace();
  simultaneous_rule2_pass_into(g, key, form, marked, ctx, next);
  return next;
}

namespace {

/// One sweep in ascending key order, each removal taking effect at once.
/// No second sweep can remove anything: whether v fires depends on the
/// marked set only through v's marked neighbors (the coverage tests read
/// the graph and the keys), so it is monotone in that set, and so is
/// removal_is_safe; marks only shrink, so a node that did not fire — or was
/// unsafe — when visited never becomes removable later.
void apply_sequential(const Graph& g, const PriorityKey& key,
                      const RuleConfig& config, bool verified,
                      CdsWorkspace& ws, DynBitset& marked) {
  if (ws.lane_neighbors.empty()) ws.lane_neighbors.resize(1);
  if (ws.lane_residuals.empty()) ws.lane_residuals.resize(1);
  std::vector<NodeId>& scratch = ws.lane_neighbors[0];
  CdsWorkspace::Rule2Lane& resid = ws.lane_residuals[0];
  const DenseAdjacency* dense = ws.dense.sync(g) ? &ws.dense : nullptr;
  const auto fires = [&](NodeId v) {
    if (dense != nullptr) {
      return (config.use_rule1 &&
              rule1_dense_would_unmark(g, *dense, marked, key, v)) ||
             (config.use_rule2 &&
              rule2_dense_would_unmark(g, *dense, marked, key,
                                       config.rule2_form, v, scratch, resid));
    }
    return (config.use_rule1 && rule1_would_unmark(g, marked, key, v)) ||
           (config.use_rule2 && rule2_would_unmark(g, marked, key,
                                                   config.rule2_form, v,
                                                   scratch));
  };
  key.ascending_order_into(ws.order);
  for (const NodeId v : ws.order) {
    if (!marked.test(static_cast<std::size_t>(v)) || !fires(v)) continue;
    if (verified && !removal_is_safe(g, marked, v)) continue;
    marked.reset(static_cast<std::size_t>(v));
  }
}

}  // namespace

void apply_rules(const Graph& g, const PriorityKey& key,
                 const RuleConfig& config, const ExecContext& ctx,
                 DynBitset& marked) {
  CdsWorkspace local;
  CdsWorkspace& ws = ctx.workspace != nullptr ? *ctx.workspace : local;
  switch (config.strategy) {
    case Strategy::kSimultaneous: {
      ExecContext pass_ctx = ctx;
      pass_ctx.workspace = &ws;
      // Stage double-buffering: build the next mark set in ws.stage, then
      // swap buffers — no per-pass bitset allocation once ws is warm.
      if (config.use_rule1) {
        simultaneous_rule1_pass_into(g, key, marked, pass_ctx, ws.stage);
        std::swap(marked, ws.stage);
      }
      if (config.use_rule2) {
        simultaneous_rule2_pass_into(g, key, config.rule2_form, marked,
                                     pass_ctx, ws.stage);
        std::swap(marked, ws.stage);
      }
      return;
    }
    case Strategy::kSequential:
      apply_sequential(g, key, config, /*verified=*/false, ws, marked);
      return;
    case Strategy::kVerified:
      apply_sequential(g, key, config, /*verified=*/true, ws, marked);
      return;
  }
}

void apply_rules(const Graph& g, const PriorityKey& key,
                 const RuleConfig& config, DynBitset& marked) {
  apply_rules(g, key, config, ExecContext{}, marked);
}

}  // namespace pacds
