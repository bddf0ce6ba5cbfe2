#include "core/rules.hpp"

#include <bit>
#include <span>
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

// ---- Dense fast path -----------------------------------------------------
// With cached DynBitset rows available (DenseAdjacency, n <= 4096), the
// coverage tests run word by word on the rows through the core/simd
// primitives instead of merging sorted neighbor lists.

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

/// The refined Rule 2 case analysis for one pair (u, w) of marked neighbors
/// covering v (cov_u: N(u) ⊆ N(v) ∪ N(w), cov_w symmetric).
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

/// Rule 2 in either form over dense rows, shared by the flat dense sweep
/// and simultaneous pass: true iff some pair of v's marked neighbors
/// `cands` covers `vrow` = N(v) and passes the form's key test. Each pair
/// sees the same booleans as rule2_would_unmark's merges.
bool rule2_dense_fires(const PriorityKey& key, Rule2Form form, NodeId v,
                       const DynBitset& vrow,
                       std::span<const Rule2Candidate> cands) {
  const simd::Word* rv = vrow.words().data();
  const std::size_t nwords = vrow.words().size();
  const bool simple = form == Rule2Form::kSimple;
  for (std::size_t i = 0; i < cands.size(); ++i) {
    const Rule2Candidate& u = cands[i];
    for (std::size_t j = i + 1; j < cands.size(); ++j) {
      const Rule2Candidate& w = cands[j];
      if (!simd::is_subset_union(rv, u.row, w.row, nwords)) continue;
      if (simple ? key.is_min_of_three(v, u.id, w.id)
                 : rule2_refined_cases(
                       key, v, u.id, w.id,
                       simd::is_subset_union(u.row, rv, w.row, nwords),
                       simd::is_subset_union(w.row, u.row, rv, nwords))) {
        return true;
      }
    }
  }
  return false;
}

/// Dense-row twin of rule2_would_unmark (v already known marked). The
/// candidates are v's marked neighbors in ascending id order, read as
/// N(v) ∧ marked word by word; the pair decision is existential, so the
/// order is immaterial.
bool rule2_dense_would_unmark(const DenseAdjacency& dense,
                              const DynBitset& marked, const PriorityKey& key,
                              Rule2Form form, NodeId v,
                              std::vector<Rule2Candidate>& cands) {
  const DynBitset& row = dense.row(v);
  const auto& rw = row.words();
  const auto& mw = marked.words();
  cands.clear();
  for (std::size_t i = 0; i < rw.size(); ++i) {
    simd::Word w = rw[i] & mw[i];
    while (w != 0) {
      const auto c = static_cast<NodeId>(
          i * 64 + static_cast<std::size_t>(std::countr_zero(w)));
      cands.push_back({c, dense.row(c).words().data()});
      w &= w - 1;
    }
  }
  return rule2_dense_fires(key, form, v, row, cands);
}

/// Syncs the workspace dense cache against `g` and returns it when usable
/// (null without a workspace: the merge predicates run instead).
const DenseAdjacency* synced_dense(CdsWorkspace* ws, const Graph& g) {
  return ws != nullptr && ws->dense.sync(g) ? &ws->dense : nullptr;
}

/// One simultaneous pass: `fires(v, lane)` is evaluated for every marked v
/// against the frozen input `marked`, and the nodes that fire are cleared
/// in `next`. Decisions read only frozen state, so the marked set is split
/// across `exec` in word-aligned shards (for_each_set_sharded) and the
/// result is bit-identical to the serial pass for any thread count. Callers
/// pick `fires` once per pass.
template <class Fires>
void sharded_pass(const DynBitset& marked, Executor* exec, DynBitset& next,
                  const Fires& fires) {
  next = marked;
  for_each_set_sharded(exec, marked, [&](std::size_t i, std::size_t lane) {
    if (fires(static_cast<NodeId>(i), lane)) next.reset(i);
  });
}

/// One sweep in ascending key order, each removal taking effect at once.
/// No second sweep can remove anything: whether v fires depends on the
/// marked set only through v's marked neighbors (the coverage tests read
/// the graph and the keys), so it is monotone in that set, and so is
/// removal_is_safe; marks only shrink, so a node that did not fire — or was
/// unsafe — when visited never becomes removable later. Callers pick
/// `fires` once per sweep.
template <class Fires>
void sweep(const Graph& g, const std::vector<NodeId>& order, bool verified,
           DynBitset& marked, const Fires& fires) {
  for (const NodeId v : order) {
    if (!marked.test(static_cast<std::size_t>(v)) || !fires(v)) continue;
    if (verified && !removal_is_safe(g, marked, v)) continue;
    marked.reset(static_cast<std::size_t>(v));
  }
}

/// The sequential and verified strategies: one sweep with the configured
/// removal test.
void apply_sequential(const Graph& g, const PriorityKey& key,
                      const RuleConfig& config, CdsWorkspace& ws,
                      DynBitset& marked) {
  const bool verified = config.strategy == Strategy::kVerified;
  const DenseAdjacency* dense = synced_dense(&ws, g);
  key.ascending_order_into(ws.order);
  ws.reserve_lanes(1);
  if (config.use_rule_k) {
    RuleKLane& lane = ws.lane_rule_k[0];
    sweep(g, ws.order, verified, marked, [&](NodeId v) {
      return rule_k_would_unmark(g, marked, key, v, dense, lane);
    });
    return;
  }
  const bool rule1 = config.use_rule1;
  const bool rule2 = config.use_rule2;
  const Rule2Form form = config.rule2_form;
  if (dense != nullptr) {
    std::vector<Rule2Candidate>& cands = ws.lane_candidates[0];
    sweep(g, ws.order, verified, marked, [&](NodeId v) {
      return (rule1 && rule1_dense_would_unmark(g, *dense, marked, key, v)) ||
             (rule2 &&
              rule2_dense_would_unmark(*dense, marked, key, form, v, cands));
    });
  } else {
    std::vector<NodeId>& scratch = ws.lane_neighbors[0];
    sweep(g, ws.order, verified, marked, [&](NodeId v) {
      return (rule1 && rule1_would_unmark(g, marked, key, v)) ||
             (rule2 && rule2_would_unmark(g, marked, key, form, v, scratch));
    });
  }
}

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

bool rule2_would_unmark(const Graph& g, const DynBitset& marked,
                        const PriorityKey& key, Rule2Form form, NodeId v,
                        std::vector<NodeId>& scratch) {
  if (!marked.test(static_cast<std::size_t>(v))) return false;
  marked_neighbors(g, marked, v, scratch);
  const bool simple = form == Rule2Form::kSimple;
  for (std::size_t i = 0; i < scratch.size(); ++i) {
    for (std::size_t j = i + 1; j < scratch.size(); ++j) {
      const NodeId u = scratch[i];
      const NodeId w = scratch[j];
      if (simple) {
        if (key.is_min_of_three(v, u, w) && g.open_covered_by_pair(v, u, w)) {
          return true;
        }
      } else if (g.open_covered_by_pair(v, u, w) &&
                 rule2_refined_cases(key, v, u, w,
                                     g.open_covered_by_pair(u, v, w),
                                     g.open_covered_by_pair(w, u, v))) {
        return true;
      }
    }
  }
  return false;
}

bool rule2_would_unmark(const Graph& g, const DynBitset& marked,
                        const PriorityKey& key, Rule2Form form, NodeId v) {
  std::vector<NodeId> scratch;
  return rule2_would_unmark(g, marked, key, form, v, scratch);
}

bool rule_k_would_unmark(const Graph& g, const DynBitset& marked,
                         const PriorityKey& key, NodeId v,
                         const DenseAdjacency* dense, RuleKLane& scratch) {
  if (!marked.test(static_cast<std::size_t>(v))) return false;
  // Candidate covers: marked neighbors with strictly higher priority.
  std::vector<NodeId>& cands = scratch.cands;
  cands.clear();
  for (const NodeId u : g.neighbors(v)) {
    if (marked.test(static_cast<std::size_t>(u)) && key.less(v, u)) {
      cands.push_back(u);
    }
  }
  if (cands.empty()) return false;

  // Union-find over the candidate list: candidates are connected iff
  // adjacent in G (edges among N(v) are exactly what v's 2-hop info holds).
  std::vector<std::size_t>& parent = scratch.parent;
  parent.resize(cands.size());
  for (std::size_t i = 0; i < cands.size(); ++i) parent[i] = i;
  const auto find = [&parent](std::size_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  for (std::size_t i = 0; i < cands.size(); ++i) {
    for (std::size_t j = i + 1; j < cands.size(); ++j) {
      const bool adjacent =
          dense != nullptr
              ? dense->row(cands[i]).test(static_cast<std::size_t>(cands[j]))
              : g.has_edge(cands[i], cands[j]);
      if (adjacent) parent[find(i)] = find(j);
    }
  }
  for (std::size_t i = 0; i < cands.size(); ++i) parent[i] = find(i);
  // Per component, union the CLOSED neighborhoods and test coverage of
  // N(v). Closed unions make the |S| = 1 case equal Rule 1 (N[v] ⊆ N[u]);
  // for |S| >= 2 they coincide with the open unions because a connected S
  // has every member inside some other member's neighborhood. Components
  // take turns in one cover bitset: each starts at its lowest-index member,
  // and members are struck off (parent = `done`) as they are added.
  const std::size_t done = cands.size();
  DynBitset& cover = scratch.cover;
  for (std::size_t first = 0; first < cands.size(); ++first) {
    const std::size_t root = parent[first];
    if (root == done) continue;
    cover.resize_clear(static_cast<std::size_t>(g.num_nodes()));
    for (std::size_t i = first; i < cands.size(); ++i) {
      if (parent[i] != root) continue;
      parent[i] = done;
      if (dense != nullptr) {
        cover |= dense->row(cands[i]);
      } else {
        for (const NodeId x : g.neighbors(cands[i])) {
          cover.set(static_cast<std::size_t>(x));
        }
      }
      cover.set(static_cast<std::size_t>(cands[i]));
    }
    if (dense != nullptr) {
      if (dense->row(v).is_subset_of(cover)) return true;
      continue;
    }
    bool covered = true;
    for (const NodeId x : g.neighbors(v)) {
      if (!cover.test(static_cast<std::size_t>(x))) {
        covered = false;
        break;
      }
    }
    if (covered) return true;
  }
  return false;
}

bool rule_k_would_unmark(const Graph& g, const DynBitset& marked,
                         const PriorityKey& key, NodeId v,
                         const DenseAdjacency* dense) {
  RuleKLane scratch;
  return rule_k_would_unmark(g, marked, key, v, dense, scratch);
}

void simultaneous_rule1_pass_into(const Graph& g, const PriorityKey& key,
                                  const DynBitset& marked,
                                  const ExecContext& ctx, DynBitset& next) {
  const DenseAdjacency* dense = synced_dense(ctx.workspace, g);
  if (dense != nullptr) {
    sharded_pass(marked, ctx.executor, next, [&](NodeId v, std::size_t) {
      return rule1_dense_would_unmark(g, *dense, marked, key, v);
    });
  } else {
    sharded_pass(marked, ctx.executor, next, [&](NodeId v, std::size_t) {
      return rule1_would_unmark(g, marked, key, v);
    });
  }
}

void simultaneous_rule2_pass_into(const Graph& g, const PriorityKey& key,
                                  Rule2Form form, const DynBitset& marked,
                                  const ExecContext& ctx, DynBitset& next) {
  CdsWorkspace local;
  CdsWorkspace& ws = ctx.workspace != nullptr ? *ctx.workspace : local;
  ws.reserve_lanes(ctx.lanes());
  const DenseAdjacency* dense = synced_dense(ctx.workspace, g);
  if (dense != nullptr) {
    sharded_pass(marked, ctx.executor, next, [&](NodeId v, std::size_t lane) {
      return rule2_dense_would_unmark(*dense, marked, key, form, v,
                                      ws.lane_candidates[lane]);
    });
  } else {
    sharded_pass(marked, ctx.executor, next, [&](NodeId v, std::size_t lane) {
      return rule2_would_unmark(g, marked, key, form, v,
                                ws.lane_neighbors[lane]);
    });
  }
}

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

void apply_rules(const Graph& g, const PriorityKey& key,
                 const RuleConfig& config, const ExecContext& ctx,
                 DynBitset& marked) {
  CdsWorkspace local;
  CdsWorkspace& ws = ctx.workspace != nullptr ? *ctx.workspace : local;
  if (config.strategy != Strategy::kSimultaneous) {
    apply_sequential(g, key, config, ws, marked);
    return;
  }
  ExecContext pass_ctx = ctx;
  pass_ctx.workspace = &ws;
  // Stage double-buffering: build the next mark set in ws.stage, then swap
  // buffers — no per-pass bitset allocation once ws is warm.
  if (config.use_rule_k) {
    // One pass is the distributed semantics. Rule k's safety would permit
    // iterating to a fixpoint too, but the distributed algorithm runs once.
    const DenseAdjacency* dense = synced_dense(&ws, g);
    ws.reserve_lanes(ctx.lanes());
    sharded_pass(marked, ctx.executor, ws.stage,
                 [&](NodeId v, std::size_t lane) {
                   return rule_k_would_unmark(g, marked, key, v, dense,
                                              ws.lane_rule_k[lane]);
                 });
    std::swap(marked, ws.stage);
    return;
  }
  if (config.use_rule1) {
    simultaneous_rule1_pass_into(g, key, marked, pass_ctx, ws.stage);
    std::swap(marked, ws.stage);
  }
  if (config.use_rule2) {
    simultaneous_rule2_pass_into(g, key, config.rule2_form, marked, pass_ctx,
                                 ws.stage);
    std::swap(marked, ws.stage);
  }
}

void apply_rules(const Graph& g, const PriorityKey& key,
                 const RuleConfig& config, DynBitset& marked) {
  apply_rules(g, key, config, ExecContext{}, marked);
}

}  // namespace pacds
