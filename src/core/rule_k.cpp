#include "core/rule_k.hpp"

#include <stdexcept>
#include <vector>

#include "obs/metrics.hpp"

namespace pacds {

bool rule_k_would_unmark(const Graph& g, const DynBitset& marked,
                         const PriorityKey& key, NodeId v,
                         const DenseAdjacency* dense) {
  if (!marked.test(static_cast<std::size_t>(v))) return false;
  // Candidate covers: marked neighbors with strictly higher priority.
  std::vector<NodeId> cands;
  for (const NodeId u : g.neighbors(v)) {
    if (marked.test(static_cast<std::size_t>(u)) && key.less(v, u)) {
      cands.push_back(u);
    }
  }
  if (cands.empty()) return false;

  const auto n = static_cast<std::size_t>(g.num_nodes());
  // Union-find over the candidate list: candidates are connected iff
  // adjacent in G (edges among N(v) are exactly what v's 2-hop info holds).
  std::vector<std::size_t> parent(cands.size());
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
  // Per component, union the CLOSED neighborhoods and test coverage of
  // N(v). Closed unions make the |S| = 1 case equal Rule 1 (N[v] ⊆ N[u]);
  // for |S| >= 2 they coincide with the open unions because a connected S
  // has every member inside some other member's neighborhood.
  std::vector<DynBitset> unions(cands.size());
  for (std::size_t i = 0; i < cands.size(); ++i) {
    const std::size_t root = find(i);
    if (unions[root].size() == 0) unions[root] = DynBitset(n);
    if (dense != nullptr) {
      unions[root] |= dense->row(cands[i]);
    } else {
      for (const NodeId x : g.neighbors(cands[i])) {
        unions[root].set(static_cast<std::size_t>(x));
      }
    }
    unions[root].set(static_cast<std::size_t>(cands[i]));
  }
  for (std::size_t i = 0; i < cands.size(); ++i) {
    if (find(i) != i) continue;  // not a component root
    if (dense != nullptr) {
      if (dense->row(v).is_subset_of(unions[i])) return true;
      continue;
    }
    bool covered = true;
    for (const NodeId x : g.neighbors(v)) {
      if (!unions[i].test(static_cast<std::size_t>(x))) {
        covered = false;
        break;
      }
    }
    if (covered) return true;
  }
  return false;
}

void simultaneous_rule_k_pass_into(const Graph& g, const PriorityKey& key,
                                   const DynBitset& marked,
                                   const ExecContext& ctx, DynBitset& next) {
  next = marked;
  const DenseAdjacency* dense =
      ctx.workspace != nullptr && ctx.workspace->dense.sync(g)
          ? &ctx.workspace->dense
          : nullptr;
  auto body = [&](std::size_t begin, std::size_t end, std::size_t /*lane*/) {
    marked.for_each_set_in_range(begin, end, [&](std::size_t i) {
      if (rule_k_would_unmark(g, marked, key, static_cast<NodeId>(i), dense)) {
        next.reset(i);
      }
    });
  };
  run_sharded(ctx.executor, marked.size(), DynBitset::kWordBits, body);
}

void simultaneous_rule_k_pass_into(const Graph& g, const PriorityKey& key,
                                   const DynBitset& marked, Executor* exec,
                                   DynBitset& next) {
  ExecContext ctx;
  ctx.executor = exec;
  simultaneous_rule_k_pass_into(g, key, marked, ctx, next);
}

DynBitset simultaneous_rule_k_pass(const Graph& g, const PriorityKey& key,
                                   const DynBitset& marked) {
  DynBitset next;
  simultaneous_rule_k_pass_into(g, key, marked, nullptr, next);
  return next;
}

void apply_rule_k(const Graph& g, const PriorityKey& key, Strategy strategy,
                  const ExecContext& ctx, DynBitset& marked) {
  CdsWorkspace local;
  CdsWorkspace& ws = ctx.workspace != nullptr ? *ctx.workspace : local;
  switch (strategy) {
    case Strategy::kSimultaneous: {
      // One pass is the distributed semantics; iterating to a fixpoint only
      // removes nodes whose covers shrank, which the safety argument also
      // permits. We run a single pass for fidelity with the distributed
      // algorithm.
      ExecContext pass_ctx = ctx;
      pass_ctx.workspace = &ws;
      simultaneous_rule_k_pass_into(g, key, marked, pass_ctx, ws.stage);
      std::swap(marked, ws.stage);
      return;
    }
    case Strategy::kSequential:
    case Strategy::kVerified: {
      // One sweep in ascending key order reaches the fixpoint (see the
      // header); Rule k removals are provably safe, so kVerified needs no
      // extra checking.
      const DenseAdjacency* dense = ws.dense.sync(g) ? &ws.dense : nullptr;
      key.ascending_order_into(ws.order);
      for (const NodeId v : ws.order) {
        if (marked.test(static_cast<std::size_t>(v)) &&
            rule_k_would_unmark(g, marked, key, v, dense)) {
          marked.reset(static_cast<std::size_t>(v));
        }
      }
      return;
    }
  }
}

void apply_rule_k(const Graph& g, const PriorityKey& key, Strategy strategy,
                  DynBitset& marked) {
  apply_rule_k(g, key, strategy, ExecContext{}, marked);
}

void compute_cds_rule_k_into(const Graph& g, KeyKind kind,
                             const std::vector<double>& energy,
                             Strategy strategy, CliquePolicy clique_policy,
                             const ExecContext& ctx,
                             const std::vector<double>& stability,
                             CdsResult& out) {
  const bool needs_energy = kind == KeyKind::kEnergyId ||
                            kind == KeyKind::kEnergyDegreeId ||
                            kind == KeyKind::kStabilityEnergyId;
  if (needs_energy &&
      energy.size() != static_cast<std::size_t>(g.num_nodes())) {
    throw std::invalid_argument(
        "compute_cds_rule_k: energy-based key needs one level per node");
  }
  if (!stability.empty() &&
      stability.size() != static_cast<std::size_t>(g.num_nodes())) {
    throw std::invalid_argument(
        "compute_cds_rule_k: stability vector needs one estimate per node");
  }
  const PriorityKey key(kind, g, needs_energy ? &energy : nullptr,
                        stability.empty() ? nullptr : &stability);
  // One workspace for the whole pipeline, as in compute_cds_custom, so
  // marking and the Rule k pass share a single dense-row sync.
  CdsWorkspace local_ws;
  ExecContext run_ctx = ctx;
  if (run_ctx.workspace == nullptr) run_ctx.workspace = &local_ws;
  {
    const obs::PhaseTimer timer(ctx.metrics, obs::Phase::kMarking);
    marking_process_into(g, run_ctx, out.marked_only);
  }
  out.marked_count = out.marked_only.count();
  out.gateways = out.marked_only;
  {
    const obs::PhaseTimer timer(ctx.metrics, obs::Phase::kRules);
    apply_rule_k(g, key, strategy, run_ctx, out.gateways);
    apply_clique_policy(g, key, clique_policy, out.gateways);
  }
  out.gateway_count = out.gateways.count();
  if (ctx.metrics != nullptr) {
    ctx.metrics->add(obs::Counter::kFullRefreshes);
    ctx.metrics->add(obs::Counter::kNodesTouched,
                     static_cast<std::uint64_t>(g.num_nodes()));
  }
}

CdsResult compute_cds_rule_k(const Graph& g, KeyKind kind,
                             const std::vector<double>& energy,
                             Strategy strategy, CliquePolicy clique_policy,
                             const ExecContext& ctx,
                             const std::vector<double>& stability) {
  CdsResult result;
  compute_cds_rule_k_into(g, kind, energy, strategy, clique_policy, ctx,
                          stability, result);
  return result;
}

}  // namespace pacds
