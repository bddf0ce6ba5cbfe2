#include "core/marking.hpp"

#include <vector>

namespace pacds {

bool marks_itself(const Graph& g, NodeId v) {
  // v marks itself iff some pair of its neighbors is non-adjacent, i.e.
  // some neighbor u fails to cover the rest of N(v): N(v) ⊄ N[u].
  // One sorted-merge coverage scan per neighbor, early-exiting on the first
  // witness pair.
  for (const NodeId u : g.neighbors(v)) {
    if (!g.open_covered_by_closed(v, u)) return true;
  }
  return false;
}

namespace {

/// Dense-row twin of marks_itself: same decision, word-parallel subset
/// tests against the cached rows.
bool marks_itself_dense(const Graph& g, const DenseAdjacency& dense,
                        NodeId v) {
  const DynBitset& nv = dense.row(v);
  for (const NodeId u : g.neighbors(v)) {
    if (!nv.is_subset_of_except(dense.row(u), static_cast<std::size_t>(u))) {
      return true;
    }
  }
  return false;
}

}  // namespace

void marking_process_into(const Graph& g, const ExecContext& ctx,
                          DynBitset& marked) {
  const auto n = static_cast<std::size_t>(g.num_nodes());
  marked.resize_clear(n);
  const DenseAdjacency* dense =
      ctx.workspace != nullptr && ctx.workspace->dense.sync(g)
          ? &ctx.workspace->dense
          : nullptr;
  auto body = [&g, &marked, dense](std::size_t begin, std::size_t end,
                                   std::size_t /*lane*/) {
    for (std::size_t i = begin; i < end; ++i) {
      const auto v = static_cast<NodeId>(i);
      const bool m =
          dense != nullptr ? marks_itself_dense(g, *dense, v) : marks_itself(g, v);
      if (m) marked.set(i);
    }
  };
  run_sharded(ctx.executor, n, DynBitset::kWordBits, body);
}

DynBitset marking_process(const Graph& g) {
  DynBitset marked;
  marking_process_into(g, ExecContext{}, marked);
  return marked;
}

void apply_clique_policy(const Graph& g, const PriorityKey& key,
                         CliquePolicy policy, DynBitset& marked) {
  if (policy == CliquePolicy::kNone) return;
  const auto comp = g.components();
  const NodeId ncomp = Graph::count_components(comp);
  // Track, per component, whether any node is marked and its key-max node.
  std::vector<char> has_marked(static_cast<std::size_t>(ncomp), 0);
  std::vector<NodeId> best(static_cast<std::size_t>(ncomp), -1);
  std::vector<NodeId> size(static_cast<std::size_t>(ncomp), 0);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto c = static_cast<std::size_t>(comp[static_cast<std::size_t>(v)]);
    ++size[c];
    if (marked.test(static_cast<std::size_t>(v))) has_marked[c] = 1;
    if (best[c] < 0 || key.less(best[c], v)) best[c] = v;
  }
  for (std::size_t c = 0; c < static_cast<std::size_t>(ncomp); ++c) {
    if (!has_marked[c] && size[c] >= 2) {
      marked.set(static_cast<std::size_t>(best[c]));
    }
  }
}

}  // namespace pacds
