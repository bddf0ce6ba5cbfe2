#include "baselines/bb_mcds.hpp"

#include <algorithm>
#include <iostream>
#include <limits>
#include <utility>
#include <vector>

#include "baselines/greedy_mcds.hpp"
#include "baselines/mis_cds.hpp"
#include "baselines/tree_cds.hpp"
#include "core/articulation.hpp"
#include "core/verify.hpp"

namespace pacds {

namespace {

/// Branch-and-bound over one connected, non-complete component. All bitsets
/// are sized to the component; the driver maps members back to the parent
/// graph afterwards. Every dfs level owns a preallocated frame of scratch
/// bitsets (depth == |included|, bounded by the incumbent size), so the hot
/// path performs no heap allocation: same-size DynBitset copy-assignment
/// reuses capacity.
class ComponentSolver {
 public:
  ComponentSolver(const Graph& g, std::uint64_t budget, std::uint64_t& nodes)
      : g_(g),
        n_(static_cast<std::size_t>(g.num_nodes())),
        budget_(budget),
        nodes_(nodes),
        all_(n_),
        best_(n_) {
    all_.set_all();
    closed_.reserve(n_);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      closed_.push_back(g.closed_row(v));
    }
    // Distance-2 balls drive the 2-packing lower bound: two undominated
    // vertices with disjoint balls can never share a dominator.
    ball2_.reserve(n_);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      DynBitset ball = closed_[static_cast<std::size_t>(v)];
      for (const NodeId u : g.neighbors(v)) {
        ball |= closed_[static_cast<std::size_t>(u)];
      }
      ball2_.push_back(std::move(ball));
    }
  }

  /// Best CDS of the component, or nullopt when the node budget ran out.
  std::optional<DynBitset> solve() {
    best_ = pick_incumbent();
    best_size_ = best_.count();

    frames_.resize(best_size_ + 2);
    for (Frame& frame : frames_) frame.init(n_);

    Frame& root = frames_[0];
    root.included.reset_all();
    root.excluded.reset_all();
    root.dominated.reset_all();
    // Every cut vertex belongs to every CDS of a connected non-complete
    // graph: each component of G - v holds a vertex the set must reach, and
    // only v joins them. Forcing them up front shrinks the search tree and
    // often dominates most of the graph for free.
    articulation_points(g_).for_each_set([&](std::size_t v) {
      root.included.set(v);
      root.dominated |= closed_[v];
    });
    aborted_ = false;
    dfs(0);
    if (aborted_) return std::nullopt;
    return best_;
  }

 private:
  struct Frame {
    DynBitset included, excluded, dominated;
    DynBitset undominated, reach, frontier, next, uncoverable, covered_now;
    DynBitset frontier_layer, candidates, scratch, rest;
    std::vector<std::pair<std::size_t, std::size_t>> order;
    std::vector<std::size_t> coverages;

    void init(std::size_t n) {
      for (DynBitset* bits :
           {&included, &excluded, &dominated, &undominated, &reach, &frontier,
            &next, &uncoverable, &covered_now, &frontier_layer, &candidates,
            &scratch, &rest}) {
        *bits = DynBitset(n);
      }
    }
  };

  DynBitset pick_incumbent() const {
    // The full vertex set is always a CDS of a connected graph; each
    // heuristic usually lands within one or two of the optimum, and the
    // local-search polish often closes the rest — the tighter the incumbent,
    // the less of the tree the search has to visit just to find solutions.
    DynBitset best = all_;
    const DynBitset candidates[] = {greedy_mcds(g_), bfs_tree_cds(g_),
                                    mis_cds(g_)};
    for (const DynBitset& candidate : candidates) {
      if (candidate.count() < best.count() && check_cds(g_, candidate).ok()) {
        best = candidate;
      }
    }
    improve_incumbent(best);
    return best;
  }

  /// Local search: drop removable members, then 2-for-1 exchanges (remove
  /// two members, add one non-member) until neither fires.
  void improve_incumbent(DynBitset& best) const {
    bool improved = true;
    while (improved) {
      improved = false;
      for (std::size_t v = best.find_first(); v != best.size();
           v = best.find_next(v)) {
        if (removal_is_safe(g_, best, static_cast<NodeId>(v))) {
          best.reset(v);
          improved = true;
        }
      }
      if (improved) continue;
      for (std::size_t v = best.find_first();
           v != best.size() && !improved; v = best.find_next(v)) {
        for (std::size_t w = best.find_next(v);
             w != best.size() && !improved; w = best.find_next(w)) {
          for (std::size_t x = 0; x < n_ && !improved; ++x) {
            if (best.test(x)) continue;
            DynBitset trial = best;
            trial.reset(v);
            trial.reset(w);
            trial.set(x);
            if (check_cds(g_, trial).ok()) {
              best = trial;
              improved = true;
            }
          }
        }
      }
    }
  }

  /// True iff the members of `set` induce a connected subgraph.
  bool connected_in(const DynBitset& set) const {
    const std::size_t start = set.find_first();
    if (start == set.size()) return true;
    return member_component(set, start) == set;
  }

  /// Component of G[set] containing `start` (a member), as a bitset.
  DynBitset member_component(const DynBitset& set, std::size_t start) const {
    DynBitset reach(n_);
    reach.set(start);
    DynBitset frontier = reach;
    DynBitset next(n_);
    while (frontier.any()) {
      next.reset_all();
      frontier.for_each_set([&](std::size_t v) { next |= closed_[v]; });
      next &= set;
      next.subtract(reach);
      reach |= next;
      frontier = next;
    }
    return reach;
  }

  /// Lower bound on the number of additional members needed to dominate
  /// frame.undominated: max of the best-single-cover bound and a greedy
  /// 2-packing (vertices pairwise farther than two hops need distinct new
  /// dominators). Returns kInfeasible when no candidate can cover at all.
  std::size_t cover_lower_bound(Frame& frame) {
    // Sorted-prefix cover bound: the k best free coverages must sum to at
    // least |U|, so the smallest such k is a lower bound (at least as tight
    // as ceil(|U| / max_cover)).
    frame.coverages.clear();
    for (std::size_t v = 0; v < n_; ++v) {
      if (frame.included.test(v) || frame.excluded.test(v)) continue;
      frame.scratch = closed_[v];
      frame.scratch &= frame.undominated;
      const std::size_t cover = frame.scratch.count();
      if (cover > 0) frame.coverages.push_back(cover);
    }
    if (frame.coverages.empty()) return kInfeasible;
    std::sort(frame.coverages.begin(), frame.coverages.end(),
              std::greater<>());
    const std::size_t need = frame.undominated.count();
    std::size_t bound = 0;
    std::size_t covered = 0;
    while (covered < need && bound < frame.coverages.size()) {
      covered += frame.coverages[bound];
      ++bound;
    }
    if (covered < need) return kInfeasible;

    // Min-conflict greedy 2-packing: always pack the vertex whose ball
    // knocks out the fewest other candidates — noticeably larger packings
    // than first-index order, and every +1 here prunes a whole tree level.
    std::size_t packing = 0;
    frame.rest = frame.undominated;
    while (frame.rest.any()) {
      std::size_t pick = n_;
      std::size_t pick_conflicts = std::numeric_limits<std::size_t>::max();
      frame.rest.for_each_set([&](std::size_t u) {
        frame.scratch = ball2_[u];
        frame.scratch &= frame.rest;
        const std::size_t conflicts = frame.scratch.count();
        if (conflicts < pick_conflicts) {
          pick_conflicts = conflicts;
          pick = u;
        }
      });
      ++packing;
      frame.rest.subtract(ball2_[pick]);
    }
    return std::max(bound, packing);
  }

  void dfs(std::size_t depth) {
    if (aborted_) return;
    if (++nodes_ > budget_) {
      aborted_ = true;
      return;
    }
    Frame& frame = frames_[depth];
    std::size_t size = frame.included.count();
    if (size >= best_size_) return;

    frame.undominated = all_;
    frame.undominated.subtract(frame.dominated);

    // Unit propagation: an undominated vertex with a single surviving
    // candidate forces that candidate — no tree level needed. Repeat until
    // fixpoint (each inclusion can create new singletons).
    for (bool propagated = true; propagated && frame.undominated.any();) {
      propagated = false;
      for (std::size_t u = frame.undominated.find_first();
           u != frame.undominated.size();
           u = frame.undominated.find_next(u)) {
        frame.scratch = closed_[u];
        frame.scratch.subtract(frame.excluded);
        const std::size_t count = frame.scratch.count();
        if (count == 0) return;  // u can no longer be dominated
        if (count == 1) {
          const std::size_t forced = frame.scratch.find_first();
          frame.included.set(forced);
          frame.dominated |= closed_[forced];
          frame.undominated.subtract(closed_[forced]);
          if (++size >= best_size_) return;
          propagated = true;
          break;
        }
      }
    }

    if (frame.undominated.none()) {
      if (connected_in(frame.included)) {
        best_ = frame.included;
        best_size_ = size;  // strictly smaller by the check above
        return;
      }
      branch_on_connectors(depth);
      return;
    }

    // Multi-source BFS from the members through non-excluded vertices. It
    // yields the free frontier N(S)\X (the connected-growth candidate set),
    // and for every undominated vertex the depth at which its first
    // candidate dominator appears: a dominator surfacing at BFS depth d
    // costs d new members (itself plus d-1 path interiors), so the max over
    // those depths lower-bounds the remaining work in a connectivity-aware
    // way the pure cover bound cannot see.
    std::size_t reach_bound = 0;
    frame.frontier_layer.reset_all();
    if (frame.included.any()) {
      frame.reach = frame.included;
      frame.frontier = frame.included;
      frame.uncoverable = frame.undominated;
      std::size_t bfs_depth = 0;
      while (frame.frontier.any() && frame.uncoverable.any()) {
        ++bfs_depth;
        frame.next.reset_all();
        frame.frontier.for_each_set(
            [&](std::size_t v) { frame.next |= closed_[v]; });
        frame.next.subtract(frame.excluded);
        frame.next.subtract(frame.reach);
        if (bfs_depth == 1) frame.frontier_layer = frame.next;
        frame.covered_now.reset_all();
        frame.uncoverable.for_each_set([&](std::size_t u) {
          if (closed_[u].intersects(frame.next)) frame.covered_now.set(u);
        });
        if (frame.covered_now.any()) {
          reach_bound = bfs_depth;
          frame.uncoverable.subtract(frame.covered_now);
        }
        frame.reach |= frame.next;
        frame.frontier = frame.next;
      }
      if (frame.uncoverable.any()) return;  // some vertex can't be dominated
    }

    const std::size_t extra = cover_lower_bound(frame);
    if (extra == kInfeasible) return;
    if (size + std::max(extra, reach_bound) >= best_size_) return;

    // Two complete candidate sets to branch over: the surviving dominators
    // of the tightest undominated vertex (any solution must pick one — the
    // root branching, and the feasibility check below), or the free
    // frontier N(S)\X (any connected strict superset of S enters it).
    std::size_t branch_vertex = n_;
    std::size_t branch_count = std::numeric_limits<std::size_t>::max();
    frame.undominated.for_each_set([&](std::size_t u) {
      frame.scratch = closed_[u];
      frame.scratch.subtract(frame.excluded);
      const std::size_t count = frame.scratch.count();
      if (count < branch_count) {
        branch_count = count;
        branch_vertex = u;
      }
    });
    if (branch_count == 0) return;  // some vertex can no longer be dominated

    frame.candidates = closed_[branch_vertex];
    frame.candidates.subtract(frame.excluded);
    if (frame.included.any()) {
      // Prefer connected growth: restricting to the free frontier keeps S
      // one blob, which is what makes the BFS distance bound sharp.
      frame.candidates = frame.frontier_layer;
    }
    branch_over_candidates(depth);
  }

  /// Include/exclude enumeration of frame.candidates, ordered by fresh
  /// coverage (descending, then ascending id).
  void branch_over_candidates(std::size_t depth) {
    Frame& frame = frames_[depth];
    frame.order.clear();
    frame.candidates.for_each_set([&](std::size_t c) {
      frame.scratch = closed_[c];
      frame.scratch &= frame.undominated;
      frame.order.emplace_back(frame.scratch.count(), c);
    });
    std::sort(frame.order.begin(), frame.order.end(),
              [](const auto& a, const auto& b) {
                return a.first != b.first ? a.first > b.first
                                          : a.second < b.second;
              });
    for (const auto& [cover, candidate] : frame.order) {
      if (depth + 1 >= frames_.size()) break;  // incumbent bounds the depth
      Frame& child = frames_[depth + 1];
      child.included = frame.included;
      child.included.set(candidate);
      child.excluded = frame.excluded;
      child.dominated = frame.dominated;
      child.dominated |= closed_[candidate];
      dfs(depth + 1);
      if (aborted_) return;
      frame.excluded.set(candidate);  // later branches manage without it
    }
  }

  /// Dominating but disconnected: any connected superset must leave the
  /// member-component holding the lowest member through one of its free
  /// neighbors, so branching over those neighbors is complete.
  void branch_on_connectors(std::size_t depth) {
    Frame& frame = frames_[depth];
    const std::size_t size = frame.included.count();
    const DynBitset comp =
        member_component(frame.included, frame.included.find_first());
    frame.rest = frame.included;
    frame.rest.subtract(comp);

    // BFS from the component through non-excluded vertices: distance to the
    // nearest other member-component lower-bounds the connectors still
    // needed and doubles as the reachability feasibility check.
    frame.reach = comp;
    frame.frontier = comp;
    std::size_t bfs_depth = 0;
    std::size_t connectors_needed = kInfeasible;
    while (frame.frontier.any()) {
      ++bfs_depth;
      frame.next.reset_all();
      frame.frontier.for_each_set(
          [&](std::size_t v) { frame.next |= closed_[v]; });
      frame.next.subtract(frame.excluded);
      frame.next.subtract(frame.reach);
      if (frame.next.intersects(frame.rest)) {
        connectors_needed = bfs_depth - 1;  // interior of the shortest path
        break;
      }
      frame.reach |= frame.next;
      frame.frontier = frame.next;
    }
    if (connectors_needed == kInfeasible) return;  // split beyond repair
    if (size + std::max<std::size_t>(connectors_needed, 1) >= best_size_) {
      return;
    }

    frame.candidates.reset_all();
    comp.for_each_set(
        [&](std::size_t v) { frame.candidates |= closed_[v]; });
    frame.candidates.subtract(frame.included);
    frame.candidates.subtract(frame.excluded);
    frame.undominated = frame.rest;  // orders connectors by members touched
    branch_over_candidates(depth);
  }

  static constexpr std::size_t kInfeasible =
      std::numeric_limits<std::size_t>::max();

  const Graph& g_;
  std::size_t n_;
  std::uint64_t budget_;
  std::uint64_t& nodes_;
  DynBitset all_;
  std::vector<DynBitset> closed_;
  std::vector<DynBitset> ball2_;
  std::vector<Frame> frames_;
  DynBitset best_;
  std::size_t best_size_ = 0;
  bool aborted_ = false;
};

}  // namespace

std::optional<DynBitset> bb_min_cds(const Graph& g, const BbOptions& options,
                                    BbStats* stats) {
  BbStats local;
  BbStats& st = stats != nullptr ? *stats : local;
  st = BbStats{};

  const auto n = static_cast<std::size_t>(g.num_nodes());
  DynBitset result(n);
  const std::vector<NodeId> component_of = g.components();
  const NodeId num_components = Graph::count_components(component_of);
  for (NodeId comp = 0; comp < num_components; ++comp) {
    DynBitset keep(n);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (component_of[static_cast<std::size_t>(v)] == comp) {
        keep.set(static_cast<std::size_t>(v));
      }
    }
    std::vector<NodeId> mapping;
    const Graph sub = g.induced(keep, &mapping);
    if (sub.is_complete()) continue;  // exempt, like check_cds / exact_min_cds
    ComponentSolver solver(sub, options.node_budget, st.nodes);
    const std::optional<DynBitset> best = solver.solve();
    if (!best.has_value()) {
      std::cerr << "warning: bb_min_cds gave up on n=" << g.num_nodes()
                << " (node budget " << options.node_budget
                << " exhausted after " << st.nodes
                << " nodes); optimum unproven\n";
      return std::nullopt;
    }
    best->for_each_set([&](std::size_t i) {
      result.set(static_cast<std::size_t>(mapping[i]));
    });
  }
  st.proven = true;
  return result;
}

}  // namespace pacds
