#pragma once
// Per-interval recomputation engines for the lifetime simulator. One
// update interval needs (link graph, gateway set) for the current positions
// and battery levels; the two engines get there differently:
//
//   FullRebuildEngine — rebuild_links + compute_cds from scratch (the
//     original simulator inner loop, and the only option for sequential
//     strategies, custom keys, or non-unit-disk link models).
//
//   IncrementalEngine — keeps one persistent Graph and an IncrementalCds
//     across intervals. Its MovingLinks front end (shared with TiledEngine)
//     detects moved hosts by position diff, re-files them in a SpatialGrid
//     and extracts their changed links as an EdgeDelta; the delta plus the
//     quantized-energy diff drive one localized IncrementalCds::advance.
//     A steady interval allocates nothing once every scratch buffer (the
//     delta's pair vectors among them) has reached its high-water mark; an
//     interval that needs more than any before it still grows one.
//
// Wherever the incremental engine is eligible the two are bit-identical —
// same gateway bitsets, same counts, hence byte-for-byte equal TrialResults
// (tests/engine_equivalence_test asserts this across schemes, mobility
// models and seeds).

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/cds.hpp"
#include "core/incremental.hpp"
#include "core/stability.hpp"
#include "core/workspace.hpp"
#include "net/radio.hpp"
#include "net/udg.hpp"
#include "net/vec2.hpp"
#include "obs/metrics.hpp"
#include "sim/lifetime.hpp"
#include "sim/threadpool.hpp"

namespace pacds {

/// Quantized view of battery levels for EL-key comparisons. quantum <= 0
/// disables quantization and returns `levels` itself (no copy); otherwise
/// `scratch` is filled with floor(level / quantum) and returned. The
/// returned reference is invalidated by the next call with the same
/// arguments' lifetimes — hot loops pass one long-lived scratch buffer.
[[nodiscard]] const std::vector<double>& quantize_key_levels(
    const std::vector<double>& levels, double quantum,
    std::vector<double>& scratch);

/// The link graph every engine computes against: config.link_model over
/// `positions`, with each unit-disk pair gated by `radio` when non-null
/// (non-unit-disk channels compose only with unit-disk links). Rebuilds
/// `out` in place through `builder`.
void build_sim_links(const SimConfig& config, const RadioModel* radio,
                     const std::vector<Vec2>& positions, LinkBuilder& builder,
                     Graph& out);

/// The key chain a config's backbone runs on: its custom key, else its
/// scheme's.
[[nodiscard]] KeyKind key_kind_of(const SimConfig& config);

/// The rules a config runs: its scheme's, or under a custom key both
/// pairwise rules in the configured Rule 2 form, or Rule k.
[[nodiscard]] RuleConfig rules_of(const SimConfig& config);

/// Resolves SimConfig::threads into an intra-interval pool. `threads` counts
/// lanes *including* the calling thread (the caller always participates in
/// sharded passes), so N lanes need a pool of N - 1 workers; 0 means one
/// lane per hardware thread; 1 — and anything negative — stays serial.
void make_interval_pool(int threads, std::optional<ThreadPool>& pool);

/// Set sizes the simulator accumulates per interval.
struct IntervalCounts {
  std::size_t marked = 0;    ///< marking-process set size
  std::size_t gateways = 0;  ///< final gateway set size
};

/// One trial's per-interval CDS recomputation strategy.
class LifetimeEngine {
 public:
  virtual ~LifetimeEngine() = default;
  LifetimeEngine(const LifetimeEngine&) = delete;
  LifetimeEngine& operator=(const LifetimeEngine&) = delete;

  /// Brings the gateway set up to date for the interval. `positions` holds
  /// every host's current position, `levels` the raw battery levels (the
  /// engine applies the key quantum itself).
  virtual void update(const std::vector<Vec2>& positions,
                      const std::vector<double>& levels) = 0;

  [[nodiscard]] virtual const DynBitset& gateways() const = 0;
  /// The link graph the last update computed against (null before the first
  /// update). Degraded-mode health checks read it; down hosts appear as
  /// isolated vertices because their parked positions have no links.
  [[nodiscard]] virtual const Graph* graph() const = 0;
  [[nodiscard]] virtual IntervalCounts counts() const = 0;
  /// Nodes re-evaluated by the last update (n for a full rebuild).
  [[nodiscard]] virtual std::size_t last_touched() const = 0;
  [[nodiscard]] virtual std::string name() const = 0;

  /// Whether the last update() actually recomputed the gateway set. The
  /// rule-based engines re-derive it every interval (always true); the
  /// (2,2) backbone engine keeps its cached set while it still verifies,
  /// and the fault loop counts a repair round only when this reports true.
  [[nodiscard]] virtual bool last_update_recomputed() const { return true; }

  /// Attaches a metrics registry (null detaches). Subsequent update() calls
  /// record phase timings and counters into it; with null everything stays
  /// on the zero-cost path. The registry is borrowed and must outlive the
  /// engine or a later set_metrics(nullptr).
  void set_metrics(obs::MetricsRegistry* metrics) {
    metrics_ = metrics;
    on_set_metrics();
  }

 protected:
  LifetimeEngine() = default;

  /// Lets derived engines forward the pointer into owned components.
  virtual void on_set_metrics() {}

  /// Records how many chunk tasks `update_fn` pushed through the pool.
  /// Wraps the body so the submitted-task counter diff lands in metrics_.
  template <typename Fn>
  void with_pool_accounting(std::optional<ThreadPool>& pool, Fn&& update_fn) {
    if (metrics_ == nullptr || !pool) {
      std::forward<Fn>(update_fn)();
      return;
    }
    const std::size_t before = pool->tasks_submitted();
    std::forward<Fn>(update_fn)();
    metrics_->add(obs::Counter::kPoolTasksSubmitted,
                  pool->tasks_submitted() - before);
  }

  obs::MetricsRegistry* metrics_ = nullptr;
};

/// The original inner loop: build_links + one of the compute_cds entry
/// points, every interval. Warm intervals allocate nothing: the link
/// builder, both link graphs, the CDS result and the workspace keep their
/// storage from one interval to the next.
class FullRebuildEngine final : public LifetimeEngine {
 public:
  explicit FullRebuildEngine(const SimConfig& config);

  void update(const std::vector<Vec2>& positions,
              const std::vector<double>& levels) override;
  [[nodiscard]] const DynBitset& gateways() const override {
    return cds_.gateways;
  }
  [[nodiscard]] const Graph* graph() const override {
    return have_graph_ ? &graph_ : nullptr;
  }
  [[nodiscard]] IntervalCounts counts() const override {
    return {cds_.marked_count, cds_.gateway_count};
  }
  [[nodiscard]] std::size_t last_touched() const override;
  [[nodiscard]] std::string name() const override { return "full-rebuild"; }

 private:
  SimConfig config_;
  /// Key kind and rules the scheme (or the custom key) resolves to.
  KeyKind kind_;
  RuleConfig rules_;
  LinkBuilder links_;
  /// This interval's links (graph()); the next interval is built into
  /// spare_ and swapped in, so the SEL row diff still sees the old rows.
  Graph graph_;
  Graph spare_;
  bool have_graph_ = false;
  CdsResult cds_;
  std::vector<double> key_scratch_;
  /// Per-pair channel model; engaged when config.radio != unit-disk (it can
  /// only veto unit-disk candidate edges, never add longer ones).
  std::optional<RadioModel> radio_;
  /// Per-host churn EWMA feeding the SEL key; engaged when the scheme (or
  /// custom key) reads stability. Fed by diffing consecutive adjacency rows.
  std::optional<StabilityTracker> tracker_;
  /// Intra-interval pool (config.threads != 1) + reusable pass scratch.
  std::optional<ThreadPool> pool_;
  CdsWorkspace workspace_;
};

/// The moving-link front end of the incremental and tiled engines: turns
/// each interval's positions into links, and from the second interval on
/// into the edge delta against the last interval's graph. Serves only
/// unit-disk link models (the engines' eligibility), with the config's radio
/// vetoing pairs. Not copyable: its grid points into its own positions.
class MovingLinks {
 public:
  /// One host that moved in the last advance, with its old position.
  struct Move {
    NodeId host;
    Vec2 from;
  };

  explicit MovingLinks(const SimConfig& config);
  MovingLinks(const MovingLinks&) = delete;
  MovingLinks& operator=(const MovingLinks&) = delete;

  /// First interval: builds `out` from `positions`, files every host in the
  /// grid, and commits the tracker once on zero counts. With no link
  /// history every host stays maximally stable, and the EWMA keeps the full
  /// rebuild's cadence of one commit per update.
  void reset(const std::vector<Vec2>& positions, Graph& out);

  /// Later intervals: finds the hosts whose position changed, re-files
  /// them, and sets delta() to the symmetric difference between `last` (the
  /// previous interval's links) and the links at `positions`. Adds the
  /// delta's sizes to `metrics` (null: none), and counts both endpoints of
  /// every delta pair into the tracker before committing it, which matches
  /// the full rebuild's row-diff counts.
  void advance(const std::vector<Vec2>& positions, const Graph& last,
               obs::MetricsRegistry* metrics);

  [[nodiscard]] const EdgeDelta& delta() const noexcept { return delta_; }
  /// The movers of the last advance, in ascending host order.
  [[nodiscard]] std::span<const Move> moves() const noexcept {
    return moves_;
  }
  /// The SEL churn tracker; null when the config's key reads no stability.
  [[nodiscard]] const StabilityTracker* tracker() const noexcept {
    return tracker_ ? &*tracker_ : nullptr;
  }

 private:
  SimConfig config_;
  /// The grid indexes this copy of the last positions.
  std::vector<Vec2> positions_;
  std::optional<SpatialGrid> grid_;
  /// Per-pair channel veto over the grid's unit-disk candidates (engaged
  /// when config.radio != unit-disk). The pair hash makes the predicate
  /// re-evaluable edge by edge, which is what delta extraction needs.
  std::optional<RadioModel> radio_;
  std::optional<StabilityTracker> tracker_;
  // Steady-state scratch — reused, never reallocated after warm-up.
  EdgeDelta delta_;
  std::vector<Move> moves_;
  std::vector<NodeId> nbrs_;
  DynBitset moved_;
};

/// Persistent-state fast path: MovingLinks edge deltas + IncrementalCds.
/// The config must be eligible (see incremental_engine_eligible);
/// make_lifetime_engine checks it through validate_sim_config.
class IncrementalEngine final : public LifetimeEngine {
 public:
  explicit IncrementalEngine(const SimConfig& config);

  void update(const std::vector<Vec2>& positions,
              const std::vector<double>& levels) override;
  [[nodiscard]] const DynBitset& gateways() const override {
    return cds_->gateways();
  }
  [[nodiscard]] const Graph* graph() const override {
    return cds_ ? &cds_->graph() : nullptr;
  }
  [[nodiscard]] IntervalCounts counts() const override {
    return {cds_->marked_only().count(), cds_->gateways().count()};
  }
  [[nodiscard]] std::size_t last_touched() const override {
    return cds_->last_touched();
  }
  [[nodiscard]] std::string name() const override { return "incremental"; }

 private:
  void on_set_metrics() override {
    if (cds_) cds_->set_metrics(metrics_);
  }

  SimConfig config_;
  MovingLinks links_;
  /// Intra-interval pool (config.threads != 1) + reusable pass scratch;
  /// declared before cds_, which borrows both for its lifetime.
  std::optional<ThreadPool> pool_;
  CdsWorkspace workspace_;
  std::optional<IncrementalCds> cds_;
  std::vector<double> key_scratch_;
};

/// Crash-tolerant backbone engine: maintains the greedy (2,2)-connected
/// dominating set (baselines/cds22) instead of a rule-derived gateway set.
/// Each update rebuilds the link graph, then keeps the cached backbone
/// verbatim while it still passes the plain check_cds against the current
/// links — a crashed member drops out as an exempt isolated singleton and
/// the survivors carry on with zero repair rounds (the (2,2) survival
/// property; tests/faults_test demonstrates it). Only when the cached set
/// fails validation (mobility tore it, or it never existed) does the
/// engine recompute greedy_cds22 from scratch.
class Cds22Engine final : public LifetimeEngine {
 public:
  explicit Cds22Engine(const SimConfig& config);

  void update(const std::vector<Vec2>& positions,
              const std::vector<double>& levels) override;
  [[nodiscard]] const DynBitset& gateways() const override {
    return backbone_;
  }
  [[nodiscard]] const Graph* graph() const override {
    return graph_ ? &*graph_ : nullptr;
  }
  [[nodiscard]] IntervalCounts counts() const override {
    return {backbone_.count(), backbone_.count()};
  }
  [[nodiscard]] std::size_t last_touched() const override;
  [[nodiscard]] std::string name() const override { return "cds22"; }
  [[nodiscard]] bool last_update_recomputed() const override {
    return last_recomputed_;
  }

  /// Whether the current backbone satisfies the full (2,2) property
  /// (biconnected + 2-dominating); false when the topology cannot support
  /// one and greedy_cds22 degraded to a plain CDS.
  [[nodiscard]] bool full_22() const { return full_22_; }

 private:
  SimConfig config_;
  LinkBuilder links_;
  std::optional<Graph> graph_;
  /// Per-pair channel veto (config.radio != unit-disk); the backbone is
  /// maintained on whatever link graph the radio admits.
  std::optional<RadioModel> radio_;
  DynBitset backbone_;
  bool have_backbone_ = false;
  bool full_22_ = false;
  bool last_recomputed_ = false;
};

/// True iff IncrementalEngine provably reproduces the full rebuild for this
/// configuration: simultaneous strategy (the only semantics IncrementalCds
/// maintains), scheme-driven keys (no custom key / Rule k), unit-disk
/// links (Gabriel/RNG pruning is not locally updatable), and the scheme
/// backbone (the (2,2) backbone has no incremental form).
[[nodiscard]] bool incremental_engine_eligible(const SimConfig& config);

/// Builds the engine selected by config.engine; kAuto picks the incremental
/// engine exactly when it is eligible. Throws std::invalid_argument with
/// validate_sim_config's message when the config breaks a rule, such as a
/// forced engine it is not eligible for.
[[nodiscard]] std::unique_ptr<LifetimeEngine> make_lifetime_engine(
    const SimConfig& config);

/// Name of the engine make_lifetime_engine would select (resolves kAuto via
/// eligibility) without constructing one — used by run manifests.
[[nodiscard]] std::string resolved_engine_name(const SimConfig& config);

}  // namespace pacds
