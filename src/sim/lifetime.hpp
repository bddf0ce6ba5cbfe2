#pragma once
// The paper's Section 4 simulation loop:
//   1. place hosts uniformly in the field (retry until the unit-disk graph
//      is connected);
//   2. each update interval, recompute the gateway set with the configured
//      rule family, using current battery levels as the EL keys;
//   3. drain each gateway by d (drain model / |G'|) and each non-gateway by
//      d' = 1; stop when the first host dies;
//   4. otherwise every host roams per the movement model and the next
//      interval begins.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/cds.hpp"
#include "core/enum_names.hpp"
#include "energy/traffic.hpp"
#include "net/geometric.hpp"
#include "net/mobility.hpp"
#include "net/radio.hpp"
#include "net/rng.hpp"
#include "net/space.hpp"
#include "net/topology.hpp"
#include "sim/faults.hpp"
#include "sim/trace.hpp"

namespace pacds {

class LifetimeEngine;

/// Which per-interval recomputation engine drives a lifetime trial.
enum class SimEngine : std::uint8_t {
  /// Incremental where provably bit-identical to a full rebuild
  /// (simultaneous strategy, no custom key, unit-disk links), full rebuild
  /// everywhere else. The safe default.
  kAuto,
  /// Rebuild the link graph and the CDS from scratch every interval.
  kFullRebuild,
  /// Persistent graph + localized CDS updates (spatial-grid edge deltas fed
  /// to IncrementalCds). validate_sim_config refuses it where not eligible.
  kIncremental,
  /// Spatial tiling: the field is cut into tiles (side >= 2 * radius), and
  /// each interval re-decides only the hosts owned by tiles near a change,
  /// on the persistent CSR graph. Bit-identical to the other engines where
  /// eligible (see tiled_engine_eligible); validate_sim_config refuses it
  /// elsewhere.
  kTiled,
};

constexpr auto enum_names(SimEngine) {
  return std::to_array<EnumName<SimEngine>>(
      {{SimEngine::kAuto, "auto"},
       {SimEngine::kFullRebuild, "full"},
       {SimEngine::kIncremental, "incremental"},
       {SimEngine::kTiled, "tiled"}});
}

/// What kind of backbone each interval maintains.
enum class BackboneMode : std::uint8_t {
  /// The paper's marking + pruning rules (rule_set / custom_key / Rule k):
  /// recompute the gateway set every interval. The default.
  kScheme,
  /// Greedy (2,2)-connected dominating set (baselines/cds22): biconnected
  /// and 2-dominating where the topology allows, so any single gateway
  /// crash leaves a valid plain CDS with zero repair rounds. The cached
  /// backbone is kept verbatim while it still passes check_cds against the
  /// current links and only rebuilt when it fails — the fault-tolerance
  /// trade: a bigger standing backbone for fewer recomputations.
  kCds22,
};

constexpr auto enum_names(BackboneMode) {
  return std::to_array<EnumName<BackboneMode>>(
      {{BackboneMode::kScheme, "scheme"}, {BackboneMode::kCds22, "cds22"}});
}

/// All knobs of one lifetime simulation; defaults are the paper's settings.
/// validate_sim_config (sim/config_json.hpp) states which configs may run.
struct SimConfig {
  int n_hosts = 50;
  double field_width = 100.0;
  double field_height = 100.0;
  /// z extent of the field; 0 (default) keeps the paper's planar world.
  /// With a positive depth, placement and every mobility model draw/move in
  /// 3-D and link distances are full Euclidean.
  double field_depth = 0.0;
  BoundaryPolicy boundary = BoundaryPolicy::kClamp;
  double radius = kPaperRadius;

  /// Which proximity graph links the hosts (paper: unit disk). The sparser
  /// Gabriel/RNG models keep the same connectivity with far fewer links.
  LinkModel link_model = LinkModel::kUnitDisk;

  /// Propagation model gating candidate links (see net/radio.hpp). Anything
  /// other than kUnitDisk requires link_model == kUnitDisk: the radio prunes
  /// unit-disk candidates per pair (and can only shrink range, so every
  /// spatial-locality bound built on `radius` still holds), while the
  /// Gabriel/RNG models are whole-neighborhood constructions that do not
  /// compose with per-pair fading.
  RadioKind radio = RadioKind::kUnitDisk;
  RadioParams radio_params{};

  double initial_energy = 100.0;
  DrainModel drain_model = DrainModel::kLinearTotal;
  DrainParams drain_params{};

  double stay_probability = 0.5;  ///< the paper's c
  int jump_min = 1;               ///< the paper's l range
  int jump_max = 6;

  /// Mobility model; kPaperJump (default) is driven by the three fields
  /// above, the other kinds read `mobility_params` (sensitivity studies).
  MobilityKind mobility_kind = MobilityKind::kPaperJump;
  MobilityParams mobility_params{};

  RuleSet rule_set = RuleSet::kEL1;
  CdsOptions cds_options{};

  /// When set, overrides the scheme with a fully custom (key, Rule 2 form)
  /// pair via compute_cds_custom — used by ablations that hold the rule
  /// machinery fixed while swapping only the priority key (e.g. id-keyed
  /// refined rules vs. EL1, isolating the rotation effect).
  std::optional<KeyKind> custom_key;
  /// Needs custom_key: a non-default form without one is rejected.
  Rule2Form custom_rule2_form = Rule2Form::kRefined;
  /// With custom_key set, use the generalized Rule k (Dai-Wu) instead of
  /// the pairwise rules (custom_rule2_form is then ignored). Needs
  /// custom_key: validate_sim_config rejects it without one.
  bool use_rule_k = false;

  /// The paper treats energy as "multiple discrete levels": EL keys compare
  /// quantized levels (floor(level / quantum) buckets) so ties — and the
  /// ND/ID tie-break chains — actually occur. 0 disables quantization
  /// (raw battery readings as keys). Battery accounting itself is always
  /// exact; only the priority keys see the quantized view.
  double energy_key_quantum = 1.0;

  /// RuleSet::kSEL knobs: the EWMA memory of the per-host neighborhood
  /// churn estimate (0 = latest interval only, 1 = frozen) and the bucket
  /// width applied to the EWMA before it enters the key (0 = raw values;
  /// see core/stability.hpp). Ignored by the other schemes.
  double stability_beta = 0.75;
  double stability_quantum = 0.5;

  /// Per-interval recomputation engine (see SimEngine). Both engines
  /// produce bit-identical TrialResults wherever kIncremental is eligible;
  /// equivalence is asserted by tests/engine_equivalence_test.
  SimEngine engine = SimEngine::kAuto;

  /// Backbone family (see BackboneMode). kCds22 overrides the scheme with
  /// the greedy (2,2)-connected backbone; engine must then be kAuto or
  /// kFullRebuild (the incremental/tiled fast paths maintain rule-based
  /// semantics only — validate_sim_config refuses them with cds22).
  BackboneMode backbone = BackboneMode::kScheme;

  /// Requested tile count for SimEngine::kTiled (0 = auto: the finest grid
  /// whose tile side stays >= 2 * radius; requests are clamped to that same
  /// constraint, and every grid to 4 * n_hosts + 64 tiles). Gateways are
  /// bit-identical for every value.
  int tiles = 0;

  /// Worker threads for the CDS passes *inside* one interval (marking +
  /// simultaneous rule passes, sharded deterministically — gateway sets are
  /// bit-identical for every value; tests/parallel_equivalence_test).
  /// 1 = serial (default), 0 = hardware concurrency, N > 1 = N workers.
  /// Independent of the Monte-Carlo trial pool: a sweep of many trials
  /// should parallelize across trials instead and keep this at 1.
  int threads = 1;

  /// Placement retries before accepting a disconnected initial graph.
  int connect_retries = 500;
  /// Hard interval cap so degenerate configurations terminate.
  long max_intervals = 200000;
};

/// The hosts of one run: the field, a connected placement (a plain one once
/// connect_retries attempts fail) and the mobility model. LifetimeRun, the
/// traffic trial, the packet DES and the overhead count all place and move
/// hosts through it; placement and move() are its only RNG draws.
struct Hosts {
  /// kPaperJump reads SimConfig's top-level stay/jump trio, the other
  /// mobility kinds read mobility_params.
  Hosts(const SimConfig& config, Xoshiro256& rng);

  void move(Xoshiro256& rng) { mobility->step(positions, field, rng); }

  Field field;
  std::vector<Vec2> positions;
  std::unique_ptr<MobilityModel> mobility;
  int placement_attempts = 1;
  bool connected = true;  ///< whether a connected placement was found
};

/// Outcome of one simulated network lifetime. In a fault-free run
/// `intervals` is the paper's lifetime (intervals to first death). In a
/// degraded-mode run (non-empty fault plan) the trial continues past deaths
/// and crashes until at most one host still functions, so `intervals` is
/// the degraded run length and `faults.first_death_interval` carries the
/// paper metric; per-interval means then count only functioning hosts.
struct TrialResult {
  long intervals = 0;        ///< completed update intervals
  double avg_gateways = 0.0; ///< mean |G'| per interval (Figure 10's metric)
  double avg_marked = 0.0;   ///< mean marking-process set size (NR size)
  /// Mean CDS churn per interval: |G_t XOR G_{t-1}| (0 on the first
  /// interval) — how much of the backbone membership turns over under
  /// mobility. The stability-key ablation's headline metric.
  double avg_cds_churn = 0.0;
  bool hit_cap = false;      ///< stopped by max_intervals, not by attrition
  bool initial_connected = true;  ///< whether placement retries succeeded
  int placement_attempts = 1;
  FaultStats faults{};       ///< degraded-mode aggregates (zero when none)
};

/// One lifetime trial as a resumable object: construction does placement and
/// engine setup, each step() runs exactly one update interval, and result()
/// finalizes the aggregates at any point. `while (run.step()) {}` is
/// bit-identical to run_lifetime_trial (which is now implemented that way) —
/// the class exists so a resident process (`pacds serve`) can hold a trial's
/// engine/battery/mobility state cached between requests and advance it a
/// few intervals per tick instead of replaying the trial from scratch.
///
/// Determinism contract: the trial is a pure function of (config, seed) plus
/// the fault plan; the observer only watches. Placement (constructor) and
/// mobility (inside step) are the only RNG consumers, so tick granularity —
/// how many step() calls happen per scheduler batch — cannot perturb the
/// stream.
class LifetimeRun {
 public:
  /// Validates the config (validate_sim_config, as std::invalid_argument)
  /// and the plan (the fault plan's errors), then performs placement +
  /// engine construction. The
  /// config and plan are copied; the observer is borrowed and must outlive
  /// the run or be replaced via set_observer.
  explicit LifetimeRun(const SimConfig& config, std::uint64_t seed,
                       IntervalObserver* observer = nullptr,
                       const FaultPlan* faults = nullptr);
  // Not movable: the engine holds the address of the embedded metrics
  // registry. Long-lived holders (serve tenants) keep a unique_ptr instead.
  LifetimeRun(const LifetimeRun&) = delete;
  LifetimeRun& operator=(const LifetimeRun&) = delete;
  ~LifetimeRun();

  /// Runs one update interval. Returns false (doing nothing) once the run
  /// has finished — by attrition or by the max_intervals cap.
  bool step();

  /// True once the stop condition has been reached (first death, degraded
  /// attrition, or the interval cap).
  [[nodiscard]] bool finished() const;

  /// Completed update intervals so far.
  [[nodiscard]] long intervals() const { return result_.intervals; }

  /// Aggregated trial outcome. Callable at any point; before finished() it
  /// reports the averages over the intervals completed so far with
  /// hit_cap = false.
  [[nodiscard]] TrialResult result() const;

  /// Swaps the observer between steps (serve re-points each trial's stream
  /// at a fresh per-request buffer). Passing nullptr detaches metrics
  /// gathering entirely; attaching one re-enables it from the next step.
  void set_observer(IntervalObserver* observer);

  [[nodiscard]] const SimConfig& config() const { return config_; }

 private:
  SimConfig config_;
  Xoshiro256 rng_;
  IntervalObserver* observer_ = nullptr;
  FaultPlan fault_plan_{};
  bool faulted_ = false;

  TrialResult result_;
  BatteryBank batteries_;
  Hosts hosts_;
  std::unique_ptr<LifetimeEngine> engine_;
  obs::MetricsRegistry metrics_;
  std::optional<FaultInjector> injector_;
  std::vector<FaultRecord> fault_events_;
  DynBitset health_scratch_;

  double gateway_sum_ = 0.0;
  double marked_sum_ = 0.0;
  double churn_sum_ = 0.0;
  DynBitset prev_gateways_;
  DynBitset churn_scratch_;
  bool have_prev_gateways_ = false;
  bool attrition_stop_ = false;
};

/// Runs one trial, fully determined by (config, seed). When `observer` is
/// non-null, one IntervalRecord per update interval is published (snapshots
/// taken after each drain step) with the interval's metrics slice attached
/// — pass a SimTrace to buffer, a JsonlIntervalObserver to stream. With a
/// null observer no metrics are gathered at all (the zero-cost path).
///
/// `faults` switches the trial into degraded mode iff the plan schedules
/// lifetime events (FaultPlan::has_lifetime_events): scheduled events apply
/// at the start of their interval, down hosts leave the radio graph, the
/// engine's localized update repairs the backbone, and each interval's
/// health (check_cds + domination coverage of functioning hosts) lands in
/// TrialResult::faults and in FaultRecords pushed through the observer. A
/// null or event-free plan leaves the trial bit-identical to the fault-free
/// path — the plan itself consumes no randomness, so faulted and fault-free
/// twins of one seed share the same placement and mobility stream.
[[nodiscard]] TrialResult run_lifetime_trial(const SimConfig& config,
                                             std::uint64_t seed,
                                             IntervalObserver* observer =
                                                 nullptr,
                                             const FaultPlan* faults =
                                                 nullptr);

}  // namespace pacds
