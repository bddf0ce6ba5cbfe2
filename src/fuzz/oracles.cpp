#include "fuzz/oracles.hpp"

#include <cmath>
#include <cstddef>
#include <sstream>
#include <vector>

#include "baselines/bb_mcds.hpp"
#include "baselines/cds22.hpp"
#include "baselines/exact_mcds.hpp"
#include "baselines/greedy_mcds.hpp"
#include "baselines/mis_cds.hpp"
#include "baselines/tree_cds.hpp"
#include "core/cds.hpp"
#include "core/verify.hpp"
#include "dist/protocol.hpp"
#include "energy/traffic.hpp"
#include "io/json.hpp"
#include "io/json_parse.hpp"
#include "net/geometric.hpp"
#include "net/rng.hpp"
#include "net/topology.hpp"
#include "obs/jsonl.hpp"
#include "obs/validate.hpp"
#include "serve/server.hpp"
#include "sim/engine.hpp"
#include "sim/montecarlo.hpp"
#include "sim/tiled_engine.hpp"
#include "sim/trace.hpp"

namespace pacds::fuzz {

namespace {

struct TrialRun {
  TrialResult result;
  SimTrace trace;
};

TrialRun run_trial(const SimConfig& config, std::uint64_t seed,
                   const FaultPlan* faults) {
  TrialRun run;
  run.result = run_lifetime_trial(config, seed, &run.trace, faults);
  return run;
}

std::string fmt(double number) { return JsonWriter::format_double(number); }

/// "" when the two runs agree on everything deterministic; otherwise the
/// first difference. Wall-clock fields (phase_ns, repair_ns) are always
/// excluded; `with_touched` additionally compares the touched-node counts
/// (identical across thread counts, but not across engines).
std::string diff_runs(const std::string& label_a, const TrialRun& a,
                      const std::string& label_b, const TrialRun& b,
                      bool with_touched) {
  std::ostringstream out;
  out << label_a << " vs " << label_b << ": ";
  const TrialResult& ra = a.result;
  const TrialResult& rb = b.result;
  if (ra.intervals != rb.intervals) {
    out << "intervals " << ra.intervals << " != " << rb.intervals;
    return out.str();
  }
  if (ra.avg_gateways != rb.avg_gateways || ra.avg_marked != rb.avg_marked) {
    out << "per-interval means differ (avg_gateways " << fmt(ra.avg_gateways)
        << " vs " << fmt(rb.avg_gateways) << ", avg_marked "
        << fmt(ra.avg_marked) << " vs " << fmt(rb.avg_marked) << ")";
    return out.str();
  }
  if (ra.hit_cap != rb.hit_cap ||
      ra.initial_connected != rb.initial_connected ||
      ra.placement_attempts != rb.placement_attempts) {
    out << "termination/placement flags differ";
    return out.str();
  }
  FaultStats fa = ra.faults;
  FaultStats fb = rb.faults;
  fa.repair_ns_total = 0;
  fb.repair_ns_total = 0;
  if (!with_touched) {
    // Touched-node counts depend on how localized the engine's update is.
    fa.repair_touched_total = 0;
    fb.repair_touched_total = 0;
  }
  if (!(fa == fb)) {
    out << "fault stats differ (deaths " << fa.deaths << " vs " << fb.deaths
        << ", events " << fa.events << " vs " << fb.events << ", repairs "
        << fa.repairs << " vs " << fb.repairs << ", first death "
        << fa.first_death_interval << " vs " << fb.first_death_interval
        << ")";
    return out.str();
  }
  if (a.trace.records.size() != b.trace.records.size()) {
    out << "interval record counts differ";
    return out.str();
  }
  for (std::size_t i = 0; i < a.trace.records.size(); ++i) {
    const IntervalRecord& x = a.trace.records[i];
    const IntervalRecord& y = b.trace.records[i];
    const bool same = x.interval == y.interval && x.marked == y.marked &&
                      x.gateways == y.gateways && x.alive == y.alive &&
                      x.min_energy == y.min_energy &&
                      x.mean_energy == y.mean_energy &&
                      x.max_energy == y.max_energy &&
                      (!with_touched || x.touched == y.touched);
    if (!same) {
      out << "interval record " << i << " differs (gateways " << x.gateways
          << " vs " << y.gateways << ", mean energy " << fmt(x.mean_energy)
          << " vs " << fmt(y.mean_energy) << ")";
      return out.str();
    }
  }
  if (a.trace.fault_records.size() != b.trace.fault_records.size()) {
    out << "fault record counts differ";
    return out.str();
  }
  for (std::size_t i = 0; i < a.trace.fault_records.size(); ++i) {
    const FaultRecord& x = a.trace.fault_records[i];
    const FaultRecord& y = b.trace.fault_records[i];
    const bool same = x.interval == y.interval && x.kind == y.kind &&
                      x.cause == y.cause && x.node == y.node &&
                      x.amount == y.amount && x.down == y.down &&
                      x.backbone_ok == y.backbone_ok &&
                      x.coverage == y.coverage && x.gateways == y.gateways &&
                      (!with_touched || x.touched == y.touched);
    if (!same) {
      out << "fault record " << i << " differs (kind "
          << to_string(x.kind) << " vs " << to_string(y.kind) << " at "
          << x.interval << " vs " << y.interval << ")";
      return out.str();
    }
  }
  return {};
}

}  // namespace

std::optional<Snapshot> make_snapshot(const FuzzScenario& s) {
  Xoshiro256 rng(derive_seed(s.trial_seed, 0x0f5aU));
  const Field field(s.config.field_width, s.config.field_height,
                    s.config.boundary);
  auto placed = random_connected_placement(s.config.n_hosts, field,
                                           s.config.radius, rng, 40);
  if (!placed) return std::nullopt;
  Snapshot snap;
  // The scenario's proximity model over the connected point set: Gabriel and
  // RNG are connected subgraphs of the unit-disk graph, so connectivity
  // survives the sparsification.
  snap.graph = s.config.link_model == LinkModel::kUnitDisk
                   ? std::move(placed->graph)
                   : build_links(placed->positions, s.config.radius,
                                 s.config.link_model);
  // Small integer energies so EL-key ties (and their tie-break chains)
  // actually occur.
  snap.energy.reserve(static_cast<std::size_t>(s.config.n_hosts));
  for (int i = 0; i < s.config.n_hosts; ++i) {
    snap.energy.push_back(static_cast<double>(rng.uniform_int(1, 6)));
  }
  return snap;
}

CdsResult snapshot_cds(const FuzzScenario& s, const Snapshot& snap) {
  return compute_cds_custom(snap.graph, key_kind_of(s.config),
                            rules_of(s.config), snap.energy,
                            s.config.cds_options.clique_policy);
}

namespace {

void check_cds_validity(const FuzzScenario& s, const Snapshot& snap,
                        const OracleOptions& opts,
                        std::vector<OracleFailure>& failures) {
  const auto fail = [&](const std::string& detail) {
    failures.push_back({"cds-validity", detail + " [" + describe(s) + "]"});
  };
  const CdsResult cds = snapshot_cds(s, snap);
  std::size_t gateway_count = cds.gateway_count;
  if (opts.mutation == kMutateCdsValidity) ++gateway_count;
  if (gateway_count != cds.gateways.count() ||
      cds.marked_count != cds.marked_only.count()) {
    fail("CdsResult counts disagree with the bitsets (gateway_count " +
         std::to_string(gateway_count) + " vs " +
         std::to_string(cds.gateways.count()) + ")");
    return;
  }
  // The rules only remove. elect-max-key adds one gateway to a component
  // the marking left empty; the snapshot is connected, so that is the whole
  // graph and the election's single node.
  const bool elected =
      s.config.cds_options.clique_policy == CliquePolicy::kElectMaxKey &&
      cds.marked_only.none() && cds.gateway_count == 1;
  for (std::size_t v = 0; v < cds.gateways.size() && !elected; ++v) {
    if (cds.gateways.test(v) && !cds.marked_only.test(v)) {
      fail("rules grew the marked set: node " + std::to_string(v) +
           " is a gateway but was never marked");
      return;
    }
  }
  const CdsCheck marking = check_cds(snap.graph, cds.marked_only);
  if (!marking.ok()) {
    fail("marking-process output is not a valid CDS: " + marking.message);
    return;
  }
  // The pairwise rules' simultaneous final set is known-unsafe (documented
  // flaw, pinned by SimultaneousSafetyTest) — only the safe strategies
  // assert it. Rule k is safe under every strategy.
  if (s.config.cds_options.strategy != Strategy::kSimultaneous ||
      rules_of(s.config).use_rule_k) {
    const CdsCheck final_set = check_cds(snap.graph, cds.gateways);
    if (!final_set.ok()) {
      fail("final gateway set is not a valid CDS under " +
           to_string(s.config.cds_options.strategy) + ": " +
           final_set.message);
    }
  }
}

void check_gap_bound(const FuzzScenario& s, const Snapshot& snap,
                     const OracleOptions& opts,
                     std::vector<OracleFailure>& failures) {
  const auto fail = [&](const std::string& detail) {
    failures.push_back({"gap-bound", detail + " [" + describe(s) + "]"});
  };
  const Graph& g = snap.graph;
  // Modest budget: fuzz graphs top out at n = 48, where the solver needs
  // well under a million nodes; a pathological instance skips instead of
  // stalling the run.
  BbStats stats;
  const auto bb = bb_min_cds(g, BbOptions{2'000'000}, &stats);
  if (!bb) return;
  if (!check_cds(g, *bb).ok()) {
    fail("branch-and-bound output is not a valid CDS");
    return;
  }
  std::size_t optimum = bb->count();
  if (opts.mutation == kMutateGapBound) ++optimum;
  if (g.num_nodes() <= 20) {
    const auto exact = exact_min_cds(g, 20);
    if (exact && exact->count() != optimum) {
      fail("branch-and-bound optimum " + std::to_string(optimum) +
           " disagrees with the bitmask optimum " +
           std::to_string(exact->count()));
      return;
    }
  }
  const Cds22Result backbone = greedy_cds22(g);
  const struct {
    const char* name;
    std::size_t size;
  } bounded[] = {
      {"greedy", greedy_mcds(g).count()},
      {"MIS", mis_cds(g).count()},
      {"tree", bfs_tree_cds(g).count()},
      {"(2,2)", backbone.backbone.count()},
      {"marking", snapshot_cds(s, snap).marked_count},
  };
  for (const auto& h : bounded) {
    if (h.size < optimum) {
      fail(std::string(h.name) + " CDS size " + std::to_string(h.size) +
           " undercuts the proven optimum " + std::to_string(optimum));
      return;
    }
  }
  if (!check_cds(g, backbone.backbone).ok()) {
    fail("(2,2) backbone is not a valid plain CDS");
    return;
  }
  const Cds22Check check22 = check_cds22(g, backbone.backbone);
  if (backbone.full_22 != check22.ok()) {
    fail("full_22 flag disagrees with check_cds22: " +
         (check22.message.empty() ? std::string("(no message)")
                                  : check22.message));
    return;
  }
  if (backbone.full_22) {
    // The survival property the backbone is for: losing any one member
    // still leaves a valid plain CDS (the crashed host drops out as an
    // exempt isolated singleton).
    bool survived = true;
    backbone.backbone.for_each_set([&](std::size_t v) {
      if (!survived) return;
      Graph crashed = g;
      const auto vid = static_cast<NodeId>(v);
      while (!crashed.neighbors(vid).empty()) {
        crashed.remove_edge(vid, crashed.neighbors(vid).front());
      }
      DynBitset survivors = backbone.backbone;
      survivors.reset(v);
      if (!check_cds(crashed, survivors).ok()) {
        survived = false;
        fail("(2,2) backbone does not survive the loss of member " +
             std::to_string(v));
      }
    });
  }
}

void check_dist_agreement(const FuzzScenario& s, const Snapshot& snap,
                          const OracleOptions& opts,
                          std::vector<OracleFailure>& failures) {
  const auto fail = [&](const std::string& detail) {
    failures.push_back({"dist-agreement", detail + " [" + describe(s) + "]"});
  };
  // The scheme alone, not snapshot_cds: the distributed protocol implements
  // only the schemes' pairwise rules (no custom key chain, no simple Rule 2
  // under another key, no Rule k), so those draws have no twin to agree
  // with here.
  const dist::ProtocolResult proto =
      dist::run_protocol_scheme(snap.graph, s.config.rule_set, snap.energy);
  CdsOptions options;
  options.strategy = Strategy::kSimultaneous;
  const CdsResult central =
      compute_cds(snap.graph, s.config.rule_set, snap.energy, options);
  DynBitset proto_gateways = proto.gateways;
  if (opts.mutation == kMutateDistAgreement) {
    proto_gateways.set(0, !proto_gateways.test(0));
  }
  if (!(proto_gateways == central.gateways)) {
    fail("distributed protocol and centralized simultaneous compute_cds "
         "disagree (" + std::to_string(proto_gateways.count()) + " vs " +
         std::to_string(central.gateways.count()) + " gateways)");
    return;
  }
  // A zero-fault channel must be *exactly* the reliable run (no RNG draws).
  const dist::FaultyProtocolResult arq_clean = dist::run_faulty_protocol(
      snap.graph, s.config.rule_set, dist::ChannelFaultConfig{},
      s.faults.retry, s.faults.seed, snap.energy);
  if (!arq_clean.complete || !(arq_clean.protocol.gateways == proto.gateways) ||
      arq_clean.protocol.total_msgs() != proto.total_msgs() ||
      arq_clean.retransmissions != 0) {
    fail("zero-fault ARQ run differs from the reliable protocol run");
    return;
  }
  if (s.faults.channel.any()) {
    const dist::FaultyProtocolResult arq = dist::run_faulty_protocol(
        snap.graph, s.config.rule_set, s.faults.channel, s.faults.retry,
        s.faults.seed, snap.energy);
    if (arq.complete && !(arq.protocol.gateways == proto.gateways)) {
      fail("complete faulty-channel ARQ run decided a different gateway set "
           "(loss must cost airtime, never correctness)");
    }
  }
}

void check_engine_identity(const FuzzScenario& s, const OracleOptions& opts,
                           std::vector<OracleFailure>& failures) {
  if (!incremental_engine_eligible(s.config)) return;
  SimConfig full = s.config;
  full.engine = SimEngine::kFullRebuild;
  SimConfig incremental = s.config;
  incremental.engine = SimEngine::kIncremental;
  const FaultPlan* plan = s.faults.has_lifetime_events() ? &s.faults : nullptr;
  const TrialRun a = run_trial(full, s.trial_seed, plan);
  TrialRun b = run_trial(incremental, s.trial_seed, plan);
  if (opts.mutation == kMutateEngineIdentity) ++b.result.intervals;
  const std::string diff =
      diff_runs("full-rebuild", a, "incremental", b, /*with_touched=*/false);
  if (!diff.empty()) {
    failures.push_back({"engine-identity", diff + " [" + describe(s) + "]"});
  }
  if (tiled_engine_eligible(s.config)) {
    SimConfig tiled = s.config;
    tiled.engine = SimEngine::kTiled;
    const TrialRun c = run_trial(tiled, s.trial_seed, plan);
    const std::string tdiff =
        diff_runs("full-rebuild", a, "tiled", c, /*with_touched=*/false);
    if (!tdiff.empty()) {
      failures.push_back({"engine-identity", tdiff + " [" + describe(s) + "]"});
    }
  }
}

void check_threads_identity(const FuzzScenario& s, const OracleOptions& opts,
                            std::vector<OracleFailure>& failures) {
  if (s.config.threads == 1) return;
  SimConfig serial = s.config;
  serial.threads = 1;
  const FaultPlan* plan = s.faults.has_lifetime_events() ? &s.faults : nullptr;
  const TrialRun a = run_trial(serial, s.trial_seed, plan);
  TrialRun b = run_trial(s.config, s.trial_seed, plan);
  if (opts.mutation == kMutateThreadsIdentity) {
    b.result.avg_gateways += 1.0;
  }
  const std::string diff =
      diff_runs("threads=1", a, "threads=" + std::to_string(s.config.threads),
                b, /*with_touched=*/true);
  if (!diff.empty()) {
    failures.push_back({"threads-identity", diff + " [" + describe(s) + "]"});
  }
}

void check_lifetime_invariants(const FuzzScenario& s,
                               const OracleOptions& opts,
                               std::vector<OracleFailure>& failures) {
  const FaultPlan* plan = s.faults.has_lifetime_events() ? &s.faults : nullptr;
  const TrialRun run = run_trial(s.config, s.trial_seed, plan);
  const auto energy_fail = [&](const std::string& detail) {
    failures.push_back(
        {"energy-conservation", detail + " [" + describe(s) + "]"});
  };
  const auto stats_fail = [&](const std::string& detail) {
    failures.push_back({"fault-stats", detail + " [" + describe(s) + "]"});
  };

  const auto n = static_cast<double>(s.config.n_hosts);
  const auto n_hosts = static_cast<std::size_t>(s.config.n_hosts);
  if (run.trace.records.size() !=
      static_cast<std::size_t>(run.result.intervals)) {
    energy_fail("one record per interval violated: " +
                std::to_string(run.trace.records.size()) + " records for " +
                std::to_string(run.result.intervals) + " intervals");
    return;
  }
  const double mutation_shift =
      opts.mutation == kMutateEnergyAccounting ? 1.0 : 0.0;
  double prev_total = n * s.config.initial_energy;
  constexpr double kTolerance = 1e-6;
  for (std::size_t i = 0; i < run.trace.records.size(); ++i) {
    const IntervalRecord& record = run.trace.records[i];
    const long interval = static_cast<long>(i) + 1;
    if (record.interval != interval) {
      energy_fail("record " + std::to_string(i) + " carries interval " +
                  std::to_string(record.interval));
      return;
    }
    const double total = record.mean_energy * n + mutation_shift;
    if (record.min_energy > record.mean_energy + kTolerance ||
        record.mean_energy > record.max_energy + kTolerance ||
        record.max_energy > s.config.initial_energy + kTolerance ||
        record.min_energy < 0.0) {
      energy_fail("energy distribution out of bounds at interval " +
                  std::to_string(interval) + " (min " +
                  fmt(record.min_energy) + ", mean " +
                  fmt(record.mean_energy) + ", max " +
                  fmt(record.max_energy) + ")");
      return;
    }
    if (total > prev_total + kTolerance) {
      energy_fail("total energy grew at interval " + std::to_string(interval) +
                  " (" + fmt(prev_total) + " -> " + fmt(total) + ")");
      return;
    }
    // Drain ledger. Every functioning non-gateway pays d', every active
    // gateway pays d, and battery clamps at zero. Intervals where a clamp
    // can hide are excluded from the exact check: a death (degraded mode
    // records it; the paper's run ends on it, so there its marker is the
    // final non-capped interval — fault-free trials emit no fault records).
    // Theft records carry the *requested* amount — a theft on an
    // already-dead host removes nothing — so thefts widen the exact check
    // into a [expected, expected + thefts] band.
    bool death_here = false;
    double theft_here = 0.0;
    for (const FaultRecord& event : run.trace.fault_records) {
      if (event.interval != interval) continue;
      if (event.kind == FaultKind::kDeath) death_here = true;
      if (event.kind == FaultKind::kTheft) theft_here += event.amount;
    }
    const bool fault_free_final_death =
        plan == nullptr && i + 1 == run.trace.records.size() &&
        !run.result.hit_cap;
    if (!death_here && !fault_free_final_death) {
      const auto down = static_cast<std::size_t>(
          record.counters[static_cast<std::size_t>(obs::Counter::kHostsDown)]);
      const std::size_t functioning = n_hosts - down;
      const double d = gateway_drain(s.config.drain_model, n_hosts,
                                     record.gateways, s.config.drain_params);
      const double expected =
          static_cast<double>(record.gateways) * d +
          static_cast<double>(functioning - record.gateways) *
              s.config.drain_params.nongateway_drain;
      const double actual = prev_total - total;
      if (actual < expected - kTolerance ||
          actual > expected + theft_here + kTolerance) {
        energy_fail("drain ledger off at interval " + std::to_string(interval) +
                    ": removed " + fmt(actual) + ", expected " +
                    fmt(expected) + " (" + std::to_string(record.gateways) +
                    " gateways x d=" + fmt(d) + " + " +
                    std::to_string(functioning - record.gateways) +
                    " x d'=" + fmt(s.config.drain_params.nongateway_drain) +
                    ") plus up to " + fmt(theft_here) + " stolen");
        return;
      }
    }
    prev_total = total;
  }

  // Fault-stats consistency against the trace (all-zero and -1 sentinel for
  // fault-free runs; tallies must equal the record counts otherwise).
  std::size_t crashes = 0;
  std::size_t recoveries = 0;
  std::size_t thefts = 0;
  std::size_t deaths = 0;
  std::size_t repairs = 0;
  long first_death = -1;
  for (const FaultRecord& event : run.trace.fault_records) {
    switch (event.kind) {
      case FaultKind::kCrash: ++crashes; break;
      case FaultKind::kRecover: ++recoveries; break;
      case FaultKind::kTheft: ++thefts; break;
      case FaultKind::kDeath:
        ++deaths;
        if (first_death < 0) first_death = event.interval;
        break;
      case FaultKind::kRepair: ++repairs; break;
    }
  }
  FaultStats observed = run.result.faults;
  if (opts.mutation == kMutateFaultStats) ++observed.deaths;
  if (observed.crashes != crashes || observed.recoveries != recoveries ||
      observed.thefts != thefts || observed.deaths != deaths ||
      observed.repairs != repairs ||
      observed.events != crashes + recoveries + thefts) {
    stats_fail("tallies disagree with the trace (deaths " +
               std::to_string(observed.deaths) + " vs " +
               std::to_string(deaths) + ", events " +
               std::to_string(observed.events) + " vs " +
               std::to_string(crashes + recoveries + thefts) + ")");
    return;
  }
  if (observed.first_death_interval != first_death) {
    stats_fail("first_death_interval " +
               std::to_string(observed.first_death_interval) +
               " but the trace says " + std::to_string(first_death) +
               " (-1 = no death)");
    return;
  }
  if (observed.min_coverage < 0.0 || observed.min_coverage > 1.0) {
    stats_fail("min_coverage " + fmt(observed.min_coverage) +
               " outside [0, 1]");
  }
}

void check_jsonl_schema(const FuzzScenario& s, const OracleOptions& opts,
                        std::vector<OracleFailure>& failures) {
  std::ostringstream buffer;
  obs::JsonlSink sink(buffer);
  const FaultPlan* plan = s.faults.empty() ? nullptr : &s.faults;
  (void)run_lifetime_trials(s.config, 1, s.trial_seed, nullptr, &sink, plan);
  std::string text = buffer.str();
  if (opts.mutation == kMutateJsonl) text += "{\"type\":broken\n";
  std::istringstream lines(text);
  const obs::StreamValidation validation =
      obs::validate_metrics_stream(lines);
  if (!validation.ok) {
    failures.push_back({"jsonl-schema",
                        validation.error + " [" + describe(s) + "]"});
  }
}

void check_empty_plan_identity(const FuzzScenario& s,
                               const OracleOptions& opts,
                               std::vector<OracleFailure>& failures) {
  if (s.faults.has_lifetime_events()) return;
  const TrialRun bare = run_trial(s.config, s.trial_seed, nullptr);
  TrialRun planned = run_trial(s.config, s.trial_seed, &s.faults);
  if (opts.mutation == kMutateEmptyPlanIdentity) ++planned.result.intervals;
  const std::string diff = diff_runs("no plan", bare, "event-free plan",
                                     planned, /*with_touched=*/true);
  if (!diff.empty()) {
    failures.push_back(
        {"empty-plan-identity", diff + " [" + describe(s) + "]"});
  }
}

/// Canonical, timing-free form of a JSONL metrics stream: every record
/// re-serialized with "*_ns" values zeroed, serve envelope records
/// (serve_response / serve_error) dropped and the "tenant" tag removed —
/// the same normalization tests/serve_test.cpp pins, so the serve path and
/// a standalone run must agree byte for byte on what remains.
std::string canonical_stream(const std::string& stream) {
  std::ostringstream out;
  std::istringstream in(stream);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const JsonValue record = parse_json(line);
    const JsonValue* type = record.find("type");
    if (type != nullptr && (type->as_string() == "serve_response" ||
                            type->as_string() == "serve_error")) {
      continue;
    }
    JsonWriter json(out);
    json.begin_object();
    for (const auto& [key, value] : record.as_object()) {
      if (key == "tenant") continue;
      json.key(key);
      if (value.is_number() && key.size() > 3 &&
          key.compare(key.size() - 3, 3, "_ns") == 0) {
        json.value(0);
      } else {
        write_json(json, value);
      }
    }
    json.end_object();
    out << "\n";
  }
  return out.str();
}

void check_serve_identity(const FuzzScenario& s, const OracleOptions& opts,
                          std::vector<OracleFailure>& failures) {
  const auto fail = [&](const std::string& detail) {
    failures.push_back({"serve-identity", detail + " [" + describe(s) + "]"});
  };
  // Two trials so a tick budget crosses the trial boundary mid-request —
  // the cached-run rebuild between trials is exactly what can drift.
  constexpr long kTrials = 2;
  const FaultPlan* plan = s.faults.empty() ? nullptr : &s.faults;

  // Standalone twin: serve forces per-trial threading to 1 (its parallelism
  // is across tenants), so the reference run gets the same forced config.
  std::ostringstream standalone;
  {
    obs::JsonlSink sink(standalone);
    (void)run_lifetime_trials(montecarlo_trial_config(s.config, true),
                              kTrials, s.trial_seed, nullptr, &sink, plan);
  }

  serve::Request create;
  create.op = serve::Op::kCreate;
  create.tenant = "fuzz";
  create.config = s.config;
  create.seed = s.trial_seed;
  create.trials = kTrials;
  create.faults = s.faults;
  create.has_faults = plan != nullptr;
  serve::Request tick_request;
  tick_request.op = serve::Op::kTick;
  tick_request.tenant = "fuzz";
  tick_request.intervals = s.serve_ticks;  // 0 = every remaining trial
  const std::string tick = serve::write_request(tick_request);

  std::ostringstream served;
  serve::Server server(serve::ServeOptions{}, served);
  server.process_lines({serve::write_request(create)});
  // Tick until the response reports finished; the budget-0 spelling takes
  // one request, chunked ticks at most total-intervals + one per trial.
  const long cap = kTrials * (s.config.max_intervals + 2) + 2;
  for (long i = 0; i < cap; ++i) {
    const std::size_t before = served.str().size();
    server.process_lines({tick});
    if (served.str().find("\"finished\":true", before) != std::string::npos) {
      break;
    }
  }

  std::string serve_canonical = canonical_stream(served.str());
  if (opts.mutation == kMutateServeIdentity) {
    serve_canonical += "{\"type\":\"interval\",\"mutated\":true}\n";
  }
  const std::string standalone_canonical =
      canonical_stream(standalone.str());
  if (serve_canonical == standalone_canonical) return;
  std::istringstream a(serve_canonical);
  std::istringstream b(standalone_canonical);
  std::string la;
  std::string lb;
  std::size_t line_no = 1;
  while (true) {
    const bool got_a = static_cast<bool>(std::getline(a, la));
    const bool got_b = static_cast<bool>(std::getline(b, lb));
    if (!got_a && !got_b) break;
    if (!got_a || !got_b || la != lb) {
      fail("serve stream diverges from run_lifetime_trials at canonical "
           "line " + std::to_string(line_no) + ": serve=" +
           (got_a ? la : "<eof>") + " standalone=" + (got_b ? lb : "<eof>"));
      return;
    }
    ++line_no;
  }
}

}  // namespace

std::vector<OracleFailure> run_oracles(const FuzzScenario& scenario,
                                       const OracleOptions& options) {
  std::vector<OracleFailure> failures;
  if (const auto snap = make_snapshot(scenario)) {
    check_cds_validity(scenario, *snap, options, failures);
    check_gap_bound(scenario, *snap, options, failures);
    check_dist_agreement(scenario, *snap, options, failures);
  }
  check_engine_identity(scenario, options, failures);
  check_threads_identity(scenario, options, failures);
  check_lifetime_invariants(scenario, options, failures);
  check_jsonl_schema(scenario, options, failures);
  check_empty_plan_identity(scenario, options, failures);
  check_serve_identity(scenario, options, failures);
  return failures;
}

}  // namespace pacds::fuzz
