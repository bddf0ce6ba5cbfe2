// extension_loops: the three extension grids that route over the backbone,
// single-threaded — run_traffic_trial (n in {30, 60} x five schemes x churn
// off/on), des::run_packet_sim (n = 40 x five schemes x injection gap
// {1.0, 0.4, 0.2}) and measure_maintenance_overhead (stay probability and
// mobility-model sweeps). `routing` and `des` run nowhere else, and these
// are the three interval loops a later refactor folds onto LifetimeRun.

#include <algorithm>
#include <exception>
#include <iterator>
#include <thread>

#include "common.hpp"
#include "core/cds.hpp"
#include "des/packet_sim.hpp"
#include "net/rng.hpp"
#include "net/space.hpp"
#include "net/topology.hpp"
#include "net/udg.hpp"
#include "routing/routing.hpp"
#include "sim/overhead.hpp"
#include "sim/traffic_sim.hpp"

namespace perfbench {

using namespace pacds;

namespace {

constexpr int kTrafficHosts[] = {30, 60};
constexpr double kGaps[] = {1.0, 0.4, 0.2};
constexpr double kStays[] = {0.0, 0.25, 0.5, 0.75, 0.9, 1.0};
constexpr MobilityKind kMobilities[] = {
    MobilityKind::kStatic, MobilityKind::kPaperJump, MobilityKind::kRandomWalk,
    MobilityKind::kRandomWaypoint, MobilityKind::kGaussMarkov};

struct Pass {
  std::vector<double> call_ms;
  double setup_s = 0.0;  ///< the set-up sample taken before the pass
  double wall_s = 0.0;
  std::size_t calls = 0;
  std::size_t des_injected = 0;
  std::size_t des_unbalanced = 0;  ///< runs with injected != delivered + drops
  std::string digest;
};

/// Records one call: its time, and (traced) a span around it.
class CallTimer {
 public:
  CallTimer(Pass& pass, SpanBuffer* spans, const char* name)
      : pass_(&pass),
        spans_(spans),
        span_(spans != nullptr ? spans->open(name) : -1) {}
  CallTimer(const CallTimer&) = delete;
  CallTimer& operator=(const CallTimer&) = delete;
  ~CallTimer() {
    if (spans_ != nullptr) spans_->close(span_);
    pass_->call_ms.push_back(ms_between(start_, Clock::now()));
    ++pass_->calls;
  }

 private:
  Pass* pass_;
  SpanBuffer* spans_;
  int span_;
  Clock::time_point start_ = Clock::now();
};

/// Runs per grid point of each loop.
struct Trials {
  std::size_t traffic = 1;
  std::size_t des = 1;
  std::size_t overhead = 1;
};

/// One pass over the three grids.
Pass run_pass(std::uint64_t seed, const Trials& trials, bool corrupt_des,
              SpanBuffer* spans) {
  Pass pass;
  Digest digest;
  std::uint64_t call = 0;
  const auto start = Clock::now();
  for (const bool churn : {false, true}) {
    for (const int n : kTrafficHosts) {
      for (const RuleSet rs : kAllRuleSets) {
        for (std::size_t t = 0; t < trials.traffic; ++t) {
          TrafficSimConfig config;
          config.n_hosts = n;
          config.rule_set = rs;
          config.churn = churn ? ChurnModel{0.1, 0.25} : ChurnModel{0.0, 0.25};
          TrafficSimResult r;
          {
            const CallTimer timer(pass, spans, "sim.traffic_trial");
            r = run_traffic_trial(config, derive_seed(seed, ++call));
          }
          digest.add(r.intervals)
              .add(r.avg_gateways)
              .add(r.delivery_ratio)
              .add(static_cast<std::uint64_t>(r.flows_attempted))
              .add(static_cast<std::uint64_t>(r.flows_delivered))
              .add(r.energy_stddev_at_death);
        }
      }
    }
  }
  for (const double gap : kGaps) {
    for (const RuleSet rs : kAllRuleSets) {
      for (std::size_t t = 0; t < trials.des; ++t) {
        des::PacketSimConfig config;
        config.n_hosts = 40;
        config.rule_set = rs;
        config.injection_gap = gap;
        des::PacketSimResult r;
        {
          const CallTimer timer(pass, spans, "des.packet_run");
          r = des::run_packet_sim(config, derive_seed(seed, ++call));
        }
        // Packet conservation: every injected packet is delivered or
        // dropped for exactly one reason.
        std::size_t accounted = r.delivered + r.drops.total();
        if (corrupt_des) ++accounted;
        if (r.injected != accounted) ++pass.des_unbalanced;
        pass.des_injected += r.injected;
        digest.add(static_cast<std::uint64_t>(r.injected))
            .add(static_cast<std::uint64_t>(r.delivered))
            .add(static_cast<std::uint64_t>(r.drops.total()))
            .add(r.latency.mean)
            .add(r.hops.mean)
            .add(r.max_queue)
            .add(r.avg_gateways);
      }
    }
  }
  const auto overhead = [&](const OverheadConfig& config) {
    MaintenanceOverhead r;
    {
      const CallTimer timer(pass, spans, "sim.overhead_run");
      r = measure_maintenance_overhead(config, derive_seed(seed, ++call));
    }
    digest.add(static_cast<std::uint64_t>(r.intervals))
        .add(static_cast<std::uint64_t>(r.neighbor_msgs))
        .add(static_cast<std::uint64_t>(r.status_msgs))
        .add(static_cast<std::uint64_t>(r.global_msgs));
  };
  for (const double c : kStays) {
    for (std::size_t t = 0; t < trials.overhead; ++t) {
      OverheadConfig config;
      config.mobility_params.stay_probability = c;
      overhead(config);
    }
  }
  for (const MobilityKind kind : kMobilities) {
    for (std::size_t t = 0; t < trials.overhead; ++t) {
      OverheadConfig config;
      config.mobility_kind = kind;
      overhead(config);
    }
  }
  pass.wall_s = s_between(start, Clock::now());
  pass.digest = digest.hex();
  return pass;
}

/// One snapshot the way the loops place it: connected placement in the
/// paper field, unit-disk links, the scheme's backbone (uniform energy).
struct Snapshot {
  Graph graph;
  DynBitset gateways;
};

Snapshot place_snapshot(int n, RuleSet rs, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  const Field field = Field::paper_field();
  std::vector<Vec2> positions;
  if (auto placed = random_connected_placement(n, field, kPaperRadius, rng,
                                               500)) {
    positions = std::move(placed->positions);
  } else {
    positions = random_placement(n, field, rng);
  }
  Graph graph = build_udg(positions, kPaperRadius);
  const std::vector<double> uniform(static_cast<std::size_t>(n), 1.0);
  DynBitset gateways = compute_cds(graph, rs, uniform).gateways;
  return {std::move(graph), std::move(gateways)};
}

/// The set-up every extension trial performs before its first interval:
/// placement, first backbone and routing state, three times per loop host
/// count and scheme.
double setup_sample(std::uint64_t seed) {
  const auto start = Clock::now();
  std::uint64_t k = 0;
  for (const int n : {30, 60, 40, 50}) {
    for (const RuleSet rs : kAllRuleSets) {
      for (int t = 0; t < 3; ++t) {
        const Snapshot snap = place_snapshot(n, rs, derive_seed(seed, ++k));
        const DominatingSetRouter router(snap.graph, snap.gateways);
        (void)router;
      }
    }
  }
  return s_between(start, Clock::now());
}

/// The extension benches' own default trial counts (PACDS_TRIALS unset).
Trials trials_for(const Options& options) {
  if (options.smoke) return {};
  return {25, 15, 20};
}

/// Runs single-threaded passes on every lane at once, each lane with its
/// own seed, until every lane has `min_passes` and the budget is spent;
/// each pass is preceded by one set-up sample. Per-CPU interference on a
/// shared host is independent across CPUs, so medians over all lanes'
/// passes barely see one slowed CPU. With `spans` each lane records into
/// its own buffer.
std::vector<std::vector<Pass>> run_lanes(int lanes, std::uint64_t seed,
                                         const Trials& trials,
                                         bool corrupt_des, double budget_s,
                                         std::size_t min_passes,
                                         std::vector<SpanBuffer>* spans) {
  std::vector<std::vector<Pass>> passes(static_cast<std::size_t>(lanes));
  std::vector<std::exception_ptr> errors(passes.size());
  const auto start = Clock::now();
  {
    std::vector<std::thread> threads;
    for (std::size_t lane = 0; lane < passes.size(); ++lane) {
      threads.emplace_back([&, lane] {
        try {
          while (passes[lane].size() < min_passes ||
                 s_between(start, Clock::now()) < budget_s) {
            const double setup_s = setup_sample(derive_seed(
                derive_seed(seed, 0x5e70u + lane), passes[lane].size()));
            passes[lane].push_back(
                run_pass(derive_seed(seed, lane), trials, corrupt_des,
                         spans != nullptr ? &(*spans)[lane] : nullptr));
            passes[lane].back().setup_s = setup_s;
          }
        } catch (...) {
          errors[lane] = std::current_exception();
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  return passes;
}

struct LaneSummary {
  std::vector<double> setups;
  std::vector<double> walls;
  std::vector<double> p50s;
  std::vector<double> p90s;
  std::size_t calls = 0;
  std::size_t des_unbalanced = 0;
  std::size_t des_injected = 0;
  bool identical = true;  ///< every lane's passes agree with its first
};

LaneSummary summarize(const std::vector<std::vector<Pass>>& lanes) {
  LaneSummary out;
  for (const std::vector<Pass>& passes : lanes) {
    for (const Pass& pass : passes) {
      out.setups.push_back(pass.setup_s);
      out.walls.push_back(pass.wall_s);
      out.p50s.push_back(median(pass.call_ms));
      out.p90s.push_back(percentile(pass.call_ms, 0.90));
      out.calls += pass.calls;
      out.des_unbalanced += pass.des_unbalanced;
      out.des_injected += pass.des_injected;
      out.identical = out.identical && pass.digest == passes.front().digest;
    }
  }
  return out;
}

}  // namespace

void run_extension_loops(Run& run) {
  const Options& options = run.options();
  const int lanes = options.lanes > 0 ? options.lanes : host_cpus();
  run.guard_threads("extension_loops lanes", lanes);
  run.stamp("lanes", std::to_string(lanes));
  const Trials trials = trials_for(options);

  const bool corrupt_des = run.corrupt("des_conservation");

  {
    const AddElapsed timer(run.check_seconds);
    run.check_golden(run_pass(20010101, Trials{}, false, nullptr).digest);
  }

  if (!options.trace) {
    const auto passes =
        run_lanes(lanes, options.seed, trials, corrupt_des,
                  options.smoke ? 0.0 : options.seconds, 2, nullptr);
    const LaneSummary sum = summarize(passes);
    run.attempted(sum.calls);
    run.check("repeat_identical",
              sum.identical && !run.corrupt("repeat_identical"),
              "passes of one seed disagree");
    run.check("des_conservation", sum.des_unbalanced == 0,
              std::to_string(sum.des_unbalanced) +
                  " DES runs with injected != delivered + drops",
              sum.des_unbalanced);
    run.e2e("wall_s", median(sum.walls));
    run.e2e("setup_s", median(sum.setups));
    run.e2e("op_ms_p50", median(sum.p50s));
    run.e2e("op_ms_p90", median(sum.p90s));
    run.line("extension_loops: " + std::to_string(sum.walls.size()) +
             " single-threaded passes on " + std::to_string(lanes) +
             " lanes at once, " + std::to_string(passes.front().front().calls) +
             " calls each, lane 0 digest " + passes.front().front().digest);
    run.note("wall_s", "s", median(sum.walls),
             "one pass over the three grids, median over passes");
    run.note("setup_s", "s", median(sum.setups),
             "placement + backbone + router, one sample per pass");
    run.note("call_ms_p50", "ms", median(sum.p50s), "median over passes");
    run.note("call_ms_p90", "ms", median(sum.p90s),
             std::to_string(sum.calls) + " calls");
    return;
  }

  // Traced run: one untraced pass per lane for reference, one pass per lane
  // with a span per call, then the routing layer timed on snapshots placed
  // like the loops'.
  const double cpu0 = process_cpu_seconds();
  const auto reference_wall = Clock::now();
  const auto reference_passes =
      run_lanes(lanes, options.seed, trials, corrupt_des, 0.0, 1, nullptr);
  const LaneSummary reference = summarize(reference_passes);
  const double cpu_s = process_cpu_seconds() - cpu0;
  const double reference_s = s_between(reference_wall, Clock::now());
  const auto epoch = Clock::now();
  std::vector<SpanBuffer> lane_spans(static_cast<std::size_t>(lanes),
                                     SpanBuffer(epoch));
  const auto traced_passes =
      run_lanes(lanes, options.seed, trials, corrupt_des, 0.0, 1, &lane_spans);
  const LaneSummary traced = summarize(traced_passes);
  SpanBuffer spans(epoch);
  for (const SpanBuffer& lane : lane_spans) spans.append(lane);
  run.attempted(reference.calls + traced.calls);
  bool identical = !run.corrupt("repeat_identical");
  for (std::size_t lane = 0; lane < traced_passes.size(); ++lane) {
    // Lane l runs seed l in both rounds.
    identical = identical && traced_passes[lane].front().digest ==
                                 reference_passes[lane].front().digest;
  }
  run.check("repeat_identical", identical,
            "a traced pass differs from its untraced pass");
  const std::size_t unbalanced =
      reference.des_unbalanced + traced.des_unbalanced;
  run.check("des_conservation", unbalanced == 0,
            std::to_string(unbalanced) +
                " DES runs with injected != delivered + drops",
            unbalanced);

  std::size_t routes = 0;
  std::size_t builds = 0;
  {
    std::uint64_t k = 0;
    for (const int n : {30, 60, 40}) {
      for (const RuleSet rs : kAllRuleSets) {
        for (int s = 0; s < (options.smoke ? 1 : 4); ++s) {
          const Snapshot snap =
              place_snapshot(n, rs, derive_seed(options.seed ^ 0x7011u, ++k));
          Xoshiro256 rng(derive_seed(options.seed ^ 0x7012u, k));
          const int build = spans.open("routing.router_build");
          const DominatingSetRouter router(snap.graph, snap.gateways);
          spans.close(build);
          ++builds;
          for (int f = 0; f < 20; ++f) {
            const auto src = static_cast<NodeId>(rng.uniform_int(0, n - 1));
            const auto dst = static_cast<NodeId>(rng.uniform_int(0, n - 1));
            const int route = spans.open("routing.route");
            const RouteResult result = router.route(src, dst);
            spans.close(route);
            (void)result;
            ++routes;
          }
        }
      }
    }
  }
  run.save_spans(spans);

  const auto totals = aggregate(spans);
  const auto total_ms = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second.total_ms;
  };
  const auto count = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 1.0 : static_cast<double>(it->second.count);
  };
  run.layer("sim.traffic_trial_ms",
            total_ms("sim.traffic_trial") / count("sim.traffic_trial"));
  run.layer("sim.overhead_run_ms",
            total_ms("sim.overhead_run") / count("sim.overhead_run"));
  run.layer("des.packet_run_ms",
            total_ms("des.packet_run") / count("des.packet_run"));
  const std::size_t injected = std::max<std::size_t>(traced.des_injected, 1);
  run.layer("des.packet_us",
            total_ms("des.packet_run") * 1e3 / static_cast<double>(injected));
  run.layer("routing.router_build_ms",
            total_ms("routing.router_build") / static_cast<double>(builds));
  run.layer("routing.route_us",
            total_ms("routing.route") * 1e3 / static_cast<double>(routes));
  run.layer("sim.pool_util",
            cpu_s / (reference_s * static_cast<double>(lanes)));
  run.layer("bench.trace_overhead",
            median(traced.walls) / median(reference.walls) - 1.0);
  run.layer("bench.check_ms", run.check_seconds * 1e3);

  const double traced_lane_ms = mean_of(traced.walls) * 1e3 *
                                static_cast<double>(lanes);
  run.line("attribution (summed over " + std::to_string(lanes) +
           " lanes; share of the traced passes, " +
           std::to_string(traced.calls) + " calls):");
  for (const char* name :
       {"sim.traffic_trial", "des.packet_run", "sim.overhead_run"}) {
    run.layer_row(name, total_ms(name), total_ms(name) / traced_lane_ms,
                  std::to_string(static_cast<long>(count(name))) + " calls");
  }
  run.layer_row("routing.router_build", total_ms("routing.router_build"), 0.0,
                std::to_string(builds) + " builds (separate snapshots)");
  run.layer_row("routing.route", total_ms("routing.route"), 0.0,
                std::to_string(routes) + " routes (separate snapshots)");
}

}  // namespace perfbench
