// paper_sweep: the paper's own evaluation (Figures 10-13). run_sweep over
// the paper host grid (3..100) x NR/ID/ND/EL1/EL2 x drain models 1-3 with
// the sequential strategy, so the full-rebuild engine runs, on a trial pool
// of nproc lanes. Thousands of short n <= 100 trials: from-scratch link
// build, sequential rules, placement retries and the pool's per-point joins
// do the work; the incremental and tiled engines, serve and routing do none.

#include <algorithm>
#include <iterator>
#include <memory>
#include <vector>

#include "assembled_trial.hpp"
#include "core/verify.hpp"
#include "net/rng.hpp"
#include "sim/experiment.hpp"
#include "sim/montecarlo.hpp"
#include "sim/threadpool.hpp"

namespace perfbench {

using namespace pacds;

namespace {

constexpr DrainModel kModels[] = {DrainModel::kConstantTotal,
                                  DrainModel::kLinearTotal,
                                  DrainModel::kQuadraticTotal};

struct SweepShape {
  std::vector<int> hosts;
  std::size_t trials = 0;
};

SweepShape shape(const Options& options) {
  if (options.smoke) return {{3, 10, 40}, 2};
  return {paper_host_counts(), 8};
}

std::uint64_t model_seed(std::uint64_t seed, std::size_t model) {
  return derive_seed(seed, 0x5eed0000u + model);
}

SimConfig point_config(DrainModel model, int n, RuleSet scheme) {
  SimConfig config;  // paper defaults: sequential strategy, radius 25, EL0 100
  config.drain_model = model;
  config.n_hosts = n;
  config.rule_set = scheme;
  return config;
}

void add_summary(Digest& digest, const LifetimeSummary& s) {
  for (const Summary* m :
       {&s.intervals, &s.avg_gateways, &s.avg_marked, &s.avg_churn}) {
    digest.add(static_cast<std::uint64_t>(m->count))
        .add(m->mean)
        .add(m->stddev)
        .add(m->min)
        .add(m->max);
  }
  digest.add(static_cast<std::uint64_t>(s.capped_trials))
      .add(static_cast<std::uint64_t>(s.disconnected_trials));
}

bool same_summary(const LifetimeSummary& a, const LifetimeSummary& b) {
  Digest da;
  Digest db;
  add_summary(da, a);
  add_summary(db, b);
  return da.hex() == db.hex();
}

/// One sweep point = one run_sweep call over a single (n, scheme) for one
/// drain model; run_sweep joins its pool after every point anyway, so the
/// grid split this way does the same work and yields the same results as
/// one call over the whole grid.
struct Job {
  std::vector<LifetimeSummary> points;  // model-major, then n, then scheme
  std::vector<double> point_ms;
  double wall_s = 0.0;
  std::string digest;
};

/// The trial pool of `lanes` lanes: lanes - 1 workers, because the calling
/// thread claims trials too. One lane is no pool at all (a pool of zero
/// workers would mean one per CPU).
std::unique_ptr<ThreadPool> trial_pool(int lanes) {
  if (lanes <= 1) return nullptr;
  return std::make_unique<ThreadPool>(static_cast<std::size_t>(lanes - 1));
}

Job run_job(const SweepShape& sweep, std::uint64_t seed, ThreadPool* pool) {
  Job job;
  Digest digest;
  const auto start = Clock::now();
  for (std::size_t m = 0; m < std::size(kModels); ++m) {
    for (const int n : sweep.hosts) {
      for (const RuleSet scheme : kAllRuleSets) {
        SweepConfig config;
        config.host_counts = {n};
        config.schemes = {scheme};
        config.base = point_config(kModels[m], n, scheme);
        config.trials = sweep.trials;
        config.base_seed = model_seed(seed, m);
        const auto t0 = Clock::now();
        SweepResult result = run_sweep(config, pool);
        job.point_ms.push_back(ms_between(t0, Clock::now()));
        job.points.push_back(result.rows.front().per_scheme.front());
        add_summary(digest, job.points.back());
      }
    }
  }
  job.wall_s = s_between(start, Clock::now());
  job.digest = digest.hex();
  return job;
}

/// The trial set-up a sweep pays: a fresh trial pool plus LifetimeRun
/// construction and first interval of four trials at every paper host
/// count (placement retries at small n vary from trial to trial).
double setup_sample(const SweepShape& sweep, std::uint64_t seed, int lanes) {
  const auto start = Clock::now();
  const std::unique_ptr<ThreadPool> pool = trial_pool(lanes);
  std::uint64_t trial = 0;
  for (const int n : sweep.hosts) {
    for (int t = 0; t < 4; ++t) {
      LifetimeRun run(point_config(DrainModel::kLinearTotal, n, RuleSet::kEL1),
                      derive_seed(seed, ++trial));
      run.step();
    }
  }
  return s_between(start, Clock::now());
}

/// Canonical instance whose digest is pinned in golden.cpp.
std::string canonical_digest(ThreadPool* pool) {
  const SweepShape sweep{{3, 10, 50, 100}, 2};
  return run_job(sweep, 20010101, pool).digest;
}

// ---- traced run -------------------------------------------------------------

struct TracedJob {
  std::vector<LifetimeSummary> points;
  SpanBuffer spans;
  LayerInputs layers;
  long cds_violations = 0;   ///< intervals that failed check_cds
  long cds_bad_trials = 0;   ///< trials with at least one such interval
  double wall_s = 0.0;   ///< including the checks' share
  double check_s = 0.0;  ///< summed over lanes
};

/// The same grid with every trial assembled from the layers' public calls,
/// trials spread over the pool and aggregated exactly as
/// run_lifetime_trials aggregates them.
TracedJob run_traced_job(const SweepShape& sweep, std::uint64_t seed,
                         ThreadPool* pool, Run& run) {
  const auto epoch = Clock::now();
  TracedJob job{{}, SpanBuffer(epoch), {}, 0, 0, 0.0, 0.0};
  const bool corrupt_cds = run.corrupt("check_cds");
  for (std::size_t m = 0; m < std::size(kModels); ++m) {
    for (const int n : sweep.hosts) {
      for (const RuleSet scheme : kAllRuleSets) {
        const SimConfig config = montecarlo_trial_config(
            point_config(kModels[m], n, scheme), true);
        const std::uint64_t base =
            model_seed(seed, m) ^ (static_cast<std::uint64_t>(n) << 32);
        std::vector<AssembledResult> results(sweep.trials);
        std::vector<SpanBuffer> buffers(sweep.trials, SpanBuffer(epoch));
        std::vector<long> violations(sweep.trials, 0);
        std::vector<double> check_s(sweep.trials, 0.0);
        const auto run_one = [&](std::size_t t) {
          IntervalHooks hooks;
          hooks.after = [&](const LifetimeEngine& engine, long,
                            const IntervalInputs*) {
            // The sequential strategy guarantees a CDS every interval.
            const AddElapsed timer(check_s[t]);
            const DynBitset& gateways = engine.gateways();
            const bool ok =
                corrupt_cds
                    ? check_cds(*engine.graph(), DynBitset(gateways.size()))
                          .ok()
                    : check_cds(*engine.graph(), gateways).ok();
            if (!ok) ++violations[t];
          };
          results[t] = run_assembled_trial(config, derive_seed(base, t),
                                           buffers[t], -1, &hooks);
        };
        if (pool != nullptr) {
          pool->parallel_for(sweep.trials, run_one);
        } else {
          for (std::size_t t = 0; t < sweep.trials; ++t) run_one(t);
        }
        Welford intervals;
        Welford gateways;
        Welford marked;
        Welford churn;
        LifetimeSummary summary;
        for (std::size_t t = 0; t < sweep.trials; ++t) {
          const TrialResult& r = results[t].result;
          intervals.add(static_cast<double>(r.intervals));
          gateways.add(r.avg_gateways);
          marked.add(r.avg_marked);
          churn.add(r.avg_cds_churn);
          if (r.hit_cap) ++summary.capped_trials;
          if (!r.initial_connected) ++summary.disconnected_trials;
          job.spans.append(buffers[t]);
          job.layers.add(results[t], n);
          job.cds_violations += violations[t];
          if (violations[t] > 0) ++job.cds_bad_trials;
          job.check_s += check_s[t];
        }
        summary.intervals = Summary::of(intervals);
        summary.avg_gateways = Summary::of(gateways);
        summary.avg_marked = Summary::of(marked);
        summary.avg_churn = Summary::of(churn);
        job.points.push_back(summary);
      }
    }
  }
  job.wall_s = s_between(epoch, Clock::now());
  return job;
}

}  // namespace

void run_paper_sweep(Run& run) {
  const Options& options = run.options();
  const SweepShape sweep = shape(options);
  const int lanes = options.lanes > 0 ? options.lanes : host_cpus();
  run.guard_threads("paper_sweep trial pool", lanes);
  run.stamp("lanes", std::to_string(lanes));

  const std::unique_ptr<ThreadPool> owned_pool = trial_pool(lanes);
  ThreadPool* pool = owned_pool.get();
  const std::size_t points_per_job =
      std::size(kModels) * sweep.hosts.size() * std::size(kAllRuleSets);

  if (!options.trace) {
    // Repeat the fixed job until the time budget is spent (at least 3).
    // Three set-up samples precede every sweep, so they are spread over
    // the run like the sweeps themselves.
    std::vector<Job> jobs;
    std::vector<double> setups;
    const auto start = Clock::now();
    while (jobs.size() < 3 ||
           s_between(start, Clock::now()) < options.seconds) {
      for (int i = 0; i < 3; ++i) {
        setups.push_back(setup_sample(
            sweep, derive_seed(options.seed, 0x5e70u + setups.size()),
            lanes));
      }
      jobs.push_back(run_job(sweep, options.seed, pool));
      run.attempted(points_per_job * sweep.trials);
      if (options.smoke && jobs.size() >= 3) break;
    }
    // Every metric is a median over the sweeps, so host noise that slows
    // a minority of them does not move it.
    std::vector<double> walls;
    std::vector<double> p50s;
    std::vector<double> p90s;
    bool identical = true;
    for (const Job& job : jobs) {
      walls.push_back(job.wall_s);
      p50s.push_back(median(job.point_ms));
      p90s.push_back(percentile(job.point_ms, 0.90));
      identical = identical && job.digest == jobs.front().digest;
    }
    {
      const AddElapsed timer(run.check_seconds);
      run.check_golden(canonical_digest(pool));
      run.check("repeat_identical",
                identical && !run.corrupt("repeat_identical"),
                "sweep repetitions disagree");
    }
    run.e2e("wall_s", median(walls));
    run.e2e("setup_s", median(setups));
    run.e2e("op_ms_p50", median(p50s));
    run.e2e("op_ms_p90", median(p90s));
    run.line("paper_sweep: " + std::to_string(jobs.size()) + " sweeps of " +
             std::to_string(points_per_job) + " points x " +
             std::to_string(sweep.trials) + " trials, digest " +
             jobs.front().digest);
    run.note("wall_s", "s", median(walls), "one sweep, median of repetitions");
    run.note("setup_s", "s", median(setups),
             "trial pool + four trial set-ups per host count, median of " +
                 std::to_string(setups.size()));
    run.note("point_ms_p50", "ms", median(p50s),
             "one sweep point, median over sweeps");
    run.note("point_ms_p90", "ms", median(p90s),
             std::to_string(points_per_job) + " points per sweep");
    return;
  }

  // Traced run: one untraced sweep for the reference result, pool
  // utilization and task count; then the same sweep assembled with spans.
  const double cpu0 = process_cpu_seconds();
  const std::size_t tasks0 = pool != nullptr ? pool->tasks_submitted() : 0;
  const Job reference = run_job(sweep, options.seed, pool);
  const double cpu_s = process_cpu_seconds() - cpu0;
  const std::size_t trial_tasks =
      pool != nullptr ? pool->tasks_submitted() - tasks0 : 0;
  run.attempted(points_per_job * sweep.trials);

  TracedJob traced = run_traced_job(sweep, options.seed, pool, run);
  run.check_seconds += traced.check_s;
  run.attempted(static_cast<std::uint64_t>(traced.layers.trials));
  // The checks ran on every lane; take their share out of the wall time.
  const double traced_wall_s =
      traced.wall_s - traced.check_s / static_cast<double>(lanes);
  {
    const AddElapsed timer(run.check_seconds);
    // A point that differs fails its assembled trials.
    std::uint64_t differ = 0;
    for (std::size_t i = 0; i < traced.points.size(); ++i) {
      if (i >= reference.points.size() ||
          !same_summary(reference.points[i], traced.points[i]) ||
          (i == 0 && run.corrupt("assembled_matches_run"))) {
        ++differ;
      }
    }
    run.check("assembled_matches_run",
              differ == 0 && reference.points.size() == traced.points.size(),
              std::to_string(differ) + " points differ from run_sweep",
              differ * sweep.trials);
    run.check("check_cds", traced.cds_violations == 0,
              std::to_string(traced.cds_violations) +
                  " intervals failed check_cds",
              static_cast<std::uint64_t>(traced.cds_bad_trials));
  }
  run.save_spans(traced.spans);

  // Spans are summed over lanes, so shares are of lanes x wall.
  const double uncovered = report_lifetime_layers(
      run, traced.spans, traced.layers,
      traced_wall_s * 1e3 * static_cast<double>(lanes));
  // At smoke sizes (n <= 40) a step is a few microseconds and the
  // coverage says nothing about the paper sweep.
  if (!options.smoke) {
    run.check("attribution_coverage", uncovered <= 0.05,
              "named layers cover only " +
                  std::to_string(100 * (1 - uncovered)) + "% of sim.step");
  }
  run.layer("sim.pool_util",
            cpu_s / (reference.wall_s * static_cast<double>(lanes)));
  // Trial-pool tasks plus intra-interval pool tasks, per interval.
  const SteadyCounters& steady = traced.layers.steady;
  const long intervals =
      std::max<long>(steady.intervals + traced.layers.trials, 1);
  run.layer("sim.pool_tasks",
            (static_cast<double>(trial_tasks) +
             static_cast<double>(steady.counters[static_cast<std::size_t>(
                 obs::Counter::kPoolTasksSubmitted)])) /
                static_cast<double>(intervals));
  run.layer("bench.trace_overhead", traced_wall_s / reference.wall_s - 1.0);
  run.layer("bench.check_ms", run.check_seconds * 1e3);
}

}  // namespace perfbench
