#include "sim/montecarlo.hpp"

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "net/rng.hpp"
#include "sim/config_json.hpp"
#include "sim/metrics_io.hpp"

namespace pacds {

SimConfig montecarlo_trial_config(const SimConfig& config, bool under_pool) {
  SimConfig trial_config = config;
  if (under_pool && trial_config.threads != 1) trial_config.threads = 1;
  return trial_config;
}

LifetimeSummary run_lifetime_trials(const SimConfig& config,
                                    std::size_t trials,
                                    std::uint64_t base_seed, ThreadPool* pool,
                                    obs::JsonlSink* metrics,
                                    const FaultPlan* faults) {
  // Checked here, on the calling thread: a rule broken inside a pooled
  // trial would throw on a worker, where no caller can catch it.
  const SimConfig trial_config =
      montecarlo_trial_config(checked_sim_config(config), pool != nullptr);
  if (metrics != nullptr) {
    write_run_manifest(*metrics, trial_config, base_seed, trials, faults);
  }

  std::vector<TrialResult> results(trials);
  // Pooled trials may finish in any order; each buffers its JSONL lines and
  // the buffers are spliced in trial order after the join, so the emitted
  // stream is identical to a serial run.
  std::vector<std::string> buffered_lines(metrics != nullptr ? trials : 0);
  const auto run_one = [&](std::size_t trial) {
    const std::uint64_t seed = derive_seed(base_seed, trial);
    if (metrics == nullptr) {
      results[trial] = run_lifetime_trial(trial_config, seed, nullptr, faults);
      return;
    }
    std::ostringstream buffer;
    obs::JsonlSink trial_sink(buffer);
    JsonlIntervalObserver observer(trial_sink, trial_config, trial);
    results[trial] =
        run_lifetime_trial(trial_config, seed, &observer, faults);
    buffered_lines[trial] = buffer.str();
  };
  if (pool != nullptr) {
    pool->parallel_for(trials, run_one);
  } else {
    for (std::size_t t = 0; t < trials; ++t) run_one(t);
  }
  if (metrics != nullptr) {
    for (const std::string& lines : buffered_lines) metrics->splice(lines);
  }

  // Deterministic aggregation in trial order.
  Welford intervals;
  Welford gateways;
  Welford marked;
  Welford churn;
  LifetimeSummary summary;
  for (const TrialResult& r : results) {
    intervals.add(static_cast<double>(r.intervals));
    gateways.add(r.avg_gateways);
    marked.add(r.avg_marked);
    churn.add(r.avg_cds_churn);
    if (r.hit_cap) ++summary.capped_trials;
    if (!r.initial_connected) ++summary.disconnected_trials;
    FaultStats& fs = summary.faults;
    fs.events += r.faults.events;
    fs.crashes += r.faults.crashes;
    fs.recoveries += r.faults.recoveries;
    fs.thefts += r.faults.thefts;
    fs.deaths += r.faults.deaths;
    fs.repairs += r.faults.repairs;
    fs.disconnected_intervals += r.faults.disconnected_intervals;
    fs.uncovered_intervals += r.faults.uncovered_intervals;
    fs.min_coverage = std::min(fs.min_coverage, r.faults.min_coverage);
    if (r.faults.first_death_interval >= 0 &&
        (fs.first_death_interval < 0 ||
         r.faults.first_death_interval < fs.first_death_interval)) {
      fs.first_death_interval = r.faults.first_death_interval;
    }
    fs.repair_ns_total += r.faults.repair_ns_total;
    fs.repair_touched_total += r.faults.repair_touched_total;
  }
  summary.intervals = Summary::of(intervals);
  summary.avg_gateways = Summary::of(gateways);
  summary.avg_marked = Summary::of(marked);
  summary.avg_churn = Summary::of(churn);
  return summary;
}

}  // namespace pacds
