// Tests for the Monte-Carlo driver: determinism, pool/inline equivalence,
// aggregation bookkeeping.

#include "sim/montecarlo.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

#include "io/json_parse.hpp"
#include "sim/faults.hpp"

namespace pacds {
namespace {

SimConfig tiny_config() {
  SimConfig config;
  config.n_hosts = 12;
  config.drain_model = DrainModel::kLinearTotal;
  config.rule_set = RuleSet::kID;
  return config;
}

TEST(MonteCarloTest, AggregatesRequestedTrials) {
  const LifetimeSummary s = run_lifetime_trials(tiny_config(), 8, 42);
  EXPECT_EQ(s.intervals.count, 8u);
  EXPECT_EQ(s.avg_gateways.count, 8u);
  EXPECT_GT(s.intervals.mean, 0.0);
}

TEST(MonteCarloTest, DeterministicAcrossRuns) {
  const LifetimeSummary a = run_lifetime_trials(tiny_config(), 6, 7);
  const LifetimeSummary b = run_lifetime_trials(tiny_config(), 6, 7);
  EXPECT_DOUBLE_EQ(a.intervals.mean, b.intervals.mean);
  EXPECT_DOUBLE_EQ(a.intervals.stddev, b.intervals.stddev);
  EXPECT_DOUBLE_EQ(a.avg_gateways.mean, b.avg_gateways.mean);
}

TEST(MonteCarloTest, RefusedConfigThrowsOnTheCallingThread) {
  // Checked before the trials reach the pool: thrown on a worker, the
  // mobility constructor's error would end the process.
  SimConfig config = tiny_config();
  config.mobility_kind = MobilityKind::kGaussMarkov;
  config.mobility_params.alpha = 2.0;
  ThreadPool pool(2);
  EXPECT_THROW((void)run_lifetime_trials(config, 4, 1, &pool),
               std::invalid_argument);
}

TEST(MonteCarloTest, TrialExceptionUnderAPoolReachesTheCaller) {
  // The fault plan is checked inside each trial. Under a pool the trials
  // run on workers and on the calling thread, and every one of them throws;
  // the caller must see the serial run's exception, and the pool must
  // stay usable.
  SimConfig config = tiny_config();
  config.n_hosts = 10;
  FaultPlan plan;
  plan.crashes.push_back(CrashSpec{.node = 99, .at = 1});
  const std::string message = "fault plan: crash node 99 out of range [0, 10)";
  const auto expect_message = [&](ThreadPool* pool) {
    try {
      (void)run_lifetime_trials(config, 8, 1, pool, nullptr, &plan);
      ADD_FAILURE() << "no exception";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(e.what(), message);
    }
  };
  expect_message(nullptr);
  ThreadPool pool(2);
  expect_message(&pool);
  expect_message(&pool);
  const LifetimeSummary pooled = run_lifetime_trials(tiny_config(), 4, 5,
                                                     &pool);
  EXPECT_EQ(pooled.intervals.count, 4u);
}

TEST(MonteCarloTest, TrialConfigForcesSerialIntervalsUnderPool) {
  // Pool-in-pool guard: with a Monte-Carlo pool, each concurrent trial
  // spinning up its own intra-interval pool would oversubscribe the host
  // trials-times-threads deep. Under a pool the per-trial config must be
  // serial; without one it must be left alone.
  SimConfig config = tiny_config();
  config.threads = 8;
  EXPECT_EQ(montecarlo_trial_config(config, /*under_pool=*/true).threads, 1);
  EXPECT_EQ(montecarlo_trial_config(config, /*under_pool=*/false).threads, 8);

  config.threads = 0;  // "auto" also counts as a pool request
  EXPECT_EQ(montecarlo_trial_config(config, /*under_pool=*/true).threads, 1);
  EXPECT_EQ(montecarlo_trial_config(config, /*under_pool=*/false).threads, 0);

  config.threads = 1;
  EXPECT_EQ(montecarlo_trial_config(config, /*under_pool=*/true).threads, 1);

  // Nothing but the thread count may change.
  config.threads = 8;
  const SimConfig derived = montecarlo_trial_config(config, true);
  EXPECT_EQ(derived.n_hosts, config.n_hosts);
  EXPECT_EQ(derived.rule_set, config.rule_set);
  EXPECT_EQ(derived.drain_model, config.drain_model);
}

TEST(MonteCarloTest, PooledRunWithThreadedConfigMatchesSerial) {
  // The oversubscription fix must not change results: a threads=4 config
  // run under a trial pool aggregates exactly like the plain serial run
  // (intervals are bit-identical across thread counts by design).
  SimConfig config = tiny_config();
  config.threads = 4;
  ThreadPool pool(3);
  const LifetimeSummary pooled = run_lifetime_trials(config, 6, 11, &pool);
  const LifetimeSummary serial = run_lifetime_trials(tiny_config(), 6, 11);
  EXPECT_DOUBLE_EQ(pooled.intervals.mean, serial.intervals.mean);
  EXPECT_DOUBLE_EQ(pooled.avg_gateways.mean, serial.avg_gateways.mean);
}

TEST(MonteCarloTest, MetricsOutputMatchesPooledAndInline) {
  // JSONL emission buffers pooled trials and splices in trial order, so the
  // record stream must not depend on pool scheduling — or on the pool
  // existing. Only the wall-clock "*_ns" timing values may differ.
  std::ostringstream inline_out;
  obs::JsonlSink inline_sink(inline_out);
  const LifetimeSummary inline_run =
      run_lifetime_trials(tiny_config(), 5, 13, nullptr, &inline_sink);

  std::ostringstream pooled_out;
  obs::JsonlSink pooled_sink(pooled_out);
  ThreadPool pool(3);
  const LifetimeSummary pooled =
      run_lifetime_trials(tiny_config(), 5, 13, &pool, &pooled_sink);

  EXPECT_EQ(inline_sink.records(), pooled_sink.records());
  EXPECT_GT(inline_sink.records(), 5u);  // manifest + >=1 interval per trial
  EXPECT_DOUBLE_EQ(inline_run.intervals.mean, pooled.intervals.mean);

  std::istringstream inline_lines(inline_out.str());
  std::istringstream pooled_lines(pooled_out.str());
  std::string inline_line;
  std::string pooled_line;
  const auto is_timing = [](const std::string& key) {
    return key.size() > 3 && key.compare(key.size() - 3, 3, "_ns") == 0;
  };
  std::size_t line_number = 0;
  while (std::getline(inline_lines, inline_line)) {
    ASSERT_TRUE(static_cast<bool>(std::getline(pooled_lines, pooled_line)));
    ++line_number;
    const JsonValue inline_doc = parse_json(inline_line);
    const JsonValue pooled_doc = parse_json(pooled_line);
    const JsonObject& a = inline_doc.as_object();
    const JsonObject& b = pooled_doc.as_object();
    ASSERT_EQ(a.size(), b.size()) << "line " << line_number;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].first, b[i].first) << "line " << line_number;
      if (is_timing(a[i].first)) continue;  // wall-clock: value may differ
      if (a[i].second.is_number()) {
        EXPECT_EQ(a[i].second.as_number(), b[i].second.as_number())
            << "line " << line_number << " key " << a[i].first;
      } else if (a[i].second.is_string()) {
        EXPECT_EQ(a[i].second.as_string(), b[i].second.as_string())
            << "line " << line_number << " key " << a[i].first;
      }
    }
  }
  EXPECT_FALSE(static_cast<bool>(std::getline(pooled_lines, pooled_line)));
}

TEST(MonteCarloTest, PoolMatchesInline) {
  ThreadPool pool(3);
  const LifetimeSummary inline_run = run_lifetime_trials(tiny_config(), 10, 5);
  const LifetimeSummary pooled = run_lifetime_trials(tiny_config(), 10, 5,
                                                     &pool);
  EXPECT_DOUBLE_EQ(inline_run.intervals.mean, pooled.intervals.mean);
  EXPECT_DOUBLE_EQ(inline_run.intervals.stddev, pooled.intervals.stddev);
  EXPECT_DOUBLE_EQ(inline_run.avg_gateways.mean, pooled.avg_gateways.mean);
  EXPECT_DOUBLE_EQ(inline_run.avg_marked.mean, pooled.avg_marked.mean);
}

TEST(MonteCarloTest, DifferentBaseSeedsDiffer) {
  const LifetimeSummary a = run_lifetime_trials(tiny_config(), 6, 1);
  const LifetimeSummary b = run_lifetime_trials(tiny_config(), 6, 2);
  EXPECT_TRUE(a.intervals.mean != b.intervals.mean ||
              a.avg_gateways.mean != b.avg_gateways.mean);
}

TEST(MonteCarloTest, CappedTrialsCounted) {
  SimConfig config = tiny_config();
  config.drain_params.nongateway_drain = 0.0;
  config.drain_model = DrainModel::kConstantTotal;
  config.drain_params.constant_base = 0.0;
  config.max_intervals = 5;
  const LifetimeSummary s = run_lifetime_trials(config, 4, 3);
  EXPECT_EQ(s.capped_trials, 4u);
}

TEST(MonteCarloTest, ZeroTrials) {
  const LifetimeSummary s = run_lifetime_trials(tiny_config(), 0, 1);
  EXPECT_EQ(s.intervals.count, 0u);
}

}  // namespace
}  // namespace pacds
