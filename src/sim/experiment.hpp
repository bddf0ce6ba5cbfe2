#pragma once
// Experiment harness: sweeps host count x rule scheme, reproducing the
// paper's Figures 10-13. All schemes share the same per-trial seeds, so
// every scheme sees identical placements and host trajectories (paired
// comparison; differences are due to the rules alone).

#include <cstdint>
#include <string>
#include <vector>

#include "io/table.hpp"
#include "sim/montecarlo.hpp"

namespace pacds {

/// One sweep definition.
struct SweepConfig {
  std::vector<int> host_counts;
  std::vector<RuleSet> schemes;
  SimConfig base;          ///< rule_set/n_hosts are overridden per point
  std::size_t trials = 100;
  std::uint64_t base_seed = 0x5eed2001;
};

/// Results for one host count: one LifetimeSummary per scheme, in
/// config.schemes order.
struct SweepRow {
  int n_hosts = 0;
  std::vector<LifetimeSummary> per_scheme;
};

struct SweepResult {
  SweepConfig config;
  std::vector<SweepRow> rows;
};

/// Which aggregated metric a table should show.
enum class SweepMetric {
  kLifetime,      ///< mean intervals to first death (Figures 11-13)
  kGatewayCount,  ///< mean per-interval gateway count (Figure 10)
};

/// Runs the full sweep; trials of each (n, scheme) point run across `pool`
/// when provided. With `metrics` set, each point emits its run manifest and
/// per-interval records through the sink (in sweep order).
[[nodiscard]] SweepResult run_sweep(const SweepConfig& config,
                                    ThreadPool* pool = nullptr,
                                    obs::JsonlSink* metrics = nullptr);

/// Renders one metric of a sweep as a text table: first column n, one
/// column per scheme (mean, with ±95% CI in a paired column when
/// `with_ci`).
[[nodiscard]] TextTable sweep_table(const SweepResult& result,
                                    SweepMetric metric, bool with_ci = false);

/// CSV of a sweep: one row per host count, and per scheme both metrics
/// (lifetime, then gateway count), each followed by its ±95% CI column —
/// the columns sweep_csv_header names.
[[nodiscard]] std::vector<std::vector<std::string>> sweep_csv_rows(
    const SweepResult& result);
[[nodiscard]] std::vector<std::string> sweep_csv_header(
    const SweepResult& result);

/// The paper's x-axis: host counts from 3 to 100.
[[nodiscard]] std::vector<int> paper_host_counts();

/// Smaller grid for smoke runs.
[[nodiscard]] std::vector<int> quick_host_counts();

/// Reads a positive integer from environment variable `name`, else
/// `fallback` (used for PACDS_TRIALS so CI and laptops can scale effort).
[[nodiscard]] std::size_t env_size_t(const char* name, std::size_t fallback);

}  // namespace pacds
