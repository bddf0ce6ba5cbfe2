#include "sim/experiment.hpp"

#include <cstdlib>
#include <iostream>
#include <stdexcept>

namespace pacds {

SweepResult run_sweep(const SweepConfig& config, ThreadPool* pool,
                      obs::JsonlSink* metrics) {
  if (config.host_counts.empty() || config.schemes.empty()) {
    throw std::invalid_argument("run_sweep: empty host counts or schemes");
  }
  SweepResult result;
  result.config = config;
  for (const int n : config.host_counts) {
    SweepRow row;
    row.n_hosts = n;
    for (const RuleSet scheme : config.schemes) {
      SimConfig sim = config.base;
      sim.n_hosts = n;
      sim.rule_set = scheme;
      // Same base seed across schemes -> paired trajectories.
      row.per_scheme.push_back(run_lifetime_trials(
          sim, config.trials,
          config.base_seed ^ (static_cast<std::uint64_t>(n) << 32), pool,
          metrics));
    }
    result.rows.push_back(std::move(row));
  }
  return result;
}

namespace {

double metric_mean(const LifetimeSummary& s, SweepMetric metric) {
  return metric == SweepMetric::kLifetime ? s.intervals.mean
                                          : s.avg_gateways.mean;
}

double metric_ci(const LifetimeSummary& s, SweepMetric metric) {
  return metric == SweepMetric::kLifetime ? s.intervals.ci95
                                          : s.avg_gateways.ci95;
}

}  // namespace

TextTable sweep_table(const SweepResult& result, SweepMetric metric,
                      bool with_ci) {
  std::vector<std::string> headers{"n"};
  for (const RuleSet scheme : result.config.schemes) {
    headers.push_back(to_string(scheme));
    if (with_ci) headers.push_back("±95%");
  }
  TextTable table(std::move(headers));
  for (const SweepRow& row : result.rows) {
    std::vector<std::string> cells{TextTable::fmt(row.n_hosts)};
    for (const LifetimeSummary& s : row.per_scheme) {
      cells.push_back(TextTable::fmt(metric_mean(s, metric)));
      if (with_ci) cells.push_back(TextTable::fmt(metric_ci(s, metric)));
    }
    table.add_row(std::move(cells));
  }
  return table;
}

std::vector<std::string> sweep_csv_header(const SweepResult& result) {
  std::vector<std::string> header{"n"};
  for (const RuleSet scheme : result.config.schemes) {
    const std::string name = to_string(scheme);
    header.push_back(name + "_lifetime");
    header.push_back(name + "_lifetime_ci95");
    header.push_back(name + "_gateways");
    header.push_back(name + "_gateways_ci95");
  }
  return header;
}

std::vector<std::vector<std::string>> sweep_csv_rows(const SweepResult& result) {
  std::vector<std::vector<std::string>> rows;
  for (const SweepRow& row : result.rows) {
    std::vector<std::string> cells{TextTable::fmt(row.n_hosts)};
    for (const LifetimeSummary& s : row.per_scheme) {
      cells.push_back(TextTable::fmt(s.intervals.mean));
      cells.push_back(TextTable::fmt(s.intervals.ci95));
      cells.push_back(TextTable::fmt(s.avg_gateways.mean));
      cells.push_back(TextTable::fmt(s.avg_gateways.ci95));
    }
    rows.push_back(std::move(cells));
  }
  return rows;
}

std::vector<int> paper_host_counts() {
  return {3, 5, 10, 15, 20, 25, 30, 40, 50, 60, 70, 80, 90, 100};
}

std::vector<int> quick_host_counts() { return {10, 30, 50, 80}; }

std::size_t env_size_t(const char* name, std::size_t fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(raw, &end, 10);
  if (end == raw || *end != '\0' || value == 0) {
    // A typo'd PACDS_TRIALS=abc silently behaving like unset wastes whole
    // experiment runs — say what happened, then fall back.
    std::cerr << "warning: ignoring " << name << "=\"" << raw
              << "\" (want a positive integer); using " << fallback << "\n";
    return fallback;
  }
  return static_cast<std::size_t>(value);
}

}  // namespace pacds
