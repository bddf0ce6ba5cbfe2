#include "fig_common.hpp"

#include <chrono>
#include <cstdlib>
#include <iostream>

#include "io/chart.hpp"
#include "io/csv.hpp"
#include "sim/threadpool.hpp"

namespace pacds::bench {

int run_figure(const FigureSpec& spec) {
  const std::size_t trials = env_size_t("PACDS_TRIALS", 20);
  const auto seed =
      static_cast<std::uint64_t>(env_size_t("PACDS_SEED", 0x5eed2001ULL));
  const char* quick = std::getenv("PACDS_QUICK");
  const bool use_quick = quick != nullptr && *quick != '\0' &&
                         std::string(quick) != "0";
  const char* strategy_env = std::getenv("PACDS_STRATEGY");
  Strategy strategy = Strategy::kSequential;
  if (strategy_env != nullptr) {
    const std::string s(strategy_env);
    if (s == "simultaneous") strategy = Strategy::kSimultaneous;
    else if (s == "verified") strategy = Strategy::kVerified;
    else if (!s.empty() && s != "sequential") {
      std::cerr << "unknown PACDS_STRATEGY '" << s << "', using sequential\n";
    }
  }

  SweepConfig config;
  config.host_counts = use_quick ? quick_host_counts() : paper_host_counts();
  config.schemes = {RuleSet::kNR, RuleSet::kID, RuleSet::kND, RuleSet::kEL1,
                    RuleSet::kEL2};
  config.trials = trials;
  config.base_seed = seed;
  config.base.drain_model = spec.model;
  config.base.cds_options.strategy = strategy;
  // All other SimConfig fields default to the paper's settings: 100x100
  // field, radius 25, EL0 = 100, c = 0.5, jumps 1..6, d' = 1.

  std::cout << "== " << spec.id << ": " << spec.title << " ==\n"
            << "gateway drain model: " << to_string(spec.model)
            << "   rule strategy: " << to_string(strategy) << "\n"
            << "paper expectation:   " << spec.expectation << "\n"
            << "trials/point: " << trials << "  (PACDS_TRIALS to change)\n\n";

  const auto start = std::chrono::steady_clock::now();
  ThreadPool pool;
  const SweepResult result = run_sweep(config, &pool);
  const auto elapsed = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                           .count();

  sweep_table(result, spec.metric, /*with_ci=*/true).print(std::cout);

  // Draw the figure itself.
  AsciiChart chart;
  chart.set_labels("hosts",
                   spec.metric == SweepMetric::kLifetime
                       ? "lifetime (intervals)"
                       : "gateways");
  for (std::size_t si = 0; si < result.config.schemes.size(); ++si) {
    std::vector<double> xs;
    std::vector<double> ys;
    for (const SweepRow& row : result.rows) {
      xs.push_back(static_cast<double>(row.n_hosts));
      ys.push_back(spec.metric == SweepMetric::kLifetime
                       ? row.per_scheme[si].intervals.mean
                       : row.per_scheme[si].avg_gateways.mean);
    }
    chart.add_series(to_string(result.config.schemes[si]), std::move(xs),
                     std::move(ys));
  }
  std::cout << "\n" << chart.render();

  std::cout << "\n(" << elapsed << " s";
  std::size_t disconnected = 0;
  for (const SweepRow& row : result.rows) {
    for (const LifetimeSummary& s : row.per_scheme) {
      disconnected += s.disconnected_trials;
    }
  }
  if (disconnected > 0) {
    std::cout << "; " << disconnected
              << " trial(s) started disconnected after placement retries";
  }
  std::cout << ")\n";

  if (write_csv_file(spec.csv_name, sweep_csv_header(result),
                     sweep_csv_rows(result))) {
    std::cout << "wrote " << spec.csv_name << "\n";
  }
  return 0;
}

}  // namespace pacds::bench
