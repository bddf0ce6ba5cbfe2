// Tests for the sweep harness that backs the figure benchmarks.

#include "sim/experiment.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>
#include <string>

namespace pacds {
namespace {

SweepConfig tiny_sweep() {
  SweepConfig config;
  config.host_counts = {8, 16};
  config.schemes = {RuleSet::kID, RuleSet::kEL1};
  config.trials = 4;
  config.base.drain_model = DrainModel::kLinearTotal;
  return config;
}

TEST(ExperimentTest, SweepShape) {
  const SweepResult result = run_sweep(tiny_sweep());
  ASSERT_EQ(result.rows.size(), 2u);
  EXPECT_EQ(result.rows[0].n_hosts, 8);
  EXPECT_EQ(result.rows[1].n_hosts, 16);
  for (const SweepRow& row : result.rows) {
    ASSERT_EQ(row.per_scheme.size(), 2u);
    for (const LifetimeSummary& s : row.per_scheme) {
      EXPECT_EQ(s.intervals.count, 4u);
      EXPECT_GT(s.intervals.mean, 0.0);
    }
  }
}

TEST(ExperimentTest, SweepDeterministic) {
  const SweepResult a = run_sweep(tiny_sweep());
  const SweepResult b = run_sweep(tiny_sweep());
  for (std::size_t i = 0; i < a.rows.size(); ++i) {
    for (std::size_t j = 0; j < a.rows[i].per_scheme.size(); ++j) {
      EXPECT_DOUBLE_EQ(a.rows[i].per_scheme[j].intervals.mean,
                       b.rows[i].per_scheme[j].intervals.mean);
    }
  }
}

TEST(ExperimentTest, EmptySweepThrows) {
  SweepConfig config = tiny_sweep();
  config.host_counts.clear();
  EXPECT_THROW((void)run_sweep(config), std::invalid_argument);
  config = tiny_sweep();
  config.schemes.clear();
  EXPECT_THROW((void)run_sweep(config), std::invalid_argument);
}

TEST(ExperimentTest, TableLayout) {
  const SweepResult result = run_sweep(tiny_sweep());
  const TextTable table = sweep_table(result, SweepMetric::kLifetime);
  EXPECT_EQ(table.num_columns(), 3u);  // n + 2 schemes
  EXPECT_EQ(table.num_rows(), 2u);
  const TextTable with_ci =
      sweep_table(result, SweepMetric::kLifetime, /*with_ci=*/true);
  EXPECT_EQ(with_ci.num_columns(), 5u);
}

TEST(ExperimentTest, GatewayMetricDiffersFromLifetime) {
  const SweepResult result = run_sweep(tiny_sweep());
  const TextTable life = sweep_table(result, SweepMetric::kLifetime);
  const TextTable gates = sweep_table(result, SweepMetric::kGatewayCount);
  EXPECT_NE(life.rows()[0][1], gates.rows()[0][1]);
}

TEST(ExperimentTest, CsvRowsMatchHeader) {
  const SweepResult result = run_sweep(tiny_sweep());
  const auto header = sweep_csv_header(result);
  const auto rows = sweep_csv_rows(result);
  ASSERT_FALSE(rows.empty());
  for (const auto& row : rows) {
    EXPECT_EQ(row.size(), header.size());
  }
  EXPECT_EQ(header.front(), "n");
  EXPECT_EQ(header[1], "ID_lifetime");
}

TEST(ExperimentTest, PaperHostCountsSpanPaperRange) {
  const auto counts = paper_host_counts();
  EXPECT_EQ(counts.front(), 3);
  EXPECT_EQ(counts.back(), 100);
  for (std::size_t i = 1; i < counts.size(); ++i) {
    EXPECT_GT(counts[i], counts[i - 1]);
  }
}

TEST(ExperimentTest, EnvSizeT) {
  ASSERT_EQ(unsetenv("PACDS_TEST_ENV"), 0);
  EXPECT_EQ(env_size_t("PACDS_TEST_ENV", 7u), 7u);
  ASSERT_EQ(setenv("PACDS_TEST_ENV", "42", 1), 0);
  EXPECT_EQ(env_size_t("PACDS_TEST_ENV", 7u), 42u);
  ASSERT_EQ(setenv("PACDS_TEST_ENV", "bogus", 1), 0);
  EXPECT_EQ(env_size_t("PACDS_TEST_ENV", 7u), 7u);
  ASSERT_EQ(setenv("PACDS_TEST_ENV", "0", 1), 0);
  EXPECT_EQ(env_size_t("PACDS_TEST_ENV", 7u), 7u);
  ASSERT_EQ(unsetenv("PACDS_TEST_ENV"), 0);
}

TEST(ExperimentTest, EnvSizeTWarnsWhenIgnoringValues) {
  // A typo'd PACDS_TRIALS=abc used to behave exactly like unset; the
  // fallback must now be audible on stderr and name the offending value.
  ASSERT_EQ(setenv("PACDS_TEST_ENV", "abc", 1), 0);
  ::testing::internal::CaptureStderr();
  EXPECT_EQ(env_size_t("PACDS_TEST_ENV", 7u), 7u);
  std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("PACDS_TEST_ENV"), std::string::npos) << err;
  EXPECT_NE(err.find("abc"), std::string::npos) << err;
  EXPECT_NE(err.find('7'), std::string::npos) << err;

  // Zero is not a usable trial/host count: same diagnostic.
  ASSERT_EQ(setenv("PACDS_TEST_ENV", "0", 1), 0);
  ::testing::internal::CaptureStderr();
  EXPECT_EQ(env_size_t("PACDS_TEST_ENV", 9u), 9u);
  err = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("\"0\""), std::string::npos) << err;

  // Trailing garbage ("12x") is malformed, not 12.
  ASSERT_EQ(setenv("PACDS_TEST_ENV", "12x", 1), 0);
  ::testing::internal::CaptureStderr();
  EXPECT_EQ(env_size_t("PACDS_TEST_ENV", 7u), 7u);
  EXPECT_FALSE(::testing::internal::GetCapturedStderr().empty());
  ASSERT_EQ(unsetenv("PACDS_TEST_ENV"), 0);
}

TEST(ExperimentTest, EnvSizeTSilentOnValidAndUnset) {
  ASSERT_EQ(unsetenv("PACDS_TEST_ENV"), 0);
  ::testing::internal::CaptureStderr();
  EXPECT_EQ(env_size_t("PACDS_TEST_ENV", 7u), 7u);
  ASSERT_EQ(setenv("PACDS_TEST_ENV", "42", 1), 0);
  EXPECT_EQ(env_size_t("PACDS_TEST_ENV", 7u), 42u);
  EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
  ASSERT_EQ(unsetenv("PACDS_TEST_ENV"), 0);
}

TEST(ExperimentTest, PairedSeedsAcrossSchemes) {
  // ID vs ND sizes must come from the same placements: the NR marking size
  // (which ignores the scheme entirely) has to agree between the two
  // scheme's runs.
  SweepConfig config = tiny_sweep();
  config.schemes = {RuleSet::kID, RuleSet::kND};
  const SweepResult result = run_sweep(config);
  for (const SweepRow& row : result.rows) {
    // avg_marked depends only on placement + movement until the (scheme
    // dependent) death time, so exact equality is not guaranteed — but the
    // first interval's marking is identical; check means are close.
    EXPECT_NEAR(row.per_scheme[0].avg_marked.mean,
                row.per_scheme[1].avg_marked.mean,
                0.35 * row.per_scheme[0].avg_marked.mean + 1.0);
  }
}

}  // namespace
}  // namespace pacds
