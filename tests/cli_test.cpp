// End-to-end tests of the pacds CLI subcommands, driven in-process.

#include "cli/commands.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <tuple>

#include "io/json_parse.hpp"
#include "obs/validate.hpp"
#include "sim/lifetime.hpp"

namespace pacds::cli {
namespace {

struct CliRun {
  int code;
  std::string out;
  std::string err;
};

CliRun run_cli(const std::vector<std::string>& tokens) {
  std::ostringstream out;
  std::ostringstream err;
  const int code = run(tokens, out, err);
  return {code, out.str(), err.str()};
}

TEST(CliTest, NoArgsShowsUsage) {
  const CliRun r = run_cli({});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.out.find("usage: pacds"), std::string::npos);
}

TEST(CliTest, HelpIsSuccess) {
  const CliRun r = run_cli({"help"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("commands:"), std::string::npos);
}

TEST(CliTest, UnknownCommandFails) {
  const CliRun r = run_cli({"frobnicate"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("unknown command"), std::string::npos);
}

TEST(CliTest, CdsOnRandomNetwork) {
  const CliRun r = run_cli({"cds", "--random", "25", "--seed", "3"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("valid CDS: yes"), std::string::npos);
  EXPECT_NE(r.out.find("gateways:"), std::string::npos);
}

TEST(CliTest, CdsAllSchemes) {
  for (const char* scheme : {"NR", "ID", "ND", "EL1", "EL2", "RULEK"}) {
    const CliRun r =
        run_cli({"cds", "--random", "20", "--seed", "5", "--scheme", scheme});
    EXPECT_EQ(r.code, 0) << scheme << ": " << r.err;
    EXPECT_NE(r.out.find("valid CDS: yes"), std::string::npos) << scheme;
  }
}

TEST(CliTest, CdsUnknownSchemeFails) {
  const CliRun r = run_cli({"cds", "--scheme", "XYZ"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("unknown scheme"), std::string::npos);
}

TEST(CliTest, CdsDotOutput) {
  const CliRun r = run_cli({"cds", "--random", "10", "--seed", "7", "--dot"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("graph pacds {"), std::string::npos);
  EXPECT_NE(r.out.find("--"), std::string::npos);
}

TEST(CliTest, CdsJsonOutput) {
  const CliRun r = run_cli({"cds", "--random", "12", "--seed", "9", "--json"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_EQ(r.out.front(), '{');
  EXPECT_NE(r.out.find("\"valid\":true"), std::string::npos);
  EXPECT_NE(r.out.find("\"gateways\":["), std::string::npos);
  EXPECT_NE(r.out.find("\"scheme\":\"ID\""), std::string::npos);
}

TEST(CliTest, CdsHelp) {
  const CliRun r = run_cli({"cds", "--help"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("--scheme"), std::string::npos);
}

TEST(CliTest, CdsFromFile) {
  const std::string path = ::testing::TempDir() + "/pacds_cli_graph.txt";
  {
    std::ofstream file(path);
    file << "5 5\n0 1\n1 2\n2 3\n3 4\n4 0\n";  // C5
  }
  const CliRun r = run_cli({"cds", "--input", path});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("hosts:     5"), std::string::npos);
  std::remove(path.c_str());
}

TEST(CliTest, CdsMissingFileFails) {
  const CliRun r = run_cli({"cds", "--input", "/no/such/file.txt"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("cannot open"), std::string::npos);
}

TEST(CliTest, InfoReportsStructure) {
  const CliRun r = run_cli({"info", "--random", "30", "--seed", "11"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("hosts:        30"), std::string::npos);
  EXPECT_NE(r.out.find("connected:    yes"), std::string::npos);
  EXPECT_NE(r.out.find("cut vertices:"), std::string::npos);
  EXPECT_NE(r.out.find("diameter:"), std::string::npos);
}

TEST(CliTest, InfoOnFileGraph) {
  const std::string path = ::testing::TempDir() + "/pacds_cli_info.txt";
  {
    std::ofstream file(path);
    file << "4 3\n0 1\n1 2\n2 3\n";  // P4: cuts at 1 and 2
  }
  const CliRun r = run_cli({"info", "--input", path});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("cut vertices: 2"), std::string::npos);
  EXPECT_NE(r.out.find("bridges:      3"), std::string::npos);
  std::remove(path.c_str());
}

TEST(CliTest, RouteDeliversOnConnectedNetwork) {
  const CliRun r = run_cli({"route", "--random", "25", "--seed", "13",
                            "--src", "0", "--dst", "20"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("route 0 -> 20"), std::string::npos);
  EXPECT_NE(r.out.find("hops"), std::string::npos);
}

TEST(CliTest, RouteRejectsBadHostIds) {
  const CliRun r = run_cli({"route", "--random", "10", "--src", "0",
                            "--dst", "99"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("out of range"), std::string::npos);
}

TEST(CliTest, SimRunsAllSchemes) {
  const CliRun r = run_cli({"sim", "--n", "15", "--trials", "3",
                            "--model", "2"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("EL1"), std::string::npos);
  EXPECT_NE(r.out.find("lifetime"), std::string::npos);
}

TEST(CliTest, SimSingleScheme) {
  const CliRun r = run_cli({"sim", "--n", "12", "--trials", "2",
                            "--model", "1", "--scheme", "ND"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("ND"), std::string::npos);
  EXPECT_EQ(r.out.find("EL1"), std::string::npos);
}

TEST(CliTest, SimRejectsBadModel) {
  const CliRun r = run_cli({"sim", "--model", "9"});
  EXPECT_EQ(r.code, 2);
}

TEST(CliTest, ScenarioSaveAndReload) {
  const std::string path = ::testing::TempDir() + "/pacds_cli_scene.txt";
  const CliRun saved = run_cli({"cds", "--random", "15", "--seed", "21",
                                "--save-scenario", path});
  EXPECT_EQ(saved.code, 0) << saved.err;
  EXPECT_NE(saved.out.find("saved scenario"), std::string::npos);
  // Reloading the scenario must reproduce the identical gateway set (the
  // energies are stored in the file, so EL schemes agree too).
  const CliRun direct = run_cli({"cds", "--random", "15", "--seed", "21",
                                 "--scheme", "EL1"});
  const CliRun reloaded =
      run_cli({"cds", "--scenario", path, "--scheme", "EL1"});
  EXPECT_EQ(reloaded.code, 0) << reloaded.err;
  const auto set_line = [](const std::string& text) {
    const auto pos = text.find("set:");
    return pos == std::string::npos ? text : text.substr(pos);
  };
  EXPECT_EQ(set_line(direct.out), set_line(reloaded.out));
  std::remove(path.c_str());
}

TEST(CliTest, ScenarioMissingFileFails) {
  const CliRun r = run_cli({"cds", "--scenario", "/no/such/scene.txt"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("cannot open"), std::string::npos);
}

TEST(CliTest, ScenarioHostOffTheCellGridFails) {
  // A finite coordinate whose cell index would overflow the link builder's
  // neighbour arithmetic is refused with an error, not built.
  const std::string path = ::testing::TempDir() + "/pacds_cli_far.txt";
  {
    std::ofstream file(path);
    file << "radius 25\nhosts 3\n0 0 1\n10 0 1\n1e21 0 1\n";
  }
  const CliRun r = run_cli({"cds", "--scenario", path});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("error:"), std::string::npos) << r.err;
  EXPECT_NE(r.err.find("host 2"), std::string::npos) << r.err;
  std::remove(path.c_str());
}

TEST(CliTest, SaveScenarioNeedsPositions) {
  const std::string graph_path = ::testing::TempDir() + "/pacds_cli_g.txt";
  {
    std::ofstream file(graph_path);
    file << "3 2\n0 1\n1 2\n";
  }
  const CliRun r = run_cli({"cds", "--input", graph_path, "--save-scenario",
                            ::testing::TempDir() + "/out.txt"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("positional"), std::string::npos);
  std::remove(graph_path.c_str());
}

TEST(CliTest, SimMetricsEmitsManifestPlusIntervalRecords) {
  const std::string path = ::testing::TempDir() + "/pacds_cli_metrics.jsonl";
  const CliRun r = run_cli({"sim", "--n", "12", "--trials", "2", "--model",
                            "2", "--scheme", "EL1", "--seed", "4",
                            "--metrics", path});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("metrics records to " + path), std::string::npos);

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::size_t line_count = 0;
  std::size_t interval_count = 0;
  for (std::string line; std::getline(in, line); ++line_count) {
    const JsonValue record = parse_json(line);  // throws on any bad line
    ASSERT_NE(record.find("type"), nullptr);
    const std::string& type = record.find("type")->as_string();
    if (line_count == 0) {
      EXPECT_EQ(type, "run_manifest");
      EXPECT_EQ(record.find("scheme")->as_string(), "EL1");
      EXPECT_EQ(record.find("n_hosts")->as_number(), 12.0);
      EXPECT_EQ(record.find("trials")->as_number(), 2.0);
    } else {
      EXPECT_EQ(type, "interval");
      for (const char* key :
           {"trial", "interval", "marked", "gateways", "alive", "touched",
            "energy_min", "energy_mean", "energy_max", "marking_ns",
            "rules_ns", "nodes_touched"}) {
        EXPECT_NE(record.find(key), nullptr) << "missing " << key;
      }
      ++interval_count;
    }
  }
  EXPECT_GT(interval_count, 0u);
  std::remove(path.c_str());
}

TEST(CliTest, SweepPrintsBothTables) {
  const CliRun r = run_cli({"sweep", "--hosts", "8,12", "--scheme", "ID",
                            "--trials", "2", "--seed", "3"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("lifetime"), std::string::npos);
  EXPECT_NE(r.out.find("gateway"), std::string::npos);
  EXPECT_NE(r.out.find("ID"), std::string::npos);
}

TEST(CliTest, SweepWritesCsvAndMetrics) {
  const std::string csv_path = ::testing::TempDir() + "/pacds_cli_sweep.csv";
  const std::string jsonl_path =
      ::testing::TempDir() + "/pacds_cli_sweep.jsonl";
  const CliRun r = run_cli({"sweep", "--hosts", "8,12", "--scheme", "ID",
                            "--trials", "2", "--seed", "3", "--csv", csv_path,
                            "--metrics", jsonl_path});
  EXPECT_EQ(r.code, 0) << r.err;

  std::ifstream csv(csv_path);
  ASSERT_TRUE(csv.good());
  std::string header;
  std::getline(csv, header);
  EXPECT_EQ(header.substr(0, 13), "n,ID_lifetime");
  EXPECT_NE(header.find("ID_gateways"), std::string::npos);

  // One manifest per (host count, scheme) cell plus that cell's intervals.
  std::ifstream jsonl(jsonl_path);
  ASSERT_TRUE(jsonl.good());
  std::size_t manifests = 0;
  std::size_t lines = 0;
  for (std::string line; std::getline(jsonl, line); ++lines) {
    const JsonValue record = parse_json(line);
    if (record.find("type")->as_string() == "run_manifest") ++manifests;
  }
  EXPECT_EQ(manifests, 2u);
  EXPECT_GT(lines, manifests);
  std::remove(csv_path.c_str());
  std::remove(jsonl_path.c_str());
}

TEST(CliTest, SweepRejectsBadHosts) {
  // Every malformed entry exits 2 with a diagnostic naming the offender —
  // including the partial tokens ("4x") and overflowing literals the old
  // std::stoi path silently accepted or clamped.
  for (const char* hosts :
       {"8,banana", "4x", "8,4x", "0", "8,-3", "8,,10",
        "99999999999999999999", "8,2000000000000"}) {
    const CliRun r = run_cli({"sweep", "--hosts", hosts});
    EXPECT_EQ(r.code, 2) << hosts;
    EXPECT_NE(r.err.find("bad --hosts entry '"), std::string::npos) << hosts;
  }
  const CliRun empty = run_cli({"sweep", "--hosts", ""});
  EXPECT_EQ(empty.code, 2);
  EXPECT_NE(empty.err.find("at least one host count"), std::string::npos);
}

TEST(CliTest, SweepInUsage) {
  const CliRun help = run_cli({"help"});
  EXPECT_NE(help.out.find("sweep"), std::string::npos);
  const CliRun r = run_cli({"sweep", "--help"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("--hosts"), std::string::npos);
  EXPECT_NE(r.out.find("--metrics"), std::string::npos);
}

TEST(CliTest, GapReportsRatiosAndWritesMetrics) {
  const std::string jsonl_path = ::testing::TempDir() + "/pacds_cli_gap.jsonl";
  const CliRun r = run_cli({"gap", "--hosts", "10,14", "--radius", "30",
                            "--trials", "2", "--seed", "7", "--metrics",
                            jsonl_path});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("opt"), std::string::npos);
  EXPECT_NE(r.out.find("cds22"), std::string::npos);

  // One gap_manifest, then one gap_point per (n, radius, trial) instance.
  std::ifstream jsonl(jsonl_path);
  ASSERT_TRUE(jsonl.good());
  std::size_t manifests = 0;
  std::size_t points = 0;
  for (std::string line; std::getline(jsonl, line);) {
    const JsonValue record = parse_json(line);
    const std::string type = record.find("type")->as_string();
    if (type == "gap_manifest") ++manifests;
    if (type == "gap_point") ++points;
  }
  EXPECT_EQ(manifests, 1u);
  EXPECT_EQ(points, 4u);  // 2 host counts x 1 radius x 2 trials
  std::remove(jsonl_path.c_str());
}

TEST(CliTest, GapRejectsBadLists) {
  const CliRun hosts = run_cli({"gap", "--hosts", "10,banana"});
  EXPECT_EQ(hosts.code, 2);
  EXPECT_NE(hosts.err.find("bad --hosts entry '"), std::string::npos);
  const CliRun radius = run_cli({"gap", "--radius", "0"});
  EXPECT_EQ(radius.code, 2);
  EXPECT_NE(radius.err.find("bad --radius entry '"), std::string::npos);
}

TEST(CliTest, SimBackboneOption) {
  const CliRun ok =
      run_cli({"sim", "--n", "12", "--trials", "1", "--backbone", "cds22"});
  EXPECT_EQ(ok.code, 0) << ok.err;
  const CliRun clash = run_cli({"sim", "--n", "12", "--trials", "1",
                                "--backbone", "cds22", "--engine",
                                "incremental"});
  EXPECT_EQ(clash.code, 2);
  EXPECT_NE(clash.err.find("cds22 needs config.engine auto or full"),
            std::string::npos);
  const CliRun unknown = run_cli(
      {"sim", "--n", "12", "--trials", "1", "--backbone", "mesh"});
  EXPECT_EQ(unknown.code, 2);
  EXPECT_NE(unknown.err.find("unknown backbone"), std::string::npos);
}

TEST(CliTest, SimRejectsConfigsTheSimulatorRefuses) {
  // Each is refused before a trial, or a pool, starts: --threads 257 would
  // otherwise ask for 256 interval workers.
  for (const auto& [flag, value, key] :
       {std::tuple{"--depth", "1e300", "field_depth"},
        std::tuple{"--quantum", "-1", "quantum"},
        std::tuple{"--threads", "257", "threads"}}) {
    const CliRun r = run_cli({"sim", "--n", "30", "--trials", "1", flag, value});
    EXPECT_EQ(r.code, 2) << flag << " " << value;
    EXPECT_NE(r.err.find(key), std::string::npos) << r.err;
  }
}

TEST(CliTest, SweepBoundsJobs) {
  // Rejected before any trial pool exists.
  const CliRun r = run_cli({"sweep", "--jobs", "1025"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("--jobs"), std::string::npos);
}

TEST(CliTest, MetricsUnwritablePathFails) {
  const CliRun r = run_cli({"sim", "--n", "10", "--trials", "1", "--metrics",
                            "/nonexistent_dir_zz/m.jsonl"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("cannot write"), std::string::npos);
}

TEST(CliTest, SimDeterministicAcrossRuns) {
  const std::vector<std::string> cmd{"sim",      "--n",     "12",
                                     "--trials", "3",       "--model", "2",
                                     "--scheme", "EL1",     "--seed",  "9"};
  EXPECT_EQ(run_cli(cmd).out, run_cli(cmd).out);
}

/// One file per test: ctest runs the tests of this binary in parallel, and
/// each removes its plan when done.
std::string write_sample_plan() {
  const std::string path =
      ::testing::TempDir() + "/pacds_cli_plan_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() +
      ".json";
  std::ofstream file(path);
  file << R"({
    "crashes": [{"node": 2, "at": 2, "recover_at": 6}, {"node": 4, "at": 3}],
    "thefts": [{"node": 1, "at": 4, "amount": 30}],
    "blackouts": [{"x0": 0, "y0": 0, "x1": 30, "y1": 30, "at": 5, "until": 8}]
  })";
  return path;
}

TEST(CliTest, FaultsPrintsResolvedSchedule) {
  const std::string path = write_sample_plan();
  const CliRun r = run_cli({"faults", "--plan", path, "--n", "20"});
  EXPECT_EQ(r.code, 0) << r.err;
  // 2 crashes + 1 recovery + 1 theft + blackout entry/exit = 6 events.
  EXPECT_NE(r.out.find("schedule (6 events):"), std::string::npos);
  EXPECT_NE(r.out.find("crash"), std::string::npos);
  EXPECT_NE(r.out.find("theft"), std::string::npos);
  EXPECT_NE(r.out.find("region 0"), std::string::npos);
  std::remove(path.c_str());
}

TEST(CliTest, FaultsJsonEchoesNormalizedPlan) {
  const std::string path = write_sample_plan();
  const CliRun r = run_cli({"faults", "--plan", path, "--json"});
  EXPECT_EQ(r.code, 0) << r.err;
  const JsonValue plan = parse_json(r.out);  // throws on malformed output
  ASSERT_NE(plan.find("crashes"), nullptr);
  EXPECT_EQ(plan.find("crashes")->as_array().size(), 2u);
  ASSERT_NE(plan.find("channel"), nullptr);  // defaults made explicit
  std::remove(path.c_str());
}

TEST(CliTest, FaultsRequiresPlan) {
  const CliRun r = run_cli({"faults"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("--plan is required"), std::string::npos);
}

TEST(CliTest, FaultsRejectsBadPlans) {
  const CliRun missing = run_cli({"faults", "--plan", "/no/such/plan.json"});
  EXPECT_EQ(missing.code, 1);
  EXPECT_NE(missing.err.find("cannot open"), std::string::npos);

  const std::string path = ::testing::TempDir() + "/pacds_cli_bad_plan.json";
  {
    std::ofstream file(path);
    file << R"({"crashes": [{"node": 2, "at": 0}]})";  // interval < 1
  }
  const CliRun bad = run_cli({"faults", "--plan", path});
  EXPECT_EQ(bad.code, 1);
  EXPECT_NE(bad.err.find("error:"), std::string::npos);

  // Node ids are range-checked against --n when given.
  {
    std::ofstream file(path);
    file << R"({"crashes": [{"node": 50, "at": 2}]})";
  }
  EXPECT_EQ(run_cli({"faults", "--plan", path, "--n", "0"}).code, 0);
  const CliRun range = run_cli({"faults", "--plan", path, "--n", "10"});
  EXPECT_EQ(range.code, 1);
  EXPECT_NE(range.err.find("out of range"), std::string::npos);
  std::remove(path.c_str());
}

TEST(CliTest, IntegerFlagsNeverWrap) {
  // Each value would wrap to a small int if narrowed (2^32 + 1 hosts to
  // one, 2^32 + 2 threads to two). It is refused by name before a trial or
  // a pool starts, so nothing reaches stdout.
  const std::string plan = write_sample_plan();
  for (const auto& [tokens, flag] :
       {std::tuple{std::vector<std::string>{"sim", "--n", "4294967297",
                                            "--trials", "1", "--scheme", "ID"},
                   "--n"},
        std::tuple{std::vector<std::string>{"cds", "--random", "4294967298"},
                   "--random"},
        std::tuple{std::vector<std::string>{"sim", "--n", "30", "--trials",
                                            "1", "--scheme", "ID", "--threads",
                                            "4294967298"},
                   "--threads"},
        std::tuple{std::vector<std::string>{"sim", "--n", "30", "--trials",
                                            "1", "--scheme", "ID", "--tiles",
                                            "4294967298"},
                   "--tiles"},
        std::tuple{std::vector<std::string>{"faults", "--plan", plan, "--n",
                                            "4294967336"},
                   "--n"},
        std::tuple{std::vector<std::string>{"gap", "--hosts", "12",
                                            "--trials", "4294967297"},
                   "--trials"}}) {
    const CliRun r = run_cli(tokens);
    EXPECT_EQ(r.code, 2) << tokens[0] << " " << flag;
    EXPECT_NE(r.err.find("error: " + std::string(flag) + " "),
              std::string::npos)
        << r.err;
    EXPECT_TRUE(r.out.empty()) << r.out;
  }
  std::remove(plan.c_str());
}

TEST(CliTest, SimFaultsPrintsDegradedTable) {
  const std::string path = write_sample_plan();
  const CliRun r = run_cli({"sim", "--n", "16", "--trials", "2", "--scheme",
                            "EL1", "--seed", "4", "--faults", path});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("faults: " + path), std::string::npos);
  for (const char* column : {"run len", "events", "repairs", "min cov"}) {
    EXPECT_NE(r.out.find(column), std::string::npos) << column;
  }
  std::remove(path.c_str());
}

TEST(CliTest, SimFaultsValidatesPlanAgainstHostCount) {
  const std::string path = ::testing::TempDir() + "/pacds_cli_range.json";
  {
    std::ofstream file(path);
    file << R"({"thefts": [{"node": 30, "at": 2, "amount": 5}]})";
  }
  const CliRun r = run_cli({"sim", "--n", "10", "--trials", "1", "--faults",
                            path});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("out of range"), std::string::npos);
  std::remove(path.c_str());

  const CliRun missing =
      run_cli({"sim", "--n", "10", "--faults", "/no/such/plan.json"});
  EXPECT_EQ(missing.code, 1);
  EXPECT_NE(missing.err.find("cannot open"), std::string::npos);
}

TEST(CliTest, SimMetricsDashStreamsJsonlToStdout) {
  const std::string path = write_sample_plan();
  const CliRun r = run_cli({"sim", "--n", "16", "--trials", "1", "--scheme",
                            "EL1", "--seed", "4", "--faults", path,
                            "--metrics", "-"});
  EXPECT_EQ(r.code, 0) << r.err;
  // Human report moved to stderr; stdout is pure JSONL.
  EXPECT_NE(r.err.find("lifetime simulation"), std::string::npos);
  EXPECT_EQ(r.out.front(), '{');
  std::istringstream lines(r.out);
  std::size_t fault_events = 0;
  std::size_t line_count = 0;
  for (std::string line; std::getline(lines, line); ++line_count) {
    const JsonValue record = parse_json(line);  // throws on any table leak
    ASSERT_NE(record.find("type"), nullptr);
    const std::string& type = record.find("type")->as_string();
    if (line_count == 0) {
      EXPECT_EQ(type, "run_manifest");
      ASSERT_NE(record.find("faults"), nullptr);
      EXPECT_TRUE(record.find("faults")->is_object());
    } else if (type == "fault_event") {
      ++fault_events;
      for (const char* key : {"trial", "interval", "kind", "cause", "down"}) {
        EXPECT_NE(record.find(key), nullptr) << "missing " << key;
      }
    }
  }
  EXPECT_GT(fault_events, 0u);
  std::remove(path.c_str());
}

TEST(CliTest, SweepMetricsDashStreamsJsonlToStdout) {
  // "-" is stdout for every command, not a file named "-".
  ASSERT_FALSE(std::filesystem::exists("-"));
  const CliRun r = run_cli({"sweep", "--hosts", "5", "--trials", "1",
                            "--scheme", "ID", "--metrics", "-"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_FALSE(std::filesystem::exists("-"));
  // Tables and the "wrote" line moved to stderr; stdout is pure JSONL.
  EXPECT_NE(r.err.find("mean gateway count"), std::string::npos) << r.err;
  EXPECT_NE(r.err.find("metrics records to -"), std::string::npos) << r.err;
  std::istringstream records(r.out);
  const obs::StreamValidation stream = obs::validate_metrics_stream(records);
  EXPECT_TRUE(stream.ok) << stream.error;
  EXPECT_EQ(stream.count_of("run_manifest"), 1u);
}

TEST(CliTest, SimSelDefaultsMatchSimConfig) {
  // serve, config JSON and the fuzzer all start from SimConfig{}; a bare
  // `pacds sim --scheme SEL` must run the same SEL key.
  const CliRun r = run_cli({"sim", "--n", "20", "--trials", "1", "--scheme",
                            "SEL", "--metrics", "-"});
  ASSERT_EQ(r.code, 0) << r.err;
  const JsonValue manifest = parse_json(r.out.substr(0, r.out.find('\n')));
  ASSERT_NE(manifest.find("type"), nullptr);
  ASSERT_EQ(manifest.find("type")->as_string(), "run_manifest");
  ASSERT_NE(manifest.find("stability_beta"), nullptr);
  ASSERT_NE(manifest.find("stability_quantum"), nullptr);
  EXPECT_EQ(manifest.find("stability_beta")->as_number(),
            SimConfig{}.stability_beta);
  EXPECT_EQ(manifest.find("stability_quantum")->as_number(),
            SimConfig{}.stability_quantum);
}

TEST(CliTest, ServeInUsage) {
  const CliRun help = run_cli({"help"});
  EXPECT_NE(help.out.find("serve"), std::string::npos);
  const CliRun r = run_cli({"serve", "--help"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("--socket"), std::string::npos);
  EXPECT_NE(r.out.find("--queue"), std::string::npos);
  EXPECT_NE(r.out.find("--max-tenants"), std::string::npos);
  EXPECT_NE(r.out.find("--threads"), std::string::npos);
}

TEST(CliTest, ServeRejectsBadOptions) {
  for (const std::vector<std::string> tokens :
       {std::vector<std::string>{"serve", "--queue", "0"},
        {"serve", "--queue", "abc"},
        {"serve", "--max-tenants", "0"},
        {"serve", "--threads", "-1"},
        {"serve", "--threads", "4096"}}) {
    const CliRun r = run_cli(tokens);
    EXPECT_EQ(r.code, 2) << tokens[1] << " " << tokens[2];
    EXPECT_NE(r.err.find("error:"), std::string::npos);
  }
}

TEST(CliTest, FaultsInUsage) {
  const CliRun help = run_cli({"help"});
  EXPECT_NE(help.out.find("faults"), std::string::npos);
  const CliRun r = run_cli({"faults", "--help"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("--plan"), std::string::npos);
  const CliRun sim_help = run_cli({"sim", "--help"});
  EXPECT_NE(sim_help.out.find("--faults"), std::string::npos);
}

}  // namespace
}  // namespace pacds::cli
