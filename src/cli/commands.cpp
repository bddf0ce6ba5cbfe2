#include "cli/commands.hpp"

#include <cmath>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "core/workspace.hpp"

#include "cli/args.hpp"
#include "core/articulation.hpp"
#include "core/cds.hpp"
#include "core/enum_names.hpp"
#include "core/metrics.hpp"
#include "core/verify.hpp"
#include "fuzz/fuzzer.hpp"
#include "io/dot.hpp"
#include "io/edgelist.hpp"
#include "io/json.hpp"
#include "io/scenario.hpp"
#include "io/table.hpp"
#include "net/rng.hpp"
#include "net/topology.hpp"
#include "io/csv.hpp"
#include "io/parse_num.hpp"
#include "obs/jsonl.hpp"
#include "serve/server.hpp"
#include "routing/routing.hpp"
#include "baselines/bb_mcds.hpp"
#include "baselines/cds22.hpp"
#include "baselines/greedy_mcds.hpp"
#include "baselines/mis_cds.hpp"
#include "baselines/tree_cds.hpp"
#include "sim/engine.hpp"
#include "sim/config_json.hpp"
#include "sim/experiment.hpp"
#include "sim/metrics_io.hpp"
#include "sim/montecarlo.hpp"

namespace pacds::cli {

namespace {

/// A bad flag or option value: run prints "error: <what>", then `usage`,
/// and returns 2. Anything else a command throws ends it with exit 1.
struct UsageError : std::runtime_error {
  explicit UsageError(const std::string& what, std::string usage_text = "")
      : std::runtime_error(what), usage(std::move(usage_text)) {}
  std::string usage;
};

constexpr std::int64_t kIntMin = std::numeric_limits<int>::min();
constexpr std::int64_t kIntMax = std::numeric_limits<int>::max();
constexpr std::int64_t kInt64Max = std::numeric_limits<std::int64_t>::max();

/// --<name> as an integer in [lo, hi]. Anything else is a UsageError naming
/// the flag, so no value is narrowed or wrapped on its way in.
std::int64_t int_flag(const ArgParser& parser, const std::string& name,
                      std::int64_t lo, std::int64_t hi) {
  const std::string raw = parser.option(name);
  const std::optional<std::int64_t> value = parser.option_int(name);
  if (!value) {
    throw UsageError("--" + name + " takes an integer, not '" + raw + "'");
  }
  if (*value < lo || *value > hi) {
    throw UsageError("--" + name + " " + raw + " is out of range [" +
                     std::to_string(lo) + ", " + std::to_string(hi) + "]");
  }
  return *value;
}

/// --<name> as a finite number no smaller than `lo`; anything else is a
/// UsageError naming the flag.
double double_flag(const ArgParser& parser, const std::string& name,
                   double lo = -std::numeric_limits<double>::infinity()) {
  const std::string raw = parser.option(name);
  const std::optional<double> value = parser.option_double(name);
  if (!value) {
    throw UsageError("--" + name + " takes a finite number, not '" + raw +
                     "'");
  }
  if (*value < lo) {
    throw UsageError("--" + name + " " + raw + " is below " +
                     JsonWriter::format_double(lo));
  }
  return *value;
}

/// --seed (and the like) as an RNG seed: any non-negative int64.
std::uint64_t seed_flag(const ArgParser& parser, const std::string& name) {
  return static_cast<std::uint64_t>(int_flag(parser, name, 0, kInt64Max));
}

/// Graph source options shared by several subcommands.
void add_graph_options(ArgParser& parser) {
  parser.add_option("input", "edge-list file ('n m' header, 'u v' lines)", "");
  parser.add_option("scenario", "scenario file (radius / hosts / 'x y "
                                "energy' lines)", "");
  parser.add_option("random", "generate a random connected unit-disk "
                              "network with this many hosts", "30");
  parser.add_option("seed", "RNG seed for generation", "2001");
  parser.add_option("radius", "transmission radius for --random", "25");
}

struct LoadedGraph {
  Graph graph;
  std::vector<Vec2> positions;    // empty for edge-list input
  std::vector<double> energies;   // empty unless a scenario provided them
  double radius = kPaperRadius;
};

LoadedGraph load_graph(const ArgParser& parser) {
  const std::string input = parser.option("input");
  if (!input.empty()) {
    std::ifstream file(input);
    if (!file) throw std::runtime_error("cannot open " + input);
    return LoadedGraph{read_edgelist(file), {}, {}, kPaperRadius};
  }
  const std::string scenario_path = parser.option("scenario");
  if (!scenario_path.empty()) {
    Scenario scenario = load_scenario_file(scenario_path);
    return LoadedGraph{scenario.graph(), std::move(scenario.positions),
                       std::move(scenario.energies), scenario.radius};
  }
  const auto n = static_cast<int>(int_flag(parser, "random", 1, 1000000));
  const double radius = double_flag(parser, "radius", 0.0);
  Xoshiro256 rng(seed_flag(parser, "seed"));
  if (auto placed = random_connected_placement(n, Field::paper_field(),
                                               radius, rng, 2000)) {
    return LoadedGraph{std::move(placed->graph), std::move(placed->positions),
                       {}, radius};
  }
  std::ostringstream message;
  message << "no connected placement found for n=" << n << " r=" << radius
          << " (try a larger radius)";
  throw std::runtime_error(message.str());
}

/// Energy levels for the EL schemes: the scenario's when provided, random
/// otherwise.
std::vector<double> energies_for(const LoadedGraph& loaded,
                                 std::uint64_t seed) {
  if (!loaded.energies.empty()) return loaded.energies;
  Xoshiro256 rng(seed ^ 0xe1e1e1);
  std::vector<double> energy;
  for (NodeId v = 0; v < loaded.graph.num_nodes(); ++v) {
    energy.push_back(static_cast<double>(rng.uniform_int(1, 100)));
  }
  return energy;
}

/// The value --<option> names in E's name table. An unknown name is a
/// UsageError "unknown <option> '<value>'".
template <NamedEnum E>
E option_enum(const ArgParser& parser, const std::string& option) {
  const std::string name = parser.option(option);
  const std::optional<E> value = enum_from_name<E>(name);
  if (!value) throw UsageError("unknown " + option + " '" + name + "'");
  return *value;
}

/// Parses --scheme for the simulation commands: "all" or one scheme name.
/// "all" stays the paper's five schemes; SEL is opt-in by name so the
/// default sweeps keep reproducing the paper's tables unchanged.
std::vector<RuleSet> parse_scheme_list(const ArgParser& parser) {
  if (parser.option("scheme") == "all") {
    return std::vector<RuleSet>(std::begin(kAllRuleSets),
                                std::end(kAllRuleSets));
  }
  return {option_enum<RuleSet>(parser, "scheme")};
}

/// --model 1|2|3 (checked by the caller): the paper's drain Models 1-3, in
/// DrainModel's declaration order.
DrainModel drain_model_of(std::int64_t model) {
  return static_cast<DrainModel>(model - 1);
}

/// Opens --metrics when given; a default-constructed sink stays detached.
/// "-" streams the records to `out`; the command's tables and its "wrote"
/// line then go to `err`, which this returns in place of `out`, so the
/// record stream stays machine-parseable. Throws when the path cannot be
/// opened for writing.
std::ostream& open_metrics(const std::string& path, std::ofstream& file,
                           std::optional<obs::JsonlSink>& sink,
                           std::ostream& out, std::ostream& err) {
  if (path == "-") {
    sink.emplace(out);
    return err;
  }
  if (!path.empty()) {
    file.open(path);
    if (!file) throw std::runtime_error("cannot write " + path);
    sink.emplace(file);
  }
  return out;
}

/// Declares --help (every command's last option) and parses `tokens`; a
/// parse error is a UsageError. Returns true when --help printed the usage
/// and the command is done.
bool parse_args(ArgParser& parser, const std::vector<std::string>& tokens,
                std::ostream& out) {
  parser.add_flag("help", "show usage");
  if (!parser.parse(tokens)) throw UsageError(parser.error(), parser.usage());
  if (parser.flag("help")) out << parser.usage();
  return parser.flag("help");
}

int cmd_cds(const std::vector<std::string>& tokens, std::ostream& out,
            std::ostream& /*err*/) {
  ArgParser parser("pacds cds", "compute a connected dominating set");
  add_graph_options(parser);
  parser.add_option("scheme", "NR | ID | ND | EL1 | EL2 | SEL | RULEK", "ID");
  parser.add_option("key", "priority key for --scheme RULEK "
                           "(ID | ND | EL1 | EL2 | SEL)", "ND");
  parser.add_option("strategy", "sequential | simultaneous | verified",
                    "sequential");
  parser.add_flag("dot", "emit Graphviz instead of a summary");
  parser.add_flag("json", "emit a JSON summary instead of text");
  parser.add_option("save-scenario",
                    "write the network (positions + energies) to this file",
                    "");
  if (parse_args(parser, tokens, out)) return 0;
  const LoadedGraph loaded = load_graph(parser);
  const Graph& g = loaded.graph;
  const auto strategy = option_enum<Strategy>(parser, "strategy");
  const std::vector<double> energy =
      energies_for(loaded, seed_flag(parser, "seed"));

  const std::string save_path = parser.option("save-scenario");
  if (!save_path.empty()) {
    if (loaded.positions.empty()) {
      throw UsageError("--save-scenario needs a positional network "
                       "(--random or --scenario input)");
    }
    Scenario scenario;
    scenario.radius = loaded.radius;
    scenario.positions = loaded.positions;
    scenario.energies = energy;
    if (!save_scenario_file(save_path, scenario)) {
      throw std::runtime_error("cannot write " + save_path);
    }
    out << "saved scenario to " << save_path << "\n";
  }

  CdsResult result;
  const std::string scheme = parser.option("scheme");
  if (scheme == "RULEK") {
    const auto key = option_enum<KeyKind>(parser, "key");
    result = compute_cds_custom(
        g, key, RuleConfig{.use_rule_k = true, .strategy = strategy}, energy);
  } else {
    CdsOptions options;
    options.strategy = strategy;
    result = compute_cds(g, option_enum<RuleSet>(parser, "scheme"), energy,
                         options);
  }

  if (parser.flag("dot")) {
    out << to_dot(g, &result.gateways,
                  loaded.positions.empty() ? nullptr : &loaded.positions);
    return 0;
  }
  const CdsCheck check = check_cds(g, result.gateways);
  if (parser.flag("json")) {
    JsonWriter json(out);
    json.begin_object();
    json.key("hosts").value(g.num_nodes());
    json.key("links").value(g.num_edges());
    json.key("scheme").value(scheme);
    json.key("strategy").value(parser.option("strategy"));
    json.key("marked").value(result.marked_count);
    json.key("gateway_count").value(result.gateway_count);
    json.key("valid").value(check.ok());
    json.key("gateways").begin_array();
    result.gateways.for_each_set(
        [&json](std::size_t v) { json.value(v); });
    json.end_array();
    json.end_object();
    out << "\n";
    return check.ok() ? 0 : 1;
  }
  out << "hosts:     " << g.num_nodes() << "\n"
      << "links:     " << g.num_edges() << "\n"
      << "marked:    " << result.marked_count << " (marking process)\n"
      << "gateways:  " << result.gateway_count << " " << scheme << "/"
      << parser.option("strategy") << "\n"
      << "valid CDS: " << (check.ok() ? "yes" : "NO — " + check.message)
      << "\n"
      << "set:       " << result.gateways.to_string() << "\n";
  return check.ok() ? 0 : 1;
}

int cmd_info(const std::vector<std::string>& tokens, std::ostream& out,
             std::ostream& /*err*/) {
  ArgParser parser("pacds info", "structural statistics of a network");
  add_graph_options(parser);
  if (parse_args(parser, tokens, out)) return 0;
  const LoadedGraph loaded = load_graph(parser);
  const Graph& g = loaded.graph;

  const DegreeStats degrees = degree_stats(g);
  const DynBitset cuts = articulation_points(g);
  out << "hosts:        " << g.num_nodes() << "\n"
      << "links:        " << g.num_edges() << "\n"
      << "degree:       min " << degrees.min << ", avg "
      << TextTable::fmt(degrees.mean) << ", max " << degrees.max << "\n"
      << "density:      " << TextTable::fmt(edge_density(g), 3) << "\n"
      << "clustering:   " << TextTable::fmt(average_clustering(g), 3) << "\n"
      << "triangles:    " << triangle_count(g) << "\n"
      << "components:   " << g.num_components() << "\n"
      << "connected:    " << (g.is_connected() ? "yes" : "no") << "\n"
      << "complete:     " << (g.is_complete() ? "yes" : "no") << "\n";
  if (const auto diam = g.diameter()) {
    out << "diameter:     " << *diam << "\n";
  }
  out << "cut vertices: " << cuts.count() << " " << cuts.to_string() << "\n"
      << "bridges:      " << bridges(g).size() << "\n"
      << "marked (NR):  " << marking_process(g).count() << "\n";
  return 0;
}

int cmd_route(const std::vector<std::string>& tokens, std::ostream& out,
              std::ostream& /*err*/) {
  ArgParser parser("pacds route",
                   "route a packet through the gateway backbone");
  add_graph_options(parser);
  parser.add_option("scheme", "NR | ID | ND | EL1 | EL2 | SEL", "ID");
  parser.add_option("src", "source host id", "0");
  parser.add_option("dst", "destination host id", "1");
  if (parse_args(parser, tokens, out)) return 0;
  const LoadedGraph loaded = load_graph(parser);
  const Graph& g = loaded.graph;
  const auto rs = option_enum<RuleSet>(parser, "scheme");
  const auto src =
      static_cast<NodeId>(int_flag(parser, "src", 0, g.num_nodes() - 1));
  const auto dst =
      static_cast<NodeId>(int_flag(parser, "dst", 0, g.num_nodes() - 1));
  const CdsResult cds =
      compute_cds(g, rs, energies_for(loaded, seed_flag(parser, "seed")));
  const DominatingSetRouter router(g, cds.gateways);
  const RouteResult route = router.route(src, dst);
  out << "gateways (" << cds.gateway_count
      << "): " << cds.gateways.to_string() << "\n";
  if (!route.delivered) {
    out << "route " << src << " -> " << dst
        << ": UNDELIVERABLE (" << route.failure << ")\n";
    return 1;
  }
  out << "route " << src << " -> " << dst << " (" << route.path.size() - 1
      << " hops):";
  for (const NodeId hop : route.path) out << " " << hop;
  out << "\n";
  return 0;
}

int cmd_sim(const std::vector<std::string>& tokens, std::ostream& out,
            std::ostream& err) {
  ArgParser parser("pacds sim", "run the paper's lifetime simulation");
  parser.add_option("n", "number of hosts", "50");
  parser.add_option("trials", "Monte-Carlo trials", "30");
  parser.add_option("model", "gateway drain model: 1 (d=2/|G'|), "
                             "2 (d=N/|G'|), 3 (d=N(N-1)/2/(10|G'|))", "2");
  parser.add_option("scheme", "NR | ID | ND | EL1 | EL2 | SEL | all "
                              "('all' = the paper's five; SEL is opt-in)",
                    "all");
  parser.add_option("seed", "base RNG seed", "2001");
  parser.add_option("quantum", "energy-key quantization (0 = off)", "1");
  parser.add_option("mobility",
                    "mobility model: paper-jump | random-walk | "
                    "random-waypoint | gauss-markov | static (non-paper-jump "
                    "kinds use MobilityParams defaults; use a config JSON for "
                    "full control)",
                    "paper-jump");
  parser.add_option("depth",
                    "field z extent (0 = the paper's planar world; > 0 lifts "
                    "placement, mobility and link distances into 3-D)",
                    "0");
  parser.add_option("radio",
                    "propagation model gating unit-disk links: unit-disk | "
                    "shadowing | probabilistic (deterministic per-pair "
                    "fading; params from RadioParams defaults)",
                    "unit-disk");
  parser.add_option("fading-seed",
                    "per-pair fading seed for --radio shadowing | "
                    "probabilistic",
                    "1");
  parser.add_option("stability-beta",
                    "SEL churn EWMA memory in [0, 1] (0 = latest interval "
                    "only, 1 = frozen)",
                    JsonWriter::format_double(SimConfig{}.stability_beta));
  parser.add_option("stability-quantum",
                    "SEL churn bucket width (0 = raw EWMA values)",
                    JsonWriter::format_double(SimConfig{}.stability_quantum));
  parser.add_option("strategy", "sequential | simultaneous | verified",
                    "sequential");
  parser.add_option("engine",
                    "per-interval engine: auto | full | incremental | tiled",
                    "auto");
  parser.add_option("backbone",
                    "backbone family: scheme (the paper's rules, "
                    "recomputed each interval) | cds22 (greedy "
                    "(2,2)-connected set, kept while it still verifies; "
                    "survives single gateway crashes without repair)",
                    "scheme");
  parser.add_option("tiles",
                    "tile count for --engine tiled (0 = auto: finest grid "
                    "with tile side >= 2*radius); gateways are identical for "
                    "every value",
                    "0");
  parser.add_option("threads",
                    "worker threads for the CDS passes inside each interval "
                    "(1 = serial, 0 = all cores); results are identical for "
                    "every value",
                    "1");
  parser.add_option("metrics",
                    "stream JSONL metrics to this file (one run manifest per "
                    "scheme + one record per interval); '-' streams to "
                    "stdout and moves the summary table to stderr",
                    "");
  parser.add_option("faults",
                    "fault-plan JSON file (see FAULTS.md): runs the "
                    "simulation in degraded mode past the first death",
                    "");
  if (parse_args(parser, tokens, out)) return 0;
  const std::int64_t trials = int_flag(parser, "trials", 1, kInt64Max);
  const std::uint64_t seed = seed_flag(parser, "seed");
  // The int members take any int here; validate_sim_config holds their
  // ranges.
  SimConfig config;
  config.n_hosts = static_cast<int>(int_flag(parser, "n", kIntMin, kIntMax));
  config.drain_model = drain_model_of(int_flag(parser, "model", 1, 3));
  config.energy_key_quantum = double_flag(parser, "quantum");
  config.cds_options.strategy = option_enum<Strategy>(parser, "strategy");
  config.threads =
      static_cast<int>(int_flag(parser, "threads", kIntMin, kIntMax));
  config.field_depth = double_flag(parser, "depth");
  config.stability_beta = double_flag(parser, "stability-beta");
  config.stability_quantum = double_flag(parser, "stability-quantum");
  config.mobility_kind = option_enum<MobilityKind>(parser, "mobility");
  config.radio = option_enum<RadioKind>(parser, "radio");
  config.radio_params.fading_seed = seed_flag(parser, "fading-seed");
  config.engine = option_enum<SimEngine>(parser, "engine");
  config.backbone = option_enum<BackboneMode>(parser, "backbone");
  config.tiles = static_cast<int>(int_flag(parser, "tiles", kIntMin, kIntMax));
  if (const std::string error = validate_sim_config(config); !error.empty()) {
    throw UsageError(error);
  }
  const std::vector<RuleSet> schemes = parse_scheme_list(parser);

  std::optional<FaultPlan> fault_plan;
  const std::string faults_path = parser.option("faults");
  if (!faults_path.empty()) {
    fault_plan = load_fault_plan(faults_path);
    validate_fault_plan(*fault_plan, config.n_hosts);
  }

  const std::string metrics_path = parser.option("metrics");
  std::ofstream metrics_file;
  std::optional<obs::JsonlSink> metrics;
  std::ostream& report =
      open_metrics(metrics_path, metrics_file, metrics, out, err);

  report << "lifetime simulation: n=" << config.n_hosts << ", "
         << to_string(config.drain_model) << ", " << trials << " trials";
  if (fault_plan) report << ", faults: " << faults_path;
  report << "\n";
  TextTable table(fault_plan
                      ? std::vector<std::string>{"scheme", "run len", "±95%",
                                                 "avg |G'|", "events",
                                                 "repairs", "disconn",
                                                 "min cov"}
                      : std::vector<std::string>{"scheme", "lifetime", "±95%",
                                                 "avg |G'|"});
  table.set_align(0, Align::kLeft);
  for (const RuleSet rs : schemes) {
    config.rule_set = rs;
    const LifetimeSummary s = run_lifetime_trials(
        config, static_cast<std::size_t>(trials), seed, nullptr,
        metrics ? &*metrics : nullptr, fault_plan ? &*fault_plan : nullptr);
    if (fault_plan) {
      table.add_row({to_string(rs), TextTable::fmt(s.intervals.mean),
                     TextTable::fmt(s.intervals.ci95),
                     TextTable::fmt(s.avg_gateways.mean),
                     std::to_string(s.faults.events),
                     std::to_string(s.faults.repairs),
                     std::to_string(s.faults.disconnected_intervals),
                     TextTable::fmt(s.faults.min_coverage, 3)});
    } else {
      table.add_row({to_string(rs), TextTable::fmt(s.intervals.mean),
                     TextTable::fmt(s.intervals.ci95),
                     TextTable::fmt(s.avg_gateways.mean)});
    }
  }
  table.print(report);
  if (metrics) {
    report << "wrote " << metrics->records() << " metrics records to "
           << metrics_path << "\n";
  }
  return 0;
}

/// --sets: single-snapshot set-size study instead of lifetime trials.
/// For each n, samples random unit-disk graphs at the paper's density
/// (50 hosts per 100x100 field, r = 25; the field grows with n) and
/// measures the marked set, the Rule 1+2 set (ID keys, the algorithm
/// Hansen-Schmutz analyze in arXiv:cs/0408068) and the Rule k set
/// (arXiv:cs/0408067). Both papers predict E[|set|] = Theta(n): the ratios
/// printed here should level off at n-independent constants, with the
/// Rule k constant below the Rule 2 constant (EXPERIMENTS.md, "Hansen-
/// Schmutz check").
int run_set_size_study(const std::vector<int>& hosts, std::size_t trials,
                       std::uint64_t base_seed, std::ostream& out) {
  out << "set sizes on random unit-disk snapshots (constant density: 50 "
         "hosts per 100x100, r = 25; ID keys, simultaneous rules)\n";
  TextTable table({"n", "avg deg", "marked/n", "rule2/n", "rulek/n",
                   "rulek/rule2"});
  CdsWorkspace workspace;
  const ExecContext ctx{nullptr, &workspace, nullptr};
  CdsOptions options;
  options.strategy = Strategy::kSimultaneous;
  for (const int n : hosts) {
    double marked = 0.0;
    double rule2 = 0.0;
    double rulek = 0.0;
    double degree = 0.0;
    for (std::size_t trial = 0; trial < trials; ++trial) {
      const std::uint64_t mix = std::uint64_t{0x9e3779b97f4a7c15} *
                                (static_cast<std::uint64_t>(trial) + 1);
      Xoshiro256 rng(base_seed + mix + static_cast<std::uint64_t>(n));
      const double side = std::sqrt(static_cast<double>(n) / 50.0) * 100.0;
      const Field field(side, side, BoundaryPolicy::kClamp);
      const auto positions = random_placement(n, field, rng);
      const Graph g =
          build_links(positions, kPaperRadius, LinkModel::kUnitDisk);
      const CdsResult r2 = compute_cds(g, RuleSet::kID, {}, options, ctx);
      const CdsResult rk = compute_cds_custom(
          g, KeyKind::kId,
          RuleConfig{.use_rule_k = true, .strategy = Strategy::kSimultaneous},
          {}, CliquePolicy::kNone, ctx);
      marked += static_cast<double>(r2.marked_count);
      rule2 += static_cast<double>(r2.gateway_count);
      rulek += static_cast<double>(rk.gateway_count);
      degree += 2.0 * static_cast<double>(g.num_edges()) /
                static_cast<double>(g.num_nodes());
    }
    const double den = static_cast<double>(trials) * n;
    table.add_row({TextTable::fmt(n),
                   TextTable::fmt(degree / static_cast<double>(trials)),
                   TextTable::fmt(marked / den, 4),
                   TextTable::fmt(rule2 / den, 4),
                   TextTable::fmt(rulek / den, 4),
                   TextTable::fmt(rulek / rule2, 4)});
  }
  table.print(out);
  return 0;
}

int cmd_sweep(const std::vector<std::string>& tokens, std::ostream& out,
              std::ostream& err) {
  ArgParser parser("pacds sweep",
                   "sweep host count x scheme (the figure harness)");
  parser.add_option("hosts",
                    "comma-separated host counts, or 'paper' (3..100) / "
                    "'quick' (10,30,50,80) / 'hansen' (1k..100k ladder "
                    "for --sets)",
                    "quick");
  parser.add_option("scheme", "NR | ID | ND | EL1 | EL2 | SEL | all "
                              "('all' = the paper's five; SEL is opt-in)",
                    "all");
  parser.add_option("trials", "Monte-Carlo trials per (n, scheme) point",
                    "10");
  parser.add_option("model", "gateway drain model: 1 (d=2/|G'|), "
                             "2 (d=N/|G'|), 3 (d=N(N-1)/2/(10|G'|))", "2");
  parser.add_option("seed", "base RNG seed", "2001");
  parser.add_option("strategy", "sequential | simultaneous | verified",
                    "sequential");
  parser.add_option("jobs",
                    "worker threads for the Monte-Carlo trial pool "
                    "(1 = serial, 0 = all cores); per-trial interval "
                    "parallelism is forced off under a pool",
                    "1");
  parser.add_option("csv", "write the sweep table as CSV to this file", "");
  parser.add_option("metrics",
                    "stream JSONL metrics to this file (one run manifest per "
                    "(n, scheme) point + one record per interval); '-' "
                    "streams to stdout and moves the tables to stderr",
                    "");
  parser.add_flag("ci", "add ±95% confidence columns to the tables");
  parser.add_flag("sets",
                  "measure CDS set sizes on single snapshots instead of "
                  "lifetimes (the Hansen-Schmutz check; see EXPERIMENTS.md)");
  if (parse_args(parser, tokens, out)) return 0;
  const auto trials =
      static_cast<std::size_t>(int_flag(parser, "trials", 1, kInt64Max));
  const std::int64_t model = int_flag(parser, "model", 1, 3);
  const std::uint64_t seed = seed_flag(parser, "seed");
  const std::int64_t jobs = int_flag(parser, "jobs", 0, 1024);
  const auto strategy = option_enum<Strategy>(parser, "strategy");
  const auto schemes = parse_scheme_list(parser);

  SweepConfig sweep;
  const std::string hosts = parser.option("hosts");
  if (hosts == "paper") {
    sweep.host_counts = paper_host_counts();
  } else if (hosts == "quick") {
    sweep.host_counts = quick_host_counts();
  } else if (hosts == "hansen") {
    // Geometric ladder for the --sets asymptotics; the top rung is the
    // n = 1e5 point the Hansen-Schmutz comparison needs.
    sweep.host_counts = {1000, 3162, 10000, 31623, 100000};
  } else if (hosts.empty()) {
    throw UsageError("--hosts needs at least one host count");
  } else {
    // Checked parse: std::stoi accepted partial tokens ("4x" -> 4) and threw
    // on overflow; parse_int_list demands full-token integers in range.
    std::string bad;
    const auto counts = parse_int_list(hosts, 1, 1000000, &bad);
    if (!counts) throw UsageError("bad --hosts entry '" + bad + "'");
    sweep.host_counts.reserve(counts->size());
    for (const std::int64_t n : *counts) {
      sweep.host_counts.push_back(static_cast<int>(n));
    }
  }
  if (parser.flag("sets")) {
    return run_set_size_study(sweep.host_counts, trials, seed, out);
  }
  sweep.schemes = schemes;
  sweep.trials = trials;
  sweep.base_seed = seed;
  sweep.base.drain_model = drain_model_of(model);
  sweep.base.cds_options.strategy = strategy;

  const std::string metrics_path = parser.option("metrics");
  std::ofstream metrics_file;
  std::optional<obs::JsonlSink> metrics;
  std::ostream& report =
      open_metrics(metrics_path, metrics_file, metrics, out, err);
  std::optional<ThreadPool> pool;
  if (jobs != 1) pool.emplace(static_cast<std::size_t>(jobs));

  report << "sweep: " << sweep.host_counts.size() << " host counts x "
         << sweep.schemes.size() << " schemes, "
         << to_string(sweep.base.drain_model) << ", " << sweep.trials
         << " trials each\n";
  const SweepResult result =
      run_sweep(sweep, pool ? &*pool : nullptr, metrics ? &*metrics : nullptr);
  report << "\nlifetime (intervals to first death):\n";
  sweep_table(result, SweepMetric::kLifetime, parser.flag("ci"))
      .print(report);
  report << "\nmean gateway count:\n";
  sweep_table(result, SweepMetric::kGatewayCount, parser.flag("ci"))
      .print(report);

  const std::string csv_path = parser.option("csv");
  if (!csv_path.empty()) {
    if (!write_csv_file(csv_path, sweep_csv_header(result),
                        sweep_csv_rows(result))) {
      throw std::runtime_error("cannot write " + csv_path);
    }
    report << "\nwrote " << csv_path << "\n";
  }
  if (metrics) {
    report << "wrote " << metrics->records() << " metrics records to "
           << metrics_path << "\n";
  }
  return 0;
}

/// Comma-separated list of positive finite doubles (radius grids).
std::optional<std::vector<double>> parse_double_list(const std::string& text,
                                                     std::string* bad_item) {
  std::vector<double> values;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t comma = text.find(',', start);
    const std::string item =
        text.substr(start, comma == std::string::npos ? comma : comma - start);
    const auto value = parse_finite_double(item);
    if (!value || *value <= 0.0) {
      if (bad_item != nullptr) *bad_item = item;
      return std::nullopt;
    }
    values.push_back(*value);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return values;
}

int cmd_gap(const std::vector<std::string>& tokens, std::ostream& out,
            std::ostream& err) {
  ArgParser parser("pacds gap",
                   "approximation ratios of the distributed schemes and the "
                   "centralized heuristics against the branch-and-bound "
                   "exact minimum CDS (see EXPERIMENTS.md, 'Optimality "
                   "gap')");
  parser.add_option("hosts", "comma-separated host counts", "20,40,60");
  parser.add_option("radius", "comma-separated transmission radii", "25");
  parser.add_option("trials", "instances per (n, radius) point", "3");
  parser.add_option("seed", "base RNG seed", "2001");
  parser.add_option("budget",
                    "branch-and-bound node budget per instance (instances "
                    "that exhaust it are reported unproven and excluded "
                    "from the ratios)",
                    "50000000");
  parser.add_option("metrics",
                    "stream JSONL gap records to this file (one gap_manifest "
                    "+ one gap_point per instance); '-' streams to stdout "
                    "and moves the ratio table to stderr",
                    "");
  if (parse_args(parser, tokens, out)) return 0;
  const auto trials = static_cast<int>(int_flag(parser, "trials", 1, kIntMax));
  const std::uint64_t seed = seed_flag(parser, "seed");
  const auto budget =
      static_cast<std::uint64_t>(int_flag(parser, "budget", 1, kInt64Max));
  std::string bad;
  const auto host_list = parse_int_list(parser.option("hosts"), 2, 2000, &bad);
  if (!host_list) throw UsageError("bad --hosts entry '" + bad + "'");
  const auto radius_list = parse_double_list(parser.option("radius"), &bad);
  if (!radius_list) throw UsageError("bad --radius entry '" + bad + "'");

  const std::string metrics_path = parser.option("metrics");
  std::ofstream metrics_file;
  std::optional<obs::JsonlSink> metrics;
  std::ostream& report =
      open_metrics(metrics_path, metrics_file, metrics, out, err);

  if (metrics) {
    metrics->record([&](JsonWriter& json) {
      json.key("type").value("gap_manifest");
      json.key("schema").value(kMetricsSchemaVersion);
      json.key("base_seed").value(static_cast<std::size_t>(seed));
      json.key("trials").value(static_cast<std::size_t>(trials));
      json.key("node_budget").value(static_cast<std::size_t>(budget));
      json.key("hosts").begin_array();
      for (const std::int64_t n : *host_list) {
        json.value(static_cast<std::int64_t>(n));
      }
      json.end_array();
      json.key("radii").begin_array();
      for (const double r : *radius_list) json.value(r);
      json.end_array();
    });
  }

  report << "optimality gap: size / exact optimum on random connected "
            "unit-disk networks; "
         << trials << " instances per point, node budget " << budget
         << "\n";
  TextTable table({"n", "radius", "solved", "opt", "ID", "ND", "EL1", "EL2",
                   "greedy", "MIS", "tree", "cds22"});
  struct Metered {
    const char* label;
    Welford ratio;
  };
  for (std::size_t ni = 0; ni < host_list->size(); ++ni) {
    const int n = static_cast<int>((*host_list)[ni]);
    for (std::size_t ri = 0; ri < radius_list->size(); ++ri) {
      const double radius = (*radius_list)[ri];
      Welford opt;
      Metered heuristics[] = {{"ID", {}},     {"ND", {}},   {"EL1", {}},
                              {"EL2", {}},    {"greedy", {}}, {"MIS", {}},
                              {"tree", {}},   {"cds22", {}}};
      int attempted = 0;
      for (int trial = 0; trial < trials; ++trial) {
        const std::uint64_t instance =
            (ni * radius_list->size() + ri) *
                static_cast<std::uint64_t>(trials) +
            static_cast<std::uint64_t>(trial);
        Xoshiro256 rng(derive_seed(seed, 0xa11u * instance + 1));
        const auto placed = random_connected_placement(
            n, Field::paper_field(), radius, rng, 5000);
        if (!placed) continue;
        const Graph& g = placed->graph;
        ++attempted;
        std::vector<double> energy;
        energy.reserve(static_cast<std::size_t>(n));
        for (int v = 0; v < n; ++v) {
          energy.push_back(static_cast<double>(rng.uniform_int(1, 100)));
        }
        BbStats stats;
        const auto exact = bb_min_cds(g, BbOptions{budget}, &stats);
        const std::size_t sizes[] = {
            compute_cds(g, RuleSet::kID, energy).gateway_count,
            compute_cds(g, RuleSet::kND, energy).gateway_count,
            compute_cds(g, RuleSet::kEL1, energy).gateway_count,
            compute_cds(g, RuleSet::kEL2, energy).gateway_count,
            greedy_mcds(g).count(),
            mis_cds(g).count(),
            bfs_tree_cds(g).count(),
            0};
        const Cds22Result backbone = greedy_cds22(g);
        const std::size_t cds22_size = backbone.backbone.count();
        if (metrics) {
          metrics->record([&](JsonWriter& json) {
            json.key("type").value("gap_point");
            json.key("schema").value(kMetricsSchemaVersion);
            json.key("n").value(n);
            json.key("radius").value(radius);
            json.key("trial").value(trial);
            json.key("edges").value(g.num_edges());
            json.key("proven").value(stats.proven);
            json.key("bb_nodes").value(
                static_cast<std::size_t>(stats.nodes));
            if (exact) {
              json.key("optimum").value(exact->count());
            } else {
              json.key("optimum").null();
            }
            json.key("size_id").value(sizes[0]);
            json.key("size_nd").value(sizes[1]);
            json.key("size_el1").value(sizes[2]);
            json.key("size_el2").value(sizes[3]);
            json.key("size_greedy").value(sizes[4]);
            json.key("size_mis").value(sizes[5]);
            json.key("size_tree").value(sizes[6]);
            json.key("size_cds22").value(cds22_size);
            json.key("cds22_full").value(backbone.full_22);
          });
        }
        if (!exact || exact->count() == 0) continue;
        const auto optimum = static_cast<double>(exact->count());
        opt.add(optimum);
        for (std::size_t h = 0; h < 8; ++h) {
          const std::size_t size = h == 7 ? cds22_size : sizes[h];
          heuristics[h].ratio.add(static_cast<double>(size) / optimum);
        }
      }
      std::vector<std::string> row{
          TextTable::fmt(n), TextTable::fmt(radius, 0),
          std::to_string(opt.count()) + "/" + std::to_string(attempted),
          TextTable::fmt(opt.mean())};
      for (const Metered& h : heuristics) {
        row.push_back(h.ratio.count() > 0 ? TextTable::fmt(h.ratio.mean())
                                          : "-");
      }
      table.add_row(std::move(row));
    }
  }
  table.print(report);
  report << "(ratios are mean size/optimum over the proven instances; "
            "1.00 = optimal)\n";
  if (metrics) {
    report << "wrote " << metrics->records() << " gap records to "
           << metrics_path << "\n";
  }
  return 0;
}

int cmd_faults(const std::vector<std::string>& tokens, std::ostream& out,
               std::ostream& /*err*/) {
  ArgParser parser("pacds faults",
                   "inspect a fault plan's resolved schedule");
  parser.add_option("plan", "fault-plan JSON file (see FAULTS.md)", "");
  parser.add_option("n", "validate node ids against this host count "
                         "(0 = skip validation)", "0");
  parser.add_flag("json", "echo the normalized plan as JSON instead");
  if (parse_args(parser, tokens, out)) return 0;
  const std::string plan_path = parser.option("plan");
  if (plan_path.empty()) throw UsageError("--plan is required", parser.usage());
  const auto n = static_cast<int>(int_flag(parser, "n", 0, kIntMax));
  const FaultPlan plan = load_fault_plan(plan_path);
  if (n > 0) validate_fault_plan(plan, n);
  if (parser.flag("json")) {
    JsonWriter json(out, 2);
    write_fault_plan(json, plan);
    out << "\n";
    return 0;
  }
  out << "plan: " << plan_path << "\n"
      << "seed: " << plan.seed << "\n"
      << "channel: drop " << plan.channel.drop << ", duplicate "
      << plan.channel.duplicate << ", delay " << plan.channel.delay << "\n"
      << "retry: max " << plan.retry.max_attempts << " attempts, backoff "
      << plan.retry.backoff_base << ".." << plan.retry.backoff_cap
      << " rounds\n";
  const std::vector<ScheduledFault> schedule = resolve_schedule(plan);
  if (schedule.empty()) {
    out << "schedule: empty (channel-only plan)\n";
    return 0;
  }
  out << "schedule (" << schedule.size() << " events):\n";
  TextTable table({"interval", "event", "target", "detail"});
  table.set_align(1, Align::kLeft);
  table.set_align(2, Align::kLeft);
  table.set_align(3, Align::kLeft);
  for (const ScheduledFault& event : schedule) {
    std::string target;
    std::string detail;
    if (event.blackout >= 0) {
      const BlackoutSpec& b =
          plan.blackouts[static_cast<std::size_t>(event.blackout)];
      target = "region " + std::to_string(event.blackout);
      std::ostringstream box;
      box << "[" << b.x0 << "," << b.x1 << "]x[" << b.y0 << "," << b.y1
          << "]";
      detail = box.str();
    } else {
      target = "node " + std::to_string(event.node);
      if (event.kind == FaultKind::kTheft) {
        std::ostringstream amount;
        amount << "steals " << event.amount << " energy";
        detail = amount.str();
      }
    }
    table.add_row({std::to_string(event.interval),
                   to_string(event.kind) + " (" + to_string(event.cause) +
                       ")",
                   target, detail});
  }
  table.print(out);
  return 0;
}

int cmd_fuzz(const std::vector<std::string>& tokens, std::ostream& out,
             std::ostream& /*err*/) {
  ArgParser parser("pacds fuzz",
                   "differential fuzzing: random scenarios vs the "
                   "invariant-oracle suite (DESIGN.md §9)");
  parser.add_option("seed", "base seed of the scenario stream", "1");
  parser.add_option("iters", "random scenarios to generate", "100");
  parser.add_option("time-budget",
                    "wall-clock cap in seconds (0 = iterations only)", "0");
  parser.add_option("corpus",
                    "reproducer directory: replayed first, new findings "
                    "written here (empty = none)", "");
  if (parse_args(parser, tokens, out)) return 0;
  fuzz::FuzzOptions options;
  options.seed = seed_flag(parser, "seed");
  options.iterations =
      static_cast<std::uint64_t>(int_flag(parser, "iters", 0, kInt64Max));
  options.time_budget_seconds = double_flag(parser, "time-budget", 0.0);
  options.corpus_dir = parser.option("corpus");
  return fuzz::run_fuzz(options, out).ok() ? 0 : 1;
}

int cmd_serve(const std::vector<std::string>& tokens, std::ostream& out,
              std::ostream& /*err*/) {
  ArgParser parser("pacds serve",
                   "resident multi-tenant simulation server over JSONL "
                   "requests (DESIGN.md §12)");
  parser.add_option("socket",
                    "serve on this Unix socket path instead of stdin/stdout",
                    "");
  parser.add_option("queue",
                    "bounded admission queue length; lines arriving while "
                    "the queue is full are shed with a queue_full error "
                    "(default 1024, env PACDS_SERVE_QUEUE)",
                    "");
  parser.add_option("max-tenants",
                    "resident tenant cap; creating beyond it evicts the "
                    "least-recently-used tenant (default 64, env "
                    "PACDS_SERVE_MAX_TENANTS)",
                    "");
  parser.add_option("threads",
                    "executor threads for independent tenant groups "
                    "(1 = serial, 0 = all cores); the output stream is "
                    "identical for every value",
                    "1");
  if (parse_args(parser, tokens, out)) return 0;
  serve::ServeOptions options;
  options.queue_limit = env_size_t("PACDS_SERVE_QUEUE", options.queue_limit);
  options.max_tenants =
      env_size_t("PACDS_SERVE_MAX_TENANTS", options.max_tenants);
  if (!parser.option("queue").empty()) {
    options.queue_limit =
        static_cast<std::size_t>(int_flag(parser, "queue", 1, kInt64Max));
  }
  if (!parser.option("max-tenants").empty()) {
    options.max_tenants = static_cast<std::size_t>(
        int_flag(parser, "max-tenants", 1, kInt64Max));
  }
  options.threads = static_cast<int>(int_flag(parser, "threads", 0, 1024));

  serve::Server server(options, out);
  const std::string socket_path = parser.option("socket");
  if (!socket_path.empty()) {
#ifdef __unix__
    return server.run_unix_socket(socket_path);
#else
    throw UsageError("--socket needs a Unix platform; use stdin mode");
#endif
  }
  return server.run(std::cin);
}

}  // namespace

std::string main_usage() {
  return "pacds — power-aware connected dominating sets "
         "(Wu-Gao-Stojmenovic, ICPP 2001)\n\n"
         "usage: pacds <command> [options]\n\n"
         "commands:\n"
         "  cds     compute a gateway set (schemes NR/ID/ND/EL1/EL2/RULEK)\n"
         "  info    structural statistics of a network\n"
         "  route   route a packet through the gateway backbone\n"
         "  sim     run the paper's lifetime simulation\n"
         "  sweep   sweep host count x scheme (the figure harness)\n"
         "  gap     approximation ratios vs the exact minimum CDS\n"
         "  faults  inspect a fault plan's resolved schedule\n"
         "  fuzz    differential fuzzing against the invariant oracles\n"
         "  serve   resident multi-tenant server over JSONL requests\n\n"
         "run 'pacds <command> --help' for command options\n";
}

int run(const std::vector<std::string>& tokens, std::ostream& out,
        std::ostream& err) {
  if (tokens.empty() || tokens[0] == "--help" || tokens[0] == "help") {
    out << main_usage();
    return tokens.empty() ? 2 : 0;
  }
  const std::string command = tokens[0];
  const std::vector<std::string> rest(tokens.begin() + 1, tokens.end());
  // The one error exit: a command reports every failure by throwing.
  try {
    if (command == "cds") return cmd_cds(rest, out, err);
    if (command == "info") return cmd_info(rest, out, err);
    if (command == "route") return cmd_route(rest, out, err);
    if (command == "sim") return cmd_sim(rest, out, err);
    if (command == "sweep") return cmd_sweep(rest, out, err);
    if (command == "gap") return cmd_gap(rest, out, err);
    if (command == "faults") return cmd_faults(rest, out, err);
    if (command == "fuzz") return cmd_fuzz(rest, out, err);
    if (command == "serve") return cmd_serve(rest, out, err);
  } catch (const std::exception& e) {
    err << "error: " << e.what() << "\n";
    const auto* usage = dynamic_cast<const UsageError*>(&e);
    if (usage == nullptr) return 1;
    err << usage->usage;
    return 2;
  }
  err << "error: unknown command '" << command << "'\n\n" << main_usage();
  return 2;
}

}  // namespace pacds::cli
