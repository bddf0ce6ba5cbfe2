#include "fuzz/scenario.hpp"

#include <sstream>
#include <stdexcept>
#include <utility>

#include "io/json_fields.hpp"
#include "net/rng.hpp"
#include "sim/config_json.hpp"

namespace pacds::fuzz {

namespace {

/// Seeds must survive a JSON double round trip (the corpus number type), so
/// generated ones are masked below 2^48.
constexpr std::uint64_t kSeedMask = (std::uint64_t{1} << 48) - 1;

constexpr JsonReader kIn("fuzz scenario: ");

}  // namespace

// The corpus schema (DESIGN.md §9): parse_scenario and write_scenario both
// walk this list, after the format magic and schema version.
template <ConstOr<FuzzScenario> S, typename Visit>
void fields(S& s, Visit&& visit) {
  visit("id", s.id, Range{0, kMaxExactJsonInteger});
  visit("trial_seed", s.trial_seed, Range{0, kMaxExactJsonInteger});
  // Optional (default 0) so pre-serve corpus reproducers keep parsing.
  visit("serve_ticks", s.serve_ticks, Range{0, 1e6});
  // Documents of their own: the config keeps its checks under this file's
  // prefix, the plan its checks and its own "fault plan: " prefix.
  visit("config", s.config);
  visit("faults", s.faults);
}

namespace {

/// One corpus file: the format magic and schema version, then the scenario.
struct CorpusFile {
  std::string format;
  int schema = 0;
  FuzzScenario scenario;
};

template <ConstOr<CorpusFile> F, typename Visit>
void fields(F& file, Visit&& visit) {
  visit("format", file.format, kRequired);
  visit("schema", file.schema, Range{.lo = 1, .hi = 1e6, .required = true});
  fields(file.scenario, visit);
}

FuzzScenario scenario_of(const JsonValue& doc) {
  if (!doc.is_object()) kIn.fail("document must be a JSON object");
  CorpusFile file;
  read_fields(kIn, doc, "", file);
  if (file.format != kCorpusFormat) {
    kIn.fail("format must be \"" + std::string(kCorpusFormat) + "\"");
  }
  if (file.schema != kCorpusSchemaVersion) {
    kIn.fail("unsupported schema version");
  }
  validate_fault_plan(file.scenario.faults, file.scenario.config.n_hosts);
  return std::move(file.scenario);
}

}  // namespace

FuzzScenario random_scenario(std::uint64_t base_seed, std::uint64_t index) {
  Xoshiro256 rng(derive_seed(base_seed, index));
  FuzzScenario s;
  s.id = index;
  s.trial_seed = rng.next() & kSeedMask;
  SimConfig& c = s.config;
  c.n_hosts = static_cast<int>(rng.uniform_int(4, 48));
  c.radius = rng.uniform(18.0, 45.0);
  switch (rng.uniform_int(0, 2)) {
    case 0: c.boundary = BoundaryPolicy::kClamp; break;
    case 1: c.boundary = BoundaryPolicy::kReflect; break;
    default: c.boundary = BoundaryPolicy::kWrap; break;
  }
  // Mostly planar, with a 3-D tail so placement, the spatial grid's z cells,
  // lifted mobility and the tile engine's xy-projection contract all get
  // fuzzed.
  c.field_depth = rng.bernoulli(0.3) ? rng.uniform(20.0, 80.0) : 0.0;
  // Mostly unit disk (the only model the incremental engine covers), with a
  // sparser-proximity-graph tail so the full-rebuild path also gets fuzzed.
  if (rng.bernoulli(0.75)) {
    c.link_model = LinkModel::kUnitDisk;
  } else {
    c.link_model = rng.bernoulli(0.5) ? LinkModel::kGabriel : LinkModel::kRng;
  }
  // Radio dimension, gated on the unit-disk link model (the config schema —
  // and every engine — rejects a non-trivial radio stacked on a sparsified
  // proximity graph).
  if (c.link_model == LinkModel::kUnitDisk && rng.bernoulli(0.4)) {
    if (rng.bernoulli(0.5)) {
      c.radio = RadioKind::kShadowing;
      c.radio_params.sigma_db = rng.uniform(1.0, 8.0);
      c.radio_params.path_loss_exp = rng.uniform(2.0, 4.0);
    } else {
      c.radio = RadioKind::kProbabilistic;
      c.radio_params.link_prob = rng.uniform(0.5, 1.0);
    }
    c.radio_params.fading_seed = rng.next() & kSeedMask;
  }
  c.initial_energy = rng.uniform(20.0, 80.0);
  switch (rng.uniform_int(0, 2)) {
    case 0: c.drain_model = DrainModel::kConstantTotal; break;
    case 1: c.drain_model = DrainModel::kLinearTotal; break;
    default: c.drain_model = DrainModel::kQuadraticTotal; break;
  }
  c.stay_probability = rng.uniform(0.3, 0.95);
  // Mobility dimension: weighted toward the paper's jump model, with every
  // alternative in the tail — these are exactly the configurations whose
  // wire keys used to be silently dropped, so the serve-identity oracle's
  // config round trip must see them. Each branch draws only its own model's
  // parameters; per-scenario streams are independent, so the uneven draw
  // counts are harmless.
  switch (rng.uniform_int(0, 7)) {
    case 0:
      c.mobility_kind = MobilityKind::kRandomWalk;
      c.mobility_params.step_min = rng.uniform(0.5, 2.0);
      c.mobility_params.step_max =
          c.mobility_params.step_min + rng.uniform(0.0, 6.0);
      break;
    case 1:
      c.mobility_kind = MobilityKind::kRandomWaypoint;
      c.mobility_params.speed_min = rng.uniform(0.5, 2.0);
      c.mobility_params.speed_max =
          c.mobility_params.speed_min + rng.uniform(0.0, 6.0);
      c.mobility_params.pause_intervals =
          static_cast<int>(rng.uniform_int(0, 3));
      break;
    case 2:
      c.mobility_kind = MobilityKind::kGaussMarkov;
      c.mobility_params.mean_speed = rng.uniform(1.0, 5.0);
      c.mobility_params.alpha = rng.uniform(0.0, 1.0);
      c.mobility_params.speed_stddev = rng.uniform(0.2, 2.0);
      c.mobility_params.heading_stddev = rng.uniform(0.1, 1.0);
      break;
    case 3:
      c.mobility_kind = MobilityKind::kStatic;
      break;
    default:
      c.mobility_kind = MobilityKind::kPaperJump;
      break;
  }
  switch (rng.uniform_int(0, 5)) {
    case 0: c.rule_set = RuleSet::kNR; break;
    case 1: c.rule_set = RuleSet::kID; break;
    case 2: c.rule_set = RuleSet::kND; break;
    case 3: c.rule_set = RuleSet::kEL1; break;
    case 4: c.rule_set = RuleSet::kEL2; break;
    default: c.rule_set = RuleSet::kSEL; break;
  }
  switch (rng.uniform_int(0, 2)) {
    case 0: c.cds_options.strategy = Strategy::kSequential; break;
    case 1: c.cds_options.strategy = Strategy::kSimultaneous; break;
    default: c.cds_options.strategy = Strategy::kVerified; break;
  }
  switch (rng.uniform_int(0, 2)) {
    case 0: c.energy_key_quantum = 0.0; break;
    case 1: c.energy_key_quantum = 1.0; break;
    default: c.energy_key_quantum = 7.0; break;
  }
  // Stability-key EWMA shape (read only by SEL runs, always round-tripped).
  // Quantum 0 keeps raw EWMA values; coarse buckets force ties so the
  // energy/id tie-break chain below the stability key is exercised too.
  c.stability_beta = rng.uniform(0.0, 1.0);
  switch (rng.uniform_int(0, 2)) {
    case 0: c.stability_quantum = 0.0; break;
    case 1: c.stability_quantum = 0.5; break;
    default: c.stability_quantum = 2.0; break;
  }
  c.engine = SimEngine::kAuto;
  // Tile-count dimension for the tiled-engine identity oracle: auto layout,
  // degenerate single tile, small grids, and an over-request that must clamp.
  switch (rng.uniform_int(0, 4)) {
    case 0: c.tiles = 0; break;
    case 1: c.tiles = 1; break;
    case 2: c.tiles = 4; break;
    case 3: c.tiles = 16; break;
    default: c.tiles = 4096; break;
  }
  switch (rng.uniform_int(0, 4)) {
    case 0: c.threads = 2; break;
    case 1: c.threads = 3; break;
    case 2: c.threads = 8; break;
    default: c.threads = 1; break;
  }
  // Short trials keep a 200-iteration run in seconds; degenerate
  // configurations still terminate well below the cap.
  c.max_intervals = 300;
  c.connect_retries = 50;

  if (rng.bernoulli(0.5)) {
    const long crashes = rng.uniform_int(0, 2);
    for (long i = 0; i < crashes; ++i) {
      CrashSpec crash;
      crash.node = static_cast<int>(rng.uniform_int(0, c.n_hosts - 1));
      crash.at = rng.uniform_int(1, 15);
      crash.recover_at =
          rng.bernoulli(0.5) ? 0 : crash.at + rng.uniform_int(1, 10);
      s.faults.crashes.push_back(crash);
    }
    const long thefts = rng.uniform_int(0, 2);
    for (long i = 0; i < thefts; ++i) {
      TheftSpec theft;
      theft.node = static_cast<int>(rng.uniform_int(0, c.n_hosts - 1));
      theft.at = rng.uniform_int(1, 15);
      theft.amount = rng.uniform(5.0, 60.0);
      s.faults.thefts.push_back(theft);
    }
    if (rng.bernoulli(0.25)) {
      BlackoutSpec blackout;
      const double xa = rng.uniform(0.0, c.field_width);
      const double xb = rng.uniform(0.0, c.field_width);
      const double ya = rng.uniform(0.0, c.field_height);
      const double yb = rng.uniform(0.0, c.field_height);
      blackout.x0 = std::min(xa, xb);
      blackout.x1 = std::max(xa, xb);
      blackout.y0 = std::min(ya, yb);
      blackout.y1 = std::max(ya, yb);
      blackout.at = rng.uniform_int(1, 10);
      blackout.until = rng.bernoulli(0.5) ? 0 : blackout.at + rng.uniform_int(1, 8);
      s.faults.blackouts.push_back(blackout);
    }
  }
  if (rng.bernoulli(0.4)) {
    s.faults.seed = rng.next() & kSeedMask;
    s.faults.channel.drop = rng.uniform(0.0, 0.4);
    s.faults.channel.duplicate = rng.uniform(0.0, 0.2);
    s.faults.channel.delay = rng.uniform(0.0, 0.2);
  }
  // Serve-tick granularity: single-interval, small odd chunks, and the
  // run-everything spelling all exercised by the serve-identity oracle.
  switch (rng.uniform_int(0, 3)) {
    case 0: s.serve_ticks = 0; break;
    case 1: s.serve_ticks = 1; break;
    case 2: s.serve_ticks = 3; break;
    default: s.serve_ticks = 7; break;
  }
  // Rule dimension, drawn after everything else so every earlier field keeps
  // its value: a custom key (any key chain, either Rule 2 form, a Rule k
  // coin) overriding the scheme, and the clique election policy.
  if (rng.bernoulli(0.3)) {
    const auto keys = enum_names(KeyKind{});
    const auto pick = rng.uniform_int(0, std::ssize(keys) - 1);
    c.custom_key = keys[static_cast<std::size_t>(pick)].value;
    c.custom_rule2_form =
        rng.bernoulli(0.5) ? Rule2Form::kSimple : Rule2Form::kRefined;
    c.use_rule_k = rng.bernoulli(0.5);
  }
  if (rng.bernoulli(0.2)) {
    c.cds_options.clique_policy = CliquePolicy::kElectMaxKey;
  }
  return s;
}

std::string describe(const FuzzScenario& s) {
  std::ostringstream out;
  out << "id=" << s.id << " trial_seed=" << s.trial_seed << " n="
      << s.config.n_hosts << " radius="
      << JsonWriter::format_double(s.config.radius) << " scheme="
      << to_string(s.config.rule_set) << " strategy="
      << to_string(s.config.cds_options.strategy) << " threads="
      << s.config.threads << " tiles=" << s.config.tiles << " boundary="
      << to_string(s.config.boundary)
      << " link=" << to_string(s.config.link_model) << " radio="
      << to_string(s.config.radio) << " mobility="
      << to_string(s.config.mobility_kind) << " depth="
      << JsonWriter::format_double(s.config.field_depth) << " drain="
      << enum_name(s.config.drain_model) << " quantum="
      << JsonWriter::format_double(s.config.energy_key_quantum) << " events="
      << resolve_schedule(s.faults).size()
      << (s.faults.channel.any() ? " channel=faulty" : "")
      << " serve_ticks=" << s.serve_ticks << " custom_key="
      << (s.config.custom_key ? to_string(*s.config.custom_key) : "none")
      << " rule2_form=" << to_string(s.config.custom_rule2_form)
      << " rule_k=" << s.config.use_rule_k << " clique="
      << to_string(s.config.cds_options.clique_policy);
  return out.str();
}

void write_scenario(JsonWriter& json, const FuzzScenario& s) {
  write_fields(json, CorpusFile{kCorpusFormat, kCorpusSchemaVersion, s});
}

std::string scenario_to_json(const FuzzScenario& s) {
  std::ostringstream out;
  JsonWriter json(out, 2);
  write_scenario(json, s);
  out << "\n";
  return out.str();
}

FuzzScenario parse_scenario(std::string_view text) {
  return scenario_of(parse_json(text));
}

FuzzScenario load_scenario(const std::string& path) {
  const JsonValue doc = load_json_file(path);
  try {
    return scenario_of(doc);
  } catch (const std::exception& e) {
    throw std::runtime_error(path + ": " + e.what());
  }
}

}  // namespace pacds::fuzz
