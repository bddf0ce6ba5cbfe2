// Assembles BENCH_lifetime.json from google-benchmark JSON outputs using the
// repo's own JsonWriter/parse_json, so the committed numbers share one
// serialization path with every other machine-readable artifact (and inherit
// its round-trip double formatting). Replaces the inline python step that
// tools/bench_json.sh used to carry.
//
// usage: bench_report [--strict] <micro_cds.json> <micro_engine.json>
//                     <micro_parallel.json> <micro_tiles.json>
//                     <bench_serve.json> <output.json>
//        bench_report [--strict] --validate-jsonl <metrics.jsonl | ->
//        bench_report [--strict] --gap-report <gap.jsonl | ->
//
// Regeneration is honest about coverage: a speedup row whose input rows are
// missing warns on stderr instead of silently disappearing, and any key the
// previous file carried that the fresh inputs no longer produce is reported
// as stale (nothing is carried forward except the "baseline" section).
// --strict turns those warnings into a nonzero exit, so CI's bench smoke
// path fails on a stale or incomplete report instead of shipping it.
//
// The output's "baseline" section, when present in an existing output file,
// is preserved verbatim so before/after comparisons survive regeneration.
//
// --validate-jsonl checks a metrics stream (pacds sim/sweep --metrics) line
// by line against the schema v1 envelope: every line parses as a JSON
// object carrying a "type" string and numeric "schema", no number anywhere
// in a record is non-finite, and the stream holds at least one run_manifest
// and one interval record. Prints per-type record counts; exits 1 on any
// violation. CI's faults smoke job runs it over
// `pacds sim --faults ... --metrics -`.
//
// --gap-report renders the approximation-ratio table from a `pacds gap`
// JSONL stream (gap_manifest + gap_point records): per (n, radius) point it
// averages size/optimum of every heuristic over the instances the
// branch-and-bound solver proved, and reports how many instances stayed
// unproven. CI's gap smoke job pipes a tiny grid through it.

#include <cmath>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "io/json.hpp"
#include "io/json_parse.hpp"
#include "io/table.hpp"
#include "obs/validate.hpp"

namespace {

using pacds::JsonValue;
using pacds::JsonWriter;
using pacds::parse_json;

/// Warnings issued during assembly; --strict turns a nonzero count into a
/// nonzero exit.
int warning_count = 0;

void warn(const std::string& message) {
  ++warning_count;
  std::cerr << "warning: " << message << "\n";
}

std::string read_file(const std::string& path) {
  std::ifstream file(path);
  if (!file) throw std::runtime_error("cannot open " + path);
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

double time_unit_scale(const std::string& unit) {
  if (unit == "ns") return 1.0;
  if (unit == "us") return 1e3;
  if (unit == "ms") return 1e6;
  if (unit == "s") return 1e9;
  throw std::runtime_error("unknown time_unit '" + unit + "'");
}

/// name -> ns/op (rounded to 0.1 ns), in benchmark order.
using NsPerOp = std::vector<std::pair<std::string, double>>;

NsPerOp ns_per_op(const std::string& path) {
  const JsonValue doc = parse_json(read_file(path));
  const JsonValue* benchmarks = doc.find("benchmarks");
  if (benchmarks == nullptr) {
    throw std::runtime_error(path + ": no \"benchmarks\" array");
  }
  NsPerOp out;
  for (const JsonValue& bench : benchmarks->as_array()) {
    const JsonValue* name = bench.find("name");
    const JsonValue* real_time = bench.find("real_time");
    if (name == nullptr || real_time == nullptr) continue;
    const JsonValue* unit = bench.find("time_unit");
    const double scale =
        unit != nullptr ? time_unit_scale(unit->as_string()) : 1.0;
    out.emplace_back(name->as_string(),
                     std::round(real_time->as_number() * scale * 10.0) / 10.0);
  }
  return out;
}

double lookup(const NsPerOp& table, const std::string& name) {
  for (const auto& [key, value] : table) {
    if (key == name) return value;
  }
  return 0.0;
}

/// lookup that also accepts google-benchmark's pinned-iteration decoration
/// ("<name>/iterations:N"), which Benchmark::Iterations appends to the name.
double lookup_row(const NsPerOp& table, const std::string& name) {
  for (const auto& [key, value] : table) {
    if (key == name || key.rfind(name + "/iterations:", 0) == 0) return value;
  }
  return 0.0;
}

void write_table(JsonWriter& json, const NsPerOp& table) {
  json.begin_object();
  for (const auto& [name, value] : table) json.key(name).value(value);
  json.end_object();
}

void write_speedup(JsonWriter& json, const std::string& key, double numer,
                   double denom) {
  if (numer <= 0.0 || denom <= 0.0) {
    warn("speedup row '" + key + "' skipped (missing input rows)");
    return;
  }
  json.key(key).value(std::round(numer / denom * 100.0) / 100.0);
}

/// Reports keys the previous file carried in `section` that the fresh run
/// no longer produces — a stale row would otherwise vanish without notice.
void warn_stale(const JsonValue& previous, const std::string& section,
                const NsPerOp& fresh) {
  const JsonValue* old_table = previous.find(section);
  if (old_table == nullptr || !old_table->is_object()) return;
  for (const auto& [key, value] : old_table->as_object()) {
    (void)value;
    bool found = false;
    for (const auto& [name, ns] : fresh) {
      (void)ns;
      if (name == key) {
        found = true;
        break;
      }
    }
    if (!found) {
      warn(section + " key '" + key +
           "' from the previous report has no fresh measurement "
           "(dropped, not carried forward)");
    }
  }
}

/// Schema-envelope check of one metrics JSONL stream ("-" = stdin).
/// Delegates to the shared validator so this tool, the fuzz harness's JSONL
/// oracle and the tests agree on what a well-formed stream is — including
/// the rejection of non-finite numbers (e.g. an overflowing 1e999 literal).
int validate_jsonl(const std::string& path) {
  std::ifstream file;
  if (path != "-") {
    file.open(path);
    if (!file) {
      std::cerr << "error: cannot open " << path << "\n";
      return 1;
    }
  }
  std::istream& in = path == "-" ? std::cin : file;
  const pacds::obs::StreamValidation result =
      pacds::obs::validate_metrics_stream(in);
  std::size_t total = 0;
  for (const auto& [name, count] : result.type_counts) {
    std::cout << name << ": " << count << "\n";
    total += count;
  }
  std::cout << "total: " << total << "\n";
  if (!result.ok) {
    std::cerr << (result.error.rfind("line ", 0) == 0 ? "" : "error: ")
              << result.error << "\n";
    return 1;
  }
  std::cout << "ok\n";
  return 0;
}

/// One (n, radius) cell of the --gap-report table.
struct GapCell {
  double n = 0.0;
  double radius = 0.0;
  std::size_t attempted = 0;  ///< gap_point records seen
  std::size_t proven = 0;     ///< instances with a proven nonzero optimum
  double opt_sum = 0.0;
  // Ratio sums in the heuristic column order below.
  double ratio_sum[8] = {};
};

constexpr const char* kGapColumns[] = {"size_id",     "size_nd",
                                       "size_el1",    "size_el2",
                                       "size_greedy", "size_mis",
                                       "size_tree",   "size_cds22"};

/// Renders the approximation-ratio table from a `pacds gap` JSONL stream.
/// With `strict`, any unproven instance fails the run: CI's smoke grid is
/// sized so the solver always finishes, and a budget exhaustion there means
/// the solver regressed.
int gap_report(const std::string& path, bool strict) {
  std::ifstream file;
  if (path != "-") {
    file.open(path);
    if (!file) {
      std::cerr << "error: cannot open " << path << "\n";
      return 1;
    }
  }
  std::istream& in = path == "-" ? std::cin : file;
  std::vector<GapCell> cells;
  std::string line;
  std::size_t line_no = 0;
  std::size_t manifests = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    JsonValue record;
    try {
      record = parse_json(line);
    } catch (const std::exception& e) {
      std::cerr << "error: line " << line_no << ": " << e.what() << "\n";
      return 1;
    }
    const JsonValue* type = record.find("type");
    if (type == nullptr || !type->is_string()) {
      std::cerr << "error: line " << line_no << ": missing \"type\"\n";
      return 1;
    }
    if (type->as_string() == "gap_manifest") {
      ++manifests;
      continue;
    }
    if (type->as_string() != "gap_point") continue;
    const JsonValue* n = record.find("n");
    const JsonValue* radius = record.find("radius");
    if (n == nullptr || !n->is_number() || radius == nullptr ||
        !radius->is_number()) {
      std::cerr << "error: line " << line_no << ": gap_point needs numeric "
                << "\"n\" and \"radius\"\n";
      return 1;
    }
    GapCell* cell = nullptr;
    for (GapCell& existing : cells) {
      if (existing.n == n->as_number() &&
          existing.radius == radius->as_number()) {
        cell = &existing;
        break;
      }
    }
    if (cell == nullptr) {
      cells.push_back({n->as_number(), radius->as_number(), 0, 0, 0.0, {}});
      cell = &cells.back();
    }
    ++cell->attempted;
    const JsonValue* optimum = record.find("optimum");
    const JsonValue* proven = record.find("proven");
    if (optimum == nullptr || !optimum->is_number() || proven == nullptr ||
        !proven->as_bool() || optimum->as_number() <= 0.0) {
      continue;  // unproven (or degenerate) instance: excluded from ratios
    }
    const double opt = optimum->as_number();
    double ratios[8];
    bool complete = true;
    for (std::size_t h = 0; h < 8; ++h) {
      const JsonValue* size = record.find(kGapColumns[h]);
      if (size == nullptr || !size->is_number()) {
        complete = false;
        break;
      }
      ratios[h] = size->as_number() / opt;
    }
    if (!complete) {
      std::cerr << "error: line " << line_no
                << ": gap_point missing a size_* column\n";
      return 1;
    }
    ++cell->proven;
    cell->opt_sum += opt;
    for (std::size_t h = 0; h < 8; ++h) cell->ratio_sum[h] += ratios[h];
  }
  if (manifests == 0 || cells.empty()) {
    std::cerr << "error: stream has no gap_manifest + gap_point records "
              << "(generate one with `pacds gap --metrics`)\n";
    return 1;
  }
  pacds::TextTable table({"n", "radius", "solved", "opt", "ID", "ND", "EL1",
                          "EL2", "greedy", "MIS", "tree", "cds22"});
  for (const GapCell& cell : cells) {
    std::vector<std::string> row{
        pacds::TextTable::fmt(cell.n, 0),
        pacds::TextTable::fmt(cell.radius, 0),
        std::to_string(cell.proven) + "/" + std::to_string(cell.attempted)};
    if (cell.proven == 0) {
      row.insert(row.end(), 9, "-");
    } else {
      const auto denom = static_cast<double>(cell.proven);
      row.push_back(pacds::TextTable::fmt(cell.opt_sum / denom));
      for (std::size_t h = 0; h < 8; ++h) {
        row.push_back(pacds::TextTable::fmt(cell.ratio_sum[h] / denom));
      }
    }
    table.add_row(std::move(row));
  }
  table.print(std::cout);
  std::cout << "(mean size/optimum over proven instances; 1.00 = optimal)\n";
  for (const GapCell& cell : cells) {
    if (cell.proven < cell.attempted) {
      warn("n=" + pacds::TextTable::fmt(cell.n, 0) + " radius=" +
           pacds::TextTable::fmt(cell.radius, 0) + ": " +
           std::to_string(cell.attempted - cell.proven) +
           " instance(s) unproven within the node budget");
    }
  }
  if (strict && warning_count > 0) {
    std::cerr << "error: --strict and " << warning_count
              << " warning(s) above\n";
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool strict = false;
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--strict") {
      strict = true;
    } else {
      args.emplace_back(argv[i]);
    }
  }
  if (args.size() == 2 && args[0] == "--validate-jsonl") {
    // --validate-jsonl already exits nonzero on every violation; --strict is
    // accepted so callers can pass one flag set in both modes.
    return validate_jsonl(args[1]);
  }
  if (args.size() == 2 && args[0] == "--gap-report") {
    return gap_report(args[1], strict);
  }
  if (args.size() != 6) {
    std::cerr << "usage: bench_report [--strict] <cds.json> <engine.json> "
                 "<parallel.json> <tiles.json> <serve.json> <output.json>\n"
                 "       bench_report [--strict] --validate-jsonl "
                 "<metrics.jsonl | ->\n"
                 "       bench_report [--strict] --gap-report "
                 "<gap.jsonl | ->\n";
    return 2;
  }
  try {
    const NsPerOp rule_pass = ns_per_op(args[0]);
    const NsPerOp engine = ns_per_op(args[1]);
    const NsPerOp parallel = ns_per_op(args[2]);
    const NsPerOp tiles = ns_per_op(args[3]);
    const NsPerOp serve = ns_per_op(args[4]);
    const std::string out_path = args[5];

    // Preserve the previous baseline section, if the file parses, and
    // diff the previous tables against the fresh measurements so rows that
    // stop being produced are reported rather than silently dropped.
    JsonValue baseline{pacds::JsonObject{}};
    try {
      const JsonValue previous = parse_json(read_file(out_path));
      if (const JsonValue* section = previous.find("baseline")) {
        baseline = *section;
      }
      warn_stale(previous, "rule_pass_ns", rule_pass);
      warn_stale(previous, "engine_interval_ns", engine);
      warn_stale(previous, "parallel_interval_ns", parallel);
      warn_stale(previous, "tiles_interval_ns", tiles);
      warn_stale(previous, "serve_intervals_ns", serve);
    } catch (const std::exception&) {
      // First generation or unreadable previous file: empty baseline.
    }

    std::ofstream out(out_path);
    if (!out) {
      std::cerr << "error: cannot write " << out_path << "\n";
      return 1;
    }
    JsonWriter json(out, 2);
    json.begin_object();
    json.key("_comment")
        .value("ns per op; regenerate with: cmake --build build --target "
               "bench_json");
    json.key("baseline");
    write_json(json, baseline);
    json.key("rule_pass_ns");
    write_table(json, rule_pass);
    json.key("engine_interval_ns");
    write_table(json, engine);
    // Thread sweep of the sharded intra-interval pipeline (micro_parallel):
    // BM_ComputeCdsLanes/<n>/<lanes> and BM_IntervalThreads/<n>/<threads>.
    // host_cpus records how many cores the measuring host actually had —
    // speedup is only physically possible beyond 1.
    json.key("parallel_interval_ns");
    write_table(json, parallel);
    // Scaling rows of the tiled engine (micro_tiles): BM_IntervalTiled/<n>
    // at n = 10k/100k/1M, plus the flat incremental engine at the sizes
    // where running it is affordable (the speedup_tiles_* keys below).
    json.key("tiles_interval_ns");
    write_table(json, tiles);
    // Serve-layer multiplexing (bench_serve): BM_ServeIntervals/<K> is one
    // request batch advancing K resident tenants one interval each, through
    // the full parse -> schedule -> compute -> serialize path. The derived
    // serve_intervals_per_sec_k<K> rows below are K * 1e9 / ns_per_op.
    json.key("serve_intervals_ns");
    write_table(json, serve);
    json.key("host_cpus")
        .value(static_cast<int>(std::thread::hardware_concurrency()));
    for (const int stay : {98, 95}) {
      const std::string suffix = "/800/" + std::to_string(stay);
      write_speedup(json,
                    "speedup_incremental_n800_stay" + std::to_string(stay),
                    lookup(engine, "BM_IntervalFullRebuild" + suffix),
                    lookup(engine, "BM_IntervalIncremental" + suffix));
    }
    for (const int n : {400, 800}) {
      const std::string stem = "BM_IntervalThreads/" + std::to_string(n);
      write_speedup(json, "speedup_threads8_n" + std::to_string(n),
                    lookup(parallel, stem + "/1"),
                    lookup(parallel, stem + "/8"));
    }
    // Tiled vs both flat engines at matched n and stay probability (950 and
    // 999 per-mille — see micro_tiles.cpp for why both regimes matter).
    for (const int n : {10000, 100000}) {
      for (const int stay : {950, 999}) {
        const std::string suffix =
            "/" + std::to_string(n) + "/" + std::to_string(stay);
        const std::string tag =
            "_n" + std::to_string(n) + "_stay" + std::to_string(stay);
        write_speedup(json, "speedup_tiles_vs_incremental" + tag,
                      lookup_row(tiles, "BM_IntervalFlatIncremental" + suffix),
                      lookup_row(tiles, "BM_IntervalTiled" + suffix));
        write_speedup(json, "speedup_tiles_vs_full" + tag,
                      lookup_row(tiles, "BM_IntervalFlatFull" + suffix),
                      lookup_row(tiles, "BM_IntervalTiled" + suffix));
      }
    }
    for (const int tenants : {1, 4, 16}) {
      std::string row = "BM_ServeIntervals/";
      row += std::to_string(tenants);
      const double ns = lookup_row(serve, row);
      if (ns <= 0.0) {
        warn("serve row '" + row + "' missing; intervals/sec not emitted");
        continue;
      }
      json.key("serve_intervals_per_sec_k" + std::to_string(tenants))
          .value(std::round(tenants * 1e9 / ns * 10.0) / 10.0);
    }
    json.end_object();
    out << "\n";
    std::cout << "wrote " << out_path << "\n";
    if (strict && warning_count > 0) {
      std::cerr << "error: --strict and " << warning_count
                << " warning(s) above\n";
      return 1;
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "bench_report: " << e.what() << "\n";
    return 1;
  }
}
