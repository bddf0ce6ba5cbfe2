#pragma once
// Shared machinery of the end-to-end benchmark: options, statistics, host
// probes, result digests, the span tracer used by traced runs, and the Run
// object that collects checks and metrics and prints the report plus the
// final one-line JSON result.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
[[nodiscard]] inline double s_between(Clock::time_point a,
                                      Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 20;
  bool trace = false;
  /// Minimal sizes: every code path and metric, none of the statistics.
  bool smoke = false;
  /// Name of one check whose input is deliberately corrupted, to prove the
  /// check fires (self-test).
  std::string corrupt;
  /// Where a traced run writes its spans (empty = do not write).
  std::string spans_path;
  std::string revision = "unknown";
  /// Overrides the workload's lane count (self-test of the thread guard).
  int lanes = 0;
};

// ---- statistics -------------------------------------------------------------

/// Nearest-rank percentile, q in (0, 1]: the smallest sample with at least
/// q of the samples at or below it. 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> values, double q);
[[nodiscard]] double median(std::vector<double> values);
[[nodiscard]] double mean_of(const std::vector<double>& values);

// ---- host -------------------------------------------------------------------

/// CPUs this process may run on (sched_getaffinity), at least 1.
[[nodiscard]] int host_cpus();
/// Peak resident set of this process so far, MiB.
[[nodiscard]] double peak_rss_mib();
/// User + system CPU time of the whole process, seconds.
[[nodiscard]] double process_cpu_seconds();
/// CPU time of the calling thread, seconds.
[[nodiscard]] double thread_cpu_seconds();

// ---- digests ----------------------------------------------------------------

/// FNV-1a 64 over a canonical text rendering of simulated results (doubles
/// at round-trip precision). Never fed timings.
class Digest {
 public:
  Digest& add(std::string_view text);
  Digest& add(double value);
  Digest& add(std::int64_t value);
  Digest& add(std::uint64_t value) {
    return add(static_cast<std::int64_t>(value));
  }
  Digest& add(int value) { return add(static_cast<std::int64_t>(value)); }
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t state_ = 14695981039346656037ull;
};

// ---- spans ------------------------------------------------------------------

/// One traced interval. `start_ns` is relative to the buffer's epoch; -1
/// marks a duration the program's own phase timers measured inside the
/// parent (an obs::MetricsRegistry bucket), whose position is unknown.
struct Span {
  const char* name = "";
  std::int32_t parent = -1;
  std::int64_t start_ns = 0;
  std::int64_t dur_ns = 0;
};

/// Per-thread span store. Spans stay in memory until the run ends.
class SpanBuffer {
 public:
  explicit SpanBuffer(Clock::time_point epoch) : epoch_(epoch) {}

  /// Opens a span (its end is set by close). Returns its id.
  int open(const char* name, int parent = -1);
  void close(int id);
  /// Records a bucket: `ns` measured inside `parent` by the program.
  void bucket(const char* name, int parent, std::uint64_t ns);
  /// Appends `other`, re-basing its parent ids.
  void append(const SpanBuffer& other);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

/// Opens on construction, closes on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanBuffer& buffer, const char* name, int parent = -1)
      : buffer_(&buffer), id_(buffer.open(name, parent)) {}
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() { buffer_->close(id_); }
  [[nodiscard]] int id() const { return id_; }

 private:
  SpanBuffer* buffer_;
  int id_;
};

/// Totals per span name: summed duration, self time (duration minus the
/// part covered by child spans and buckets) and count. With `under` set,
/// only spans named `under` and their descendants count.
struct LayerTotals {
  double total_ms = 0.0;
  double self_ms = 0.0;
  std::size_t count = 0;
};
[[nodiscard]] std::map<std::string, LayerTotals> aggregate(
    const SpanBuffer& buffer, const char* under = nullptr);

// ---- the run ----------------------------------------------------------------

/// A metric's name and unit. BENCHMARK.json lists the same names and
/// units; the smoke self-test checks that the two agree.
struct MetricSpec {
  const char* name;
  const char* unit;
};

/// End-to-end metrics: every untraced run reports all of them.
inline constexpr MetricSpec kEndToEnd[] = {
    {"wall_s", "s"},          {"setup_s", "s"},
    {"op_ms_p50", "ms"},      {"op_ms_p90", "ms"},
    {"peak_rss_mb", "MiB"},   {"ok_ratio", "fraction"},
};

/// Per-layer metrics: every traced run reports all of them, 0 where the
/// layer is not on the workload's path.
inline constexpr MetricSpec kPerLayer[] = {
    {"net.placement_ms", "ms"},      {"net.placement_attempts", "count"},
    {"net.link_build_ms", "ms"},     {"net.delta_extract_ms", "ms"},
    {"net.edges_changed", "count"},  {"net.mobility_ms", "ms"},
    {"core.marking_ms", "ms"},       {"core.rules_ms", "ms"},
    {"core.delta_apply_ms", "ms"},   {"core.touched_ratio", "fraction"},
    {"core.full_refreshes", "count"}, {"energy.drain_ms", "ms"},
    {"sim.setup_ms", "ms"},          {"sim.step_ms", "ms"},
    {"sim.unattributed_ms", "ms"},   {"sim.pool_util", "fraction"},
    {"sim.pool_tasks", "count"},     {"sim.traffic_trial_ms", "ms"},
    {"sim.overhead_run_ms", "ms"},   {"des.packet_run_ms", "ms"},
    {"des.packet_us", "us"},         {"routing.router_build_ms", "ms"},
    {"routing.route_us", "us"},      {"serve.parse_us", "us"},
    {"serve.engine_ms", "ms"},       {"serve.overhead_ms_p50", "ms"},
    {"serve.overhead_ms_p99", "ms"}, {"serve.batch_lines", "count"},
    {"serve.bytes_per_tick", "bytes"}, {"serve.trial_starts", "count"},
    {"serve.lane_util", "fraction"}, {"serve.shed", "count"},
    {"serve.errors", "count"},       {"bench.gen_late_ms_p99", "ms"},
    {"bench.trace_overhead", "fraction"}, {"bench.check_ms", "ms"},
};

/// Thrown when a workload would use more threads than the host has CPUs:
/// the run refuses instead of reporting an oversubscribed number.
struct ThreadGuardError {
  std::string message;
};

/// Thrown when a run did not measure what its workload defines (an
/// open-loop generator that fell behind its schedule): reported as
/// invalid, never as a slow result.
struct InvalidRun {
  std::string message;
};

class Run {
 public:
  explicit Run(Options options);

  [[nodiscard]] const Options& options() const { return options_; }
  /// True when the self-test asked to corrupt the input of check `name`.
  [[nodiscard]] bool corrupt(std::string_view name) const {
    return options_.corrupt == name;
  }

  /// Every attempted operation, as the count a failed check rejects.
  static constexpr std::uint64_t kAll = ~std::uint64_t{0};

  /// Records one correctness check. Any failed check fails the run, and
  /// the `rejected` operations it names count as failed (kAll: every
  /// operation the run attempted).
  void check(const std::string& name, bool ok, const std::string& detail = {},
             std::uint64_t rejected = kAll);
  /// The golden_digest check: `digest` of the workload's canonical instance
  /// against the one recorded in golden.cpp.
  void check_golden(std::string digest);
  /// Writes a traced run's spans where --spans asks (warns on failure).
  void save_spans(const SpanBuffer& spans);
  /// Counts operations (trials, intervals, requests or calls).
  void attempted(std::uint64_t n) { attempted_ += n; }
  void failed(std::uint64_t n) { failed_ += n; }

  /// Sets an end-to-end metric (reported by untraced runs).
  void e2e(const std::string& name, double value);
  /// Sets a per-layer metric (reported by traced runs).
  void layer(const std::string& name, double value);
  /// A metric printed in the report only (the workload's own names).
  void note(const std::string& name, const std::string& unit, double value,
            const std::string& what = {});
  /// One host-stamp entry.
  void stamp(const std::string& key, const std::string& value);
  /// One row of the attribution table.
  void layer_row(const std::string& layer, double self_ms, double share,
                 const std::string& counts);
  void line(const std::string& text);

  /// Refuses (throws ThreadGuardError) when `threads` exceeds the CPUs.
  void guard_threads(const std::string& what, int threads);

  /// Time spent in the benchmark's own checks, seconds.
  double check_seconds = 0.0;

  /// Prints the report and the JSON result line. Returns the exit code:
  /// 0 when every check passed.
  int finish();

 private:
  Options options_;
  std::vector<std::pair<std::string, std::string>> stamp_;
  std::vector<std::string> report_;
  std::map<std::string, double> e2e_;
  std::map<std::string, double> layer_;
  std::vector<std::string> failed_checks_;
  std::size_t checks_ = 0;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t rejected_ = 0;  ///< operations named by failed checks
  bool rejected_all_ = false;   ///< a failed check rejected every operation
};

/// Adds the elapsed time of its scope to a seconds accumulator.
class AddElapsed {
 public:
  explicit AddElapsed(double& seconds) : seconds_(&seconds) {}
  AddElapsed(const AddElapsed&) = delete;
  AddElapsed& operator=(const AddElapsed&) = delete;
  ~AddElapsed() { *seconds_ += s_between(start_, Clock::now()); }

 private:
  double* seconds_;
  Clock::time_point start_ = Clock::now();
};

/// Looks up the committed digest of a workload's canonical instance.
[[nodiscard]] std::string golden_digest(const std::string& key);

// ---- workloads --------------------------------------------------------------

void run_paper_sweep(Run& run);
void run_scale_trial(Run& run);
void run_serve_session(Run& run);
void run_extension_loops(Run& run);

}  // namespace perfbench
