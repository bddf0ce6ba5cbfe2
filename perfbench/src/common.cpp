#include "common.hpp"

#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>

#include "io/json.hpp"

namespace perfbench {

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const auto index = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return values[std::min(index, values.size() - 1)];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

double mean_of(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

int host_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

double peak_rss_mib() {
  // VmHWM is this program's own peak. getrusage's ru_maxrss survives exec,
  // so it would report the launcher's peak when that is larger.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

namespace {

double timeval_s(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) * 1e-6;
}

}  // namespace

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return timeval_s(usage.ru_utime) + timeval_s(usage.ru_stime);
}

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

// ---- Digest -----------------------------------------------------------------

Digest& Digest::add(std::string_view text) {
  for (const char c : text) {
    state_ ^= static_cast<unsigned char>(c);
    state_ *= 1099511628211ull;
  }
  state_ ^= 0xffu;  // field separator
  state_ *= 1099511628211ull;
  return *this;
}

Digest& Digest::add(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return add(std::string_view(buffer));
}

Digest& Digest::add(std::int64_t value) {
  return add(std::string_view(std::to_string(value)));
}

std::string Digest::hex() const {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(state_));
  return buffer;
}

// ---- spans ------------------------------------------------------------------

int SpanBuffer::open(const char* name, int parent) {
  Span span;
  span.name = name;
  span.parent = parent;
  span.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - epoch_)
                      .count();
  spans_.push_back(span);
  return static_cast<int>(spans_.size() - 1);
}

void SpanBuffer::close(int id) {
  Span& span = spans_[static_cast<std::size_t>(id)];
  span.dur_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                    Clock::now() - epoch_)
                    .count() -
                span.start_ns;
}

void SpanBuffer::bucket(const char* name, int parent, std::uint64_t ns) {
  if (ns == 0) return;
  spans_.push_back(Span{name, parent, -1, static_cast<std::int64_t>(ns)});
}

void SpanBuffer::append(const SpanBuffer& other) {
  const auto base = static_cast<std::int32_t>(spans_.size());
  for (Span span : other.spans_) {
    if (span.parent >= 0) span.parent += base;
    spans_.push_back(span);
  }
}

std::map<std::string, LayerTotals> aggregate(const SpanBuffer& buffer,
                                             const char* under) {
  const std::vector<Span>& spans = buffer.spans();
  std::vector<std::int64_t> child_ns(spans.size(), 0);
  // Parents always precede their children, so one forward pass decides
  // which spans lie under an `under` span.
  std::vector<char> included(spans.size(), under == nullptr ? 1 : 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    if (span.parent >= 0) {
      const auto parent = static_cast<std::size_t>(span.parent);
      child_ns[parent] += span.dur_ns;
      if (under != nullptr && included[parent]) included[i] = 1;
    }
    if (under != nullptr && std::strcmp(span.name, under) == 0) {
      included[i] = 1;
    }
  }
  std::map<std::string, LayerTotals> totals;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (!included[i]) continue;
    LayerTotals& t = totals[spans[i].name];
    t.total_ms += static_cast<double>(spans[i].dur_ns) * 1e-6;
    t.self_ms += static_cast<double>(spans[i].dur_ns - child_ns[i]) * 1e-6;
    ++t.count;
  }
  return totals;
}

// ---- Run --------------------------------------------------------------------

Run::Run(Options options) : options_(std::move(options)) {}

void Run::check(const std::string& name, bool ok, const std::string& detail,
                std::uint64_t rejected) {
  ++checks_;
  if (!ok) {
    failed_checks_.push_back(detail.empty() ? name : name + ": " + detail);
    // A failed check always fails at least one operation.
    if (rejected == kAll) {
      rejected_all_ = true;
    } else {
      rejected_ += std::max<std::uint64_t>(rejected, 1);
    }
  }
}

void Run::check_golden(std::string digest) {
  if (corrupt("golden_digest")) digest += "x";
  const std::string expected = golden_digest(options_.workload);
  check("golden_digest", digest == expected, digest + " != " + expected);
}

void Run::save_spans(const SpanBuffer& spans) {
  if (options_.spans_path.empty()) return;
  // CSV: id,parent,name,start_ns,dur_ns,workload (start -1 = a bucket).
  std::ofstream out(options_.spans_path);
  out << "id,parent,name,start_ns,dur_ns,workload\n";
  const std::vector<Span>& all = spans.spans();
  for (std::size_t i = 0; i < all.size(); ++i) {
    out << i << ',' << all[i].parent << ',' << all[i].name << ','
        << all[i].start_ns << ',' << all[i].dur_ns << ',' << options_.workload
        << '\n';
  }
  out.flush();
  if (!out) line("warning: could not write " + options_.spans_path);
}

namespace {

bool known(const std::string& name, const MetricSpec* begin,
           const MetricSpec* end) {
  return std::any_of(begin, end,
                     [&](const MetricSpec& m) { return name == m.name; });
}

}  // namespace

void Run::e2e(const std::string& name, double value) {
  if (!known(name, std::begin(kEndToEnd), std::end(kEndToEnd))) {
    check("metric_names", false, "unknown end-to-end metric " + name);
  }
  e2e_[name] = value;
}

void Run::layer(const std::string& name, double value) {
  if (!known(name, std::begin(kPerLayer), std::end(kPerLayer))) {
    check("metric_names", false, "unknown per-layer metric " + name);
  }
  layer_[name] = value;
}

void Run::note(const std::string& name, const std::string& unit, double value,
               const std::string& what) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.6g", value);
  std::string text = "  " + name;
  text.resize(std::max<std::size_t>(text.size(), 26), ' ');
  text += std::string(buffer) + " " + unit;
  if (!what.empty()) {
    text.resize(std::max<std::size_t>(text.size(), 46), ' ');
    text += what;
  }
  report_.push_back(text);
}

void Run::stamp(const std::string& key, const std::string& value) {
  stamp_.emplace_back(key, value);
}

void Run::layer_row(const std::string& layer, double self_ms, double share,
                    const std::string& counts) {
  char buffer[160];
  std::snprintf(buffer, sizeof(buffer), "  %-24s %12.3f ms %7.2f%%  %s",
                layer.c_str(), self_ms, 100.0 * share, counts.c_str());
  report_.push_back(buffer);
}

void Run::line(const std::string& text) { report_.push_back(text); }

void Run::guard_threads(const std::string& what, int threads) {
  const int cpus = host_cpus();
  if (threads > cpus) {
    throw ThreadGuardError{what + " needs " + std::to_string(threads) +
                           " threads but this host has " +
                           std::to_string(cpus) +
                           " CPUs; refusing to report an oversubscribed "
                           "number"};
  }
}

int Run::finish() {
  // Untraced runs report every end-to-end metric, traced runs every
  // per-layer one; a missing or non-finite value is a benchmark bug.
  struct Out {
    std::string name;
    std::string unit;
    double value;
  };
  // Every workload's process reports its own peak RSS and failure share;
  // ok_ratio is filled in once every check has been recorded.
  e2e_["peak_rss_mb"] = peak_rss_mib();
  e2e_["ok_ratio"] = 0.0;
  check("attempted", attempted_ > 0, "no operation was attempted");

  std::vector<Out> metrics;
  const bool traced = options_.trace;
  const auto& values = traced ? layer_ : e2e_;
  const auto emit = [&](const MetricSpec* begin, const MetricSpec* end) {
    for (const MetricSpec* m = begin; m != end; ++m) {
      const auto it = values.find(m->name);
      double value = 0.0;
      if (it != values.end()) {
        value = it->second;
      } else if (!traced) {
        check("metric_names", false, std::string("missing ") + m->name);
      }
      if (!std::isfinite(value)) {
        check("metric_values", false, std::string(m->name) + " not finite");
        value = 0.0;
      }
      metrics.push_back(Out{m->name, m->unit, value});
    }
  };
  if (traced) {
    emit(std::begin(kPerLayer), std::end(kPerLayer));
  } else {
    emit(std::begin(kEndToEnd), std::end(kEndToEnd));
  }

  // Failed operations: those the workload counted (sheds, errors, missing
  // responses) plus those every failed check rejected.
  const std::uint64_t failed =
      rejected_all_ ? attempted_ : std::min(attempted_, failed_ + rejected_);
  const double fail_ratio =
      attempted_ == 0 ? 1.0
                      : static_cast<double>(failed) /
                            static_cast<double>(attempted_);
  for (Out& m : metrics) {
    if (m.name == "ok_ratio") m.value = 1.0 - fail_ratio;
  }
  note("peak_rss_mb", "MiB", peak_rss_mib(), "max RSS of this process");
  note("fail_ratio", "fraction", fail_ratio,
       std::to_string(failed) + " of " + std::to_string(attempted_) +
           " operations failed");
  if (traced) {
    line("per-layer metrics:");
    for (const Out& m : metrics) note(m.name, m.unit, m.value);
  }

  std::ostream& out = std::cout;
  out << "== perfbench " << options_.workload << " seed=" << options_.seed
      << " seconds=" << options_.seconds
      << (options_.trace ? " traced" : " untraced")
      << (options_.smoke ? " smoke" : "") << " ==\n";
  {
    // Host stamp as one JSON line, so tools can keep it with the result.
    std::ostringstream stamp;
    pacds::JsonWriter json(stamp);
    json.begin_object();
    json.key("type").value("host_stamp");
    for (const auto& [key, value] : stamp_) json.key(key).value(value);
    json.end_object();
    out << stamp.str() << "\n";
  }
  for (const std::string& text : report_) out << text << "\n";
  out << "checks: " << checks_ - failed_checks_.size() << "/" << checks_
      << " passed\n";
  for (const std::string& failure : failed_checks_) {
    out << "FAILED CHECK " << failure << "\n";
  }
  const bool correct = failed_checks_.empty();
  std::ostringstream result;
  pacds::JsonWriter json(result);
  json.begin_object();
  json.key("correct").value(correct);
  json.key("attempted").value(static_cast<std::int64_t>(attempted_));
  json.key("failed").value(static_cast<std::int64_t>(failed));
  json.key("metrics").begin_object();
  for (const auto& [name, unit, value] : metrics) {
    json.key(name).begin_object();
    json.key("value").value(value);
    json.key("unit").value(unit);
    json.end_object();
  }
  json.end_object();
  json.end_object();
  out << result.str() << "\n";
  out.flush();
  return correct ? 0 : 1;
}

}  // namespace perfbench
