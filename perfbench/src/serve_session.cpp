// serve_session: an open-loop `pacds serve` session. One generator thread
// writes a seeded Poisson schedule of request lines into a pipe that
// Server::run reads in stream mode, the way `pacds serve` reads stdin.
// About 16 live tenants cycle through four wire configs; ~90% of requests
// are ticks of 1-4 intervals, 6% status probes and 4% evict+create pairs
// that replace a tenant with a fresh name, seed and config. Ticks run the
// engines at small n plus protocol parsing and JSONL serialization; status
// and create/evict are serial barriers that split tick windows and force
// hosts to be placed again on the next tick. Latency is timed from each
// request's due time to the flush that carried its terminal record. Each
// session's lines are then replayed as one burst into a fresh server, which
// times the server's own work on the session's job, unpaced by the
// schedule. A one-lane session runs pinned to one CPU, the next in turn,
// with an idle poller there; README.md says why.

#include <fcntl.h>
#include <pthread.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <condition_variable>
#include <istream>
#include <limits>
#include <mutex>
#include <optional>
#include <ostream>
#include <set>
#include <sstream>
#include <streambuf>
#include <thread>

#include "common.hpp"
#include "net/rng.hpp"
#include "obs/validate.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"

namespace perfbench {

using namespace pacds;

namespace {

/// Offered load, requests per second, frozen so every run and every later
/// commit offers the same load. This mix saturates one server lane at about
/// 200 requests/s on the reference 4-CPU host; at two thirds of that the
/// request median moved 3x between seeds, so the workload runs at about a
/// fifth, where queueing still shows in the tail.
constexpr double kRequestRate = 40.0;
/// A run whose generator's p99 lateness exceeds this did not offer its
/// schedule and is invalid, not slow. Virtual-machine timer wake-ups alone
/// run a few milliseconds late at p99 under host contention.
constexpr double kMaxGeneratorLateMs = 25.0;
constexpr std::size_t kTenants = 16;
constexpr std::size_t kSessions = 8;
constexpr long kTenantTrials = 100000;

constexpr std::array<const char*, 4> kConfigs = {
    // paper defaults, sequential: full rebuild
    R"({"n":100,"scheme":"EL1"})",
    // simultaneous: incremental engine
    R"({"n":400,"scheme":"EL2","strategy":"simultaneous"})",
    R"({"n":200,"scheme":"SEL","strategy":"simultaneous",)"
    R"("mobility":"gauss-markov","radio":"shadowing"})",
    R"({"n":60,"scheme":"ND","drain_model":"quadratic"})",
};

/// Config kind of the k-th tick, cyclically: the fast configs (n = 100 and
/// n = 60) take three eighths of the ticks each, the slow ones an eighth
/// each. The request median must lie inside the mode of fast requests that
/// found the server idle: with equal shares, or at higher load, it sat on
/// the edge of that mode and jumped 2x between runs.
constexpr std::array<std::size_t, 8> kTickConfigs = {0, 3, 0, 3, 1, 0, 3, 2};
/// Intervals of the k-th tick: 1 + (k / 8) mod 4, so every cycle of 32
/// ticks holds each config kind with each of 1-4 intervals in the shares
/// above.
constexpr std::size_t kMaxTickIntervals = 4;
constexpr std::size_t kTickCycle = kTickConfigs.size() * kMaxTickIntervals;

enum class Kind : std::uint8_t { kCreate, kTick, kStatus, kEvict };

struct Line {
  double due_s = 0.0;  ///< offset from the schedule start
  Kind kind = Kind::kTick;
  std::string text;
};

std::string create_line(std::size_t id, std::uint64_t seed) {
  return R"({"op":"create","tenant":"t)" + std::to_string(id) +
         R"(","config":)" + kConfigs[id % kConfigs.size()] +
         R"(,"seed":)" + std::to_string(seed % 1000000007u) +
         R"(,"trials":)" + std::to_string(kTenantTrials) + "}";
}

std::string op_line(const char* op, std::size_t id, const char* extra = "") {
  return std::string(R"({"op":")") + op + R"(","tenant":"t)" +
         std::to_string(id) + "\"" + extra + "}";
}

/// The set-up lines: every initial tenant's create, then its first tick.
std::vector<Line> setup_lines(std::uint64_t seed) {
  std::vector<Line> lines;
  for (std::size_t id = 0; id < kTenants; ++id) {
    lines.push_back(
        {0.0, Kind::kCreate, create_line(id, derive_seed(seed, id))});
  }
  for (std::size_t id = 0; id < kTenants; ++id) {
    lines.push_back(
        {0.0, Kind::kTick, op_line("tick", id, R"(,"intervals":1)")});
  }
  return lines;
}

/// The seeded Poisson schedule of exactly `cycles` tick cycles plus the
/// control requests drawn between them. Each of the 16 tenant slots keeps
/// its config kind across replacements, and the k-th tick's config kind and
/// interval count follow the fixed cycle, so every seed offers the same
/// tick work; which tenant, its seed, the control requests and the arrival
/// times vary.
std::vector<Line> schedule(std::uint64_t seed, double rate,
                           std::size_t cycles) {
  Xoshiro256 rng(derive_seed(seed, 0x5c4edu));
  std::vector<std::size_t> live(kTenants);  // slot -> tenant id
  for (std::size_t i = 0; i < kTenants; ++i) live[i] = i;
  std::size_t next_id = kTenants;
  std::vector<Line> lines;
  std::size_t ticks = 0;
  double t = 0.0;
  const auto slot_of_config = [&](std::size_t config) {
    const auto k = static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(kTenants / kConfigs.size()) - 1));
    return config + k * kConfigs.size();
  };
  while (ticks < cycles * kTickCycle) {
    t += -std::log(1.0 - rng.uniform01()) / rate;
    const double u = rng.uniform01();
    if (u < 0.90) {
      const std::size_t slot =
          slot_of_config(kTickConfigs[ticks % kTickConfigs.size()]);
      const std::size_t intervals =
          1 + (ticks / kTickConfigs.size()) % kMaxTickIntervals;
      lines.push_back({t, Kind::kTick,
                       op_line("tick", live[slot],
                               (R"(,"intervals":)" + std::to_string(intervals))
                                   .c_str())});
      ++ticks;
    } else if (u < 0.96) {
      const auto slot = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(kTenants) - 1));
      lines.push_back({t, Kind::kStatus, op_line("status", live[slot])});
    } else {
      const auto slot = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(kTenants) - 1));
      lines.push_back({t, Kind::kEvict, op_line("evict", live[slot])});
      // Ids keep their slot's config kind: id mod 4 == slot mod 4.
      next_id += (slot + kConfigs.size() - next_id % kConfigs.size()) %
                 kConfigs.size();
      live[slot] = next_id++;
      lines.push_back({t, Kind::kCreate, create_line(live[slot], rng.next())});
    }
  }
  return lines;
}

// ---- the pipe the generator writes and the server's reader pulls ------------

/// Reads the pipe for Server::run's reader thread and stamps each line
/// with the time its bytes were pulled off the pipe.
class PipeInBuf final : public std::streambuf {
 public:
  explicit PipeInBuf(int fd) : fd_(fd) {}

  /// Pull time of each line, in order (read after the reader thread has
  /// ended).
  [[nodiscard]] const std::vector<Clock::time_point>& pulls() const {
    return pulls_;
  }

 protected:
  int_type underflow() override {
    if (gptr() < egptr()) return traits_type::to_int_type(*gptr());
    ssize_t got = 0;
    do {
      got = ::read(fd_, buffer_.data(), buffer_.size());
    } while (got < 0 && errno == EINTR);
    if (got <= 0) return traits_type::eof();
    const auto now = Clock::now();
    for (ssize_t i = 0; i < got; ++i) {
      if (buffer_[static_cast<std::size_t>(i)] == '\n') pulls_.push_back(now);
    }
    setg(buffer_.data(), buffer_.data(), buffer_.data() + got);
    return traits_type::to_int_type(*gptr());
  }

 private:
  int fd_;
  std::array<char, 1 << 16> buffer_{};
  std::vector<Clock::time_point> pulls_;
};

/// Captures the server's output. Each flush (one per processed batch)
/// becomes a chunk stamped with its time; terminal records are counted as
/// they arrive so the set-up phase can wait for its responses.
class CaptureBuf final : public std::streambuf {
 public:
  struct Chunk {
    Clock::time_point at;
    std::string text;
  };

  [[nodiscard]] const std::vector<Chunk>& chunks() const { return chunks_; }

  /// Blocks until at least `count` terminal records have been flushed.
  void wait_terminals(std::size_t count) {
    std::unique_lock<std::mutex> lock(mutex_);
    if (!flushed_.wait_for(lock, std::chrono::seconds(60),
                           [&] { return terminals_ >= count; })) {
      throw std::runtime_error("serve_session: the server stopped answering");
    }
  }

 protected:
  int_type overflow(int_type c) override {
    if (!traits_type::eq_int_type(c, traits_type::eof())) {
      pending_.push_back(traits_type::to_char_type(c));
    }
    return traits_type::not_eof(c);
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    pending_.append(s, static_cast<std::size_t>(n));
    return n;
  }
  int sync() override {
    if (pending_.empty()) return 0;
    const auto now = Clock::now();
    std::size_t terminals = 0;
    static constexpr std::string_view kTerminal = "{\"type\":\"serve_";
    for (std::size_t at = 0; at < pending_.size();) {
      if (pending_.compare(at, kTerminal.size(), kTerminal) == 0) ++terminals;
      const std::size_t newline = pending_.find('\n', at);
      if (newline == std::string::npos) break;
      at = newline + 1;
    }
    chunks_.push_back({now, std::move(pending_)});
    pending_.clear();
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      terminals_ += terminals;
    }
    flushed_.notify_all();
    return 0;
  }

 private:
  std::string pending_;
  std::vector<Chunk> chunks_;
  std::mutex mutex_;
  std::condition_variable flushed_;
  std::size_t terminals_ = 0;
};

void write_all(int fd, const std::string& text) {
  std::size_t done = 0;
  while (done < text.size()) {
    const ssize_t put = ::write(fd, text.data() + done, text.size() - done);
    if (put < 0 && errno == EINTR) continue;
    if (put <= 0) throw std::runtime_error("serve_session: pipe write failed");
    done += static_cast<std::size_t>(put);
  }
}

/// The CPUs this process may run on, in order.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (std::size_t cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) cpus.push_back(static_cast<int>(cpu));
    }
  }
  return cpus;
}

/// Pins the calling thread (and the threads it starts later) to `cpu`;
/// -1 leaves it free.
void pin_to(int cpu) {
  if (cpu < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<std::size_t>(cpu), &set);
  sched_setaffinity(0, sizeof(set), &set);
}

/// Pins the calling thread to `cpu` (-1: leaves it free) until the end of
/// the scope, then gives it back its CPU set.
class ScopedPin {
 public:
  explicit ScopedPin(int cpu) {
    CPU_ZERO(&saved_);
    if (cpu >= 0 && sched_getaffinity(0, sizeof(saved_), &saved_) == 0) {
      pinned_ = true;
      pin_to(cpu);
    }
  }
  ScopedPin(const ScopedPin&) = delete;
  ScopedPin& operator=(const ScopedPin&) = delete;
  ~ScopedPin() {
    if (pinned_) sched_setaffinity(0, sizeof(saved_), &saved_);
  }

 private:
  cpu_set_t saved_;
  bool pinned_ = false;
};

/// Keeps `cpu` from halting while it lives: a SCHED_IDLE thread pinned
/// there that spins, the user-space form of the kernel's idle=poll. Any
/// other thread on the CPU preempts it at once, so it only fills idle time,
/// and a request never waits for the hypervisor to wake a halted virtual
/// CPU or finds the caches taken by another guest. -1: no poller.
class IdlePoller {
 public:
  explicit IdlePoller(int cpu) {
    if (cpu < 0) return;
    thread_ = std::thread([this, cpu] {
      pin_to(cpu);
      sched_param param{};
      // Spinning at normal priority would take half the server's CPU.
      if (pthread_setschedparam(pthread_self(), SCHED_IDLE, &param) != 0) {
        return;
      }
      while (!stop_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#endif
      }
      cpu_s_ = thread_cpu_seconds();
    });
  }
  IdlePoller(const IdlePoller&) = delete;
  IdlePoller& operator=(const IdlePoller&) = delete;
  ~IdlePoller() { stop(); }

  /// Stops the poller and returns the CPU seconds it spun.
  double stop() {
    stop_.store(true, std::memory_order_relaxed);
    if (thread_.joinable()) thread_.join();
    return cpu_s_;
  }

 private:
  std::atomic<bool> stop_{false};
  double cpu_s_ = 0.0;  ///< written by the poller, read after the join
  std::thread thread_;
};

/// One Server::run on its own thread behind a pipe. With `cpu` set, the
/// server's batch thread and its reader run on that CPU only.
class Session {
 public:
  explicit Session(int threads, int cpu = -1) {
    int fds[2];
    if (::pipe2(fds, O_CLOEXEC) != 0) {
      throw std::runtime_error("serve_session: pipe failed");
    }
    read_fd_ = fds[0];
    write_fd_ = fds[1];
    in_buf_.emplace(read_fd_);
    in_.emplace(&*in_buf_);
    out_.emplace(&out_buf_);
    serve::ServeOptions options;
    options.max_tenants = 64;  // above the live count: LRU never evicts
    options.threads = threads;
    server_.emplace(options, *out_);
    thread_ = std::thread([this, cpu] {
      pin_to(cpu);
      exit_code_ = server_->run(*in_);
    });
  }
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;
  ~Session() { finish(); }

  void send(const std::string& line) { write_all(write_fd_, line + "\n"); }
  void send_all(const std::vector<Line>& lines) {
    std::string text;
    for (const Line& line : lines) text += line.text + "\n";
    write_all(write_fd_, text);
  }

  /// Closes the input (EOF) and waits for the server to answer everything.
  void finish() {
    if (write_fd_ >= 0) {
      ::close(write_fd_);
      write_fd_ = -1;
    }
    if (thread_.joinable()) thread_.join();
    if (read_fd_ >= 0) {
      ::close(read_fd_);
      read_fd_ = -1;
    }
  }

  CaptureBuf& output() { return out_buf_; }
  [[nodiscard]] const PipeInBuf& input() const { return *in_buf_; }
  [[nodiscard]] int exit_code() const { return exit_code_; }

 private:
  int read_fd_ = -1;
  int write_fd_ = -1;
  std::optional<PipeInBuf> in_buf_;
  std::optional<std::istream> in_;
  CaptureBuf out_buf_;
  std::optional<std::ostream> out_;
  std::optional<serve::Server> server_;
  int exit_code_ = 0;
  std::thread thread_;  // declared last: joins before the rest dies
};

/// Server start, the initial creates and each tenant's first tick.
double run_setup(Session& session, const std::vector<Line>& setup,
                 Clock::time_point start) {
  session.send_all(setup);
  session.output().wait_terminals(setup.size());
  return s_between(start, Clock::now());
}

// ---- analysis ---------------------------------------------------------------

std::optional<std::uint64_t> find_uint(std::string_view line,
                                       std::string_view key) {
  const std::size_t at = line.find(key);
  if (at == std::string_view::npos) return std::nullopt;
  std::size_t i = at + key.size();
  if (i >= line.size() || line[i] < '0' || line[i] > '9') return std::nullopt;
  std::uint64_t value = 0;
  while (i < line.size() && line[i] >= '0' && line[i] <= '9') {
    value = value * 10 + static_cast<std::uint64_t>(line[i] - '0');
    ++i;
  }
  return value;
}

/// What one request produced in the output.
struct Answer {
  int terminals = 0;
  bool error = false;
  bool shed = false;
  Clock::time_point at{};
  std::uint64_t engine_ns = 0;  ///< sum of *_ns fields of its interval records
  std::size_t bytes = 0;
};

struct Analysis {
  std::vector<Answer> answers;  ///< indexed by seq (1-based; [0] unused)
  std::size_t flushes_with_terminal = 0;
  std::size_t trial_starts = 0;
  std::string digest;  ///< output with timing fields removed
  std::string output;  ///< the whole stream, for validation
};

/// Removes `"<phase>_ns":<digits>` members so the digest sees only
/// simulated results.
std::string without_timings(std::string_view line) {
  std::string out;
  out.reserve(line.size());
  std::size_t i = 0;
  while (i < line.size()) {
    const std::size_t key = line.find("_ns\":", i);
    if (key == std::string_view::npos) break;
    std::size_t open = line.rfind('"', key);
    if (open == std::string_view::npos) break;
    std::size_t end = key + 5;
    while (end < line.size() && line[end] >= '0' && line[end] <= '9') ++end;
    out.append(line.substr(i, open - i));
    i = end;
    if (i < line.size() && line[i] == ',') ++i;
  }
  out.append(line.substr(i));
  return out;
}

Analysis analyse(const CaptureBuf& capture, std::size_t requests) {
  Analysis a;
  a.answers.resize(requests + 1);
  Digest digest;
  std::set<std::pair<std::string, std::uint64_t>> trials;
  std::uint64_t engine_ns = 0;
  std::size_t bytes = 0;
  const auto& chunks = capture.chunks();
  for (std::size_t c = 0; c < chunks.size(); ++c) {
    const std::string& text = chunks[c].text;
    a.output += text;
    bool has_terminal = false;
    std::size_t at = 0;
    while (at < text.size()) {
      std::size_t newline = text.find('\n', at);
      if (newline == std::string::npos) newline = text.size();
      const std::string_view line(text.data() + at, newline - at);
      at = newline + 1;
      bytes += line.size() + 1;
      digest.add(without_timings(line));
      if (line.rfind("{\"type\":\"serve_", 0) == 0) {
        has_terminal = true;
        const auto seq = find_uint(line, "\"seq\":");
        if (seq && *seq >= 1 && *seq <= requests) {
          Answer& answer = a.answers[*seq];
          ++answer.terminals;
          answer.at = chunks[c].at;
          answer.error = line.rfind("{\"type\":\"serve_error\"", 0) == 0;
          answer.shed = line.find("\"code\":\"queue_full\"") !=
                        std::string_view::npos;
          answer.engine_ns = engine_ns;
          answer.bytes = bytes;
        }
        engine_ns = 0;
        bytes = 0;
        continue;
      }
      if (line.find("\"type\":\"interval\"") == std::string_view::npos) {
        continue;
      }
      for (std::size_t p = 0; p < obs::kPhaseCount; ++p) {
        const std::string key =
            std::string("\"") + obs::phase_name(static_cast<obs::Phase>(p)) +
            "_ns\":";
        engine_ns += find_uint(line, key).value_or(0);
      }
      const std::size_t tenant_end = line.find('"', 11);
      const auto trial = find_uint(line, "\"trial\":");
      if (tenant_end != std::string_view::npos && trial) {
        trials.emplace(std::string(line.substr(11, tenant_end - 11)), *trial);
      }
    }
    if (has_terminal) ++a.flushes_with_terminal;
  }
  a.trial_starts = trials.size();
  a.digest = digest.hex();
  return a;
}

int lanes_for(int cpus) {
  // The generator and the server's reader take two CPUs. A server pool of
  // k > 1 workers gives k + 1 lanes (the batch thread joins parallel_for),
  // so two free CPUs leave exactly one lane.
  const int free = cpus - 2;
  return free >= 3 ? free : 1;
}

int threads_for(int lanes) { return lanes <= 2 ? 1 : lanes - 1; }

/// Canonical instance whose digest is pinned in golden.cpp: a fixed script
/// through Server::process_lines.
std::string canonical_digest() {
  std::ostringstream out;
  serve::Server server(serve::ServeOptions{}, out);
  std::vector<std::string> lines;
  for (std::size_t id = 0; id < 4; ++id) {
    lines.push_back(create_line(id, 11 + id));
  }
  for (std::size_t round = 0; round < 6; ++round) {
    for (std::size_t id = 0; id < 4; ++id) {
      const std::string intervals =
          R"(,"intervals":)" + std::to_string(1 + (round + id) % 4);
      lines.push_back(op_line("tick", id, intervals.c_str()));
    }
    lines.push_back(op_line("status", round % 4));
  }
  lines.push_back(op_line("evict", 2));
  lines.push_back(create_line(6, 99));
  lines.push_back(op_line("tick", 6, R"(,"intervals":3)"));
  server.process_lines(lines);
  Digest digest;
  std::istringstream in(out.str());
  std::string line;
  while (std::getline(in, line)) digest.add(without_timings(line));
  return digest.hex();
}

struct SessionResult {
  std::vector<double> tick_ms;      ///< due -> terminal flushed, ticks
  std::vector<double> control_ms;   ///< the same for create/status/evict
  std::vector<double> late_ms;      ///< generator: due -> sent
  std::vector<double> pipe_ms;      ///< sent -> pulled by the reader
  std::vector<double> overhead_ms;  ///< tick latency - engine time
  std::vector<double> engine_ms;    ///< sum of the tick's *_ns fields
  double span_s = 0.0;              ///< first due time to last response
  double lane_cpu_s = 0.0;
  std::size_t requests = 0;
  std::size_t shed = 0;
  std::size_t errors = 0;
  std::size_t missing = 0;
  std::size_t duplicated = 0;
  std::size_t tick_bytes = 0;
  std::size_t flushes = 0;
  std::size_t trial_starts = 0;
  std::string digest;
  std::string stream_error;  ///< empty when the output validates
};

SessionResult run_session(Run& run, int threads, int cpu, bool poll,
                          const std::vector<Line>& setup,
                          const std::vector<Line>& lines, double& setup_s) {
  SessionResult r;
  const auto setup_start = Clock::now();
  Session session(threads, cpu);
  setup_s = run_setup(session, setup, setup_start);

  // Open loop: every line is sent at its due time whatever the server is
  // doing; the generator never waits for a response. It shares the
  // server's CPU, which the poller keeps from halting between requests.
  const ScopedPin pin(cpu);
  const double cpu0 = process_cpu_seconds();
  IdlePoller poller(poll ? cpu : -1);
  const double gen_cpu0 = thread_cpu_seconds();
  const auto start = Clock::now() + std::chrono::milliseconds(20);
  std::vector<Clock::time_point> due(lines.size());
  std::vector<Clock::time_point> sent(lines.size());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    due[i] = start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(lines[i].due_s));
    std::this_thread::sleep_until(due[i]);
    sent[i] = Clock::now();
    session.send(lines[i].text);
  }
  const double gen_cpu_s = thread_cpu_seconds() - gen_cpu0;
  session.finish();
  const double poller_cpu_s = poller.stop();
  const double cpu_s = process_cpu_seconds() - cpu0;
  if (session.exit_code() != 0) {
    run.check("serve_exit", false,
              "Server::run returned " + std::to_string(session.exit_code()));
  }

  const AddElapsed timer(run.check_seconds);
  const std::size_t total = setup.size() + lines.size();
  const Analysis a = analyse(session.output(), total);
  r.requests = lines.size();
  r.flushes = a.flushes_with_terminal;
  r.trial_starts = a.trial_starts;
  r.digest = a.digest;
  {
    std::istringstream stream(a.output);
    const obs::StreamValidation validation =
        obs::validate_metrics_stream(stream);
    if (!validation.ok) r.stream_error = validation.error;
  }
  Clock::time_point last = start;
  for (std::size_t seq = 1; seq <= total; ++seq) {
    const Answer& answer = a.answers[seq];
    if (answer.terminals == 0) ++r.missing;
    if (answer.terminals > 1) ++r.duplicated;
    if (answer.terminals > 0) last = std::max(last, answer.at);
  }
  const std::vector<Clock::time_point>& pulls = session.input().pulls();
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::size_t seq = setup.size() + i + 1;
    const Answer& answer = a.answers[seq];
    r.late_ms.push_back(ms_between(due[i], sent[i]));
    // A shed, an error or a missing response misses every latency limit.
    const bool failed = answer.terminals != 1 || answer.error;
    if (answer.shed) ++r.shed;
    if (answer.error && !answer.shed) ++r.errors;
    const double ms = failed ? std::numeric_limits<double>::infinity()
                             : ms_between(due[i], answer.at);
    if (seq <= pulls.size()) {
      r.pipe_ms.push_back(ms_between(sent[i], pulls[seq - 1]));
    }
    if (lines[i].kind == Kind::kTick) {
      r.tick_ms.push_back(ms);
      r.tick_bytes += answer.bytes;
      if (!failed) {
        const double engine = static_cast<double>(answer.engine_ns) * 1e-6;
        r.engine_ms.push_back(engine);
        r.overhead_ms.push_back(ms - engine);
      }
    } else {
      r.control_ms.push_back(ms);
    }
  }
  r.span_s = s_between(start, last);
  r.lane_cpu_s = cpu_s - gen_cpu_s - poller_cpu_s;
  return r;
}

/// The session's job as one burst: a fresh server gets the set-up, then
/// every line of the schedule at once, the way `pacds serve` reads a file
/// on stdin. The time from the first line written to the last response is
/// the server's own time for the session's work, unpaced by the schedule.
struct Replay {
  double setup_s = 0.0;
  double wall_s = 0.0;
  std::string digest;
};

Replay replay_session(int threads, int cpu, const std::vector<Line>& setup,
                      const std::vector<Line>& lines) {
  Replay r;
  const auto setup_start = Clock::now();
  Session session(threads, cpu);
  r.setup_s = run_setup(session, setup, setup_start);
  const auto start = Clock::now();
  session.send_all(lines);
  session.finish();
  const auto& chunks = session.output().chunks();
  r.wall_s = s_between(start, chunks.back().at);
  r.digest = analyse(session.output(), setup.size() + lines.size()).digest;
  return r;
}

}  // namespace

void run_serve_session(Run& run) {
  const Options& options = run.options();
  const int lanes = options.lanes > 0 ? options.lanes : lanes_for(host_cpus());
  const int threads = threads_for(lanes);
  const int used_lanes = threads == 1 ? 1 : threads + 1;
  // A one-lane session runs pinned, with an idle poller on its CPU when a
  // CPU is left over for it.
  const bool poll = threads == 1 && 3 + lanes <= host_cpus();
  run.guard_threads(
      "serve_session generator + reader + server lanes + idle poller",
      2 + lanes + (poll ? 1 : 0));
  run.stamp("lanes", std::to_string(used_lanes));
  run.stamp("idle_poller", poll ? "on" : "off");

  // Independent sessions, each on a fresh server with its own seed, then
  // replayed as a burst. Latencies are pooled over every session's
  // requests; the other figures are medians over the sessions. The
  // sessions take about three quarters of the run, in whole tick cycles.
  const std::size_t count = options.smoke ? 2 : kSessions;
  const double ticks_per_s = 0.9 * kRequestRate;
  const std::size_t cycles =
      options.smoke ? 1
                    : std::max<std::size_t>(
                          1, static_cast<std::size_t>(std::lround(
                                 0.75 * options.seconds * ticks_per_s /
                                 static_cast<double>(count * kTickCycle))));
  std::vector<std::vector<Line>> setups_lines;
  std::vector<std::vector<Line>> schedules;
  for (std::uint64_t k = 0; k < count; ++k) {
    setups_lines.push_back(setup_lines(derive_seed(options.seed, 100 + k)));
    schedules.push_back(
        schedule(derive_seed(options.seed, k), kRequestRate, cycles));
  }

  // A one-lane server moves from CPU to CPU with each session, so one CPU
  // slowed by its neighbours on a shared host moves a share of the
  // requests, not all of them.
  const std::vector<int> cpus = allowed_cpus();
  const auto cpu_for = [&](std::size_t k) {
    return threads == 1 && !cpus.empty() ? cpus[k % cpus.size()] : -1;
  };
  // Throwaway set-ups besides each session's and each replay's own.
  std::vector<double> setups;
  for (std::size_t i = 0; i < (options.smoke ? 2 : 12); ++i) {
    const auto start = Clock::now();
    Session session(threads, cpu_for(i));
    setups.push_back(run_setup(session, setups_lines.front(), start));
  }
  std::vector<SessionResult> sessions;
  std::vector<double> replay_walls;
  std::size_t replay_requests = 0;
  std::size_t replays_differ = 0;
  for (std::size_t k = 0; k < count; ++k) {
    const int cpu = cpu_for(k);
    double setup_s = 0.0;
    sessions.push_back(run_session(run, threads, cpu, poll, setups_lines[k],
                                   schedules[k], setup_s));
    setups.push_back(setup_s);
    Replay replay =
        replay_session(threads, cpu, setups_lines[k], schedules[k]);
    setups.push_back(replay.setup_s);
    replay_walls.push_back(replay.wall_s);
    replay_requests += schedules[k].size();
    if (run.corrupt("replay_matches_session") && k == 0) replay.digest += "x";
    // The output is a pure function of the input lines, however the
    // server batched them.
    if (replay.digest != sessions.back().digest) {
      replays_differ += schedules[k].size();
    }
  }

  // Pooled over the sessions.
  SessionResult all;
  for (const SessionResult& r : sessions) {
    const auto append = [](std::vector<double>& to,
                           const std::vector<double>& from) {
      to.insert(to.end(), from.begin(), from.end());
    };
    append(all.tick_ms, r.tick_ms);
    append(all.control_ms, r.control_ms);
    append(all.late_ms, r.late_ms);
    append(all.pipe_ms, r.pipe_ms);
    append(all.overhead_ms, r.overhead_ms);
    append(all.engine_ms, r.engine_ms);
    all.span_s += r.span_s;
    all.lane_cpu_s += r.lane_cpu_s;
    all.requests += r.requests;
    all.shed += r.shed;
    all.errors += r.errors;
    all.missing += r.missing;
    all.duplicated += r.duplicated;
    all.tick_bytes += r.tick_bytes;
    all.flushes += r.flushes;
    all.trial_starts += r.trial_starts;
    if (all.stream_error.empty()) all.stream_error = r.stream_error;
  }

  run.attempted(all.requests + replay_requests);
  run.failed(all.shed + all.errors);
  {
    const AddElapsed timer(run.check_seconds);
    const bool corrupt_terminals = run.corrupt("one_terminal_per_request");
    run.check("one_terminal_per_request",
              all.missing == 0 && all.duplicated == 0 && !corrupt_terminals,
              std::to_string(all.missing) + " requests unanswered, " +
                  std::to_string(all.duplicated) + " answered twice",
              all.missing + all.duplicated);
    run.check("replay_matches_session", replays_differ == 0,
              "a burst replay's output differs from its session's",
              replays_differ);
    std::string stream = all.stream_error.empty() ? "ok" : all.stream_error;
    if (run.corrupt("metrics_stream_valid")) {
      std::istringstream bad(
          "{\"type\":\"interval\",\"schema\":1}\nnot json\n");
      const obs::StreamValidation v = obs::validate_metrics_stream(bad);
      stream = v.ok ? "ok" : v.error;
    }
    run.check("metrics_stream_valid", stream == "ok", stream);
    run.check_golden(canonical_digest());
  }

  // Open-loop hygiene: a generator that fell behind its own schedule did
  // not offer the load the workload defines.
  std::vector<double> late = all.late_ms;
  if (run.corrupt("generator_on_schedule")) late.assign(late.size(), 1e3);
  const double late_p99 = percentile(late, 0.99);
  if (late_p99 > kMaxGeneratorLateMs) {
    throw InvalidRun{"generator p99 lateness " + std::to_string(late_p99) +
                     " ms exceeds " + std::to_string(kMaxGeneratorLateMs) +
                     " ms: the run did not offer its load"};
  }

  std::string digests;
  for (const SessionResult& r : sessions) digests += " " + r.digest;
  run.line("serve_session: " + std::to_string(count) + " sessions, " +
           std::to_string(all.requests) + " requests (" +
           std::to_string(all.tick_ms.size()) + " ticks, " +
           std::to_string(all.control_ms.size()) + " control) at " +
           std::to_string(kRequestRate) + "/s on " +
           std::to_string(used_lanes) + " lane(s), output digests" + digests);
  if (!options.trace) {
    run.e2e("wall_s", median(replay_walls));
    run.e2e("setup_s", median(setups));
    run.e2e("op_ms_p50", median(all.tick_ms));
    run.e2e("op_ms_p90", percentile(all.tick_ms, 0.90));
    run.note("wall_s", "s", median(replay_walls),
             "one session's lines as a burst, median of " +
                 std::to_string(count));
    run.note("setup_s", "s", median(setups),
             "server start + creates + first ticks, median of " +
                 std::to_string(setups.size()));
    run.note("tick_ms_p50", "ms", median(all.tick_ms),
             "due time -> response flushed, pooled");
    run.note("tick_ms_p90", "ms", percentile(all.tick_ms, 0.90));
    run.note("tick_ms_p99", "ms", percentile(all.tick_ms, 0.99),
             std::to_string(all.tick_ms.size()) + " ticks pooled");
    run.note("control_ms_p90", "ms", percentile(all.control_ms, 0.90),
             std::to_string(all.control_ms.size()) + " create/status/evict");
    run.note("pipe_ms_p50", "ms", median(all.pipe_ms),
             "sent by the generator -> pulled by the reader");
    run.note("gen_late_ms_p99", "ms", late_p99);
    return;
  }

  const double ticks =
      static_cast<double>(std::max<std::size_t>(all.tick_ms.size(), 1));
  // parse_request on the sessions' own lines, outside the server.
  double parse_us = 0.0;
  {
    std::size_t parsed = 0;
    std::size_t total = 0;
    const auto t0 = Clock::now();
    for (const std::vector<Line>& lines : schedules) {
      std::uint64_t seq = 0;
      for (const Line& line : lines) {
        serve::RequestError error;
        if (serve::parse_request(line.text, ++seq, error)) ++parsed;
        ++total;
      }
    }
    parse_us = ms_between(t0, Clock::now()) * 1e3 /
               static_cast<double>(std::max<std::size_t>(total, 1));
    run.check("session_lines_parse", parsed == total,
              std::to_string(total - parsed) + " lines rejected",
              total - parsed);
  }
  const double engine_ms = mean_of(all.engine_ms);
  run.layer("serve.parse_us", parse_us);
  run.layer("serve.engine_ms", engine_ms);
  run.layer("serve.overhead_ms_p50", median(all.overhead_ms));
  run.layer("serve.overhead_ms_p99", percentile(all.overhead_ms, 0.99));
  run.layer("serve.batch_lines",
            static_cast<double>(all.requests +
                                count * setups_lines.front().size()) /
                static_cast<double>(std::max<std::size_t>(all.flushes, 1)));
  run.layer("serve.bytes_per_tick",
            static_cast<double>(all.tick_bytes) / ticks);
  run.layer("serve.trial_starts", static_cast<double>(all.trial_starts));
  run.layer("serve.lane_util",
            all.lane_cpu_s / (all.span_s * static_cast<double>(used_lanes)));
  run.layer("serve.shed", static_cast<double>(all.shed));
  run.layer("serve.errors", static_cast<double>(all.errors));
  run.layer("bench.gen_late_ms_p99", late_p99);
  // The pull and flush stamps a traced run reads are taken in every run,
  // so tracing adds nothing to the sessions.
  run.layer("bench.trace_overhead", 0.0);
  run.layer("bench.check_ms", run.check_seconds * 1e3);

  const double tick_mean = mean_of(all.tick_ms);
  const double late_mean = mean_of(all.late_ms);
  const double pipe_mean = mean_of(all.pipe_ms);
  const double overhead_mean = mean_of(all.overhead_ms);
  run.line("attribution (mean per tick over " +
           std::to_string(all.tick_ms.size()) +
           " ticks; share of the mean tick latency):");
  const auto row = [&](const char* name, double ms) {
    run.layer_row(name, ms, ms / std::max(tick_mean, 1e-9), "per tick");
  };
  row("bench.generator_late", late_mean);
  row("serve.pipe_to_reader", pipe_mean);
  row("serve.overhead", overhead_mean - late_mean - pipe_mean);
  row("serve.engine", engine_ms);
}

}  // namespace perfbench
