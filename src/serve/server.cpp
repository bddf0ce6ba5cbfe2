#include "serve/server.hpp"

#include <algorithm>
#include <condition_variable>
#include <istream>
#include <mutex>
#include <ostream>
#include <sstream>
#include <thread>

#include "net/rng.hpp"
#include "sim/metrics_io.hpp"
#include "sim/montecarlo.hpp"

#ifdef __unix__
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <iostream>
#endif

namespace pacds::serve {

namespace {

bool blank_line(const std::string& line) {
  for (const char c : line) {
    if (c != ' ' && c != '\t' && c != '\r') return false;
  }
  return true;
}

/// Opens the standard serve_response envelope; the caller appends
/// op-specific fields before the record closes.
void write_response(obs::JsonlSink& sink, std::uint64_t seq, Op op,
                    const std::function<void(JsonWriter&)>& fields) {
  sink.record([&](JsonWriter& json) {
    json.key("type").value("serve_response");
    json.key("schema").value(kServeSchemaVersion);
    json.key("seq").value(static_cast<std::int64_t>(seq));
    json.key("op").value(to_string(op));
    fields(json);
  });
}

}  // namespace

Server::Server(const ServeOptions& options, std::ostream& out)
    : options_(options), out_(&out) {
  if (options_.queue_limit < 1) options_.queue_limit = 1;
  if (options_.max_tenants < 1) options_.max_tenants = 1;
  if (options_.threads != 1) {
    pool_ = std::make_unique<ThreadPool>(
        options_.threads < 0 ? 0
                             : static_cast<std::size_t>(options_.threads));
  }
}

Server::~Server() = default;

bool Server::process_lines(const std::vector<std::string>& lines) {
  std::vector<RawLine> batch;
  batch.reserve(lines.size());
  for (const std::string& line : lines) {
    if (blank_line(line)) continue;  // blank lines are not requests
    RawLine raw;
    raw.seq = ++line_counter_;
    raw.text = line;
    batch.push_back(std::move(raw));
  }
  if (batch.empty()) return !shutdown_;
  return process_batch(batch);
}

bool Server::process_batch(const std::vector<RawLine>& batch) {
  // Parse phase: side-effect free, so every admitted line parses up front
  // regardless of where a shutdown lands in the batch.
  std::vector<Item> items(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    items[i].raw = batch[i];
    if (!batch[i].rejected) {
      items[i].request =
          parse_request(batch[i].text, batch[i].seq, items[i].error);
    }
  }

  // Execute phase: sequential semantics. Maximal runs of compute requests
  // (tick/sweep) form a window scheduled across tenants on the Executor;
  // everything else is a serial barrier.
  std::size_t i = 0;
  while (i < items.size()) {
    Item& item = items[i];
    const bool computable =
        !shutdown_ && !item.raw.rejected && item.request.has_value() &&
        (item.request->op == Op::kTick || item.request->op == Op::kSweep);
    if (!computable) {
      execute_control(item);
      ++i;
      continue;
    }
    std::size_t j = i;
    while (j < items.size() && !items[j].raw.rejected &&
           items[j].request.has_value() &&
           (items[j].request->op == Op::kTick ||
            items[j].request->op == Op::kSweep)) {
      ++j;
    }
    execute_window(items, i, j);
    i = j;
  }

  // Emit phase: per-request buffers concatenate in seq order, so the output
  // stream never depends on the parallel schedule.
  for (const Item& item : items) *out_ << item.output;
  out_->flush();
  return !shutdown_;
}

void Server::execute_control(Item& item) {
  std::ostringstream buffer;
  obs::JsonlSink sink(buffer);
  const std::uint64_t seq = item.raw.seq;

  if (item.raw.rejected) {
    write_error_record(sink, seq, ErrorCode::kQueueFull,
                       "admission queue full; request shed unread");
    item.output = buffer.str();
    return;
  }
  if (shutdown_) {
    write_error_record(sink, seq, ErrorCode::kShutdown,
                       "server is shut down");
    item.output = buffer.str();
    return;
  }
  if (!item.request.has_value()) {
    write_error_record(sink, seq, item.error.code, item.error.message);
    item.output = buffer.str();
    return;
  }

  const Request& request = *item.request;
  switch (request.op) {
    case Op::kCreate:
      handle_create(item);
      return;
    case Op::kShutdown:
      shutdown_ = true;
      write_response(sink, seq, Op::kShutdown, [&](JsonWriter& json) {
        json.key("tenants").value(tenants_.size());
      });
      item.output = buffer.str();
      return;
    case Op::kStatus:
    case Op::kEvict: {
      const auto it = tenants_.find(request.tenant);
      if (it == tenants_.end()) {
        write_error_record(sink, seq, ErrorCode::kUnknownTenant,
                           "no tenant \"" + request.tenant + "\"");
        item.output = buffer.str();
        return;
      }
      Tenant& tenant = *it->second;
      if (request.op == Op::kStatus) {
        tenant.last_used = seq;
        write_response(sink, seq, Op::kStatus, [&](JsonWriter& json) {
          json.key("tenant").value(tenant.name);
          json.key("digest").value(tenant.digest);
          json.key("trial").value(
              static_cast<std::int64_t>(std::min(tenant.trial, tenant.trials)));
          json.key("trials").value(static_cast<std::int64_t>(tenant.trials));
          json.key("intervals").value(
              static_cast<std::int64_t>(tenant.total_intervals));
          json.key("finished")
              .value(tenant.trial >= tenant.trials && tenant.run == nullptr);
        });
      } else {
        tenants_.erase(it);
        write_response(sink, seq, Op::kEvict, [&](JsonWriter& json) {
          json.key("tenant").value(request.tenant);
        });
      }
      item.output = buffer.str();
      return;
    }
    case Op::kTick:
    case Op::kSweep:
      break;  // handled by execute_window; unreachable here
  }
  item.output = buffer.str();
}

void Server::handle_create(Item& item) {
  const Request& request = *item.request;
  const std::uint64_t seq = item.raw.seq;
  std::ostringstream buffer;
  obs::JsonlSink sink(buffer);

  // Per-trial threading is forced to 1, same rule as the Monte-Carlo pool
  // (serve parallelizes across tenants); the digest is taken over the forced
  // config, so creates differing only in `threads` are the same tenant.
  const SimConfig trial_config = montecarlo_trial_config(request.config, true);
  const FaultPlan* faults = request.has_faults ? &request.faults : nullptr;
  const std::string digest =
      tenant_digest(trial_config, request.seed, request.trials, faults);

  const auto it = tenants_.find(request.tenant);
  if (it != tenants_.end()) {
    if (it->second->digest != digest) {
      write_error_record(sink, seq, ErrorCode::kTenantExists,
                         "tenant \"" + request.tenant +
                             "\" exists with digest " + it->second->digest);
      item.output = buffer.str();
      return;
    }
    it->second->last_used = seq;
    write_response(sink, seq, Op::kCreate, [&](JsonWriter& json) {
      json.key("tenant").value(request.tenant);
      json.key("digest").value(digest);
      json.key("cached").value(true);
    });
    item.output = buffer.str();
    return;
  }

  std::string evicted;
  if (tenants_.size() >= options_.max_tenants) {
    auto victim = tenants_.begin();
    for (auto t = tenants_.begin(); t != tenants_.end(); ++t) {
      if (t->second->last_used < victim->second->last_used) victim = t;
    }
    evicted = victim->first;
    tenants_.erase(victim);
  }

  auto tenant = std::make_unique<Tenant>();
  tenant->name = request.tenant;
  tenant->digest = digest;
  tenant->trial_config = trial_config;
  tenant->seed = request.seed;
  tenant->trials = request.trials;
  tenant->faults = request.faults;
  tenant->has_faults = request.has_faults;
  tenant->last_used = seq;

  // The tenant-tagged manifest: byte-identical (modulo the tag) to the one
  // run_lifetime_trials writes for the same config, so a filtered tenant
  // stream validates and diffs against a standalone run.
  write_run_manifest(sink, trial_config, request.seed,
                     static_cast<std::size_t>(request.trials), faults);
  item.output = tag_tenant_lines(buffer.str(), request.tenant);

  std::ostringstream response;
  obs::JsonlSink response_sink(response);
  write_response(response_sink, seq, Op::kCreate, [&](JsonWriter& json) {
    json.key("tenant").value(request.tenant);
    json.key("digest").value(digest);
    json.key("cached").value(false);
    json.key("trials").value(static_cast<std::int64_t>(request.trials));
    if (!evicted.empty()) json.key("evicted").value(evicted);
  });
  item.output += response.str();

  tenants_.emplace(request.tenant, std::move(tenant));
}

void Server::execute_window(std::vector<Item>& items, std::size_t begin,
                            std::size_t end) {
  // Group resolution is serial and in seq order: creates are barriers, so
  // the tenant map cannot change inside a window and resolving up front is
  // equivalent to resolving at each request's turn.
  struct Group {
    Tenant* tenant = nullptr;  // null = one-shot sweep
    std::vector<Item*> items;
  };
  std::vector<Group> groups;
  std::map<std::string, std::size_t> by_tenant;
  for (std::size_t k = begin; k < end; ++k) {
    Item& item = items[k];
    const Request& request = *item.request;
    if (request.op == Op::kSweep) {
      groups.push_back(Group{nullptr, {&item}});
      continue;
    }
    const auto it = tenants_.find(request.tenant);
    if (it == tenants_.end()) {
      std::ostringstream buffer;
      obs::JsonlSink sink(buffer);
      write_error_record(sink, request.seq, ErrorCode::kUnknownTenant,
                         "no tenant \"" + request.tenant + "\"");
      item.output = buffer.str();
      continue;
    }
    it->second->last_used = request.seq;
    const auto [slot, inserted] =
        by_tenant.try_emplace(request.tenant, groups.size());
    if (inserted) groups.push_back(Group{it->second.get(), {}});
    groups[slot->second].items.push_back(&item);
  }

  const auto run_group = [&](std::size_t g) {
    for (Item* item : groups[g].items) {
      if (groups[g].tenant != nullptr) {
        run_tick(*groups[g].tenant, *item->request, item->output);
      } else {
        run_sweep(*item->request, item->output);
      }
    }
  };
  if (pool_ != nullptr && groups.size() > 1) {
    pool_->parallel_for(groups.size(), run_group);
  } else {
    for (std::size_t g = 0; g < groups.size(); ++g) run_group(g);
  }
}

void Server::run_tick(Tenant& tenant, const Request& request,
                      std::string& output) {
  std::ostringstream buffer;
  obs::JsonlSink sink(buffer);
  const long budget = request.intervals;  // 0 = run everything remaining
  long ran = 0;
  while (true) {
    if (tenant.run == nullptr) {
      if (tenant.trial >= tenant.trials) break;
      tenant.run = std::make_unique<LifetimeRun>(
          tenant.trial_config,
          derive_seed(tenant.seed, static_cast<std::uint64_t>(tenant.trial)),
          nullptr, tenant.has_faults ? &tenant.faults : nullptr);
    }
    {
      // The observer is rebound per request so records land in this
      // request's buffer; detach before it goes out of scope.
      JsonlIntervalObserver observer(sink, tenant.trial_config,
                                     static_cast<std::size_t>(tenant.trial));
      tenant.run->set_observer(&observer);
      while ((budget == 0 || ran < budget) && tenant.run->step()) ++ran;
      tenant.run->set_observer(nullptr);
    }
    if (tenant.run->finished()) {
      tenant.run.reset();
      ++tenant.trial;
    }
    if (budget != 0 && ran >= budget) break;
  }
  tenant.total_intervals += ran;

  output = tag_tenant_lines(buffer.str(), tenant.name);
  std::ostringstream response;
  obs::JsonlSink response_sink(response);
  write_response(response_sink, request.seq, Op::kTick, [&](JsonWriter& json) {
    json.key("tenant").value(tenant.name);
    json.key("intervals_run").value(static_cast<std::int64_t>(ran));
    json.key("trial").value(
        static_cast<std::int64_t>(std::min(tenant.trial, tenant.trials)));
    json.key("trials").value(static_cast<std::int64_t>(tenant.trials));
    json.key("finished")
        .value(tenant.trial >= tenant.trials && tenant.run == nullptr);
  });
  output += response.str();
}

void Server::run_sweep(const Request& request, std::string& output) {
  std::ostringstream buffer;
  obs::JsonlSink sink(buffer);
  // One-shot standalone run through the exact Monte-Carlo path (manifest +
  // every trial's records), threads forced to 1 like a cached tenant's.
  const SimConfig config = montecarlo_trial_config(request.config, true);
  const FaultPlan* faults = request.has_faults ? &request.faults : nullptr;
  const LifetimeSummary summary = run_lifetime_trials(
      config, static_cast<std::size_t>(request.trials), request.seed, nullptr,
      &sink, faults);

  output = tag_tenant_lines(buffer.str(), request.tenant);
  std::ostringstream response;
  obs::JsonlSink response_sink(response);
  write_response(response_sink, request.seq, Op::kSweep,
                 [&](JsonWriter& json) {
                   json.key("tenant").value(request.tenant);
                   json.key("trials").value(
                       static_cast<std::int64_t>(request.trials));
                   json.key("mean_intervals").value(summary.intervals.mean);
                   json.key("mean_gateways").value(summary.avg_gateways.mean);
                   json.key("capped_trials").value(summary.capped_trials);
                 });
  output += response.str();
}

int Server::run(std::istream& in) {
  struct QueueState {
    std::mutex mutex;
    std::condition_variable ready;
    std::vector<RawLine> queue;
    std::size_t admitted = 0;  // non-rejected entries in `queue`
    std::uint64_t next_seq = 1;
    std::size_t limit = 1;
    bool eof = false;
  };
  auto state = std::make_shared<QueueState>();
  state->limit = options_.queue_limit;

  // The reader owns admission control and never blocks on the worker: a
  // full queue sheds the line, keeping only its seq for the queue_full
  // error record. `state` is shared so a detached reader (shutdown while
  // stdin stays open) can never touch a dead Server.
  std::thread reader([state, &in] {
    std::string line;
    while (std::getline(in, line)) {
      if (blank_line(line)) continue;
      {
        const std::lock_guard<std::mutex> lock(state->mutex);
        RawLine raw;
        raw.seq = state->next_seq++;
        if (state->admitted >= state->limit) {
          raw.rejected = true;
        } else {
          raw.text = std::move(line);
          ++state->admitted;
        }
        state->queue.push_back(std::move(raw));
        line.clear();
      }
      state->ready.notify_one();
    }
    {
      const std::lock_guard<std::mutex> lock(state->mutex);
      state->eof = true;
    }
    state->ready.notify_one();
  });

  bool keep = true;
  while (true) {
    std::vector<RawLine> batch;
    bool eof = false;
    {
      std::unique_lock<std::mutex> lock(state->mutex);
      state->ready.wait(
          lock, [&] { return state->eof || !state->queue.empty(); });
      batch.swap(state->queue);
      state->admitted = 0;
      eof = state->eof;
    }
    if (!batch.empty()) keep = process_batch(batch);
    if (!keep) break;
    if (eof) {
      const std::lock_guard<std::mutex> lock(state->mutex);
      if (state->queue.empty()) break;
    }
  }

  if (keep) {
    reader.join();
  } else {
    // Shutdown beat EOF: answer whatever is already queued, then leave the
    // reader blocked on `in` (it holds only `state`); the process is about
    // to exit anyway.
    std::vector<RawLine> rest;
    {
      const std::lock_guard<std::mutex> lock(state->mutex);
      rest.swap(state->queue);
      state->admitted = 0;
    }
    if (!rest.empty()) process_batch(rest);
    {
      std::unique_lock<std::mutex> lock(state->mutex);
      if (state->eof) {
        lock.unlock();
        reader.join();
      } else {
        lock.unlock();
        reader.detach();
      }
    }
  }
  return 0;
}

#ifdef __unix__

namespace {

/// Writes all of `text` to a connected socket without raising SIGPIPE.
/// False once the peer is gone (EPIPE, or any other hard error).
bool send_all(int fd, const std::string& text) {
#ifdef MSG_NOSIGNAL
  constexpr int kFlags = MSG_NOSIGNAL;
#else
  constexpr int kFlags = 0;  // SO_NOSIGPIPE is set on the socket instead
#endif
  std::size_t written = 0;
  while (written < text.size()) {
    const ssize_t put =
        ::send(fd, text.data() + written, text.size() - written, kFlags);
    if (put < 0 && errno == EINTR) continue;
    if (put <= 0) return false;
    written += static_cast<std::size_t>(put);
  }
  return true;
}

}  // namespace

int Server::run_unix_socket(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.empty() || path.size() >= sizeof(addr.sun_path)) {
    std::cerr << "serve: socket path too long (max "
              << sizeof(addr.sun_path) - 1 << " bytes)\n";
    return 2;
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

  const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listener < 0) {
    std::cerr << "serve: cannot create socket\n";
    return 2;
  }
  ::unlink(path.c_str());
  if (::bind(listener, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listener, 4) != 0) {
    std::cerr << "serve: cannot bind/listen on " << path << "\n";
    ::close(listener);
    return 2;
  }

  // One synchronous client at a time: read whatever is available, process
  // the complete lines as one batch, write the records back. When the
  // client half-closes, an unterminated remainder is its last request, as
  // in stdin mode. Admission control is inherent here — the kernel socket
  // buffer is the queue and the client sees backpressure directly, so
  // nothing is shed. A client that closes before reading its replies loses
  // the rest of its output (its requests still run); the server keeps
  // serving.
  while (!shutdown_) {
    const int client = ::accept(listener, nullptr, nullptr);
    if (client < 0) break;
#if !defined(MSG_NOSIGNAL) && defined(SO_NOSIGPIPE)
    const int one = 1;
    ::setsockopt(client, SOL_SOCKET, SO_NOSIGPIPE, &one, sizeof(one));
#endif
    std::string pending;
    char chunk[4096];
    bool eof = false;
    bool peer_gone = false;
    while (!eof) {
      const ssize_t got = ::read(client, chunk, sizeof(chunk));
      if (got < 0) break;
      eof = got == 0;
      pending.append(chunk, static_cast<std::size_t>(got));
      std::vector<std::string> lines;
      std::size_t start = 0;
      std::size_t newline;
      while ((newline = pending.find('\n', start)) != std::string::npos) {
        lines.push_back(pending.substr(start, newline - start));
        start = newline + 1;
      }
      pending.erase(0, start);
      if (eof && !pending.empty()) lines.push_back(std::move(pending));
      if (lines.empty()) continue;

      std::ostringstream captured;
      std::ostream* saved = out_;
      out_ = &captured;
      const bool keep = process_lines(lines);
      out_ = saved;
      peer_gone = peer_gone || !send_all(client, captured.str());
      if (!keep) break;
    }
    ::close(client);
  }
  ::close(listener);
  ::unlink(path.c_str());
  return 0;
}

#endif  // __unix__

}  // namespace pacds::serve
