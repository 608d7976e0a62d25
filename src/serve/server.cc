#include "serve/server.h"

#include <poll.h>
#include <signal.h>

#include <cassert>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <utility>

#include "serve/protocol.h"

namespace semacyc::serve {

namespace {
using Clock = std::chrono::steady_clock;

int64_t MsUntil(Clock::time_point tp) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(tp -
                                                               Clock::now())
      .count();
}
}  // namespace

/// One persistent connection. The poll loop owns all fields except
/// `done`, which workers fill under `mu` — the request's sequence slot
/// machinery that keeps pipelined responses in request order: the loop
/// assigns `next_seq` per request, any thread completes a slot, and the
/// loop flushes the contiguous prefix starting at `next_flush`.
struct Server::Conn {
  Socket sock;
  std::string in;   // partial input line
  std::string out;  // rendered responses awaiting write
  bool read_closed = false;
  bool broken = false;  // read/write error: drop without draining
  bool fatal = false;   // poisoned (oversize line): close once flushed

  std::mutex mu;
  std::map<uint64_t, std::string> done;
  uint64_t next_seq = 0;
  uint64_t next_flush = 0;

  uint64_t pending() const { return next_seq - next_flush; }
};

Server::Server(DependencySet sigma, ServerOptions options)
    : options_(std::move(options)) {
  uint16_t bound = 0;
  listener_ = Listen(options_.port, &bound, &error_);
  if (!listener_.valid()) return;
  port_ = bound;

  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    error_ = std::string("pipe: ") + std::strerror(errno);
    listener_.Close();
    return;
  }
  wake_read_ = pipe_fds[0];
  wake_write_ = pipe_fds[1];
  SetNonBlocking(wake_read_);
  SetNonBlocking(wake_write_);

  // One engine per tenant over the same schema; the default tenant ""
  // always exists. Budgets: the total cache budget splits evenly, so one
  // tenant's working set cannot evict another's.
  std::vector<std::string> tenants;
  tenants.push_back("");
  for (const std::string& t : options_.tenants) {
    bool seen = false;
    for (const std::string& have : tenants) seen = seen || have == t;
    if (!seen) tenants.push_back(t);
  }
  SemAcOptions semac = options_.semac;
  // Per-request deadlines travel through the request CancelToken (the
  // reported and enforced budgets must be the same number); a schema-wide
  // engine deadline would double-report.
  semac.deadline_ms = 0;
  const size_t tenant_bytes =
      options_.cache_mb * size_t{1024} * 1024 / tenants.size();
  engines_.reserve(tenants.size());
  for (const std::string& t : tenants) {
    engines_.emplace_back(t,
                          std::make_unique<Engine>(sigma, semac, tenant_bytes));
  }

  pool_ = std::make_unique<WorkerPool>(options_.workers,
                                       options_.queue_high_water);
  ok_ = true;
}

Server::~Server() {
  if (pool_ != nullptr) pool_->Shutdown();
  if (wake_read_ >= 0) ::close(wake_read_);
  if (wake_write_ >= 0) ::close(wake_write_);
}

void Server::RequestShutdown() {
  shutdown_requested_.store(true, std::memory_order_relaxed);
  Wake();
}

void Server::Wake() {
  if (wake_write_ >= 0) {
    char byte = 'w';
    // EAGAIN (pipe full) is fine: the loop is already due to wake.
    [[maybe_unused]] ssize_t n = ::write(wake_write_, &byte, 1);
  }
}

Engine* Server::EngineFor(const std::string& tenant) const {
  for (const auto& [name, engine] : engines_) {
    if (name == tenant) return engine.get();
  }
  return nullptr;
}

const Engine* Server::tenant_engine(const std::string& tenant) const {
  return EngineFor(tenant);
}

ServerCounters Server::counters() const {
  ServerCounters out;
  out.connections_accepted = accepted_.load(std::memory_order_relaxed);
  out.connections_active = active_.load(std::memory_order_relaxed);
  out.requests = requests_.load(std::memory_order_relaxed);
  out.decided = decided_.load(std::memory_order_relaxed);
  out.shed = shed_.load(std::memory_order_relaxed);
  out.bad_requests = bad_requests_.load(std::memory_order_relaxed);
  return out;
}

std::string Server::StatsResponse(const std::string& tenant) const {
  const Engine* engine = EngineFor(tenant);
  if (engine == nullptr) {
    return "{\"error\": \"unknown tenant \\\"" + JsonEscape(tenant) +
           "\\\"\"}";
  }
  ServerCounters c = counters();
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      ", \"server\": {\"connections_accepted\": %zu, "
      "\"connections_active\": %zu, \"requests\": %zu, \"decided\": %zu, "
      "\"shed\": %zu, \"bad_requests\": %zu, \"queue_depth\": %zu, "
      "\"workers\": %zu, \"queue_high_water\": %zu, "
      "\"default_deadline_ms\": %lld, \"draining\": %s, \"tenants\": [",
      c.connections_accepted, c.connections_active, c.requests, c.decided,
      c.shed, c.bad_requests, pool_->queued(), options_.workers,
      options_.queue_high_water,
      static_cast<long long>(options_.default_deadline_ms),
      draining_ ? "true" : "false");
  std::string out = "{\"stats\": " + EngineStatsJson(*engine) +
                    ", \"metrics\": " + engine->Metrics().ToJson() + buf;
  for (size_t i = 0; i < engines_.size(); ++i) {
    char tbuf[128];
    std::snprintf(tbuf, sizeof(tbuf), "%s{\"name\": \"%s\", \"cache_bytes\": %zu}",
                  i == 0 ? "" : ", ",
                  JsonEscape(engines_[i].first).c_str(),
                  engines_[i].second->Stats().bytes);
    out += tbuf;
  }
  out += "]}}";
  return out;
}

void Server::Complete(const std::shared_ptr<Conn>& conn, uint64_t seq,
                      std::string line) {
  std::lock_guard<std::mutex> lock(conn->mu);
  conn->done[seq] = std::move(line);
}

void Server::FlushCompleted(Conn* conn) {
  std::lock_guard<std::mutex> lock(conn->mu);
  auto it = conn->done.find(conn->next_flush);
  while (it != conn->done.end()) {
    conn->out += it->second;
    conn->out += '\n';
    conn->done.erase(it);
    ++conn->next_flush;
    it = conn->done.find(conn->next_flush);
  }
}

void Server::HandleLine(const std::shared_ptr<Conn>& conn,
                        const std::string& line) {
  std::optional<Request> req = ParseRequest(line);
  if (!req.has_value()) return;  // blank / comment: no response slot
  requests_.fetch_add(1, std::memory_order_relaxed);
  uint64_t seq = conn->next_seq++;
  switch (req->kind) {
    case Request::Kind::kBad:
      bad_requests_.fetch_add(1, std::memory_order_relaxed);
      Complete(conn, seq, "{\"error\": \"" + JsonEscape(req->error) + "\"}");
      return;
    case Request::Kind::kHealth:
      Complete(conn, seq, HealthResponse());
      return;
    case Request::Kind::kStats:
      Complete(conn, seq, StatsResponse(req->tenant));
      return;
    case Request::Kind::kDecide:
      break;
  }
  Engine* engine = EngineFor(req->tenant);
  if (engine == nullptr) {
    bad_requests_.fetch_add(1, std::memory_order_relaxed);
    Complete(conn, seq,
             "{\"error\": \"unknown tenant \\\"" + JsonEscape(req->tenant) +
                 "\\\"\"}");
    return;
  }
  int64_t deadline_ms = req->deadline_ms > 0 ? req->deadline_ms
                                             : options_.default_deadline_ms;
  // The job runs on a pool worker: decide, park the rendered line in the
  // connection's slot, wake the loop to flush it. The shared_ptr keeps
  // the Conn alive even if the peer disconnects mid-decision.
  auto job = [this, conn, seq, engine, text = std::move(req->query),
              deadline_ms] {
    CancelToken token;
    token.SetParent(&drain_token_);
    token.SetDeadlineInMs(deadline_ms);
    std::string response = DecideResponse(*engine, text, deadline_ms, &token);
    Complete(conn, seq, std::move(response));
    decided_.fetch_add(1, std::memory_order_relaxed);
    Wake();
  };
  if (draining_ || !pool_->TrySubmit(std::move(job))) {
    // Queue at high-water (or shutting down): shed instead of queueing
    // unboundedly — the client learns immediately and can back off.
    shed_.fetch_add(1, std::memory_order_relaxed);
    Complete(conn, seq, OverloadedResponse());
  }
}

void Server::ReadFrom(const std::shared_ptr<Conn>& conn) {
  char chunk[4096];
  while (true) {
    ssize_t n = ::recv(conn->sock.fd(), chunk, sizeof(chunk), 0);
    if (n > 0) {
      conn->in.append(chunk, static_cast<size_t>(n));
      if (conn->in.size() > options_.max_line_bytes &&
          conn->in.find('\n') == std::string::npos) {
        // A line that never ends: answer once, stop reading, close after
        // the flush. (Pipelining is already broken for this peer.)
        uint64_t seq = conn->next_seq++;
        bad_requests_.fetch_add(1, std::memory_order_relaxed);
        Complete(conn, seq, "{\"error\": \"bad request: line too long\"}");
        conn->in.clear();
        conn->read_closed = true;
        conn->fatal = true;
        return;
      }
      size_t pos;
      while ((pos = conn->in.find('\n')) != std::string::npos) {
        std::string line = conn->in.substr(0, pos);
        conn->in.erase(0, pos + 1);
        if (!line.empty() && line.back() == '\r') line.pop_back();
        HandleLine(conn, line);
      }
      continue;
    }
    if (n == 0) {
      conn->read_closed = true;
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    if (errno == EINTR) continue;
    conn->broken = true;
    return;
  }
}

void Server::WriteTo(Conn* conn) {
  while (!conn->out.empty()) {
    ssize_t n = ::send(conn->sock.fd(), conn->out.data(), conn->out.size(),
                       MSG_NOSIGNAL);
    if (n > 0) {
      conn->out.erase(0, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (n < 0 && errno == EINTR) continue;
    conn->broken = true;
    return;
  }
}

void Server::Accept() {
  while (true) {
    int fd = ::accept(listener_.fd(), nullptr, nullptr);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      // Transient accept failures (EMFILE, ECONNABORTED): keep serving
      // the connections we have.
      return;
    }
    SetNonBlocking(fd);
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_shared<Conn>();
    conn->sock = Socket(fd);
    conns_.emplace(fd, std::move(conn));
    accepted_.fetch_add(1, std::memory_order_relaxed);
    active_.store(conns_.size(), std::memory_order_relaxed);
  }
}

void Server::Run() {
  assert(ok_);
  Clock::time_point drain_deadline{};
  Clock::time_point hard_deadline{};
  bool stragglers_cancelled = false;

  std::vector<pollfd> fds;
  std::vector<std::shared_ptr<Conn>> polled;
  while (true) {
    fds.clear();
    polled.clear();
    fds.push_back({wake_read_, POLLIN, 0});
    const bool listener_polled = !draining_ && listener_.valid();
    if (listener_polled) {
      fds.push_back({listener_.fd(), POLLIN, 0});
    }
    for (auto& [fd, conn] : conns_) {
      short events = 0;
      if (!draining_ && !conn->read_closed) events |= POLLIN;
      if (!conn->out.empty()) events |= POLLOUT;
      fds.push_back({fd, events, 0});
      polled.push_back(conn);
    }

    int timeout = -1;
    if (draining_) {
      Clock::time_point next =
          stragglers_cancelled ? hard_deadline : drain_deadline;
      int64_t ms = MsUntil(next);
      timeout = ms < 10 ? 10 : (ms > 200 ? 200 : static_cast<int>(ms));
    }
    int rc = ::poll(fds.data(), fds.size(), timeout);
    if (rc < 0 && errno != EINTR) break;

    // Wake pipe: drain it (worker completions and shutdown requests both
    // land here).
    if (fds[0].revents & POLLIN) {
      char sink[256];
      while (::read(wake_read_, sink, sizeof(sink)) > 0) {
      }
    }

    if (!draining_ && shutdown_requested_.load(std::memory_order_relaxed)) {
      // Graceful shutdown, phase 1: stop accepting, keep flushing.
      draining_ = true;
      listener_.Close();
      drain_deadline = Clock::now() + std::chrono::milliseconds(
                                          options_.drain_ms > 0
                                              ? options_.drain_ms
                                              : 0);
      hard_deadline = drain_deadline + std::chrono::milliseconds(
                                           options_.drain_ms > 0
                                               ? options_.drain_ms
                                               : 100);
    }

    // Move worker-completed slots into each connection's write buffer
    // (in request order), then push bytes.
    size_t fd_index = 1;
    if (listener_polled) {
      if ((fds[1].revents & POLLIN) && !draining_) Accept();
      fd_index = 2;
    }
    for (size_t i = 0; i < polled.size(); ++i, ++fd_index) {
      // Accept() may have appended connections; they are polled next
      // iteration.
      if (fd_index >= fds.size()) break;
      const std::shared_ptr<Conn>& conn = polled[i];
      short revents = fds[fd_index].revents;
      if (revents & (POLLERR | POLLNVAL)) {
        conn->broken = true;
        continue;
      }
      if ((revents & (POLLIN | POLLHUP)) && !draining_ &&
          !conn->read_closed) {
        ReadFrom(conn);
      }
    }
    for (auto& [fd, conn] : conns_) {
      if (conn->broken) continue;
      FlushCompleted(conn.get());
      if (!conn->out.empty()) WriteTo(conn.get());
    }

    // Reap: broken connections immediately; cleanly closed ones once
    // every response they are owed has been flushed.
    for (auto it = conns_.begin(); it != conns_.end();) {
      Conn* conn = it->second.get();
      bool drained = conn->pending() == 0 && conn->out.empty();
      if (conn->broken || ((conn->read_closed || conn->fatal) && drained)) {
        it = conns_.erase(it);
      } else {
        ++it;
      }
    }
    active_.store(conns_.size(), std::memory_order_relaxed);

    if (draining_) {
      bool idle = pool_->queued() == 0 && pool_->active() == 0;
      for (auto& [fd, conn] : conns_) {
        idle = idle && conn->pending() == 0 && conn->out.empty();
      }
      if (idle) break;
      if (!stragglers_cancelled && Clock::now() >= drain_deadline) {
        // Phase 2: the drain budget elapsed — cancel stragglers through
        // the chained token; in-flight decisions abort at their next
        // poll point and report deadline-exceeded lines.
        drain_token_.RequestCancel();
        stragglers_cancelled = true;
      }
      if (stragglers_cancelled && Clock::now() >= hard_deadline) break;
    }
  }

  // Teardown: no new work (listener closed above or here), wait for the
  // workers — under a tripped drain token any leftover jobs finish fast —
  // then drop every connection.
  listener_.Close();
  drain_token_.RequestCancel();
  pool_->Shutdown();
  conns_.clear();
  active_.store(0, std::memory_order_relaxed);
}

namespace {

std::atomic<Server*> g_signal_server{nullptr};

void OnTermSignal(int) {
  Server* server = g_signal_server.load(std::memory_order_relaxed);
  if (server != nullptr) server->RequestShutdown();
}

}  // namespace

int ServeForever(DependencySet sigma, const ServerOptions& options) {
  Server server(std::move(sigma), options);
  if (!server.ok()) {
    std::fprintf(stderr, "semacycd: %s\n", server.error().c_str());
    return 1;
  }
  g_signal_server.store(&server, std::memory_order_relaxed);
  struct sigaction action {};
  action.sa_handler = OnTermSignal;
  ::sigaction(SIGTERM, &action, nullptr);
  ::sigaction(SIGINT, &action, nullptr);

  std::fprintf(stderr, "semacycd listening on 127.0.0.1:%u\n",
               static_cast<unsigned>(server.port()));
  server.Run();
  g_signal_server.store(nullptr, std::memory_order_relaxed);

  ServerCounters c = server.counters();
  std::fprintf(stderr,
               "semacycd drained: %zu connections served, %zu decided, "
               "%zu shed, %zu bad requests\n",
               c.connections_accepted, c.decided, c.shed, c.bad_requests);
  return 0;
}

}  // namespace semacyc::serve
