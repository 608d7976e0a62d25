#ifndef SEMACYC_SERVE_SERVER_H_
#define SEMACYC_SERVE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "chase/dependency.h"
#include "core/interrupt.h"
#include "semacyc/engine.h"
#include "serve/socket.h"
#include "serve/worker_pool.h"

namespace semacyc::serve {

/// Configuration of one semacycd instance (defaults are the production
/// shape; tests shrink workers/queue to force the shedding paths).
struct ServerOptions {
  /// TCP port on 127.0.0.1; 0 binds an ephemeral port (see Server::port).
  uint16_t port = 0;
  /// Decision worker threads; a hard Decide never blocks the accept loop.
  size_t workers = 4;
  /// Worker-queue high-water mark: a decide request arriving with this
  /// many already queued is shed with an immediate overloaded response.
  size_t queue_high_water = 64;
  /// Server-wide per-request deadline default (ms; 0 = none). A request's
  /// own "deadline_ms" field overrides it for that request.
  int64_t default_deadline_ms = 0;
  /// Graceful-shutdown drain budget: after RequestShutdown the server
  /// stops accepting and waits this long for in-flight decisions, then
  /// cancels stragglers through the chained drain token and waits up to
  /// the same budget again before closing connections outright.
  int64_t drain_ms = 2000;
  /// Total cache budget in MiB, split evenly across the tenant engines'
  /// decision caches (0 = unbounded).
  size_t cache_mb = 0;
  /// Named tenants besides the always-present default tenant "". Each
  /// tenant gets its own Engine over the same schema, so cache budgets
  /// and stats are isolated per tenant while connections share engines.
  std::vector<std::string> tenants;
  /// Base decision options for every tenant engine. deadline_ms inside is
  /// forced to 0 — per-request deadlines are enforced through the
  /// request's CancelToken so the reported and enforced budgets agree.
  SemAcOptions semac;
  /// Requests longer than this many bytes poison the connection (one
  /// error line, then close): a line that never ends must not buffer
  /// unboundedly.
  size_t max_line_bytes = 1 << 20;
};

/// Lifetime counters, readable concurrently with Run (see the stats
/// endpoint's "server" object in docs/SERVING.md).
struct ServerCounters {
  size_t connections_accepted = 0;
  size_t connections_active = 0;
  size_t requests = 0;
  size_t decided = 0;
  size_t shed = 0;
  size_t bad_requests = 0;
};

/// A long-running decision service over one schema: a single-threaded
/// nonblocking poll() loop (level-triggered) accepts persistent loopback
/// TCP connections speaking the JSON-lines protocol of serve/protocol.h,
/// and dispatches decide requests to a fixed WorkerPool so a hard Decide
/// never blocks accept/recv/send. Responses are delivered strictly in
/// request order per connection (pipelining-safe): every request takes a
/// sequence slot, workers complete slots out of order, the loop flushes
/// the completed prefix.
///
/// One Engine per tenant (same schema), shared by all connections; the
/// total cache budget is split across tenants. Shutdown (SIGTERM via
/// ServeForever, or RequestShutdown from any thread) stops accepting,
/// drains in-flight work under ServerOptions::drain_ms, cancels
/// stragglers through a drain CancelToken every request token chains
/// under, flushes, and returns from Run with every fd closed.
class Server {
 public:
  Server(DependencySet sigma, ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// False when construction failed (bind error, ...); error() says why.
  bool ok() const { return ok_; }
  const std::string& error() const { return error_; }

  /// The actually bound port (== options.port unless that was 0).
  uint16_t port() const { return port_; }

  /// Serves until RequestShutdown, then drains and returns. Call once,
  /// from one thread.
  void Run();

  /// Initiates graceful shutdown. Async-signal-safe (an atomic store and
  /// one write() to the wake pipe) and safe from any thread.
  void RequestShutdown();

  ServerCounters counters() const;

  /// The engine serving `tenant` (nullptr if unknown) — parity checks in
  /// tests and the load generator decide directly against it.
  const Engine* tenant_engine(const std::string& tenant) const;

 private:
  struct Conn;

  void Accept();
  void ReadFrom(const std::shared_ptr<Conn>& conn);
  void HandleLine(const std::shared_ptr<Conn>& conn, const std::string& line);
  void Complete(const std::shared_ptr<Conn>& conn, uint64_t seq,
                std::string line);
  void FlushCompleted(Conn* conn);
  void WriteTo(Conn* conn);
  std::string StatsResponse(const std::string& tenant) const;
  Engine* EngineFor(const std::string& tenant) const;
  void Wake();

  ServerOptions options_;
  bool ok_ = false;
  std::string error_;
  uint16_t port_ = 0;
  Socket listener_;
  int wake_read_ = -1;
  int wake_write_ = -1;

  /// Tenant name -> engine; built in the constructor, immutable after.
  std::vector<std::pair<std::string, std::unique_ptr<Engine>>> engines_;
  std::unique_ptr<WorkerPool> pool_;
  /// Every request token chains under this; RequestShutdown's second
  /// drain phase cancels it to shed stragglers.
  CancelToken drain_token_;
  std::atomic<bool> shutdown_requested_{false};
  bool draining_ = false;

  std::map<int, std::shared_ptr<Conn>> conns_;

  mutable std::atomic<size_t> accepted_{0};
  mutable std::atomic<size_t> active_{0};
  mutable std::atomic<size_t> requests_{0};
  mutable std::atomic<size_t> decided_{0};
  mutable std::atomic<size_t> shed_{0};
  mutable std::atomic<size_t> bad_requests_{0};
};

/// Shared main of `semacycd` and `semacyc_cli --serve`: builds the
/// server, installs SIGTERM/SIGINT handlers that RequestShutdown, prints
/// "listening on 127.0.0.1:<port>" to stderr, runs to completion and
/// reports the drain summary. Returns a process exit code.
int ServeForever(DependencySet sigma, const ServerOptions& options);

}  // namespace semacyc::serve

#endif  // SEMACYC_SERVE_SERVER_H_
