// End-to-end tests of the semacycd decision service (src/serve/): a real
// server on an ephemeral loopback port, driven through LineClient —
// persistent-connection pipelining, CLI/server response parity,
// malformed-line recovery, per-request deadlines, overload shedding,
// stats/health endpoints, tenant isolation, graceful drain without fd
// leaks, and the fault matrix through the server path.
#include <gtest/gtest.h>

#include <dirent.h>

#include <atomic>
#include <chrono>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "chase/dependency.h"
#include "core/interrupt.h"
#include "core/obs.h"
#include "gen/generators.h"
#include "semacyc/engine.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/worker_pool.h"

namespace semacyc {
namespace {

using serve::LineClient;
using serve::Server;
using serve::ServerOptions;

DependencySet GuardedSigma() {
  return MustParseDependencySet("T(x,y) -> E(y,z), E(z,x)");
}

DependencySet OwnsSigma() {
  return MustParseDependencySet("Interest(x,z), Class(y,z) -> Owns(x,y)");
}

/// A query that grinds through tens of millions of enumeration visits
/// unless a deadline stops it — the serve-side analogue of
/// interrupt_test's heavy decision (the options below raise the budgets).
std::string HeavyQueryText() {
  Generator gen(7);
  return gen.CycleQuery(5).ToString();
}

SemAcOptions HeavyOptions() {
  SemAcOptions options;
  options.subset_budget = 500000000;
  options.exhaustive_budget = 500000000;
  return options;
}

/// Runs `server.Run()` on a background thread for the lifetime of the
/// fixture object; the destructor shuts the server down and joins.
class RunningServer {
 public:
  explicit RunningServer(Server* server) : server_(server) {
    thread_ = std::thread([server] { server->Run(); });
  }
  ~RunningServer() {
    server_->RequestShutdown();
    thread_.join();
  }

 private:
  Server* server_;
  std::thread thread_;
};

LineClient MustConnect(const Server& server) {
  LineClient client;
  std::string error;
  EXPECT_TRUE(client.Connect(server.port(), &error)) << error;
  return client;
}

std::string MustRecv(LineClient* client, int timeout_ms = 30000) {
  std::optional<std::string> line = client->RecvLine(timeout_ms);
  EXPECT_TRUE(line.has_value()) << "no response within " << timeout_ms
                                << "ms";
  return line.value_or("");
}

bool Contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

/// Extracts the JSON object value of `key` from one rendered line by
/// brace matching (the line is trusted test output, not arbitrary JSON).
std::string ExtractObject(const std::string& line, const std::string& key) {
  size_t at = line.find("\"" + key + "\": {");
  if (at == std::string::npos) return "";
  size_t start = line.find('{', at);
  int depth = 0;
  bool in_string = false;
  for (size_t i = start; i < line.size(); ++i) {
    char c = line[i];
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{') ++depth;
    if (c == '}' && --depth == 0) return line.substr(start, i - start + 1);
  }
  return "";
}

// ---------------------------------------------------------------------------
// Pipelining + parity with the CLI batch path.
// ---------------------------------------------------------------------------

TEST(ServeTest, PipelinedResponsesArriveInRequestOrderWithBatchParity) {
  ServerOptions options;
  options.workers = 4;
  Server server(OwnsSigma(), options);
  ASSERT_TRUE(server.ok()) << server.error();
  RunningServer running(&server);
  LineClient client = MustConnect(server);

  // The same lines the CI batch smoke uses, plus a parse error and a
  // comment, sent as ONE write (pipelined): responses must come back in
  // request order and byte-identical to the CLI batch path over a fresh
  // engine (serve/protocol.h is the single rendering path for both).
  std::vector<std::string> lines = {
      "q(x,y) :- Interest(x,z), Class(y,z), Owns(x,y)",
      "q(a,b) :- Interest(a,c), Class(b,c), Owns(a,b)",
      "% a comment line: no response slot",
      "Interest(x,z), Class(y,z)",
      "nonsense ( line",
      "q(x) :- Interest(x,z), Class(y,z), Owns(x,y), Owns(y,x)",
  };
  std::string pipelined;
  for (const std::string& line : lines) pipelined += line + "\n";
  ASSERT_TRUE(client.SendLine(pipelined.substr(0, pipelined.size() - 1)));

  Engine reference(OwnsSigma(), SemAcOptions{});
  for (const std::string& line : lines) {
    std::optional<std::string> expected =
        serve::BatchLineResponse(reference, line, 0, nullptr);
    if (!expected.has_value()) continue;  // comment: server sends nothing
    EXPECT_EQ(MustRecv(&client), *expected) << "for line: " << line;
  }
}

TEST(ServeTest, RepeatDecisionsHitTheSharedEngineCache) {
  Server server(OwnsSigma(), ServerOptions{});
  ASSERT_TRUE(server.ok()) << server.error();
  RunningServer running(&server);

  // Two connections, same query: the second decision is served by the
  // shared engine's decision cache — one Engine per schema, not per
  // connection.
  const std::string query = "q(x,y) :- Interest(x,z), Class(y,z), Owns(x,y)";
  LineClient first = MustConnect(server);
  ASSERT_TRUE(first.SendLine(query));
  std::string a = MustRecv(&first);
  LineClient second = MustConnect(server);
  ASSERT_TRUE(second.SendLine(query));
  std::string b = MustRecv(&second);
  EXPECT_EQ(a, b);

  const Engine* engine = server.tenant_engine("");
  ASSERT_NE(engine, nullptr);
  EXPECT_EQ(engine->Metrics().decisions_total, 2u);
  EXPECT_GE(engine->Stats().hits, 1u);
}

// ---------------------------------------------------------------------------
// Malformed input never takes the connection down.
// ---------------------------------------------------------------------------

TEST(ServeTest, MalformedJsonLineGetsErrorAndConnectionSurvives) {
  Server server(OwnsSigma(), ServerOptions{});
  ASSERT_TRUE(server.ok()) << server.error();
  RunningServer running(&server);
  LineClient client = MustConnect(server);

  const std::string bad_lines[] = {
      "{\"op\": \"decide\", \"query\"",      // truncated JSON
      "{\"op\": \"decide\"}",                // missing query
      "{\"op\": \"warp\", \"query\": \"q() :- Owns(x,y)\"}",  // unknown op
      "{\"query\": \"q() :- Owns(x,y)\", \"shards\": 3}",     // unknown field
      "{\"query\": 42}",                     // wrong type
      "{\"query\": \"q() :- Owns(x,y)\", \"query\": \"x\"}",  // duplicate
  };
  for (const std::string& bad : bad_lines) {
    ASSERT_TRUE(client.SendLine(bad));
    std::string response = MustRecv(&client);
    EXPECT_TRUE(Contains(response, "\"error\"")) << response;
    EXPECT_FALSE(Contains(response, "\"answer\"")) << response;
  }

  // The same connection still decides.
  ASSERT_TRUE(client.SendLine("{\"query\": \"q() :- Owns(x,y)\"}"));
  EXPECT_TRUE(Contains(MustRecv(&client), "\"answer\": \"yes\""));
}

TEST(ServeTest, QueryParseErrorMatchesBatchShapeAndConnectionSurvives) {
  Server server(OwnsSigma(), ServerOptions{});
  ASSERT_TRUE(server.ok()) << server.error();
  RunningServer running(&server);
  LineClient client = MustConnect(server);

  Engine reference(OwnsSigma(), SemAcOptions{});
  const std::string bad = "q(x :- Owns(x,y)";
  ASSERT_TRUE(client.SendLine(bad));
  std::optional<std::string> expected =
      serve::BatchLineResponse(reference, bad, 0, nullptr);
  ASSERT_TRUE(expected.has_value());
  EXPECT_EQ(MustRecv(&client), *expected);

  ASSERT_TRUE(client.SendLine("q(x,y) :- Owns(x,y)"));
  EXPECT_TRUE(Contains(MustRecv(&client), "\"answer\": \"yes\""));
}

/// A head variable missing from the body is a parse error on the shared
/// line path (--batch and semacycd), not an internal one.
TEST(ServeTest, UnsafeHeadIsAParseErrorOnTheLinePath) {
  Engine engine(OwnsSigma(), SemAcOptions{});
  std::optional<std::string> response = serve::BatchLineResponse(
      engine, "q(y) :- Interest(x,z), Class(w,z), Interest(w,x)", 0, nullptr);
  ASSERT_TRUE(response.has_value());
  EXPECT_TRUE(Contains(*response, "\"error\": \"head variable 'y'"))
      << *response;
  EXPECT_FALSE(Contains(*response, "internal")) << *response;
}

// ---------------------------------------------------------------------------
// Per-request deadlines.
// ---------------------------------------------------------------------------

TEST(ServeTest, PerRequestDeadlineAbortsHeavyDecisionGracefully) {
  ServerOptions options;
  options.semac = HeavyOptions();
  Server server(GuardedSigma(), options);
  ASSERT_TRUE(server.ok()) << server.error();
  RunningServer running(&server);
  LineClient client = MustConnect(server);

  ASSERT_TRUE(client.SendLine("{\"query\": \"" + HeavyQueryText() +
                              "\", \"deadline_ms\": 25}"));
  std::string response = MustRecv(&client);
  EXPECT_TRUE(Contains(response, "\"strategy\": \"deadline-exceeded\""))
      << response;
  EXPECT_TRUE(Contains(response, "\"answer\": \"unknown\"")) << response;
  EXPECT_TRUE(Contains(response, "\"deadline_ms\": 25")) << response;

  // The shared engine is immediately reusable on the same connection.
  ASSERT_TRUE(client.SendLine("q(x,y) :- E(x,y)"));
  EXPECT_TRUE(Contains(MustRecv(&client), "\"answer\": \"yes\""));
}

TEST(ServeTest, ServerDefaultDeadlineAppliesWhenRequestHasNone) {
  ServerOptions options;
  options.semac = HeavyOptions();
  options.default_deadline_ms = 25;
  Server server(GuardedSigma(), options);
  ASSERT_TRUE(server.ok()) << server.error();
  RunningServer running(&server);
  LineClient client = MustConnect(server);

  ASSERT_TRUE(client.SendLine(HeavyQueryText()));
  std::string response = MustRecv(&client);
  EXPECT_TRUE(Contains(response, "\"strategy\": \"deadline-exceeded\""))
      << response;
  EXPECT_TRUE(Contains(response, "\"deadline_ms\": 25")) << response;
}

// ---------------------------------------------------------------------------
// Overload shedding.
// ---------------------------------------------------------------------------

TEST(ServeTest, QueueHighWaterShedsExcessRequestsImmediately) {
  // One worker, queue of one: a burst of heavy pipelined decides can keep
  // at most two in the system (one running, one queued); the rest must be
  // shed with an immediate overloaded line, in request order.
  ServerOptions options;
  options.workers = 1;
  options.queue_high_water = 1;
  options.semac = HeavyOptions();
  options.default_deadline_ms = 150;
  Server server(GuardedSigma(), options);
  ASSERT_TRUE(server.ok()) << server.error();
  RunningServer running(&server);
  LineClient client = MustConnect(server);

  constexpr int kBurst = 8;
  std::string burst;
  for (int i = 0; i < kBurst; ++i) burst += HeavyQueryText() + "\n";
  burst.pop_back();
  ASSERT_TRUE(client.SendLine(burst));

  int overloaded = 0;
  int decided = 0;
  for (int i = 0; i < kBurst; ++i) {
    std::string response = MustRecv(&client);
    if (Contains(response, "\"status\": \"overloaded\"")) {
      ++overloaded;
      EXPECT_EQ(response, serve::OverloadedResponse());
    } else {
      ++decided;
      EXPECT_TRUE(Contains(response, "\"query\"")) << response;
    }
  }
  // The two admitted decisions run under the 150ms default deadline; the
  // burst lands in microseconds, so at least kBurst - 2 shed.
  EXPECT_GE(overloaded, kBurst - 2);
  EXPECT_GE(decided, 1);
  EXPECT_EQ(server.counters().shed, static_cast<size_t>(overloaded));

  // Shedding is load-dependent, not sticky: the drained server accepts
  // new work on the same connection.
  ASSERT_TRUE(client.SendLine("q(x,y) :- E(x,y)"));
  EXPECT_TRUE(Contains(MustRecv(&client), "\"answer\": \"yes\""));
}

TEST(WorkerPoolTest, TrySubmitRefusesAtHighWaterAndCountsShed) {
  serve::WorkerPool pool(1, 2);
  std::atomic<int> ran{0};
  std::atomic<bool> release{false};
  // Occupy the single worker so submissions stack up in the queue.
  ASSERT_TRUE(pool.TrySubmit([&] {
    while (!release.load()) std::this_thread::sleep_for(
        std::chrono::milliseconds(1));
    ++ran;
  }));
  // Wait until the blocker is actually running (queue empty again).
  while (pool.active() == 0) std::this_thread::sleep_for(
      std::chrono::milliseconds(1));
  ASSERT_TRUE(pool.TrySubmit([&] { ++ran; }));
  ASSERT_TRUE(pool.TrySubmit([&] { ++ran; }));
  // Queue now at high-water (2): refuse.
  EXPECT_FALSE(pool.TrySubmit([&] { ++ran; }));
  EXPECT_EQ(pool.shed(), 1u);
  EXPECT_EQ(pool.submitted(), 3u);
  release.store(true);
  pool.Shutdown();
  EXPECT_EQ(ran.load(), 3);
}

// ---------------------------------------------------------------------------
// Built-in endpoints.
// ---------------------------------------------------------------------------

TEST(ServeTest, HealthAndStatsEndpointsServeValidPayloads) {
  ServerOptions options;
  options.cache_mb = 16;
  Server server(OwnsSigma(), options);
  ASSERT_TRUE(server.ok()) << server.error();
  RunningServer running(&server);
  LineClient client = MustConnect(server);

  ASSERT_TRUE(client.SendLine("health"));
  EXPECT_EQ(MustRecv(&client), serve::HealthResponse());

  ASSERT_TRUE(client.SendLine("q(x,y) :- Interest(x,z), Class(y,z), "
                              "Owns(x,y)"));
  MustRecv(&client);

  ASSERT_TRUE(client.SendLine("{\"op\": \"stats\"}"));
  std::string stats = MustRecv(&client);
  // The "stats" object is exactly the CLI's --stats payload...
  const Engine* engine = server.tenant_engine("");
  ASSERT_NE(engine, nullptr);
  EXPECT_EQ(ExtractObject(stats, "stats"), serve::EngineStatsJson(*engine));
  EXPECT_TRUE(Contains(stats, "\"caches\"")) << stats;
  // ...and the "metrics" object is exactly the Engine::Metrics() snapshot
  // (the engine is idle, so a fresh snapshot renders the same bytes).
  std::string metrics = ExtractObject(stats, "metrics");
  ASSERT_FALSE(metrics.empty()) << stats;
  EXPECT_EQ(metrics, engine->Metrics().ToJson());
  EXPECT_EQ(engine->Metrics().decisions_total, 1u);
  // The "server" object reports the serving counters.
  std::string server_obj = ExtractObject(stats, "server");
  EXPECT_TRUE(Contains(server_obj, "\"connections_accepted\": 1"))
      << server_obj;
  EXPECT_TRUE(Contains(server_obj, "\"shed\": 0")) << server_obj;
  EXPECT_TRUE(Contains(server_obj, "\"draining\": false")) << server_obj;
}

TEST(ServeTest, TenantsGetIsolatedEnginesAndBudgetShares) {
  ServerOptions options;
  options.tenants = {"alpha", "beta"};
  options.cache_mb = 24;  // split three ways with the default tenant
  Server server(OwnsSigma(), options);
  ASSERT_TRUE(server.ok()) << server.error();
  RunningServer running(&server);
  LineClient client = MustConnect(server);

  const std::string query = "q(x,y) :- Interest(x,z), Class(y,z), Owns(x,y)";
  ASSERT_TRUE(client.SendLine("{\"query\": \"" + query +
                              "\", \"tenant\": \"alpha\"}"));
  EXPECT_TRUE(Contains(MustRecv(&client), "\"answer\": \"yes\""));

  // Decisions land on the tenant's engine only.
  const Engine* alpha = server.tenant_engine("alpha");
  const Engine* beta = server.tenant_engine("beta");
  const Engine* def = server.tenant_engine("");
  ASSERT_NE(alpha, nullptr);
  ASSERT_NE(beta, nullptr);
  ASSERT_NE(def, nullptr);
  EXPECT_EQ(alpha->Metrics().decisions_total, 1u);
  EXPECT_EQ(beta->Metrics().decisions_total, 0u);
  EXPECT_EQ(def->Metrics().decisions_total, 0u);
  // The 24 MiB total split across three tenants: each decision cache got
  // all of 24 MiB / 3.
  EXPECT_EQ(alpha->Stats().max_bytes, 24u * 1024 * 1024 / 3);

  // Unknown tenants are refused per-request, not fatally.
  ASSERT_TRUE(client.SendLine("{\"query\": \"" + query +
                              "\", \"tenant\": \"nosuch\"}"));
  EXPECT_TRUE(Contains(MustRecv(&client), "unknown tenant"));
  ASSERT_TRUE(client.SendLine("health"));
  EXPECT_EQ(MustRecv(&client), serve::HealthResponse());
}

// ---------------------------------------------------------------------------
// Graceful shutdown.
// ---------------------------------------------------------------------------

size_t OpenFdCount() {
  DIR* dir = opendir("/proc/self/fd");
  if (dir == nullptr) return 0;
  size_t count = 0;
  while (readdir(dir) != nullptr) ++count;
  closedir(dir);
  return count;
}

TEST(ServeTest, ShutdownDrainsInFlightWorkAndLeaksNoFds) {
  // The drain token reaches the search two links down (drain -> request
  // -> search worker), at every decide_threads.
  for (size_t threads : {size_t{1}, size_t{2}}) {
    SCOPED_TRACE(std::to_string(threads) + " decide threads");
    size_t fds_before = OpenFdCount();
    {
      ServerOptions options;
      options.semac = HeavyOptions();
      options.semac.decide_threads = threads;
      options.drain_ms = 100;  // cancel stragglers quickly
      Server server(GuardedSigma(), options);
      ASSERT_TRUE(server.ok()) << server.error();
      std::thread runner([&server] { server.Run(); });

      LineClient client = MustConnect(server);
      // A heavy decision with no deadline: only the drain token's phase-2
      // cancellation can stop it.
      ASSERT_TRUE(client.SendLine(HeavyQueryText()));
      // Wait until a worker has actually BEGUN the decision (the worker
      // prepares the query right before deciding it, and the engine
      // records the PREPARE phase as it returns), then pull the plug the
      // same way the SIGTERM handler does. A fixed sleep here flakes under
      // sanitizer slowdowns (TSan runs 5-15x slower): shutdown could win
      // the race and drain an empty pool instead of cancelling in-flight
      // work.
      const Engine* engine = server.tenant_engine("");
      ASSERT_NE(engine, nullptr);
      while (engine->Metrics()
                 .phases[static_cast<size_t>(obs::Phase::kPrepare)]
                 .latency.count == 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      server.RequestShutdown();
      // The in-flight decision is cancelled and its deadline-exceeded
      // line still flushes to the client before the close.
      std::string response = MustRecv(&client);
      EXPECT_TRUE(Contains(response, "\"strategy\": \"deadline-exceeded\""))
          << response;
      // The server then closes the connection.
      EXPECT_FALSE(client.RecvLine(2000).has_value());
      runner.join();
    }
    // Everything the server and client opened is closed again (ASan's
    // leak check covers the memory side in the sanitize CI job).
    EXPECT_EQ(OpenFdCount(), fds_before);
  }
}

// ---------------------------------------------------------------------------
// Fault matrix through the server path (PR 7's reusability invariant:
// an abort at any failpoint leaves the shared Engine coherent).
// ---------------------------------------------------------------------------

#if defined(SEMACYC_FAILPOINTS_ENABLED) && SEMACYC_FAILPOINTS_ENABLED
TEST(ServeFaultTest, FailpointAbortsLeaveConnectionAndEngineUsable) {
  struct Case {
    const char* failpoint;
    FailpointAction action;
  };
  const Case cases[] = {
      {"decide.after_core", FailpointAction::kCancel},
      {"oracle.candidate", FailpointAction::kCancel},
      {"oracle.candidate", FailpointAction::kBadAlloc},
      {"subsets.visit", FailpointAction::kBadAlloc},
  };
  const std::string query = "q(x,y) :- Interest(x,z), Class(y,z), Owns(x,y)";
  Engine reference(OwnsSigma(), SemAcOptions{});
  std::optional<std::string> expected =
      serve::BatchLineResponse(reference, query, 0, nullptr);
  ASSERT_TRUE(expected.has_value());

  for (const Case& c : cases) {
    Server server(OwnsSigma(), ServerOptions{});
    ASSERT_TRUE(server.ok()) << server.error();
    RunningServer running(&server);
    LineClient client = MustConnect(server);

    FailpointRegistry::Global().Arm(c.failpoint, c.action);
    ASSERT_TRUE(client.SendLine(query));
    std::string aborted = MustRecv(&client);
    const bool fired = FailpointRegistry::Global().Fired(c.failpoint);
    FailpointRegistry::Global().Disarm(c.failpoint);
    if (fired) {
      // A cancel surfaces as a graceful deadline-exceeded line; an
      // injected bad_alloc as the internal-error shape. Either way the
      // connection answered — it never died.
      EXPECT_TRUE(Contains(aborted, "deadline-exceeded") ||
                  Contains(aborted, "\"error\": \"internal:"))
          << c.failpoint << ": " << aborted;
    } else {
      // Failpoint not on this query's decision path: normal answer.
      EXPECT_EQ(aborted, *expected) << c.failpoint;
    }

    // Re-decide on the SAME connection and engine: byte-identical to a
    // never-aborted engine's decision (the abort left no trace).
    ASSERT_TRUE(client.SendLine(query));
    EXPECT_EQ(MustRecv(&client), *expected) << "after " << c.failpoint;
  }
}
#endif  // SEMACYC_FAILPOINTS_ENABLED

}  // namespace
}  // namespace semacyc
