#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "core/canonical.h"
#include "core/interrupt.h"
#include "core/obs.h"
#include "core/parser.h"
#include "gen/generators.h"
#include "semacyc/engine.h"

namespace semacyc {
namespace {

#if !(defined(SEMACYC_FAILPOINTS_ENABLED) && SEMACYC_FAILPOINTS_ENABLED)

TEST(FaultInjectionTest, FailpointsCompiledOut) {
  GTEST_SKIP() << "built with SEMACYC_FAILPOINTS=OFF; failpoint sites are "
                  "compiled away, nothing to inject";
}

#else  // failpoints compiled in

/// Every cancel/bad_alloc injection site reachable from Engine::Decide,
/// at every decide_threads. Keep in sync with the catalogue in
/// docs/ROBUSTNESS.md.
const char* const kDecideFailpoints[] = {
    "decide.start",          "decide.after_core",
    "decide.after_chase",    "decide.after_oracle",
    "decide.after_compaction", "decide.after_images",
    "decide.after_subsets",  "decide.after_exhaustive",
    "chase.round",           "rewrite.step",
    "oracle.candidate",      "subsets.visit",
    "exhaustive.visit",      "parallel.steal",
    "parallel.replay",
};

/// The catalogue entries a search worker can hit (its candidate's chase,
/// its oracle call, its visits, its steals and replays). At 2 threads one
/// of them can fire after another worker committed the official YES.
bool WorkerSide(const std::string& point) {
  return point == "chase.round" || point == "oracle.candidate" ||
         point == "subsets.visit" || point == "exhaustive.visit" ||
         point.rfind("parallel.", 0) == 0;
}

void ExpectAborted(const SemAcResult& r) {
  EXPECT_EQ(r.answer, SemAcAnswer::kUnknown);
  EXPECT_EQ(r.strategy, Strategy::kDeadlineExceeded);
  EXPECT_FALSE(r.exact);
  EXPECT_FALSE(r.witness.has_value());
}

void ExpectSameDecision(const SemAcResult& a, const SemAcResult& b,
                        const std::string& context) {
  EXPECT_EQ(a.answer, b.answer) << context;
  EXPECT_EQ(a.strategy, b.strategy) << context;
  EXPECT_EQ(a.exact, b.exact) << context;
  EXPECT_EQ(a.witness.has_value(), b.witness.has_value()) << context;
  if (a.witness.has_value() && b.witness.has_value()) {
    EXPECT_TRUE(AreIsomorphic(*a.witness, *b.witness)) << context;
  }
}

struct Workload {
  std::string name;
  DependencySet sigma;
  std::vector<ConjunctiveQuery> queries;
};

/// One workload per generator family / schema class: guarded (chase-based
/// oracles), non-recursive (weakly acyclic, so its chase terminates and no
/// rewriting is built), linear and not weakly acyclic (its oracle builds
/// a UCQ rewriting, so rewrite.step is reachable), and egds (the K2
/// equality machinery).
std::vector<Workload> Workloads() {
  std::vector<Workload> out;
  Generator gen(23);
  {
    Workload w;
    w.name = "guarded";
    w.sigma = MustParseDependencySet("T(x,y) -> E(y,z), E(z,x)");
    w.queries.push_back(MustParseQuery("T(x,y), E(y,z), E(z,x)"));
    w.queries.push_back(gen.CycleQuery(4));
    w.queries.push_back(gen.RandomAcyclicQuery(4, 2, 2, "E"));
    out.push_back(std::move(w));
  }
  {
    Workload w;
    w.name = "nr";
    w.sigma = MustParseDependencySet("B1(x,y), B2(y,z) -> B3(z,x)");
    w.queries.push_back(MustParseQuery("B1(x,y), B2(y,z), B3(z,x)"));
    w.queries.push_back(gen.CycleQuery(3, "B3"));
    out.push_back(std::move(w));
  }
  {
    Workload w;
    w.name = "linear";
    w.sigma = MustParseDependencySet("E(x,y) -> E(y,z)");
    w.queries.push_back(MustParseQuery("E(x,y), E(y,z), E(z,x)"));
    out.push_back(std::move(w));
  }
  {
    Workload w;
    w.name = "egd";
    w.sigma = MustParseDependencySet("R(a,b), R(a,c) -> b = c");
    w.queries.push_back(MustParseQuery("R(x,y), R(x,z), E(y,z)"));
    w.queries.push_back(MustParseQuery("E(a,b), E(b,c), E(c,a)"));
    out.push_back(std::move(w));
  }
  return out;
}

SemAcOptions SweepOptions(size_t threads = 1) {
  SemAcOptions options;
  options.subset_budget = 8000;
  options.exhaustive_budget = 8000;
  options.decide_threads = threads;
  return options;
}

/// Decision-cache insert/miss deltas of one decision; the post-abort
/// parity checks compare these against a fresh engine's first decision.
struct CacheDeltas {
  size_t inserts = 0;
  size_t misses = 0;
};

CacheDeltas Delta(const CacheStats& before, const CacheStats& after) {
  return {after.inserts - before.inserts, after.misses - before.misses};
}

void ExpectSameDeltas(const CacheDeltas& x, const CacheDeltas& y,
                      const std::string& context) {
  EXPECT_EQ(x.inserts, y.inserts) << context << " inserts";
  EXPECT_EQ(x.misses, y.misses) << context << " misses";
}

/// RAII: no test leaves the process-global registry armed.
struct DisarmOnExit {
  ~DisarmOnExit() { FailpointRegistry::Global().DisarmAll(); }
};

/// The tentpole invariant: abort at ANY failpoint leaves the engine
/// exactly as reusable as one that never saw the query. For every
/// failpoint × workload × query × fire-on-hit K, at 1 and 2 decide
/// threads: inject a cancel, then disarm and re-decide on the SAME
/// engine — result and decision-cache work must match a fresh engine's
/// first decision of that query. A cancel inside a search worker (its
/// oracle call, the candidate's chase) must abort the decision, not just
/// the worker's unit. At 2 threads one exception follows the token
/// contract: a worker's speculative hit can fire a worker-side failpoint
/// after another worker committed the official YES, and a YES committed
/// before the token fired stays valid — so a fired-but-not-aborted
/// decision must be exactly the fresh engine's YES. The deciding thread's
/// phase polls (decide.*) and the oracle's rewriting build must abort at
/// every thread count. Every failpoint that fired is added to
/// `fired_points`.
void CancelAtEveryFailpoint(size_t threads,
                            std::set<std::string>* fired_points) {
  DisarmOnExit cleanup;
  auto& reg = FailpointRegistry::Global();
  for (const Workload& w : Workloads()) {
    for (const ConjunctiveQuery& q : w.queries) {
      // The reference: a fresh engine's first decision of q and its
      // decision-cache work (deterministic, so computed once per query).
      Engine fresh(w.sigma, SweepOptions(threads));
      CacheStats fresh_before = fresh.Stats();
      SemAcResult cold = fresh.Decide(fresh.Prepare(q));
      CacheDeltas cold_delta = Delta(fresh_before, fresh.Stats());
      for (const char* point : kDecideFailpoints) {
        for (uint64_t fire_on : {uint64_t{1}, uint64_t{25}}) {
          std::string context = w.name + " / " + q.ToString() + " / " +
                                point + "@" + std::to_string(fire_on) +
                                " / " + std::to_string(threads) + "t";
          Engine engine(w.sigma, SweepOptions(threads));
          PreparedQuery pq = engine.Prepare(q);

          reg.Arm(point, FailpointAction::kCancel, fire_on);
          CancelToken token;
          SemAcResult injected = engine.Decide(pq, &token);
          bool fired = reg.Fired(point);
          reg.DisarmAll();
          if (fired) fired_points->insert(point);

          // A failpoint this decision never reached (or reached fewer
          // than K times) leaves the decision untouched; one that fired
          // must abort it gracefully — or, at 2 threads and in a
          // worker, have raced a committed official YES, which must be
          // the reference's.
          bool aborted = injected.strategy == Strategy::kDeadlineExceeded;
          if (fired && threads > 1 && !aborted && WorkerSide(point)) {
            EXPECT_EQ(injected.answer, SemAcAnswer::kYes) << context;
            ExpectSameDecision(cold, injected, context);
          } else if (fired) {
            ExpectAborted(injected);
          } else {
            EXPECT_FALSE(aborted) << context;
          }

          // Post-abort parity on the same engine vs a fresh engine.
          CacheStats before = engine.Stats();
          SemAcResult warm = engine.Decide(pq);
          CacheDeltas warm_delta = Delta(before, engine.Stats());

          ExpectSameDecision(cold, warm, context);
          if (fired && aborted) {
            // The aborted attempt cached nothing, so the re-decide
            // repeats the fresh engine's cache work exactly. (Without an
            // abort the first decide populated the cache and the warm
            // deltas are legitimately all-hit.)
            ExpectSameDeltas(warm_delta, cold_delta, context);
          }
        }
      }
    }
  }
}

TEST(FaultInjectionTest, CancelAtEveryFailpointLeavesEngineCoherent) {
  std::set<std::string> fired;
  CancelAtEveryFailpoint(1, &fired);
  CancelAtEveryFailpoint(2, &fired);
  // The workloads reach every site: a catalogue entry no workload fires
  // would pass the matrix above vacuously.
  for (const char* point : kDecideFailpoints) {
    EXPECT_EQ(fired.count(point), 1u) << point << " never fired";
  }
}

/// Simulated allocation failure: a std::bad_alloc thrown mid-pipeline
/// must never escape Decide, must surface as the same graceful abort, and
/// must leave the engine reusable. No CancelToken needed — the throw
/// itself is the interruption.
TEST(FaultInjectionTest, BadAllocAnywhereIsContainedAndRecoverable) {
  DisarmOnExit cleanup;
  auto& reg = FailpointRegistry::Global();
  for (const Workload& w : Workloads()) {
    const ConjunctiveQuery& q = w.queries.front();
    Engine fresh(w.sigma, SweepOptions());
    SemAcResult cold = fresh.Decide(fresh.Prepare(q));
    for (const char* point : kDecideFailpoints) {
      std::string context = w.name + " / bad_alloc @ " + point;
      Engine engine(w.sigma, SweepOptions());
      PreparedQuery pq = engine.Prepare(q);

      reg.Arm(point, FailpointAction::kBadAlloc);
      SemAcResult injected;
      EXPECT_NO_THROW(injected = engine.Decide(pq)) << context;
      bool fired = reg.Fired(point);
      reg.DisarmAll();
      if (fired) ExpectAborted(injected);

      ExpectSameDecision(cold, engine.Decide(pq), context);
    }
  }
}

/// The work-stealing path (decide_threads > 1): `parallel.steal` fires at
/// a worker's unit claim and `parallel.replay` at a session replay to a
/// stolen prefix — both inside worker threads. Cancel and bad_alloc there
/// must abort the WHOLE decision gracefully (the injection lands on the
/// decision's parent token / propagates out of the pool join), and the
/// same engine must afterwards decide like a fresh one. Cache deltas are
/// not compared here; CancelAtEveryFailpoint pins them at 1 and 2
/// threads.
TEST(FaultInjectionTest, ParallelStealFailpointsAbortAndRecover) {
  DisarmOnExit cleanup;
  auto& reg = FailpointRegistry::Global();
  SemAcOptions options = SweepOptions(4);
  for (const Workload& w : Workloads()) {
    for (const ConjunctiveQuery& q : w.queries) {
      Engine fresh(w.sigma, options);
      SemAcResult cold = fresh.Decide(fresh.Prepare(q));
      for (const char* point : {"parallel.steal", "parallel.replay"}) {
        for (FailpointAction action :
             {FailpointAction::kCancel, FailpointAction::kBadAlloc}) {
          for (uint64_t fire_on : {uint64_t{1}, uint64_t{25}}) {
            std::string context =
                w.name + " / " + q.ToString() + " / " + point +
                (action == FailpointAction::kCancel ? "=cancel@"
                                                    : "=bad_alloc@") +
                std::to_string(fire_on);
            Engine engine(w.sigma, options);
            PreparedQuery pq = engine.Prepare(q);

            reg.Arm(point, action, fire_on);
            CancelToken token;
            SemAcResult injected;
            EXPECT_NO_THROW(injected = engine.Decide(pq, &token)) << context;
            bool fired = reg.Fired(point);
            reg.DisarmAll();
            if (fired) {
              ExpectAborted(injected);
            } else {
              EXPECT_NE(injected.strategy, Strategy::kDeadlineExceeded)
                  << context;
            }

            ExpectSameDecision(cold, engine.Decide(pq), context);
          }
        }
      }
    }
  }
}

/// Environment-spec arming is how CI and operators reach the registry;
/// make sure a spec armed through the same parser the env path uses
/// actually aborts a decision.
TEST(FaultInjectionTest, SpecArmedFailpointFires) {
  DisarmOnExit cleanup;
  auto& reg = FailpointRegistry::Global();
  ASSERT_TRUE(reg.ArmFromSpec("decide.after_chase=cancel@1"));
  Generator gen(23);
  Engine engine(MustParseDependencySet("T(x,y) -> E(y,z), E(z,x)"),
                SweepOptions());
  CancelToken token;
  SemAcResult r = engine.Decide(engine.Prepare(gen.CycleQuery(4)), &token);
  ExpectAborted(r);
}

/// A cancel that cuts the witness search is not a budget truncation: the
/// ENUMERATE span reports the visits the search made before the token
/// fired, where it used to report the whole budget plus one.
TEST(FaultInjectionTest, CancelledSearchReportsTheVisitsItMade) {
  DisarmOnExit cleanup;
  auto& reg = FailpointRegistry::Global();
  obs::CollectingSink sink;
  SemAcOptions options = SweepOptions();
  options.trace_sink = &sink;
  // No witness exists within the sweep budgets: the exhaustive search
  // runs far past 100 visits.
  Engine engine(MustParseDependencySet("T(x,y) -> E(y,z), E(z,x)"), options);
  PreparedQuery pq =
      engine.Prepare(MustParseQuery("T(x0,x2), E(x2,x1), E(x0,x1)"));
  reg.Arm("exhaustive.visit", FailpointAction::kCancel, 100);
  CancelToken token;
  ExpectAborted(engine.Decide(pq, &token));
  ASSERT_TRUE(reg.Fired("exhaustive.visit"));
  std::vector<obs::DecisionTrace> traces = sink.Take();
  ASSERT_EQ(traces.size(), 1u);
  int64_t visits = -1;
  for (const obs::Span& span : traces[0].spans) {
    if (span.phase != obs::Phase::kEnumerate) continue;
    for (const obs::SpanCounter& c : span.counters) {
      if (std::string(c.name) == "visits") visits = c.value;
    }
  }
  // The 100th visit requests the cancel and its own poll observes it.
  EXPECT_EQ(visits, 100);
  EXPECT_LT(visits, static_cast<int64_t>(options.exhaustive_budget));
}

#endif  // SEMACYC_FAILPOINTS_ENABLED

}  // namespace
}  // namespace semacyc
