// Observability subsystem (core/obs.h): tracing parity, trace
// well-formedness, metrics JSON round-trip, batch metrics coherence, and
// decision-cache accounting.
#include "core/obs.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "core/canonical.h"
#include "core/homomorphism.h"
#include "core/parser.h"
#include "gen/generators.h"
#include "semacyc/engine.h"

namespace semacyc {
namespace {

/// The engine_test generator-family sweep, reused so tracing parity is
/// checked over the same query shapes the engine suites pin.
struct Workload {
  DependencySet sigma;
  std::vector<ConjunctiveQuery> queries;
};

Workload GuardedWorkload(uint64_t seed) {
  Workload w;
  w.sigma = MustParseDependencySet("T(x,y) -> E(y,z), E(z,x)");
  Generator gen(seed);
  w.queries.push_back(MustParseQuery("T(x,y), E(y,z), E(z,x)"));
  w.queries.push_back(gen.CycleQuery(3));
  w.queries.push_back(gen.CycleQuery(4));
  w.queries.push_back(gen.RandomAcyclicQuery(4, 2, 2, "E"));
  w.queries.push_back(MustParseQuery("E(a,b), E(b,c), E(a,d), E(d,c)"));
  w.queries.push_back(gen.AlphaNotBetaQuery(1));
  w.queries.push_back(gen.BergeTreeQuery(5));
  return w;
}

Workload NrWorkload(uint64_t seed) {
  Workload w;
  w.sigma = MustParseDependencySet("B1(x,y), B2(y,z) -> B3(z,x)");
  Generator gen(seed);
  w.queries.push_back(MustParseQuery("B1(x,y), B2(y,z), B3(z,x)"));
  w.queries.push_back(MustParseQuery("B1(x,y), B2(y,x)"));
  w.queries.push_back(gen.RandomAcyclicQuery(3, 2, 3, "B"));
  w.queries.push_back(gen.BetaNotGammaQuery(1));
  return w;
}

SemAcOptions SweepOptions() {
  SemAcOptions options;
  options.subset_budget = 8000;
  options.exhaustive_budget = 8000;
  return options;
}

/// Tracing must be a pure observer: decisions with a sink attached are
/// field-for-field identical to decisions without one (same engine state
/// progression too — both engines decide the same stream in the same
/// order).
TEST(ObsTest, TracingOnVsOffDecisionParity) {
  for (uint64_t seed : {3u, 17u}) {
    for (const Workload& w : {GuardedWorkload(seed), NrWorkload(seed)}) {
      obs::CollectingSink sink;
      SemAcOptions traced = SweepOptions();
      traced.trace_sink = &sink;
      Engine off(w.sigma, SweepOptions());
      Engine on(w.sigma, traced);
      for (const ConjunctiveQuery& q : w.queries) {
        SemAcResult a = off.Decide(off.Prepare(q));
        SemAcResult b = on.Decide(on.Prepare(q));
        EXPECT_EQ(a.answer, b.answer) << q.ToString();
        EXPECT_EQ(a.strategy, b.strategy) << q.ToString();
        EXPECT_EQ(a.exact, b.exact);
        EXPECT_EQ(a.candidates_tested, b.candidates_tested);
        EXPECT_EQ(a.small_query_bound, b.small_query_bound);
        EXPECT_EQ(a.witness.has_value(), b.witness.has_value());
        if (a.witness.has_value() && b.witness.has_value()) {
          EXPECT_TRUE(AreIsomorphic(*a.witness, *b.witness))
              << a.witness->ToString() << "\n  vs\n  "
              << b.witness->ToString();
        }
      }
      EXPECT_EQ(sink.size(), w.queries.size());
    }
  }
}

int64_t RootCounter(const obs::DecisionTrace& trace, const char* name) {
  for (const obs::SpanCounter& c : trace.spans[0].counters) {
    if (std::string(c.name) == name) return c.value;
  }
  return -1;
}

/// Structural invariants of every emitted trace: root-first span order,
/// valid preorder parents, monotone non-negative times, children nested
/// inside their parents, and root counters that reconcile with the
/// decision's own result and the engine's cache-stat deltas.
TEST(ObsTest, TraceWellFormednessAndCounterReconciliation) {
  Workload w = GuardedWorkload(7);
  obs::CollectingSink sink;
  SemAcOptions options = SweepOptions();
  options.trace_sink = &sink;
  Engine engine(w.sigma, options);
  for (const ConjunctiveQuery& q : w.queries) {
    CacheStats before = engine.Stats();
    obs::MetricsSnapshot metrics_before = engine.Metrics();
    PreparedQuery pq = engine.Prepare(q);
    SemAcResult result = engine.Decide(pq);
    CacheStats after = engine.Stats();
    obs::MetricsSnapshot metrics_after = engine.Metrics();
    std::vector<obs::DecisionTrace> traces = sink.Take();
    ASSERT_EQ(traces.size(), 1u);
    const obs::DecisionTrace& trace = traces[0];

    EXPECT_EQ(trace.query, q.ToString());
    EXPECT_EQ(trace.answer, ToString(result.answer));
    EXPECT_EQ(trace.strategy, ToString(result.strategy));
    ASSERT_FALSE(trace.spans.empty());
    EXPECT_EQ(trace.spans[0].phase, obs::Phase::kDecision);
    EXPECT_EQ(trace.spans[0].parent, -1);
    EXPECT_EQ(trace.total_ns, trace.spans[0].end_ns);
    for (size_t i = 0; i < trace.spans.size(); ++i) {
      const obs::Span& s = trace.spans[i];
      EXPECT_GE(s.start_ns, 0);
      EXPECT_LE(s.start_ns, s.end_ns);
      if (i == 0) continue;
      ASSERT_GE(s.parent, 0);
      ASSERT_LT(static_cast<size_t>(s.parent), i);  // preorder
      const obs::Span& parent = trace.spans[static_cast<size_t>(s.parent)];
      EXPECT_GE(s.start_ns, parent.start_ns);
      EXPECT_LE(s.end_ns, parent.end_ns);
    }

    EXPECT_EQ(RootCounter(trace, "candidates_tested"),
              static_cast<int64_t>(result.candidates_tested));
    EXPECT_EQ(RootCounter(trace, "decision_cache_hits"),
              static_cast<int64_t>(after.hits - before.hits));
    EXPECT_EQ(trace.cached, after.hits > before.hits);
    // The oracle-prefilter root counter is the registry's delta.
    EXPECT_EQ(RootCounter(trace, "oracle_prefiltered"),
              static_cast<int64_t>(
                  metrics_after.Count(obs::Counter::kOraclePrefiltered) -
                  metrics_before.Count(obs::Counter::kOraclePrefiltered)));

    // The decision's JSON renders and stays one line (the JSONL contract).
    std::string json = trace.ToJson();
    EXPECT_NE(json.find("\"spans\""), std::string::npos);
    EXPECT_EQ(json.find('\n'), std::string::npos);
  }
  // Repeat decisions are served from the decision cache and traced as
  // such: a root-only span tree flagged cached.
  PreparedQuery pq = engine.Prepare(w.queries[0]);
  engine.Decide(pq);
  std::vector<obs::DecisionTrace> traces = sink.Take();
  ASSERT_EQ(traces.size(), 1u);
  EXPECT_TRUE(traces[0].cached);
  EXPECT_EQ(traces[0].spans.size(), 1u);
}

/// Engine::Metrics() must reconcile with a batch of known size.
TEST(ObsTest, MetricsReconcileWithBatch) {
  Workload w = GuardedWorkload(23);
  Engine engine(w.sigma, SweepOptions());
  std::vector<PreparedQuery> batch;
  for (const ConjunctiveQuery& q : w.queries) {
    batch.push_back(engine.Prepare(q));
  }
  std::vector<SemAcResult> results = engine.DecideBatch(batch, 1);
  // Decide everything again: decision-cache hits, counted as cached.
  engine.DecideBatch(batch, 1);

  obs::MetricsSnapshot snap = engine.Metrics();
  EXPECT_EQ(snap.decisions_total, 2 * w.queries.size());
  // All isomorphism-distinct queries: every repeat is a cache hit.
  EXPECT_EQ(snap.decisions_cached, w.queries.size());

  std::map<std::string, uint64_t> by_strategy, by_answer;
  size_t candidates = 0;
  for (const SemAcResult& r : results) {
    by_strategy[ToString(r.strategy)] += 2;  // decided twice
    by_answer[ToString(r.answer)] += 2;
    candidates += r.candidates_tested;
  }
  uint64_t strategy_total = 0;
  for (const obs::MetricsSnapshot::StrategyRow& row : snap.strategies) {
    EXPECT_EQ(row.decisions, by_strategy[row.name]) << row.name;
    strategy_total += row.decisions;
    // Cached repeats skip the latency histogram; each strategy saw
    // exactly one uncached decision per distinct query routed to it.
    EXPECT_EQ(row.latency.count, by_strategy[row.name] / 2) << row.name;
  }
  EXPECT_EQ(strategy_total, snap.decisions_total);
  for (const auto& [name, count] : by_answer) {
    bool found = false;
    for (const auto& [answer, value] : snap.answers) {
      if (answer == name) {
        EXPECT_EQ(value, count) << name;
        found = true;
      }
    }
    EXPECT_TRUE(found) << name;
  }
  for (const auto& [name, value] : snap.counters) {
    if (name == "candidates_tested") {
      EXPECT_EQ(value, candidates);
    }
    if (name == "traces_emitted") {
      EXPECT_EQ(value, 0u);  // no sink attached
    }
  }
  // Phase histograms: every uncached decision recorded one DECISION
  // phase; cached ones record it too (acquisition latency).
  for (const obs::MetricsSnapshot::PhaseRow& row : snap.phases) {
    if (row.name == "DECISION") {
      EXPECT_EQ(row.latency.count, snap.decisions_total);
    }
    if (row.name == "SCHEMA_ANALYZE") {
      EXPECT_EQ(row.latency.count, 1u);  // one Engine construction
    }
  }
}

/// Metrics stay coherent under a concurrent 8-thread batch: totals equal
/// the batch size and per-strategy rows sum to the total (relaxed atomics
/// may interleave, but nothing is lost).
TEST(ObsTest, EightThreadBatchMetricsCoherence) {
  Workload guarded = GuardedWorkload(31);
  Workload nr = NrWorkload(31);
  Engine engine(guarded.sigma, SweepOptions());
  std::vector<PreparedQuery> batch;
  for (int rep = 0; rep < 4; ++rep) {
    for (const ConjunctiveQuery& q : guarded.queries) {
      batch.push_back(engine.Prepare(q));
    }
    for (const ConjunctiveQuery& q : nr.queries) {
      batch.push_back(engine.Prepare(q));
    }
  }
  std::vector<SemAcResult> results = engine.DecideBatch(batch, 8);
  ASSERT_EQ(results.size(), batch.size());

  obs::MetricsSnapshot snap = engine.Metrics();
  EXPECT_EQ(snap.decisions_total, batch.size());
  uint64_t strategy_total = 0;
  uint64_t latency_total = 0;
  for (const obs::MetricsSnapshot::StrategyRow& row : snap.strategies) {
    strategy_total += row.decisions;
    latency_total += row.latency.count;
    uint64_t bucket_total = 0;
    for (uint64_t b : row.latency.buckets) bucket_total += b;
    EXPECT_EQ(bucket_total, row.latency.count) << row.name;
  }
  EXPECT_EQ(strategy_total, snap.decisions_total);
  // Uncached + cached partition the batch (racing workers may decide an
  // isomorphic duplicate before its twin's insert lands, so `cached` is
  // at most, not exactly, the duplicate count).
  EXPECT_EQ(latency_total + snap.decisions_cached, snap.decisions_total);
  uint64_t answer_total = 0;
  for (const auto& [name, value] : snap.answers) answer_total += value;
  EXPECT_EQ(answer_total, snap.decisions_total);
}

}  // namespace
}  // namespace semacyc
