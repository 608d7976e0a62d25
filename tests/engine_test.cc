#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>

#include "core/canonical.h"
#include "core/homomorphism.h"
#include "core/hypergraph.h"
#include "core/parser.h"
#include "gen/generators.h"
#include "semacyc/engine.h"

namespace semacyc {
namespace {

/// Decision-cache budget for the answer-only tests (parity, concurrency,
/// batch): unbounded (0) by default; the tiny-cache ctest job sets
/// SEMACYC_TEST_CACHE_BYTES to a small byte budget so the same sweeps
/// exercise the eviction paths on every push. Tests that assert hit/miss
/// counters pin their own explicit budgets instead.
size_t EnvCacheBytes() {
  const char* env = std::getenv("SEMACYC_TEST_CACHE_BYTES");
  return env == nullptr ? 0
                        : static_cast<size_t>(std::strtoull(env, nullptr, 10));
}

/// Field-wise equality of two decisions (SemAcResult has no operator==).
/// Witnesses are compared up to isomorphism: the pipeline is deterministic
/// in structure, but witness variables are minted from a process-wide
/// fresh-name counter, so two runs of the same decision name them apart.
void ExpectSameDecision(const SemAcResult& a, const SemAcResult& b) {
  EXPECT_EQ(a.answer, b.answer);
  EXPECT_EQ(a.strategy, b.strategy);
  EXPECT_EQ(a.exact, b.exact);
  EXPECT_EQ(a.small_query_bound, b.small_query_bound);
  EXPECT_EQ(a.bound_justified, b.bound_justified);
  EXPECT_EQ(a.witness.has_value(), b.witness.has_value());
  if (a.witness.has_value() && b.witness.has_value()) {
    EXPECT_TRUE(AreIsomorphic(*a.witness, *b.witness))
        << a.witness->ToString() << "\n  vs\n  " << b.witness->ToString();
    EXPECT_EQ(a.witness_class, b.witness_class);
  }
}

/// The workload of the parity/reuse tests: one schema, queries drawn from
/// the generator families plus the paper's named examples.
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

Workload EgdWorkload(uint64_t) {
  Workload w;
  w.sigma = MustParseDependencySet("R(a,b), R(a,c) -> b = c");
  w.queries.push_back(MustParseQuery("R(x,y), R(x,z), E(y,z)"));
  w.queries.push_back(MustParseQuery("E(a,b), E(b,c), E(c,a)"));
  w.queries.push_back(MustParseQuery("R(x,y), E(y,y)"));
  return w;
}

SemAcOptions SweepOptions() {
  SemAcOptions options;
  options.subset_budget = 8000;
  options.exhaustive_budget = 8000;
  return options;
}

TEST(EngineTest, PreparedStateMatchesDirectAnalysis) {
  Workload w = GuardedWorkload(11);
  Engine engine(w.sigma, SweepOptions());
  for (const ConjunctiveQuery& q : w.queries) {
    PreparedQuery pq = engine.Prepare(q);
    EXPECT_EQ(pq.fingerprint(), CanonicalFingerprint(q));
    EXPECT_EQ(pq.classification().cls, ClassifyQuery(q).cls);
    bool justified = false;
    EXPECT_EQ(pq.small_query_bound(),
              SmallQueryBound(q, w.sigma, SchemaFacts::Compute(w.sigma),
                              &justified));
    EXPECT_EQ(pq.bound_justified(), justified);
  }
}

/// Engine-vs-free-function parity: a *warm* shared engine (every query
/// decided twice, in between other queries) answers exactly like the cold
/// one-shot free function.
TEST(EngineTest, ParitySweepAcrossGeneratorFamilies) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    for (Workload w :
         {GuardedWorkload(seed), NrWorkload(seed), EgdWorkload(seed)}) {
      SemAcOptions options = SweepOptions();
      Engine engine(w.sigma, options, EnvCacheBytes());
      std::vector<PreparedQuery> prepared;
      for (const auto& q : w.queries) prepared.push_back(engine.Prepare(q));
      // First pass warms every cache; second pass must not drift.
      std::vector<SemAcResult> warm;
      for (const auto& pq : prepared) warm.push_back(engine.Decide(pq));
      for (size_t i = 0; i < prepared.size(); ++i) {
        SemAcResult cold =
            DecideSemanticAcyclicity(w.queries[i], w.sigma, options);
        SemAcResult again = engine.Decide(prepared[i]);
        ExpectSameDecision(cold, warm[i]);
        ExpectSameDecision(cold, again);
        if (cold.answer == SemAcAnswer::kYes && cold.witness.has_value()) {
          EXPECT_EQ(EquivalentUnder(w.queries[i], *cold.witness, w.sigma),
                    Tri::kYes);
        }
      }
    }
  }
}

TEST(EngineTest, DecisionCacheServesRepeats) {
  Workload w = GuardedWorkload(5);
  Engine engine(w.sigma, SweepOptions());
  PreparedQuery pq = engine.Prepare(w.queries[0]);
  SemAcResult first = engine.Decide(pq);
  SemAcResult second = engine.Decide(pq);
  ExpectSameDecision(first, second);
  EXPECT_EQ(engine.Metrics().decisions_total, 2u);
  EXPECT_EQ(engine.Stats().hits, 1u);
}

/// The traffic fact the Engine's one cache rests on: a repeat of a query
/// and an α-renamed variant of it are both answered by the decision
/// cache, so chase(q, Σ) is built once across the three decisions.
TEST(EngineTest, DecisionCacheResolvesIsomorphicQueries) {
  Workload w = GuardedWorkload(6);
  Engine engine(w.sigma, SweepOptions());
  ConjunctiveQuery q = MustParseQuery("T(x,y), E(y,z), E(z,x)");
  ConjunctiveQuery renamed = MustParseQuery("T(u,v), E(v,w), E(w,u)");
  SemAcResult first = engine.Decide(q);
  SemAcResult hit = engine.Decide(renamed);
  EXPECT_EQ(engine.Stats().hits, 1u);
  EXPECT_EQ(hit.answer, SemAcAnswer::kYes);
  ExpectSameDecision(first, hit);
  ExpectSameDecision(first, engine.Decide(q));
  EXPECT_EQ(engine.Stats().hits, 2u);
  EXPECT_EQ(engine.Metrics()
                .phases[static_cast<size_t>(obs::Phase::kChase)]
                .latency.count,
            1u);
}

/// Each decision's oracle counts its prefilter rejections straight into
/// the engine's registry, so concurrent decisions are counted once each:
/// an 8-thread batch reports exactly the 1-thread total. (Per-decision
/// "counter now minus counter at acquisition" deltas would fold every
/// overlapping decision's traffic in again.) The 8 queries are pairwise
/// non-isomorphic (each tags x with its own unary predicate), so the
/// decision cache serves none of them and every decision runs.
TEST(EngineTest, OraclePrefilterCountExactUnderConcurrentBatch) {
  DependencySet sigma = MustParseDependencySet("B1(x,y), B2(y,z) -> B3(z,x).");
  auto prefiltered = [&](size_t threads) {
    // An unbounded cache (not EnvCacheBytes), like the other
    // counter-asserting engine tests.
    SemAcOptions options;
    options.subset_budget = 20000;
    options.exhaustive_budget = 20000;
    Engine engine(sigma, options);
    std::vector<PreparedQuery> batch;
    for (int i = 0; i < 8; ++i) {
      batch.push_back(engine.Prepare(MustParseQuery(
          "q() :- B1(x,y), B2(y,z), B3(z,w), B1(w,v), B3(v,x), D" +
          std::to_string(i) + "(x)")));
    }
    engine.DecideBatch(batch, threads);
    EXPECT_EQ(engine.Stats().hits, 0u);
    return engine.Metrics().Count(obs::Counter::kOraclePrefiltered);
  };
  uint64_t serial = prefiltered(1);
  ASSERT_GT(serial, 0u);
  EXPECT_EQ(prefiltered(8), serial);
}

/// SemAcOptions::deadline_ms bounds a decision called with a null token
/// exactly as it bounds one with a token of its own (the --batch line path
/// passes null). Near-unbounded budgets make the decision run for seconds
/// without the deadline.
TEST(EngineTest, DeadlineMsAppliesWithoutAToken) {
  SemAcOptions options;
  options.subset_budget = 500000000;
  options.exhaustive_budget = 500000000;
  options.deadline_ms = 1;
  Engine engine(MustParseDependencySet("T(x,y) -> E(y,z), E(z,x)"), options);
  PreparedQuery pq = engine.Prepare(MustParseQuery("T(x,y), E(y,z), E(x,z)"));
  SemAcResult r = engine.Decide(pq, nullptr);
  EXPECT_EQ(r.strategy, Strategy::kDeadlineExceeded);
  EXPECT_EQ(r.answer, SemAcAnswer::kUnknown);
}

/// Concurrent decisions on one shared Engine are deterministic: every
/// thread sees the same answers the sequential reference produced.
TEST(EngineTest, ConcurrentDecideIsDeterministic) {
  Workload w = GuardedWorkload(13);
  SemAcOptions options = SweepOptions();
  std::vector<SemAcResult> reference;
  {
    Engine engine(w.sigma, options);
    for (const auto& q : w.queries) reference.push_back(engine.Decide(q));
  }

  Engine shared(w.sigma, options, EnvCacheBytes());
  std::vector<PreparedQuery> prepared;
  for (const auto& q : w.queries) prepared.push_back(shared.Prepare(q));

  constexpr size_t kThreads = 8;
  std::vector<std::vector<SemAcResult>> per_thread(kThreads);
  std::vector<std::thread> pool;
  for (size_t t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t]() {
      // Different starting offsets so threads race on different queries.
      for (size_t k = 0; k < prepared.size(); ++k) {
        size_t i = (k + t) % prepared.size();
        per_thread[t].push_back(shared.Decide(prepared[i]));
      }
    });
  }
  for (auto& t : pool) t.join();

  for (size_t t = 0; t < kThreads; ++t) {
    for (size_t k = 0; k < prepared.size(); ++k) {
      size_t i = (k + t) % prepared.size();
      ExpectSameDecision(reference[i], per_thread[t][k]);
    }
  }
}

TEST(EngineTest, DecideBatchMatchesSequentialAnyThreadCount) {
  Workload w = NrWorkload(21);
  SemAcOptions options = SweepOptions();
  Engine engine(w.sigma, options, EnvCacheBytes());
  std::vector<PreparedQuery> batch;
  for (int rep = 0; rep < 3; ++rep) {
    for (const auto& q : w.queries) batch.push_back(engine.Prepare(q));
  }
  std::vector<SemAcResult> sequential = engine.DecideBatch(batch, 1);
  std::vector<SemAcResult> parallel = engine.DecideBatch(batch, 4);
  ASSERT_EQ(sequential.size(), batch.size());
  ASSERT_EQ(parallel.size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    ExpectSameDecision(sequential[i], parallel[i]);
  }
}

TEST(EngineTest, EvalRunsYannakakisOverTheWitness) {
  MusicStoreWorkload w = MakeMusicStoreWorkload(3, 6, 6, 3, 0.5);
  Engine engine(w.sigma);
  PreparedQuery pq = engine.Prepare(w.q);
  EvalOutcome out = engine.Eval(pq, w.database);
  ASSERT_TRUE(out.status.ok()) << out.status.message;
  ASSERT_TRUE(out.reformulated);
  EXPECT_TRUE(IsAcyclic(out.witness));
  // Same answers as the generic evaluator on the original query.
  auto generic = EvaluateQuery(w.q, w.database);
  EXPECT_EQ(out.evaluation.answers.size(), generic.size());
  // Repeat Eval is served off the decision cache.
  EvalOutcome again = engine.Eval(pq, w.database);
  ASSERT_TRUE(again.reformulated);
  EXPECT_EQ(again.evaluation.answers.size(), out.evaluation.answers.size());
  EXPECT_GE(engine.Stats().hits, 1u);
}

TEST(EngineTest, EvalReportsWhyWithoutReformulation) {
  DependencySet empty;
  Engine engine(empty, SweepOptions());
  Generator gen(4);
  PreparedQuery pq = engine.Prepare(gen.CycleQuery(4));
  Instance db;
  EvalOutcome out = engine.Eval(pq, db);
  EXPECT_FALSE(out.reformulated);
  EXPECT_EQ(out.status.code, Status::Code::kNotFound);
  EXPECT_FALSE(out.status.message.empty());
}

TEST(EngineTest, UnsafeQueryBuiltInCodeGetsNoExactAnswer) {
  // q(w) :- E(x,y), E(y,z), E(z,x): ParseQuery rejects the head, but a
  // query built in code reaches the engine. With Σ = ∅ the triangle core
  // would decide it to an exact NO (strategy core).
  const ConjunctiveQuery q({Term::Variable("w")},
                           *ParseAtoms("E(x,y), E(y,z), E(z,x)"));
  ASSERT_EQ(q.UnboundHeadVariable(), Term::Variable("w"));
  Engine engine(DependencySet{});
  const PreparedQuery pq = engine.Prepare(q);
  for (int round = 0; round < 2; ++round) {
    SemAcResult r = engine.Decide(pq);
    EXPECT_EQ(r.answer, SemAcAnswer::kUnknown);
    EXPECT_FALSE(r.exact);
    EXPECT_FALSE(r.witness.has_value());
  }
  EXPECT_EQ(engine.Stats().entries, 0u);  // never cached
  EXPECT_EQ(engine.Stats().hits, 0u);
  ApproximateOutcome approx = engine.Approximate(pq);
  EXPECT_EQ(approx.status.code, Status::Code::kUnsupported);
  EXPECT_NE(approx.status.message.find("'w'"), std::string::npos)
      << approx.status.message;
  for (EvalOptions::Path path :
       {EvalOptions::Path::kColumnar, EvalOptions::Path::kRow}) {
    EvalOptions opts;
    opts.path = path;
    EvalOutcome eval = engine.Eval(pq, Instance{}, opts);
    EXPECT_FALSE(eval.reformulated);
    EXPECT_EQ(eval.status.code, Status::Code::kUnsupported);
    EXPECT_NE(eval.status.message.find("'w'"), std::string::npos)
        << eval.status.message;
  }
  // The same body with a bound head still decides exactly.
  const ConjunctiveQuery safe({Term::Variable("x")}, q.body());
  EXPECT_FALSE(safe.UnboundHeadVariable().has_value());
  SemAcResult r = engine.Decide(safe);
  EXPECT_EQ(r.answer, SemAcAnswer::kNo);
  EXPECT_TRUE(r.exact);
}

TEST(EngineTest, ApproximateReportsUnsupportedOnConstants) {
  DependencySet empty;
  Engine engine(empty);
  PreparedQuery pq = engine.Prepare(MustParseQuery("R(x,'a'), R(y,x)"));
  ApproximateOutcome out = engine.Approximate(pq);
  EXPECT_EQ(out.status.code, Status::Code::kUnsupported);
  // The free-function wrapper maps this to its historical nullopt.
  EXPECT_FALSE(
      AcyclicApproximation(pq.query(), empty, SemAcOptions{}).has_value());
}

TEST(EngineTest, ApproximateParityWithFreeFunction) {
  Generator gen(9);
  ConjunctiveQuery q = gen.CliqueQuery(3);
  DependencySet sigma = MustParseDependencySet("E(x,y) -> E(y,x)");
  SemAcOptions options = SweepOptions();
  Engine engine(sigma, options);
  ApproximateOutcome engine_out = engine.Approximate(engine.Prepare(q));
  ASSERT_TRUE(engine_out.status.ok());
  std::optional<ApproximationResult> free_out =
      AcyclicApproximation(q, sigma, options);
  ASSERT_TRUE(free_out.has_value());
  EXPECT_EQ(engine_out.result.approximation, free_out->approximation);
  EXPECT_EQ(engine_out.result.is_exact, free_out->is_exact);
}

TEST(EngineTest, DecideUcqSurvivesEmptyDisjuncts) {
  DependencySet sigma = MustParseDependencySet("R(u,v), R(u,w) -> v = w");
  ConjunctiveQuery unsat =
      MustParseQuery("R(x,'a'), R(x,'b'), E(x,y), E(y,z), E(z,x)");
  ConjunctiveQuery fine = MustParseQuery("E(x,y), R(x,x)");
  Engine engine(sigma, SweepOptions());

  // A failing-chase disjunct alongside a satisfiable one: the failing one
  // is contained in everything, hence redundant; the witness is the rest.
  UcqSemAcResult both = engine.DecideUcq(UnionQuery({unsat, fine}));
  EXPECT_EQ(both.answer, SemAcAnswer::kYes);
  ASSERT_TRUE(both.witness.has_value());
  for (const ConjunctiveQuery& d : both.witness->disjuncts()) {
    EXPECT_TRUE(IsAcyclic(d));
  }

  // A UCQ that is empty under Σ outright: YES with no witness to
  // assemble — the path that used to dereference a missing optional.
  UcqSemAcResult all_empty = engine.DecideUcq(UnionQuery({unsat}));
  EXPECT_EQ(all_empty.answer, SemAcAnswer::kYes);
  EXPECT_FALSE(all_empty.witness.has_value());

  // Free-function parity.
  UcqSemAcResult wrapped = DecideUcqSemanticAcyclicity(
      UnionQuery({unsat, fine}), sigma, SweepOptions());
  EXPECT_EQ(wrapped.answer, both.answer);
}

/// DecideUcq chases each disjunct once: the redundancy pass builds the
/// chase and the kept disjunct's decision reuses it, reaching the same
/// decision a standalone Decide does.
TEST(EngineTest, DecideUcqChasesEachDisjunctOnce) {
  DependencySet sigma = MustParseDependencySet("T(x,y) -> E(y,z), E(z,x)");
  UnionQuery Q({MustParseQuery("q(a) :- E(a,b), E(b,c), E(c,a)"),
                MustParseQuery("q(a) :- F(a,b), F(b,c), F(c,a)")});
  Engine engine(sigma, SweepOptions());
  UcqSemAcResult result = engine.DecideUcq(Q);
  EXPECT_EQ(engine.Metrics()
                .phases[static_cast<size_t>(obs::Phase::kChase)]
                .latency.count,
            2u);
  Engine fresh(sigma, SweepOptions());
  for (size_t i = 0; i < Q.disjuncts().size(); ++i) {
    ASSERT_FALSE(result.disjuncts[i].redundant) << i;
    ExpectSameDecision(fresh.Decide(Q.disjuncts()[i]),
                       result.disjuncts[i].decision);
  }
}

/// deadline_ms bounds the whole UCQ decision: the redundancy pass's chases
/// and containment checks run under the deadline too, so a union whose
/// first disjunct has a non-terminating chase aborts promptly instead of
/// running each chase to its step budget.
TEST(EngineTest, DecideUcqHonoursDeadlineMs) {
  SemAcOptions options;
  options.deadline_ms = 1;
  Engine engine(MustParseDependencySet("E(x,y) -> F(y,z). F(x,y) -> E(y,z)."),
                options);
  UnionQuery Q({MustParseQuery("E(x,y), E(y,z), E(z,x)"),
                MustParseQuery("E(x,y), E(y,x)")});
  auto start = std::chrono::steady_clock::now();
  UcqSemAcResult result = engine.DecideUcq(Q);
  auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(result.answer, SemAcAnswer::kUnknown);
  EXPECT_FALSE(result.exact);
  EXPECT_LT(elapsed, std::chrono::seconds(1));
}

TEST(EngineTest, BoundJustificationIsSurfaced) {
  ConjunctiveQuery q = MustParseQuery("E(x,y), E(y,z), E(z,x)");
  // Guarded: justified. Full recursive: heuristic.
  SemAcResult guarded = DecideSemanticAcyclicity(
      q, MustParseDependencySet("E(x,y) -> E(y,w)"), SweepOptions());
  EXPECT_TRUE(guarded.bound_justified);
  SemAcResult recursive = DecideSemanticAcyclicity(
      q, MustParseDependencySet("E(x,y), E(y,z) -> E(x,z)"), SweepOptions());
  EXPECT_FALSE(recursive.bound_justified);
}

TEST(EngineTest, StrategyToStringKeepsHistoricalNames) {
  EXPECT_STREQ(ToString(Strategy::kAlreadyAcyclic), "already-acyclic");
  EXPECT_STREQ(ToString(Strategy::kCore), "core");
  EXPECT_STREQ(ToString(Strategy::kFailingChase), "failing-chase");
  EXPECT_STREQ(ToString(Strategy::kChaseCompaction), "chase-compaction");
  EXPECT_STREQ(ToString(Strategy::kImages), "images");
  EXPECT_STREQ(ToString(Strategy::kSubsets), "subsets");
  EXPECT_STREQ(ToString(Strategy::kExhaustive), "exhaustive");
  EXPECT_STREQ(ToString(Strategy::kBudgetExhausted), "budget-exhausted");
}

/// Decision parity under α-renaming without the decision cache: on two
/// fresh engines the variant runs the whole pipeline on its own chase and
/// reaches the same answer and strategy.
TEST(EngineTest, RenamedQueryDecidesIdenticallyWithoutDecisionCache) {
  DependencySet sigma = MustParseDependencySet("T(x,y) -> E(y,z), E(z,x)");
  ConjunctiveQuery q = MustParseQuery("q(a) :- E(a,b), E(b,c), E(c,a)");
  ConjunctiveQuery renamed = MustParseQuery("q(u) :- E(u,v), E(v,w), E(w,u)");
  Engine engine(sigma, SweepOptions());
  Engine other(sigma, SweepOptions());
  SemAcResult first = engine.Decide(q);
  SemAcResult second = other.Decide(renamed);
  EXPECT_EQ(other.Stats().hits, 0u);
  EXPECT_EQ(first.answer, second.answer);
  EXPECT_EQ(first.strategy, second.strategy);
}

/// Eviction correctness: answers under about-one-entry and tiny byte
/// budgets are identical to unbounded-cache answers (and to the free
/// function) across the generator families — eviction only ever costs
/// recomputation, never changes a result.
TEST(EngineTest, EvictionParitySweepAcrossGeneratorFamilies) {
  for (uint64_t seed : {1u, 3u}) {
    for (Workload w :
         {GuardedWorkload(seed), NrWorkload(seed), EgdWorkload(seed)}) {
      SemAcOptions options = SweepOptions();
      std::vector<SemAcResult> reference;
      CacheStats full;
      {
        Engine unbounded(w.sigma, options);
        for (const auto& q : w.queries) {
          reference.push_back(unbounded.Decide(q));
        }
        full = unbounded.Stats();
      }

      // one_entry: the budget is the mean unbounded entry, so an insert
      // mostly evicts the previous entry and a larger-than-mean entry is
      // declined. tiny_bytes: below almost every entry.
      const size_t one_entry = full.bytes / std::max<size_t>(1, full.entries);
      const size_t tiny_bytes = 512;

      for (size_t budget : {one_entry, tiny_bytes}) {
        Engine engine(w.sigma, options, budget);
        // Two passes so the second runs against whatever survived
        // eviction in the first.
        for (int pass = 0; pass < 2; ++pass) {
          for (size_t i = 0; i < w.queries.size(); ++i) {
            ExpectSameDecision(reference[i], engine.Decide(w.queries[i]));
          }
        }
      }
    }
  }
}

/// CacheStats accounting through Engine::Stats(): hits/misses/entries on
/// the unbounded configuration, evictions under a tiny byte budget, and
/// TrimCaches() as explicit pressure relief.
TEST(EngineTest, CacheStatsAccountingAndTrim) {
  Workload w = GuardedWorkload(23);
  SemAcOptions options = SweepOptions();

  Engine engine(w.sigma, options);
  for (int pass = 0; pass < 2; ++pass) {
    for (const auto& q : w.queries) engine.Decide(q);
  }
  CacheStats stats = engine.Stats();
  EXPECT_GT(stats.entries, 0u);
  EXPECT_GT(stats.bytes, 0u);
  EXPECT_GT(stats.hits, 0u);  // second pass served from cache
  EXPECT_EQ(stats.misses, stats.inserts);
  EXPECT_EQ(stats.evictions, 0u);  // unbounded: nothing evicts
  EXPECT_EQ(stats.max_bytes, 0u);

  // Trim drops every resident entry; deciding afterwards still works.
  engine.TrimCaches();
  CacheStats trimmed = engine.Stats();
  EXPECT_EQ(trimmed.entries, 0u);
  EXPECT_EQ(trimmed.bytes, 0u);
  EXPECT_EQ(trimmed.evictions, stats.entries);
  for (size_t i = 0; i < w.queries.size(); ++i) {
    engine.Decide(w.queries[i]);
  }

  // A tiny byte budget on the same workload must evict.
  Engine bounded(w.sigma, options, 256);
  for (int pass = 0; pass < 2; ++pass) {
    for (const auto& q : w.queries) bounded.Decide(q);
  }
  CacheStats bounded_stats = bounded.Stats();
  EXPECT_GT(bounded_stats.evictions, 0u);
  EXPECT_EQ(bounded_stats.max_bytes, 256u);
  EXPECT_LE(bounded_stats.bytes, bounded_stats.max_bytes);
}

/// The byte budget is exact: a budget equal to what an unbounded engine
/// holds after deciding 16 distinct cycles keeps all 16, so a second pass
/// is served entirely from the cache and nothing is evicted.
TEST(EngineTest, ByteBudgetHoldsWhatItWasSizedFor) {
  DependencySet sigma = MustParseDependencySet("E(x,y) -> F(y,z).");
  std::vector<ConjunctiveQuery> cycles;
  for (int i = 0; i < 16; ++i) {
    cycles.push_back(MustParseQuery("E(x,y), E(y,z), C" + std::to_string(i) +
                                    "(z,x)"));
  }
  Engine unbounded(sigma, SweepOptions());
  for (const ConjunctiveQuery& q : cycles) unbounded.Decide(q);
  ASSERT_EQ(unbounded.Stats().entries, cycles.size());

  Engine engine(sigma, SweepOptions(), unbounded.Stats().bytes);
  for (int pass = 0; pass < 2; ++pass) {
    for (const ConjunctiveQuery& q : cycles) engine.Decide(q);
  }
  CacheStats stats = engine.Stats();
  EXPECT_EQ(stats.entries, cycles.size());
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.hits, cycles.size());
}

/// Every decision builds its own oracle, so every decision that needs a
/// UCQ rewriting records the REWRITE phase — the repeat too, once the
/// decision cache is emptied. The linear, not weakly acyclic
/// E(x,y) -> E(y,z) makes the triangle's oracle build a complete
/// rewriting; under the weakly acyclic E(x,y) -> F(y,z) the chase is
/// exact and none is built.
TEST(EngineTest, EveryDecisionRecordsItsRewriteBuild) {
  ConjunctiveQuery triangle = MustParseQuery("E(x,y), E(y,z), E(z,x)");
  auto rewrites = [&](const char* sigma) {
    Engine engine(MustParseDependencySet(sigma), SweepOptions());
    engine.Decide(triangle);
    engine.TrimCaches();
    engine.Decide(triangle);
    return engine.Metrics()
        .phases[static_cast<size_t>(obs::Phase::kRewrite)]
        .latency.count;
  };
  EXPECT_EQ(rewrites("E(x,y) -> E(y,z)"), 2u);
  EXPECT_EQ(rewrites("E(x,y) -> F(y,z)"), 0u);
}

/// Eviction under contention: 8 threads over one engine whose decision
/// cache runs a tiny byte budget; every thread must still observe the
/// sequential reference answers (eviction may only cost recomputation).
TEST(EngineTest, ConcurrentDecideDeterministicUnderEviction) {
  Workload w = GuardedWorkload(29);
  SemAcOptions options = SweepOptions();
  std::vector<SemAcResult> reference;
  {
    Engine engine(w.sigma, options);
    for (const auto& q : w.queries) reference.push_back(engine.Decide(q));
  }

  Engine shared(w.sigma, options, 512);
  std::vector<PreparedQuery> prepared;
  for (const auto& q : w.queries) prepared.push_back(shared.Prepare(q));

  constexpr size_t kThreads = 8;
  std::vector<std::vector<SemAcResult>> per_thread(kThreads);
  std::vector<std::thread> pool;
  for (size_t t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t]() {
      for (size_t k = 0; k < prepared.size(); ++k) {
        size_t i = (k + t) % prepared.size();
        per_thread[t].push_back(shared.Decide(prepared[i]));
      }
    });
  }
  for (auto& t : pool) t.join();

  for (size_t t = 0; t < kThreads; ++t) {
    for (size_t k = 0; k < prepared.size(); ++k) {
      size_t i = (k + t) % prepared.size();
      ExpectSameDecision(reference[i], per_thread[t][k]);
    }
  }
}

/// The join tree eval/yannakakis runs on: running intersection holds and
/// evaluation through it matches evaluation that builds its own tree.
TEST(EngineTest, JoinTreeViewValidatesAndEvaluates) {
  Generator gen(17);
  for (int i = 0; i < 10; ++i) {
    ConjunctiveQuery q = gen.RandomAcyclicQuery(6, 3, 3, "V");
    std::optional<JoinTreeView> view =
        BuildJoinTreeView(q.body(), ConnectingTerms::kVariables);
    ASSERT_TRUE(view.has_value());
    EXPECT_TRUE(view->Validate(q.Variables()));

    Instance db = gen.RandomDatabase(
        {Predicate::Get("V0", 3), Predicate::Get("V1", 3),
         Predicate::Get("V2", 3)},
        40, 5);
    YannakakisResult via_view = EvaluateAcyclic(q, *view, db);
    YannakakisResult direct = EvaluateAcyclic(q, db);
    ASSERT_TRUE(via_view.ok);
    EXPECT_EQ(via_view.answers, direct.answers);
  }
}

}  // namespace
}  // namespace semacyc
