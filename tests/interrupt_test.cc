#include <gtest/gtest.h>

#include <chrono>
#include <new>
#include <thread>

#include "core/canonical.h"
#include "core/interrupt.h"
#include "core/parser.h"
#include "gen/generators.h"
#include "semacyc/engine.h"

namespace semacyc {
namespace {

// ---------------------------------------------------------------------------
// CancelToken unit behavior.
// ---------------------------------------------------------------------------

TEST(CancelTokenTest, DefaultTokenNeverTrips) {
  CancelToken token;
  for (int i = 0; i < 500; ++i) EXPECT_FALSE(token.Poll());
  EXPECT_FALSE(token.PollNow());
  EXPECT_FALSE(token.triggered());
  EXPECT_FALSE(token.has_deadline());
}

TEST(CancelTokenTest, RequestCancelIsSticky) {
  CancelToken token;
  EXPECT_FALSE(token.Poll());
  token.RequestCancel();
  EXPECT_TRUE(token.Poll());
  EXPECT_TRUE(token.triggered());
  // Tripped stays tripped: every later poll along the unwind agrees.
  EXPECT_TRUE(token.Poll());
  EXPECT_TRUE(token.PollNow());
}

TEST(CancelTokenTest, PollNowTripsOnElapsedDeadline) {
  CancelToken token;
  token.SetDeadline(CancelToken::Clock::now() -
                    std::chrono::milliseconds(1));
  EXPECT_TRUE(token.PollNow());
  EXPECT_TRUE(token.triggered());
}

TEST(CancelTokenTest, AmortizedPollTripsWithinOneStride) {
  CancelToken token;
  token.SetDeadline(CancelToken::Clock::now() -
                    std::chrono::milliseconds(1));
  // Poll() reads the clock only every kPollStride calls, so the trip may
  // lag — but never by more than one stride.
  uint32_t polls = 0;
  while (!token.Poll()) {
    ASSERT_LT(++polls, CancelToken::kPollStride + 1);
  }
  EXPECT_TRUE(token.triggered());
}

TEST(CancelTokenTest, SetDeadlineOnlyTightens) {
  CancelToken token;
  token.SetDeadlineInMs(5);
  auto first = token.deadline();
  token.SetDeadlineInMs(10000);  // later: must not loosen
  EXPECT_EQ(token.deadline(), first);
  auto earlier = CancelToken::Clock::now() - std::chrono::milliseconds(1);
  token.SetDeadline(earlier);  // earlier: must tighten
  EXPECT_EQ(token.deadline(), earlier);
}

TEST(CancelTokenTest, NonPositiveMsIsNoop) {
  CancelToken token;
  token.SetDeadlineInMs(0);
  token.SetDeadlineInMs(-7);
  EXPECT_FALSE(token.has_deadline());
}

TEST(CancelTokenTest, ChildObservesParentCancel) {
  CancelToken parent;
  CancelToken child;
  child.SetParent(&parent);
  EXPECT_FALSE(child.PollNow());
  parent.RequestCancel();
  EXPECT_TRUE(child.PollNow());
  EXPECT_TRUE(child.triggered());
  // The parent itself was only requested, not polled.
  EXPECT_FALSE(parent.triggered());
}

TEST(CancelTokenTest, GrandchildObservesGrandparentCancel) {
  // The server's chain: drain token -> request token -> search worker.
  CancelToken grandparent;
  CancelToken parent;
  parent.SetParent(&grandparent);
  CancelToken child;
  child.SetParent(&parent);
  EXPECT_FALSE(child.PollNow());
  EXPECT_FALSE(child.Poll());
  grandparent.RequestCancel();
  EXPECT_TRUE(child.Poll());  // the amortized path checks the chain too
  EXPECT_TRUE(child.triggered());
  EXPECT_FALSE(parent.triggered());
  EXPECT_TRUE(parent.PollNow());
}

TEST(CancelTokenTest, SetParentFoldsParentDeadline) {
  CancelToken parent;
  parent.SetDeadlineInMs(5);
  CancelToken child;
  child.SetParent(&parent);
  EXPECT_TRUE(child.has_deadline());
  EXPECT_EQ(child.deadline(), parent.deadline());
  // A tighter own deadline wins over the inherited one.
  CancelToken tight;
  auto past = CancelToken::Clock::now() - std::chrono::milliseconds(1);
  tight.SetDeadline(past);
  tight.SetParent(&parent);
  EXPECT_EQ(tight.deadline(), past);
}

TEST(CancelTokenTest, CancelFromAnotherThreadTrips) {
  CancelToken token;
  std::thread canceller([&token]() { token.RequestCancel(); });
  canceller.join();
  EXPECT_TRUE(token.PollNow());
}

// ---------------------------------------------------------------------------
// FailpointRegistry unit behavior. The registry is process-global, so each
// test disarms what it armed. These tests drive the registry directly and
// hold with failpoints compiled in or out.
// ---------------------------------------------------------------------------

TEST(FailpointRegistryTest, FiresOnKthHitOnly) {
  auto& reg = FailpointRegistry::Global();
  reg.Arm("test.kth", FailpointAction::kCancel, 3);
  CancelToken token;
  reg.Hit("test.kth", &token);
  reg.Hit("test.kth", &token);
  EXPECT_FALSE(token.PollNow());
  EXPECT_FALSE(reg.Fired("test.kth"));
  reg.Hit("test.kth", &token);
  EXPECT_TRUE(token.PollNow());
  EXPECT_TRUE(reg.Fired("test.kth"));
  EXPECT_EQ(reg.HitCount("test.kth"), 3u);
  // Exactly the K-th hit acts; later hits are counted but do not re-fire.
  CancelToken fresh;
  reg.Hit("test.kth", &fresh);
  EXPECT_FALSE(fresh.PollNow());
  EXPECT_EQ(reg.HitCount("test.kth"), 4u);
  reg.DisarmAll();
}

TEST(FailpointRegistryTest, DisarmedPointIsInert) {
  auto& reg = FailpointRegistry::Global();
  reg.Arm("test.inert", FailpointAction::kCancel);
  reg.Disarm("test.inert");
  CancelToken token;
  reg.Hit("test.inert", &token);
  EXPECT_FALSE(token.PollNow());
  EXPECT_EQ(reg.HitCount("test.inert"), 0u);
}

TEST(FailpointRegistryTest, BadAllocActionThrows) {
  auto& reg = FailpointRegistry::Global();
  reg.Arm("test.oom", FailpointAction::kBadAlloc);
  EXPECT_THROW(reg.Hit("test.oom", nullptr), std::bad_alloc);
  reg.DisarmAll();
}

TEST(FailpointRegistryTest, ArmFromSpecParsesWellFormedEntries) {
  auto& reg = FailpointRegistry::Global();
  EXPECT_TRUE(reg.ArmFromSpec("a.one=cancel@2,b.two=bad_alloc"));
  EXPECT_EQ(reg.ArmedNames().size(), 2u);
  CancelToken token;
  reg.Hit("a.one", &token);
  EXPECT_FALSE(token.PollNow());
  reg.Hit("a.one", &token);
  EXPECT_TRUE(token.PollNow());
  reg.DisarmAll();
}

TEST(FailpointRegistryTest, ArmFromSpecRejectsMalformedEntries) {
  auto& reg = FailpointRegistry::Global();
  EXPECT_FALSE(reg.ArmFromSpec("=cancel"));
  EXPECT_FALSE(reg.ArmFromSpec("x"));
  EXPECT_FALSE(reg.ArmFromSpec("x=nosuchaction"));
  EXPECT_FALSE(reg.ArmFromSpec("c.three=flip"));
  EXPECT_FALSE(reg.ArmFromSpec("x=cancel@"));
  EXPECT_FALSE(reg.ArmFromSpec("x=cancel@12q"));
  // Valid entries before a malformed one stay armed.
  EXPECT_FALSE(reg.ArmFromSpec("ok.point=cancel,broken"));
  EXPECT_EQ(reg.ArmedNames().size(), 1u);
  EXPECT_EQ(reg.ArmedNames()[0], "ok.point");
  reg.DisarmAll();
}

// ---------------------------------------------------------------------------
// Engine-level deadline / cancellation behavior.
// ---------------------------------------------------------------------------

/// Field-wise decision equality up to witness isomorphism (witness
/// variables are minted from a process-wide counter).
void ExpectSameDecision(const SemAcResult& a, const SemAcResult& b) {
  EXPECT_EQ(a.answer, b.answer);
  EXPECT_EQ(a.strategy, b.strategy);
  EXPECT_EQ(a.exact, b.exact);
  EXPECT_EQ(a.witness.has_value(), b.witness.has_value());
  if (a.witness.has_value() && b.witness.has_value()) {
    EXPECT_TRUE(AreIsomorphic(*a.witness, *b.witness));
  }
}

void ExpectAborted(const SemAcResult& r) {
  EXPECT_EQ(r.answer, SemAcAnswer::kUnknown);
  EXPECT_EQ(r.strategy, Strategy::kDeadlineExceeded);
  EXPECT_FALSE(r.exact);
  EXPECT_FALSE(r.witness.has_value());
}

DependencySet GuardedSigma() {
  return MustParseDependencySet("T(x,y) -> E(y,z), E(z,x)");
}

SemAcOptions SweepOptions() {
  SemAcOptions options;
  options.subset_budget = 8000;
  options.exhaustive_budget = 8000;
  return options;
}

TEST(EngineDeadlineTest, PreCancelledTokenAbortsAndEngineStaysReusable) {
  Generator gen(7);
  ConjunctiveQuery q = gen.CycleQuery(4);
  Engine engine(GuardedSigma(), SweepOptions());
  PreparedQuery pq = engine.Prepare(q);

  CancelToken cancelled;
  cancelled.RequestCancel();
  ExpectAborted(engine.Decide(pq, &cancelled));

  // An aborted decision is never cached, so the same engine now answers
  // exactly like one that never saw it — and its re-decide does the same
  // cache work as a fresh engine's first.
  CacheStats before = engine.Stats();
  SemAcResult warm = engine.Decide(pq);
  CacheStats after = engine.Stats();

  Engine fresh(GuardedSigma(), SweepOptions());
  CacheStats fresh_before = fresh.Stats();
  SemAcResult cold = fresh.Decide(fresh.Prepare(q));
  CacheStats fresh_after = fresh.Stats();

  ExpectSameDecision(cold, warm);
  EXPECT_EQ(after.inserts - before.inserts,
            fresh_after.inserts - fresh_before.inserts);
}

TEST(EngineDeadlineTest, ElapsedTokenDeadlineAborts) {
  Generator gen(7);
  Engine engine(GuardedSigma(), SweepOptions());
  PreparedQuery pq = engine.Prepare(gen.CycleQuery(4));
  CancelToken token;
  token.SetDeadline(CancelToken::Clock::now() -
                    std::chrono::milliseconds(1));
  ExpectAborted(engine.Decide(pq, &token));
}

TEST(EngineDeadlineTest, DeadlineMsBoundsAHeavyDecision) {
  // A cyclic query with near-unbounded enumeration budgets: without the
  // deadline this decision would grind through tens of millions of DFS
  // visits. The 25ms deadline must bring it back promptly.
  SemAcOptions options;
  options.subset_budget = 500000000;
  options.exhaustive_budget = 500000000;
  options.deadline_ms = 25;
  Generator gen(7);
  ConjunctiveQuery q = gen.CycleQuery(5);
  Engine engine(GuardedSigma(), options);
  PreparedQuery pq = engine.Prepare(q);

  auto t0 = std::chrono::steady_clock::now();
  SemAcResult r = engine.Decide(pq);
  auto elapsed_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  ExpectAborted(r);
  // Generous CI slack; the real bound (deadline + one poll stride) is
  // asserted with statistics by bench_interrupt_overhead's tightness gate.
  EXPECT_LT(elapsed_ms, 5000);
  // Aborted decisions are never cached: a repeat attempt re-runs (and
  // re-aborts under the same engine-level deadline).
  ExpectAborted(engine.Decide(pq));
}

TEST(EngineDeadlineTest, ExternalCancelFromAnotherThreadMidFlight) {
  SemAcOptions options;
  options.subset_budget = 500000000;
  options.exhaustive_budget = 500000000;
  Generator gen(7);
  Engine engine(GuardedSigma(), options);
  PreparedQuery pq = engine.Prepare(gen.CycleQuery(5));
  CancelToken token;
  std::thread canceller([&token]() {
    // The sleep only shapes the interleaving; it cannot flake. Whether
    // the cancel lands before the first poll or mid-search (TSan's 5-15x
    // slowdown shifts it either way), the decision aborts identically.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    token.RequestCancel();
  });
  SemAcResult r = engine.Decide(pq, &token);
  canceller.join();
  ExpectAborted(r);
}

TEST(EngineDeadlineTest, GrandparentCancelAbortsAtEveryThreadCount) {
  // semacycd chains drain token -> request token, and each search worker
  // chains its own token under the request token: a cancel two links up
  // must stop the heavy search at every decide_threads.
  for (size_t threads : {size_t{1}, size_t{2}}) {
    SemAcOptions options;
    options.subset_budget = 500000000;
    options.exhaustive_budget = 500000000;
    options.decide_threads = threads;
    Generator gen(7);
    Engine engine(GuardedSigma(), options);
    PreparedQuery pq = engine.Prepare(gen.CycleQuery(5));
    CancelToken grandparent;
    CancelToken token;
    token.SetParent(&grandparent);
    std::chrono::steady_clock::time_point cancelled_at;
    std::thread canceller([&]() {
      // Only shapes the interleaving: before or mid-search, the decision
      // aborts identically.
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      cancelled_at = std::chrono::steady_clock::now();
      grandparent.RequestCancel();
    });
    SemAcResult r = engine.Decide(pq, &token);
    auto returned_at = std::chrono::steady_clock::now();
    canceller.join();
    ExpectAborted(r);
    // Generous CI slack (TSan); unfixed, the 2-thread search ran on for
    // the whole 5e8-visit budget.
    EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(
                  returned_at - cancelled_at)
                  .count(),
              5000)
        << threads << " threads";
  }
}

TEST(EngineDeadlineTest, BatchDeadlineAbortsStragglers) {
  SemAcOptions options;
  options.subset_budget = 500000000;
  options.exhaustive_budget = 500000000;
  Generator gen(7);
  Engine engine(GuardedSigma(), options);
  std::vector<PreparedQuery> batch;
  for (int i = 0; i < 4; ++i) {
    batch.push_back(engine.Prepare(gen.CycleQuery(5 + i)));
  }
  Engine::BatchDeadlines deadlines;
  deadlines.batch_ms = 25;
  auto t0 = std::chrono::steady_clock::now();
  std::vector<SemAcResult> results = engine.DecideBatch(batch, 2, deadlines);
  auto elapsed_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  ASSERT_EQ(results.size(), batch.size());
  for (const SemAcResult& r : results) ExpectAborted(r);
  EXPECT_LT(elapsed_ms, 5000);
}

TEST(EngineDeadlineTest, PerQueryDeadlineLeavesFastQueriesAlone) {
  SemAcOptions options;
  options.subset_budget = 500000000;
  options.exhaustive_budget = 500000000;
  Generator gen(7);
  Engine engine(GuardedSigma(), options);
  // One trivially-acyclic query (decided at the kAlreadyAcyclic gate,
  // microseconds) and one heavy cyclic one.
  std::vector<PreparedQuery> batch;
  batch.push_back(engine.Prepare(MustParseQuery("E(x,y), E(y,z)")));
  batch.push_back(engine.Prepare(gen.CycleQuery(5)));
  Engine::BatchDeadlines deadlines;
  deadlines.per_query_ms = 25;
  std::vector<SemAcResult> results = engine.DecideBatch(batch, 1, deadlines);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].answer, SemAcAnswer::kYes);
  EXPECT_EQ(results[0].strategy, Strategy::kAlreadyAcyclic);
  ExpectAborted(results[1]);
}

TEST(EngineDeadlineTest, BatchWithoutDeadlinesMatchesPlainBatch) {
  Generator gen(7);
  Engine engine(GuardedSigma(), SweepOptions());
  std::vector<PreparedQuery> batch;
  batch.push_back(engine.Prepare(gen.CycleQuery(3)));
  batch.push_back(engine.Prepare(gen.RandomAcyclicQuery(4, 2, 2, "E")));
  std::vector<SemAcResult> plain = engine.DecideBatch(batch, 1);
  std::vector<SemAcResult> timed =
      engine.DecideBatch(batch, 1, Engine::BatchDeadlines{});
  ASSERT_EQ(plain.size(), timed.size());
  for (size_t i = 0; i < plain.size(); ++i) {
    ExpectSameDecision(plain[i], timed[i]);
  }
}

TEST(EngineDeadlineTest, ApproximateAndEvalSurfaceDeadlineStatus) {
  SemAcOptions options;
  options.subset_budget = 500000000;
  options.exhaustive_budget = 500000000;
  options.deadline_ms = 25;
  Generator gen(7);
  Engine engine(GuardedSigma(), options);
  PreparedQuery pq = engine.Prepare(gen.CycleQuery(5));

  ApproximateOutcome approx = engine.Approximate(pq);
  EXPECT_EQ(approx.status.code, Status::Code::kDeadlineExceeded);

  EvalOutcome eval = engine.Eval(pq, Instance{});
  EXPECT_EQ(eval.status.code, Status::Code::kDeadlineExceeded);
  EXPECT_FALSE(eval.reformulated);
}

// ---------------------------------------------------------------------------
// Step-budget floor behavior (satellite): budgets of exactly 0 and 1 must
// degrade to a consistent kBudgetExhausted — kUnknown, exact = false, no
// witness, no crash — for the subsets and exhaustive strategies alike.
// ---------------------------------------------------------------------------

TEST(BudgetFloorTest, ZeroAndOneBudgetsDegradeConsistently) {
  Generator gen(7);
  // Cyclic, not semantically acyclic under the guarded schema, and not
  // decidable by the early strategies — so the witness searches are the
  // only hope, and starving them must yield kBudgetExhausted.
  ConjunctiveQuery q = gen.CycleQuery(4);
  for (size_t budget : {size_t{0}, size_t{1}}) {
    for (int config = 0; config < 3; ++config) {
      SemAcOptions options;
      options.image_homs = budget;
      options.subset_budget = budget;
      options.exhaustive_budget = budget;
      options.enable_images = false;
      options.enable_subsets = config != 1;     // 0: subsets only
      options.enable_exhaustive = config != 0;  // 1: exhaustive only, 2: both
      Engine engine(GuardedSigma(), options);
      SemAcResult r = engine.Decide(engine.Prepare(q));
      EXPECT_EQ(r.answer, SemAcAnswer::kUnknown)
          << "budget=" << budget << " config=" << config;
      EXPECT_EQ(r.strategy, Strategy::kBudgetExhausted);
      EXPECT_FALSE(r.exact);
      EXPECT_FALSE(r.witness.has_value());
    }
  }
}

}  // namespace
}  // namespace semacyc
