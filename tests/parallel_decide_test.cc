#include <gtest/gtest.h>

#include <iterator>
#include <string>
#include <vector>

#include "core/homomorphism.h"
#include "core/interrupt.h"
#include "core/parser.h"
#include "gen/generators.h"
#include "semacyc/engine.h"

namespace semacyc {
namespace {

/// The parity contract of SemAcOptions::decide_threads: every thread
/// count runs the SAME ordered search space under the deterministic
/// commit protocol (core/worksteal.h), so every observable field of the
/// decision — including the budget-truncation point, the
/// candidates-tested counter and the witness itself — is bitwise
/// identical to the 1-thread run. This is strictly stronger than
/// engine_test's ExpectSameDecision (which tolerates witness renaming
/// across unrelated runs): the witness strategies mint their variables
/// from deterministic per-candidate pools, so even the names must match.
void ExpectBitwiseParity(const SemAcResult& seq, const SemAcResult& par,
                         const std::string& context) {
  EXPECT_EQ(seq.answer, par.answer) << context;
  EXPECT_EQ(seq.strategy, par.strategy) << context;
  EXPECT_EQ(seq.exact, par.exact) << context;
  EXPECT_EQ(seq.small_query_bound, par.small_query_bound) << context;
  EXPECT_EQ(seq.bound_justified, par.bound_justified) << context;
  EXPECT_EQ(seq.bound_used, par.bound_used) << context;
  EXPECT_EQ(seq.candidates_tested, par.candidates_tested) << context;
  ASSERT_EQ(seq.witness.has_value(), par.witness.has_value()) << context;
  if (seq.witness.has_value()) {
    EXPECT_EQ(seq.witness_class, par.witness_class) << context;
    // The engine renames witness variables deterministically, so even the
    // strategies that draw process-wide fresh names print identically.
    EXPECT_EQ(seq.witness->ToString(), par.witness->ToString()) << context;
  }
}

/// One decision's golden outcome: answer, strategy, DFS visits (both
/// budgeted strategies together), candidates tested, and witness text.
/// The goldens pin the unit list to the preorder of the standalone
/// depth-first searches it replaced: they were recorded from those DFS
/// bodies at decide_threads = 1 before they were deleted, and any
/// divergence of unit order, budget charging or dedup changes a visit
/// count, a candidate count or a witness here. Regenerate them only for a
/// change that alters visit order on purpose (e.g. nogood pruning).
struct Golden {
  const char* answer;
  const char* strategy;
  uint64_t visits;
  size_t candidates_tested;
  const char* witness;  // "" when there is none
};

/// DFS visits so far (the engine's enum_visits counter).
uint64_t EnumVisits(const Engine& engine) {
  for (const auto& [name, value] : engine.Metrics().counters) {
    if (name == "enum_visits") return value;
  }
  return 0;
}

void ExpectGolden(const Golden& g, const SemAcResult& r, uint64_t visits,
                  const std::string& context) {
  EXPECT_STREQ(ToString(r.answer), g.answer) << context;
  EXPECT_STREQ(ToString(r.strategy), g.strategy) << context;
  EXPECT_EQ(visits, g.visits) << context;
  EXPECT_EQ(r.candidates_tested, g.candidates_tested) << context;
  EXPECT_EQ(r.witness.has_value() ? r.witness->ToString() : "", g.witness)
      << context;
}

/// Decides `q` on `engine`, checking the outcome against `g`.
SemAcResult DecideGolden(const Engine& engine, const ConjunctiveQuery& q,
                         const Golden& g, const std::string& context) {
  uint64_t visits0 = EnumVisits(engine);
  SemAcResult r = engine.Decide(engine.Prepare(q));
  ExpectGolden(g, r, EnumVisits(engine) - visits0, context);
  return r;
}

/// BitwiseParityAcrossGeneratorFamilies, in Workloads() order: seeds 1-3,
/// then per seed the guarded, nr and egd queries.
const Golden kSweepGolden[] = {
    // guarded seed 1
    {"yes", "subsets", 2, 1, "q() :- T(x0,x1)"},
    {"unknown", "budget-exhausted", 8044, 723, ""},
    {"unknown", "budget-exhausted", 8112, 517, ""},
    {"yes", "already-acyclic", 0, 0,
     "q() :- E0(x0,x1), E0(x0,x2), E1(x0,x3), E1(x4,x0)"},
    {"yes", "core", 0, 0, "q() :- E(a,d), E(d,c)"},
    {"yes", "already-acyclic", 0, 0,
     "q() :- AnbE(x0,x1), AnbE(x1,x2), AnbE(x2,x0), AnbG(x0,x1,x2)"},
    // nr seed 1
    {"yes", "subsets", 7, 4, "q() :- B1(x0,x1), B2(x1,x2)"},
    {"yes", "already-acyclic", 0, 0, "q() :- B1(x,y), B2(y,x)"},
    {"unknown", "budget-exhausted", 8060, 515, ""},
    {"yes", "already-acyclic", 0, 0,
     "q() :- BngP(x0,x1), BngP(x1,x2), BngT(x0,x1,x2)"},
    // egd seed 1
    {"yes", "chase-compaction", 0, 0, "q() :- R(x0,x1), E(x1,x1)"},
    {"unknown", "budget-exhausted", 8044, 723, ""},
    {"yes", "already-acyclic", 0, 0, "q() :- R(x,y), E(y,y)"},
    // guarded seed 2
    {"yes", "subsets", 2, 1, "q() :- T(x0,x1)"},
    {"unknown", "budget-exhausted", 8044, 723, ""},
    {"unknown", "budget-exhausted", 8112, 517, ""},
    {"yes", "already-acyclic", 0, 0,
     "q() :- E1(x0,x1), E0(x2,x1), E0(x0,x3), E1(x4,x3)"},
    {"yes", "core", 0, 0, "q() :- E(a,d), E(d,c)"},
    {"yes", "already-acyclic", 0, 0,
     "q() :- AnbE(x0,x1), AnbE(x1,x2), AnbE(x2,x0), AnbG(x0,x1,x2)"},
    // nr seed 2
    {"yes", "subsets", 7, 4, "q() :- B1(x0,x1), B2(x1,x2)"},
    {"yes", "already-acyclic", 0, 0, "q() :- B1(x,y), B2(y,x)"},
    {"unknown", "budget-exhausted", 8060, 515, ""},
    {"yes", "already-acyclic", 0, 0,
     "q() :- BngP(x0,x1), BngP(x1,x2), BngT(x0,x1,x2)"},
    // egd seed 2
    {"yes", "chase-compaction", 0, 0, "q() :- R(x0,x1), E(x1,x1)"},
    {"unknown", "budget-exhausted", 8044, 723, ""},
    {"yes", "already-acyclic", 0, 0, "q() :- R(x,y), E(y,y)"},
    // guarded seed 3
    {"yes", "subsets", 2, 1, "q() :- T(x0,x1)"},
    {"unknown", "budget-exhausted", 8044, 723, ""},
    {"unknown", "budget-exhausted", 8112, 517, ""},
    {"yes", "already-acyclic", 0, 0,
     "q() :- E1(x0,x1), E1(x1,x2), E1(x1,x3), E1(x4,x0)"},
    {"yes", "core", 0, 0, "q() :- E(a,d), E(d,c)"},
    {"yes", "already-acyclic", 0, 0,
     "q() :- AnbE(x0,x1), AnbE(x1,x2), AnbE(x2,x0), AnbG(x0,x1,x2)"},
    // nr seed 3
    {"yes", "subsets", 7, 4, "q() :- B1(x0,x1), B2(x1,x2)"},
    {"yes", "already-acyclic", 0, 0, "q() :- B1(x,y), B2(y,x)"},
    {"unknown", "budget-exhausted", 8060, 515, ""},
    {"yes", "already-acyclic", 0, 0,
     "q() :- BngP(x0,x1), BngP(x1,x2), BngT(x0,x1,x2)"},
    // egd seed 3
    {"yes", "chase-compaction", 0, 0, "q() :- R(x0,x1), E(x1,x1)"},
    {"unknown", "budget-exhausted", 8044, 723, ""},
    {"yes", "already-acyclic", 0, 0, "q() :- R(x,y), E(y,y)"},
};

/// BudgetTruncationPointsMatchOneThread: per budget, the three queries.
const Golden kBudgetGolden[] = {
    // budget 1
    {"unknown", "budget-exhausted", 4, 0, ""},
    {"unknown", "budget-exhausted", 4, 0, ""},
    {"yes", "core", 0, 0, "q() :- E(a,d), E(d,c)"},
    // budget 3
    {"unknown", "budget-exhausted", 8, 3, ""},
    {"unknown", "budget-exhausted", 8, 3, ""},
    {"yes", "core", 0, 0, "q() :- E(a,d), E(d,c)"},
    // budget 17
    {"unknown", "budget-exhausted", 36, 11, ""},
    {"unknown", "budget-exhausted", 36, 13, ""},
    {"yes", "core", 0, 0, "q() :- E(a,d), E(d,c)"},
    // budget 101
    {"unknown", "budget-exhausted", 145, 33, ""},
    {"unknown", "budget-exhausted", 204, 25, ""},
    {"yes", "core", 0, 0, "q() :- E(a,d), E(d,c)"},
    // budget 555
    {"unknown", "budget-exhausted", 599, 116, ""},
    {"unknown", "budget-exhausted", 667, 101, ""},
    {"yes", "core", 0, 0, "q() :- E(a,d), E(d,c)"},
};

struct Workload {
  std::string name;
  DependencySet sigma;
  std::vector<ConjunctiveQuery> queries;
};

/// One workload per generator family / schema class, mirroring
/// engine_test's parity sweep: guarded tgds, a non-recursive set (both
/// weakly acyclic, so chase-based oracles), and egds (K2 machinery).
/// Cyclic members drive the subsets and exhaustive strategies — the two
/// that run on the work-stealing pool.
std::vector<Workload> Workloads(uint64_t seed) {
  std::vector<Workload> out;
  Generator gen(seed);
  {
    Workload w;
    w.name = "guarded";
    w.sigma = MustParseDependencySet("T(x,y) -> E(y,z), E(z,x)");
    w.queries.push_back(MustParseQuery("T(x,y), E(y,z), E(z,x)"));
    w.queries.push_back(gen.CycleQuery(3));
    w.queries.push_back(gen.CycleQuery(4));
    w.queries.push_back(gen.RandomAcyclicQuery(4, 2, 2, "E"));
    w.queries.push_back(MustParseQuery("E(a,b), E(b,c), E(a,d), E(d,c)"));
    w.queries.push_back(gen.AlphaNotBetaQuery(1));
    out.push_back(std::move(w));
  }
  {
    Workload w;
    w.name = "nr";
    w.sigma = MustParseDependencySet("B1(x,y), B2(y,z) -> B3(z,x)");
    w.queries.push_back(MustParseQuery("B1(x,y), B2(y,z), B3(z,x)"));
    w.queries.push_back(MustParseQuery("B1(x,y), B2(y,x)"));
    w.queries.push_back(gen.CycleQuery(3, "B3"));
    w.queries.push_back(gen.BetaNotGammaQuery(1));
    out.push_back(std::move(w));
  }
  {
    Workload w;
    w.name = "egd";
    w.sigma = MustParseDependencySet("R(a,b), R(a,c) -> b = c");
    w.queries.push_back(MustParseQuery("R(x,y), R(x,z), E(y,z)"));
    w.queries.push_back(MustParseQuery("E(a,b), E(b,c), E(c,a)"));
    w.queries.push_back(MustParseQuery("R(x,y), E(y,y)"));
    out.push_back(std::move(w));
  }
  return out;
}

SemAcOptions SweepOptions(size_t threads) {
  SemAcOptions options;
  options.subset_budget = 8000;
  options.exhaustive_budget = 8000;
  options.decide_threads = threads;
  return options;
}

/// The tentpole harness: a seeded sweep over every generator family at
/// 1, 2, 4 and 8 threads and identical budgets, every decision checked
/// against its golden row and every field compared bitwise with 1 thread.
/// Fresh engines per thread count so no cache state can paper over a
/// divergence.
TEST(ParallelDecideTest, BitwiseParityAcrossGeneratorFamilies) {
  size_t row = 0;
  for (uint64_t seed : {1u, 2u, 3u}) {
    for (const Workload& w : Workloads(seed)) {
      ASSERT_LE(row + w.queries.size(), std::size(kSweepGolden));
      std::vector<SemAcResult> one;
      for (size_t threads : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
        Engine engine(w.sigma, SweepOptions(threads));
        for (size_t i = 0; i < w.queries.size(); ++i) {
          std::string context = w.name + " seed " + std::to_string(seed) +
                                " / " + w.queries[i].ToString() + " @ " +
                                std::to_string(threads) + " threads";
          SemAcResult r = DecideGolden(engine, w.queries[i],
                                       kSweepGolden[row + i], context);
          if (threads == 1) {
            one.push_back(std::move(r));
          } else {
            ExpectBitwiseParity(one[i], r, context);
          }
        }
      }
      row += w.queries.size();
    }
  }
  EXPECT_EQ(row, std::size(kSweepGolden));
}

/// Budget-edge parity: tiny budgets land the truncation point inside
/// arbitrary units (including unit 0 and mid-unit), the exact territory
/// where a racy shared budget would drift. The commit protocol must
/// reproduce the golden 1-thread truncation bitwise at every budget.
TEST(ParallelDecideTest, BudgetTruncationPointsMatchOneThread) {
  Generator gen(23);
  DependencySet sigma = MustParseDependencySet("T(x,y) -> E(y,z), E(z,x)");
  std::vector<ConjunctiveQuery> queries;
  queries.push_back(gen.CycleQuery(3));
  queries.push_back(gen.CycleQuery(4));
  queries.push_back(MustParseQuery("E(a,b), E(b,c), E(a,d), E(d,c)"));
  size_t row = 0;
  for (size_t budget : {size_t{1}, size_t{3}, size_t{17}, size_t{101},
                        size_t{555}}) {
    SemAcOptions one_options = SweepOptions(1);
    one_options.subset_budget = budget;
    one_options.exhaustive_budget = budget;
    Engine reference(sigma, one_options);
    for (const ConjunctiveQuery& q : queries) {
      ASSERT_LT(row, std::size(kBudgetGolden));
      const Golden& g = kBudgetGolden[row++];
      std::string context = q.ToString() + " budget " + std::to_string(budget);
      SemAcResult one = DecideGolden(reference, q, g, context + " @ 1 thread");
      for (size_t threads : {size_t{2}, size_t{4}, size_t{8}}) {
        SemAcOptions options = SweepOptions(threads);
        options.subset_budget = budget;
        options.exhaustive_budget = budget;
        Engine engine(sigma, options);
        std::string at = context + " @ " + std::to_string(threads) +
                         " threads";
        ExpectBitwiseParity(one, DecideGolden(engine, q, g, at), at);
      }
    }
  }
  EXPECT_EQ(row, std::size(kBudgetGolden));
}

/// A deadline that can fire while workers hold stolen subtrees: whatever
/// the outcome (aborted or completed before the deadline), the SAME
/// engine must afterwards decide the query exactly like a fresh one — no
/// torn caches, no leaked worker state.
TEST(ParallelDecideTest, DeadlineMidParallelSearchLeavesEngineReusable) {
  Generator gen(23);
  DependencySet sigma = MustParseDependencySet("T(x,y) -> E(y,z), E(z,x)");
  ConjunctiveQuery q = gen.CycleQuery(4);
  Engine engine(sigma, SweepOptions(8));
  PreparedQuery pq = engine.Prepare(q);
  for (int64_t deadline_ms : {int64_t{0}, int64_t{1}, int64_t{2}}) {
    CancelToken token;
    token.SetDeadlineInMs(deadline_ms);
    if (deadline_ms == 0) token.RequestCancel();  // fires at the first poll
    SemAcResult interrupted = engine.Decide(pq, &token);
    if (interrupted.strategy == Strategy::kDeadlineExceeded) {
      EXPECT_EQ(interrupted.answer, SemAcAnswer::kUnknown);
      EXPECT_FALSE(interrupted.witness.has_value());
    }
  }
  SemAcResult warm = engine.Decide(pq);
  Engine fresh(sigma, SweepOptions(8));
  SemAcResult cold = fresh.Decide(fresh.Prepare(q));
  ExpectBitwiseParity(cold, warm, "post-deadline reuse");
}

#if defined(SEMACYC_FAILPOINTS_ENABLED) && SEMACYC_FAILPOINTS_ENABLED

struct DisarmOnExit {
  ~DisarmOnExit() { FailpointRegistry::Global().DisarmAll(); }
};

/// Abort-mid-steal reusability: a cancel injected at the steal point
/// fires inside a worker that owns a stolen subtree. The whole decision
/// must abort gracefully, and a re-decide on the same engine must match
/// a fresh engine bitwise — the abort leaves no trace of the state the
/// workers touched concurrently.
TEST(ParallelDecideTest, CancelMidStealAbortsAndRecovers) {
  DisarmOnExit cleanup;
  auto& reg = FailpointRegistry::Global();
  Generator gen(23);
  DependencySet sigma = MustParseDependencySet("T(x,y) -> E(y,z), E(z,x)");
  for (const char* point : {"parallel.steal", "parallel.replay"}) {
    for (uint64_t fire_on : {uint64_t{1}, uint64_t{3}}) {
      std::string context = std::string(point) + "@" +
                            std::to_string(fire_on);
      ConjunctiveQuery q = gen.CycleQuery(4);
      Engine engine(sigma, SweepOptions(4));
      PreparedQuery pq = engine.Prepare(q);

      reg.Arm(point, FailpointAction::kCancel, fire_on);
      CancelToken token;
      SemAcResult injected = engine.Decide(pq, &token);
      bool fired = reg.Fired(point);
      reg.DisarmAll();
      if (fired) {
        EXPECT_EQ(injected.answer, SemAcAnswer::kUnknown) << context;
        EXPECT_EQ(injected.strategy, Strategy::kDeadlineExceeded) << context;
        EXPECT_FALSE(injected.witness.has_value()) << context;
      }

      SemAcResult warm = engine.Decide(pq);
      Engine fresh(sigma, SweepOptions(4));
      SemAcResult cold = fresh.Decide(fresh.Prepare(q));
      ExpectBitwiseParity(cold, warm, context + " post-abort reuse");
    }
  }
}

#endif  // SEMACYC_FAILPOINTS_ENABLED

}  // namespace
}  // namespace semacyc
