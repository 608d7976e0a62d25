#include <gtest/gtest.h>

#include "chase/query_chase.h"
#include "core/containment.h"
#include "core/core_min.h"
#include "core/hypergraph.h"
#include "core/parser.h"
#include "deps/classify.h"
#include "deps/nonrecursive.h"
#include "deps/sticky.h"
#include "eval/cover_game.h"
#include "eval/yannakakis.h"
#include "gen/generators.h"
#include "rewrite/ucq_rewriter.h"
#include "semacyc/decider.h"

namespace semacyc {
namespace {

Term C(const std::string& s) { return Term::Constant(s); }

Instance Db(const std::string& atoms) {
  Instance inst;
  inst.InsertAll(MustParseAtoms(atoms));
  return inst;
}

// ---- Decider: the images strategy reaches past witness_atoms_cap. ----

/// q(y1..yn) :- C(x1,x2), C(x2,x3), C(x3,x1), P(y1), ..., P(yn).
ConjunctiveQuery TriangleWithUnaryTail(int n) {
  std::string head, tail;
  for (int i = 1; i <= n; ++i) {
    head += (i > 1 ? "," : "") + std::string("y") + std::to_string(i);
    tail += ", P(y" + std::to_string(i) + ")";
  }
  return MustParseQuery("q(" + head + ") :- C(x1,x2), C(x2,x3), C(x3,x1)" +
                        tail);
}

TEST(EdgeDeciderTest, ImagesFindsWitnessesLargerThanTheAtomCap) {
  // C(x,y) -> C(x,x) maps the triangle onto the loop C(x1,x1): the image
  // C(x1,x1), P(y1..y8) is a 9-atom acyclic witness, one atom over
  // witness_atoms_cap (8). Only `images` builds it; `subsets` and
  // `exhaustive` stop at the cap, so without `images` the decision runs
  // out of budget. One P atom fewer fits under the cap and `subsets`
  // finds it.
  DependencySet sigma = MustParseDependencySet("C(x,y) -> C(x,x).");
  SemAcOptions defaults;
  ASSERT_EQ(defaults.witness_atoms_cap, 8u);
  SemAcResult with_images =
      DecideSemanticAcyclicity(TriangleWithUnaryTail(8), sigma, defaults);
  EXPECT_EQ(with_images.answer, SemAcAnswer::kYes);
  EXPECT_EQ(with_images.strategy, Strategy::kImages);
  ASSERT_TRUE(with_images.witness.has_value());
  EXPECT_EQ(with_images.witness->body().size(), 9u);

  SemAcOptions no_images;
  no_images.enable_images = false;
  SemAcResult without_images =
      DecideSemanticAcyclicity(TriangleWithUnaryTail(8), sigma, no_images);
  EXPECT_EQ(without_images.answer, SemAcAnswer::kUnknown);
  EXPECT_EQ(without_images.strategy, Strategy::kBudgetExhausted);

  SemAcResult seven =
      DecideSemanticAcyclicity(TriangleWithUnaryTail(7), sigma, no_images);
  EXPECT_EQ(seven.answer, SemAcAnswer::kYes);
  EXPECT_EQ(seven.strategy, Strategy::kSubsets);
}

// ---- Rewriter: factorization. ----

TEST(EdgeRewriteTest, ParallelAtomsResolveThroughOneHeadAtom) {
  // q = E(x,y), E(x,z): both atoms unify with the head of A(x) -> E(x,w)
  // *as one piece* (y ~ w ~ z is legal: both are private existential-side
  // variables), so the rewriting reaches A(x). The explicit factorization
  // step covers the same ground and must not break anything.
  ConjunctiveQuery q = MustParseQuery("E(x,y), E(x,z)");
  auto tgds = MustParseDependencySet("A(x) -> E(x,w)").tgds;
  for (bool factorize : {true, false}) {
    RewriteOptions options;
    options.factorize = factorize;
    RewriteResult result = RewriteToUcq(q, tgds, options);
    EXPECT_TRUE(result.complete);
    bool found_a = false;
    for (const auto& d : result.ucq.disjuncts()) {
      if (d.size() == 1 &&
          d.body()[0].predicate() == Predicate::Get("A", 1)) {
        found_a = true;
      }
    }
    EXPECT_TRUE(found_a) << "factorize=" << factorize << "\n"
                         << result.ucq.ToString();
  }
}

TEST(EdgeRewriteTest, ConstantsSurviveRewriting) {
  ConjunctiveQuery q = MustParseQuery("E('a',y)");
  auto tgds = MustParseDependencySet("B(x) -> E(x,w)").tgds;
  RewriteResult result = RewriteToUcq(q, tgds);
  EXPECT_TRUE(result.complete);
  bool found = false;
  for (const auto& d : result.ucq.disjuncts()) {
    if (d.size() == 1 && d.body()[0].predicate() == Predicate::Get("B", 1)) {
      found = true;
      EXPECT_EQ(d.body()[0].arg(0), C("a"));
    }
  }
  EXPECT_TRUE(found);
}

TEST(EdgeRewriteTest, ConstantClashBlocksRewriting) {
  ConjunctiveQuery q = MustParseQuery("E('a',y)");
  auto tgds = MustParseDependencySet("B(x) -> E('b',w)").tgds;
  RewriteResult result = RewriteToUcq(q, tgds);
  EXPECT_TRUE(result.complete);
  EXPECT_EQ(result.ucq.size(), 1u);  // no rewriting possible
}

// ---- Cover game corner cases. ----

TEST(EdgeCoverGameTest, ConflictingHeadCorrespondenceLoses) {
  // t repeats a term but t' does not: condition (1) is unsatisfiable for
  // atoms mentioning that term.
  Instance I;
  Term n = Term::FreshNull();
  I.Insert(Atom(Predicate::Get("E", 2), {n, n}));
  Instance J = Db("E('a','b')");
  EXPECT_FALSE(DuplicatorWins(I, {n, n}, J, {C("a"), C("b")}));
  EXPECT_TRUE(DuplicatorWins(I, {n}, Db("E('c','c')"), {C("c")}));
}

TEST(EdgeCoverGameTest, EmptyLeftInstanceAlwaysWins) {
  Instance I, J;
  EXPECT_TRUE(DuplicatorWins(I, {}, J, {}));
}

TEST(EdgeCoverGameTest, StrategyIsExposed) {
  Instance I;
  Term n = Term::FreshNull();
  I.Insert(Atom(Predicate::Get("E", 2), {n, Term::FreshNull()}));
  Instance J = Db("E('a','b'), E('a','c')");
  CoverGameResult result = SolveCoverGame(I, {}, J, {});
  ASSERT_TRUE(result.duplicator_wins);
  ASSERT_EQ(result.strategy.size(), 1u);
  EXPECT_EQ(result.strategy[0].size(), 2u);  // both images survive
}

// ---- Yannakakis corner cases. ----

TEST(EdgeYannakakisTest, RepeatedVariableInsideAtom) {
  Instance db = Db("T('a','a','b'), T('c','d','e')");
  ConjunctiveQuery q = MustParseQuery("q(x,z) :- T(x,x,z)");
  YannakakisResult result = EvaluateAcyclic(q, db);
  ASSERT_TRUE(result.ok);
  ASSERT_EQ(result.answers.size(), 1u);
  EXPECT_EQ(result.answers[0][0], C("a"));
}

TEST(EdgeYannakakisTest, EmptyRelationShortCircuits) {
  Instance db = Db("R('a','b')");
  ConjunctiveQuery q = MustParseQuery("R(x,y), S(y,z)");
  EXPECT_EQ(EvaluateAcyclicBoolean(q, db), 0);
  YannakakisResult result = EvaluateAcyclic(q, db);
  ASSERT_TRUE(result.ok);
  EXPECT_TRUE(result.answers.empty());
}

TEST(EdgeYannakakisTest, HeadConstant) {
  Instance db = Db("R('a','b')");
  ConjunctiveQuery q({C("k"), Term::Variable("x")},
                     MustParseAtoms("R(x,y)"));
  YannakakisResult result = EvaluateAcyclic(q, db);
  ASSERT_TRUE(result.ok);
  ASSERT_EQ(result.answers.size(), 1u);
  EXPECT_EQ(result.answers[0][0], C("k"));
}

// ---- Chase corner cases. ----

TEST(EdgeChaseTest, CascadedConstantClash) {
  // Merging nulls eventually forces two constants together.
  DependencySet sigma = MustParseDependencySet(
      "R(x,y), R(x,z) -> y = z. S(y,u), S(z,v), R(x,y), R(x,z) -> u = v.");
  Instance db = Db("R('r','p'), R('r','q'), S('p','a'), S('q','b')");
  ChaseResult result = Chase(db, sigma);
  EXPECT_TRUE(result.failed);
}

TEST(EdgeChaseTest, TermMapResolvesChains) {
  ConjunctiveQuery q = MustParseQuery("q(a,b,c) :- R(x,a), R(x,b), R(x,c)");
  DependencySet sigma = MustParseDependencySet("R(x,y), R(x,z) -> y = z");
  QueryChaseResult chase = ChaseQuery(q, sigma);
  EXPECT_TRUE(chase.saturated);
  EXPECT_EQ(chase.frozen_head[0], chase.frozen_head[1]);
  EXPECT_EQ(chase.frozen_head[1], chase.frozen_head[2]);
  EXPECT_EQ(chase.instance.size(), 1u);
}

TEST(EdgeChaseTest, MultiHeadTgdAddsAllAtoms) {
  DependencySet sigma = MustParseDependencySet("A(x) -> B(x,w), Cc(w)");
  ChaseResult result = ChaseTgds(Db("A('a')"), sigma.tgds);
  EXPECT_TRUE(result.saturated);
  EXPECT_EQ(result.instance.size(), 3u);
  // The existential w is shared between the two head atoms.
  Term w;
  for (const Atom& a : result.instance.atoms()) {
    if (a.predicate() == Predicate::Get("B", 2)) w = a.arg(1);
  }
  EXPECT_TRUE(
      result.instance.Contains(Atom(Predicate::Get("Cc", 1), {w})));
}

// ---- Decider option plumbing. ----

TEST(EdgeDeciderTest, StrategiesCanBeDisabled) {
  ConjunctiveQuery q =
      MustParseQuery("Interest(x,z), Class(y,z), Owns(x,y)");
  DependencySet sigma =
      MustParseDependencySet("Interest(x,z), Class(y,z) -> Owns(x,y)");
  SemAcOptions options;
  options.enable_images = false;
  options.enable_subsets = false;
  options.enable_exhaustive = false;
  SemAcResult result = DecideSemanticAcyclicity(q, sigma, options);
  // All witness-search strategies disabled: must degrade to kUnknown,
  // never to a wrong answer.
  EXPECT_EQ(result.answer, SemAcAnswer::kUnknown);
  options.enable_exhaustive = true;
  SemAcResult with_exhaustive = DecideSemanticAcyclicity(q, sigma, options);
  EXPECT_EQ(with_exhaustive.answer, SemAcAnswer::kYes);
}

TEST(EdgeDeciderTest, ZeroBudgetIsHonest) {
  Generator gen(55);
  ConjunctiveQuery q = gen.CycleQuery(3);
  DependencySet sigma = MustParseDependencySet("A(x) -> B(x)");
  SemAcOptions options;
  options.subset_budget = 1;
  options.exhaustive_budget = 1;
  options.image_homs = 1;
  SemAcResult result = DecideSemanticAcyclicity(q, sigma, options);
  EXPECT_EQ(result.answer, SemAcAnswer::kUnknown);
  EXPECT_FALSE(result.exact);
}

// ---- Misc core. ----

TEST(EdgeCoreTest, ConstantOnlyQueryIsItsOwnCore) {
  ConjunctiveQuery q = MustParseQuery("R('a','b'), S('b')");
  EXPECT_TRUE(IsCore(q));
  EXPECT_TRUE(IsAcyclic(q));
}

TEST(EdgeCoreTest, QueryFromPureConstantInstance) {
  Instance db = Db("R('a','b')");
  ConjunctiveQuery q = QueryFromInstance(db, {});
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.Variables().size(), 0u);  // genuine constants stay
}

TEST(EdgeStickyTest, MultiHeadMarkingUsesEveryAtom) {
  // x appears in one head atom but not the other: marked (the paper's
  // "not in every head-atom" base step).
  auto tgds = MustParseDependencySet("E(x,y) -> F(x,w), G(y,w)").tgds;
  StickyMarking marking = ComputeStickyMarking(tgds);
  EXPECT_TRUE(marking.marked[0].count(Term::Variable("x")));
  EXPECT_TRUE(marking.marked[0].count(Term::Variable("y")));
  EXPECT_TRUE(marking.IsSticky());  // single occurrences each
}

TEST(EdgeClassifyTest, NonRecursiveBoundGrowsWithStrata) {
  auto shallow = MustParseDependencySet("A(x) -> B(x)").tgds;
  auto deep = MustParseDependencySet(
                  "A(x) -> B(x). B(x) -> Cc(x). Cc(x) -> D(x).")
                  .tgds;
  EXPECT_LT(NonRecursiveChaseDepthBound(shallow),
            NonRecursiveChaseDepthBound(deep));
}

TEST(EdgeContainmentTest, EmptyBodyNeverParses) {
  EXPECT_FALSE(ParseQuery("").ok());
  EXPECT_FALSE(ParseQuery("q(x) :- ").ok());
}

}  // namespace
}  // namespace semacyc
