#include <gtest/gtest.h>

#include "chase/query_chase.h"
#include "core/hypergraph.h"
#include "core/parser.h"
#include "deps/classify.h"
#include "deps/nonrecursive.h"
#include "deps/sticky.h"
#include "gen/generators.h"
#include "semacyc/decider.h"

namespace semacyc {
namespace {

/// Independently verifies a YES answer: the witness must be acyclic and
/// equivalent to q under Σ (checked through the chase).
void VerifyYes(const ConjunctiveQuery& q, const DependencySet& sigma,
               const SemAcResult& result) {
  ASSERT_EQ(result.answer, SemAcAnswer::kYes);
  ASSERT_TRUE(result.witness.has_value()) << "YES without witness";
  EXPECT_TRUE(IsAcyclic(*result.witness))
      << "witness is cyclic: " << result.witness->ToString();
  EXPECT_EQ(EquivalentUnder(q, *result.witness, sigma), Tri::kYes)
      << "witness not equivalent: " << result.witness->ToString();
}

TEST(SemAcTest, AcyclicQueryIsTriviallyYes) {
  ConjunctiveQuery q = MustParseQuery("E(x,y), F(y,z)");
  DependencySet sigma;
  SemAcResult result = DecideSemanticAcyclicity(q, sigma);
  VerifyYes(q, sigma, result);
  EXPECT_EQ(result.strategy, Strategy::kAlreadyAcyclic);
}

TEST(SemAcTest, NonCoreCyclicQueryFoldsAway) {
  // The diamond (two parallel 2-paths) is hypergraph-cyclic but folds onto
  // an acyclic 2-path: semantically acyclic with empty Σ.
  ConjunctiveQuery diamond = MustParseQuery("E(a,b), E(b,c), E(a,d), E(d,c)");
  DependencySet sigma;
  SemAcResult result = DecideSemanticAcyclicity(diamond, sigma);
  VerifyYes(diamond, sigma, result);
  EXPECT_EQ(result.strategy, Strategy::kCore);
}

TEST(SemAcTest, DirectedFourCycleIsNo) {
  // The directed 4-cycle is a cyclic core: NO under empty Σ.
  ConjunctiveQuery c4 = MustParseQuery("E(a,b), E(b,c), E(c,d), E(d,a)");
  DependencySet sigma;
  SemAcResult result = DecideSemanticAcyclicity(c4, sigma);
  EXPECT_EQ(result.answer, SemAcAnswer::kNo);
  EXPECT_TRUE(result.exact);
}

TEST(SemAcTest, OddCycleWithoutConstraintsIsNo) {
  Generator gen(1);
  ConjunctiveQuery c5 = gen.CycleQuery(5);
  DependencySet sigma;
  SemAcResult result = DecideSemanticAcyclicity(c5, sigma);
  EXPECT_EQ(result.answer, SemAcAnswer::kNo);
  EXPECT_TRUE(result.exact);
}

TEST(SemAcTest, ExampleOneBecomesAcyclicUnderTheTgd) {
  // The paper's motivating example.
  ConjunctiveQuery q =
      MustParseQuery("q(x,y) :- Interest(x,z), Class(y,z), Owns(x,y)");
  DependencySet sigma =
      MustParseDependencySet("Interest(x,z), Class(y,z) -> Owns(x,y)");
  SemAcResult result = DecideSemanticAcyclicity(q, sigma);
  VerifyYes(q, sigma, result);
  EXPECT_LE(result.witness->size(), 2u);
  // And without the constraint the same query is NOT semantically acyclic.
  DependencySet empty;
  SemAcResult no = DecideSemanticAcyclicity(q, empty);
  EXPECT_EQ(no.answer, SemAcAnswer::kNo);
}

TEST(SemAcTest, GuardedLinearYesCase) {
  // Σ: T(x,y) -> E(y,z), E(z,x) (linear, hence guarded).
  // q = T(x,y), E(y,z), E(z,x) is cyclic but ≡Σ T(x,y).
  ConjunctiveQuery q = MustParseQuery("T(x,y), E(y,z), E(z,x)");
  DependencySet sigma = MustParseDependencySet("T(x,y) -> E(y,z), E(z,x)");
  ASSERT_TRUE(IsGuardedSet(sigma.tgds));
  ASSERT_FALSE(IsAcyclic(q));
  SemAcResult result = DecideSemanticAcyclicity(q, sigma);
  VerifyYes(q, sigma, result);
}

TEST(SemAcTest, GuardedNoCase) {
  // A genuine triangle with an unrelated guarded tgd stays cyclic.
  Generator gen(2);
  ConjunctiveQuery triangle = gen.CycleQuery(3);
  DependencySet sigma = MustParseDependencySet("A(x) -> B(x)");
  ASSERT_TRUE(IsGuardedSet(sigma.tgds));
  SemAcResult result = DecideSemanticAcyclicity(triangle, sigma);
  EXPECT_EQ(result.answer, SemAcAnswer::kNo);
  EXPECT_TRUE(result.exact);
}

TEST(SemAcTest, FullTgdYesCaseFromTheorem7Pattern) {
  // Full tgds can also create witnesses (SemAc(F) is undecidable in
  // general, but individual instances can be solved).
  ConjunctiveQuery q = MustParseQuery("E(x,y), E(y,z), E(z,x), A(x)");
  DependencySet sigma =
      MustParseDependencySet("A(x) -> E(x,x)");
  // chase(A(x)) = {A(x), E(x,x)}: the triangle maps (all vars to x), so
  // A(x) ⊆Σ q; and q ⊆ A(x) trivially => q ≡Σ A(x), which is acyclic.
  SemAcResult result = DecideSemanticAcyclicity(q, sigma);
  VerifyYes(q, sigma, result);
}

TEST(SemAcTest, EgdKeyYesCase) {
  // Keys can equate variables and fold a cycle.
  // q = R(x,y), R(x,z), E(y,z): under key R(a,b),R(a,c) -> b = c the
  // chase merges y = z, E(y,y) remains; q ≡Σ R(x,y), E(y,y).
  ConjunctiveQuery q = MustParseQuery("R(x,y), R(x,z), E(y,z)");
  DependencySet sigma = MustParseDependencySet("R(a,b), R(a,c) -> b = c");
  SemAcResult result = DecideSemanticAcyclicity(q, sigma);
  VerifyYes(q, sigma, result);
}

TEST(SemAcTest, K2NoCase) {
  Generator gen(3);
  ConjunctiveQuery c3 = gen.CycleQuery(3);
  DependencySet sigma = MustParseDependencySet("E(x,y), E(x,z) -> y = z");
  ASSERT_TRUE(IsK2Set(sigma.egds));
  SemAcResult result = DecideSemanticAcyclicity(c3, sigma);
  EXPECT_EQ(result.answer, SemAcAnswer::kNo);
  EXPECT_TRUE(result.exact);
}

TEST(SemAcTest, NonRecursiveYesCase) {
  // NR (full, non-sticky) set closes the B-triangle: q ≡Σ {B1, B2}.
  ConjunctiveQuery q = MustParseQuery("B1(x,y), B2(y,z), B3(z,x)");
  DependencySet sigma = MustParseDependencySet("B1(x,y), B2(y,z) -> B3(z,x)");
  ASSERT_TRUE(IsNonRecursive(sigma.tgds));
  ASSERT_FALSE(IsAcyclic(q));
  SemAcResult result = DecideSemanticAcyclicity(q, sigma);
  VerifyYes(q, sigma, result);
  EXPECT_LE(result.witness->size(), 2u * q.size());
}

TEST(SemAcTest, StickyYesCase) {
  // A genuinely sticky set (note: Example 1's tgd is NOT sticky — its
  // join variable z never reaches the head). Here the marked body
  // variables x, y each occur once, so stickiness holds.
  ConjunctiveQuery q = MustParseQuery("T(x,y), E(y,z), E(z,x)");
  DependencySet sigma = MustParseDependencySet("T(x,y) -> E(y,z), E(z,x)");
  ASSERT_TRUE(IsSticky(sigma.tgds));
  ASSERT_FALSE(IsSticky(
      MustParseDependencySet("Interest(x,z), Class(y,z) -> Owns(x,y)").tgds));
  SemAcResult result = DecideSemanticAcyclicity(q, sigma);
  VerifyYes(q, sigma, result);
}

TEST(SemAcTest, WitnessRespectsSmallQueryBoundForGuarded) {
  ConjunctiveQuery q = MustParseQuery("T(x,y), E(y,z), E(z,x)");
  DependencySet sigma = MustParseDependencySet("T(x,y) -> E(y,z), E(z,x)");
  SemAcResult result = DecideSemanticAcyclicity(q, sigma);
  ASSERT_EQ(result.answer, SemAcAnswer::kYes);
  EXPECT_EQ(result.small_query_bound, 2 * q.size());
  EXPECT_LE(result.witness->size(), result.small_query_bound);
}

TEST(SemAcTest, NonBooleanHeadsSurviveReformulation) {
  ConjunctiveQuery q =
      MustParseQuery("q(x,y) :- Interest(x,z), Class(y,z), Owns(x,y)");
  DependencySet sigma =
      MustParseDependencySet("Interest(x,z), Class(y,z) -> Owns(x,y)");
  SemAcResult result = DecideSemanticAcyclicity(q, sigma);
  ASSERT_EQ(result.answer, SemAcAnswer::kYes);
  EXPECT_EQ(result.witness->arity(), 2u);
}

TEST(SemAcTest, UnsatisfiableUnderEgdsIsYes) {
  // Chase failure: q forces two distinct constants to be equal (and is
  // genuinely cyclic, so no earlier strategy answers first).
  ConjunctiveQuery q =
      MustParseQuery("R(x,'a'), R(x,'b'), E(x,y), E(y,z), E(z,x)");
  DependencySet sigma = MustParseDependencySet("R(u,v), R(u,w) -> v = w");
  SemAcResult result = DecideSemanticAcyclicity(q, sigma);
  EXPECT_EQ(result.answer, SemAcAnswer::kYes);
  EXPECT_EQ(result.strategy, Strategy::kFailingChase);
}

/// The small-query bound off freshly computed schema facts.
size_t Bound(const ConjunctiveQuery& q, const DependencySet& sigma,
             bool* justified) {
  return SmallQueryBound(q, sigma, SchemaFacts::Compute(sigma), justified);
}

TEST(SemAcTest, SmallQueryBoundsPerClass) {
  ConjunctiveQuery q = MustParseQuery("E(x,y), E(y,z), E(z,x)");
  bool justified = false;
  DependencySet guarded = MustParseDependencySet("E(x,y) -> E(y,w)");
  EXPECT_EQ(Bound(q, guarded, &justified), 2 * q.size());
  EXPECT_TRUE(justified);
  DependencySet k2 = MustParseDependencySet("E(x,y), E(x,z) -> y = z");
  EXPECT_EQ(Bound(q, k2, &justified), 2 * q.size());
  EXPECT_TRUE(justified);
  DependencySet nr = MustParseDependencySet("A(x) -> E(x,w)");
  EXPECT_GE(Bound(q, nr, &justified), 2 * q.size());
  EXPECT_TRUE(justified);
  // Full recursive sets get the heuristic bound, not a justified one.
  DependencySet full = MustParseDependencySet("E(x,y), E(y,z) -> E(x,z)");
  Bound(q, full, &justified);
  EXPECT_FALSE(justified);
}

/// Soundness sweep: on random inputs the decider never returns an
/// unverifiable YES (every witness re-verifies), and NO answers claim
/// exactness only with saturated machinery.
class DeciderSoundnessSweep : public ::testing::TestWithParam<int> {};

TEST_P(DeciderSoundnessSweep, YesAnswersCarryValidWitnesses) {
  Generator gen(static_cast<uint64_t>(GetParam()) + 77);
  ConjunctiveQuery q = gen.RandomAcyclicQuery(4, 2, 2, "Z");
  // Randomly add one chord to (sometimes) make it cyclic.
  std::vector<Atom> body = q.body();
  std::vector<Term> vars = q.Variables();
  if (vars.size() >= 2) {
    body.push_back(Atom(Predicate::Get("Z0", 2),
                        {vars[static_cast<size_t>(gen.Uniform(
                             0, static_cast<int>(vars.size()) - 1))],
                         vars[static_cast<size_t>(gen.Uniform(
                             0, static_cast<int>(vars.size()) - 1))]}));
  }
  ConjunctiveQuery q2({}, body);
  DependencySet sigma = MustParseDependencySet("Z0(x,y) -> Z1(x,y)");
  SemAcOptions options;
  // Soundness sweep, not completeness: the budget trades explored-subset
  // coverage for wall time (at the default kAlpha target a visit covers
  // the same search node as the seed's did), and every YES that does
  // surface is still verified below.
  options.exhaustive_budget = 8000;
  options.subset_budget = 8000;
  SemAcResult result = DecideSemanticAcyclicity(q2, sigma, options);
  if (result.answer == SemAcAnswer::kYes) {
    ASSERT_TRUE(result.witness.has_value());
    EXPECT_TRUE(IsAcyclic(*result.witness));
    EXPECT_EQ(EquivalentUnder(q2, *result.witness, sigma), Tri::kYes);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeciderSoundnessSweep, ::testing::Range(0, 15));

}  // namespace
}  // namespace semacyc
