#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "chase/query_chase.h"
#include "core/hypergraph.h"
#include "core/parser.h"
#include "gen/generators.h"
#include "semacyc/approximation.h"
#include "semacyc/engine.h"

namespace semacyc {
namespace {

TEST(ApproximationTest, TrivialWitnessIsContained) {
  Generator gen(21);
  ConjunctiveQuery triangle = gen.CycleQuery(3);
  ConjunctiveQuery trivial = TrivialAcyclicUnderApproximation(triangle);
  EXPECT_TRUE(IsAcyclic(trivial));
  DependencySet empty;
  EXPECT_EQ(ContainedUnder(trivial, triangle, empty), Tri::kYes);
}

TEST(ApproximationTest, TrivialWitnessKeepsHeadArity) {
  ConjunctiveQuery q = MustParseQuery("q(x,y) :- E(x,y), E(y,x)");
  ConjunctiveQuery trivial = TrivialAcyclicUnderApproximation(q);
  EXPECT_EQ(trivial.arity(), 2u);
}

TEST(ApproximationTest, ExactWhenSemanticallyAcyclic) {
  ConjunctiveQuery q =
      MustParseQuery("Interest(x,z), Class(y,z), Owns(x,y)");
  DependencySet sigma =
      MustParseDependencySet("Interest(x,z), Class(y,z) -> Owns(x,y)");
  auto result = AcyclicApproximation(q, sigma);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->is_exact);
  EXPECT_TRUE(IsAcyclic(result->approximation));
  EXPECT_EQ(EquivalentUnder(q, result->approximation, sigma), Tri::kYes);
}

TEST(ApproximationTest, TriangleGetsProperApproximation) {
  Generator gen(22);
  ConjunctiveQuery triangle = gen.CycleQuery(3);
  DependencySet empty;
  auto result = AcyclicApproximation(triangle, empty);
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->is_exact);
  EXPECT_TRUE(IsAcyclic(result->approximation));
  EXPECT_EQ(ContainedUnder(result->approximation, triangle, empty), Tri::kYes);
  // The approximation answers a subset of the query on any database: the
  // containment above is the formal statement; spot-check the loop db.
  Instance loop;
  loop.InsertAll(MustParseAtoms("E('a','a')"));
  // triangle true on loop; approximation must also be true (it is the
  // all-variables-merged fold) or false — but never true where triangle
  // is false.
}

TEST(ApproximationTest, RefusesConstantsInQuery) {
  ConjunctiveQuery q = MustParseQuery("E(x,'a'), E('a',x)");
  DependencySet empty;
  EXPECT_FALSE(AcyclicApproximation(q, empty).has_value());
}

/// The approximation is the decision's witness exactly when the decision
/// says YES, and the §8.2 fallback otherwise; either way it is acyclic and
/// contained in q under Σ. Swept over guarded, NR, sticky, egd-key and
/// plain-copy schemas, with budgets small enough to leave some decisions
/// unknown.
TEST(ApproximationTest, ApproximationFollowsTheDecision) {
  struct Case {
    const char* sigma;
    std::vector<ConjunctiveQuery> queries;
  };
  Generator gen(23);
  std::vector<Case> cases = {
      {"T(x,y) -> E(y,z), E(z,x)",
       {MustParseQuery("T(x,y), E(y,z), E(z,x)"),
        MustParseQuery("E(x3,x1), E(x1,x0), E(x0,x2), T(x2,x1)"),
        MustParseQuery("T(x0,x2), E(x2,x1), E(x0,x1)"), gen.CycleQuery(3)}},
      {"B1(x,y), B2(y,z) -> B3(z,x)",
       {MustParseQuery("B1(x,y), B2(y,z), B3(z,x)"),
        MustParseQuery("B3(x0,x3), B2(x0,x2), B3(x2,x3), B1(x3,x0)"),
        MustParseQuery("q(x0) :- B1(x0,x2), B3(x2,x1), B2(x0,x1)")}},
      {"R(x,y), P(y,z) -> P(y,x)",
       {MustParseQuery("R(x0,x2), P(x1,x2), P(x0,x1)"),
        MustParseQuery("P(x0,x2), P(x1,x0), P(x2,x1)")}},
      {"R(a,b), R(a,c) -> b = c",
       {MustParseQuery("R(x,y), R(x,z), E(y,z)"),
        MustParseQuery("E(x2,x1), R(x2,x0), E(x1,x0)"),
        gen.CycleQuery(3)}},
      {"E(x,y) -> E2(x,y)", {gen.CycleQuery(4), gen.CycleQuery(5)}},
  };
  SemAcOptions options;
  options.subset_budget = 2000;
  options.exhaustive_budget = 2000;
  size_t exact = 0, fallback = 0;
  for (const Case& c : cases) {
    DependencySet sigma = MustParseDependencySet(c.sigma);
    Engine engine(sigma, options);
    for (const ConjunctiveQuery& q : c.queries) {
      std::string context = std::string(c.sigma) + " | " + q.ToString();
      SemAcResult decision = engine.Decide(q);
      ApproximateOutcome out = engine.Approximate(engine.Prepare(q));
      ASSERT_TRUE(out.status.ok()) << context;
      const ApproximationResult& approx = out.result;
      bool yes = decision.answer == SemAcAnswer::kYes;
      EXPECT_EQ(approx.is_exact, yes) << context;
      EXPECT_TRUE(IsAcyclic(approx.approximation)) << context;
      EXPECT_EQ(ContainedUnder(approx.approximation, q, sigma), Tri::kYes)
          << context << " | " << approx.approximation.ToString();
      if (!yes) {
        EXPECT_EQ(approx.approximation, TrivialAcyclicUnderApproximation(q))
            << context;
      }
      ++(yes ? exact : fallback);
    }
  }
  // The sweep reaches both outcomes.
  EXPECT_GT(exact, 0u);
  EXPECT_GT(fallback, 0u);
}

}  // namespace
}  // namespace semacyc
