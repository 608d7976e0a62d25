#include <gtest/gtest.h>

#include "core/homomorphism.h"
#include "core/parser.h"
#include "gen/generators.h"

namespace semacyc {
namespace {

Term C(const std::string& s) { return Term::Constant(s); }
Term V(const std::string& s) { return Term::Variable(s); }

Instance Db(const std::string& atoms) {
  Instance inst;
  inst.InsertAll(MustParseAtoms(atoms));
  return inst;
}

TEST(HomTest, SimpleMatch) {
  Instance db = Db("E('a','b'), E('b','c')");
  EXPECT_TRUE(HasHomomorphism(MustParseAtoms("E(x,y), E(y,z)"), db));
  EXPECT_FALSE(HasHomomorphism(MustParseAtoms("E(x,y), E(y,x)"), db));
}

TEST(HomTest, ConstantsMustMatchExactly) {
  Instance db = Db("E('a','b')");
  EXPECT_TRUE(HasHomomorphism(MustParseAtoms("E('a',y)"), db));
  EXPECT_FALSE(HasHomomorphism(MustParseAtoms("E('b',y)"), db));
}

TEST(HomTest, RepeatedVariablesForceEquality) {
  Instance db = Db("E('a','b')");
  EXPECT_FALSE(HasHomomorphism(MustParseAtoms("E(x,x)"), db));
  Instance loop = Db("E('a','a')");
  EXPECT_TRUE(HasHomomorphism(MustParseAtoms("E(x,x)"), loop));
}

TEST(HomTest, FixedBindingsAreRespected) {
  Instance db = Db("E('a','b'), E('c','d')");
  Substitution fixed = {{V("x"), C("c")}};
  auto hom = FindHomomorphism(MustParseAtoms("E(x,y)"), db, fixed);
  ASSERT_TRUE(hom.has_value());
  EXPECT_EQ(Apply(*hom, V("y")), C("d"));
}

TEST(HomTest, EmptySourceAlwaysMaps) {
  Instance db;
  EXPECT_TRUE(HasHomomorphism({}, db));
}

TEST(HomTest, AllSolutionsEnumerated) {
  Instance db = Db("E('a','b'), E('a','c'), E('b','c')");
  HomOptions options;
  options.max_solutions = 0;
  HomResult result = FindHomomorphisms(MustParseAtoms("E(x,y)"), db, options);
  EXPECT_EQ(result.solutions.size(), 3u);
}

TEST(HomTest, StepBudgetReportsExhaustion) {
  // A fired token truncates the search before it can find anything, and
  // the result says so.
  Generator gen(3);
  Instance db = gen.RandomDatabase({Predicate::Get("E", 2)}, 60, 12);
  ConjunctiveQuery clique = gen.CliqueQuery(9);
  CancelToken cancelled;
  cancelled.RequestCancel();
  HomOptions options;
  options.cancel = &cancelled;
  HomResult result = FindHomomorphisms(clique.body(), db, options);
  EXPECT_TRUE(result.budget_exhausted);
  EXPECT_FALSE(result.found);
}

TEST(HomTest, InjectiveModeRejectsCollapses) {
  Instance db = Db("E('a','a')");
  HomOptions options;
  options.injective = true;
  EXPECT_FALSE(
      FindHomomorphisms(MustParseAtoms("E(x,y)"), db, options).found);
  Instance db2 = Db("E('a','b')");
  EXPECT_TRUE(
      FindHomomorphisms(MustParseAtoms("E(x,y)"), db2, options).found);
}

TEST(EvaluateQueryTest, ReturnsTuples) {
  Instance db = Db("E('a','b'), E('b','c')");
  ConjunctiveQuery q = MustParseQuery("q(x,z) :- E(x,y), E(y,z)");
  auto answers = EvaluateQuery(q, db);
  ASSERT_EQ(answers.size(), 1u);
  EXPECT_EQ(answers[0][0], C("a"));
  EXPECT_EQ(answers[0][1], C("c"));
}

TEST(EvaluateQueryTest, DeduplicatesAnswers) {
  Instance db = Db("E('a','b'), E('a','c')");
  ConjunctiveQuery q = MustParseQuery("q(x) :- E(x,y)");
  EXPECT_EQ(EvaluateQuery(q, db).size(), 1u);
}

TEST(EvaluateQueryTest, DecisionVersion) {
  Instance db = Db("E('a','b')");
  ConjunctiveQuery q = MustParseQuery("q(x) :- E(x,y)");
  EXPECT_TRUE(EvaluatesTo(q, db, {C("a")}));
  EXPECT_FALSE(EvaluatesTo(q, db, {C("b")}));
}

TEST(EvaluateQueryTest, RepeatedHeadVariable) {
  Instance db = Db("E('a','a'), E('a','b')");
  ConjunctiveQuery q = MustParseQuery("q(x,x) :- E(x,x)");
  EXPECT_TRUE(EvaluatesTo(q, db, {C("a"), C("a")}));
  EXPECT_FALSE(EvaluatesTo(q, db, {C("a"), C("b")}));
}

TEST(HomEquivalenceTest, InstancesWithNulls) {
  Instance a, b;
  Term n1 = Term::FreshNull(), n2 = Term::FreshNull();
  Predicate e = Predicate::Get("E", 2);
  a.Insert(Atom(e, {C("a"), n1}));
  b.Insert(Atom(e, {C("a"), n2}));
  b.Insert(Atom(e, {C("a"), C("a")}));
  // a maps into b (null flexible) and b maps into a? E(a,a) needs a loop
  // in a: no. So not equivalent.
  EXPECT_TRUE(HasHomomorphism(a.atoms(), b));
  EXPECT_FALSE(HomomorphicallyEquivalent(a, b));
}

/// Property: EvaluateQuery agrees with a naive re-check of each answer.
class HomSweep : public ::testing::TestWithParam<int> {};

TEST_P(HomSweep, AnswersVerifyIndividually) {
  Generator gen(static_cast<uint64_t>(GetParam()));
  std::vector<Predicate> preds = {Predicate::Get("E", 2),
                                  Predicate::Get("F", 2)};
  Instance db = gen.RandomDatabase(preds, 30, 6);
  ConjunctiveQuery q = MustParseQuery("q(x,z) :- E(x,y), F(y,z)");
  auto answers = EvaluateQuery(q, db);
  for (const auto& t : answers) {
    EXPECT_TRUE(EvaluatesTo(q, db, t));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HomSweep, ::testing::Range(0, 10));

}  // namespace
}  // namespace semacyc
