#include <gtest/gtest.h>

#include "chase/dependency.h"
#include "core/parser.h"
#include "core/query.h"

namespace semacyc {
namespace {

TEST(ParserTest, ParsesBooleanQuery) {
  auto result = ParseQuery("R(x,y), S(y,z)");
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_TRUE(result->IsBoolean());
  EXPECT_EQ(result->size(), 2u);
}

TEST(ParserTest, ParsesHeadedQuery) {
  auto result = ParseQuery("q(x,y) :- R(x,z), S(z,y)");
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(result->arity(), 2u);
  EXPECT_EQ(result->head()[0], Term::Variable("x"));
  EXPECT_EQ(result->head()[1], Term::Variable("y"));
}

TEST(ParserTest, ParsesQuotedAndNumericConstants) {
  auto result = ParseQuery("R(x,'madrid'), S(x, 42)");
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(result->body()[0].arg(1), Term::Constant("madrid"));
  EXPECT_EQ(result->body()[1].arg(1), Term::Constant("42"));
}

TEST(ParserTest, ParsesZeroAryAtomAndTrailingDot) {
  auto result = ParseQuery("Flag().");
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(result->body()[0].arity(), 0u);
}

TEST(ParserTest, CommentsAreSkipped) {
  auto result = ParseQuery("R(x,y) % the edge\n, S(y,z) % another\n");
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(result->size(), 2u);
}

TEST(ParserTest, ReportsErrors) {
  EXPECT_FALSE(ParseQuery("R(x,").ok());
  EXPECT_FALSE(ParseQuery("R(x,y) S(y)").ok());
  EXPECT_FALSE(ParseQuery("(x)").ok());
  EXPECT_FALSE(ParseQuery("R(x,'unterminated)").ok());
}

TEST(ParserTest, RejectsHeadVariableMissingFromBody) {
  ParseResult<ConjunctiveQuery> unsafe =
      ParseQuery("q(y) :- Interest(x,z), Class(w,z), Interest(w,x)");
  ASSERT_FALSE(unsafe.ok());
  EXPECT_NE(unsafe.error.find("'y'"), std::string::npos) << unsafe.error;
  // Constants in the head need no binding; bound variables are fine.
  EXPECT_TRUE(ParseQuery("q(x,'a') :- R(x,y)").ok());
}

TEST(ParserTest, TgdParsesWithImplicitExistential) {
  Tgd tgd = MustParseTgd("R(x,y), P(y,z) -> T(x,y,w)");
  EXPECT_EQ(tgd.body().size(), 2u);
  EXPECT_EQ(tgd.head().size(), 1u);
  ASSERT_EQ(tgd.existential_variables().size(), 1u);
  EXPECT_EQ(tgd.existential_variables()[0], Term::Variable("w"));
  EXPECT_EQ(tgd.frontier().size(), 2u);  // x and y
}

TEST(ParserTest, TgdWithMultiAtomHead) {
  Tgd tgd = MustParseTgd("R(x,y) -> S(x,u), T(u,y)");
  EXPECT_EQ(tgd.head().size(), 2u);
  EXPECT_EQ(tgd.existential_variables().size(), 1u);
}

TEST(ParserTest, EgdParses) {
  Egd egd = MustParseEgd("R(x,y), R(x,z) -> y = z");
  EXPECT_EQ(egd.body().size(), 2u);
  EXPECT_EQ(egd.lhs(), Term::Variable("y"));
  EXPECT_EQ(egd.rhs(), Term::Variable("z"));
}

TEST(ParserTest, EgdVariableMissingFromBodyIsRejected) {
  // Neither d nor e occurs in the body: the egd equates nothing and must
  // not reach the chase.
  const char* text = "R(a,b), R(a,c) -> d = e.";
  ParseResult<Egd> egd = ParseEgd(text);
  EXPECT_FALSE(egd.ok());
  EXPECT_NE(egd.error.find("'d'"), std::string::npos) << egd.error;
  ParseResult<DependencySet> set = ParseDependencySet(text);
  EXPECT_FALSE(set.ok());
  EXPECT_NE(set.error.find("'d'"), std::string::npos) << set.error;
  // Only the right-hand side missing: the error names it.
  ParseResult<Egd> rhs = ParseEgd("R(a,b), R(a,c) -> b = e");
  EXPECT_FALSE(rhs.ok());
  EXPECT_NE(rhs.error.find("'e'"), std::string::npos) << rhs.error;
}

TEST(ParserTest, DependencySetMixesTgdsAndEgds) {
  DependencySet set = MustParseDependencySet(
      "R(x,y) -> S(y).\n"
      "% a key:\n"
      "S2(x,y), S2(x,z) -> y = z.\n"
      "T(x) -> U(x,w).");
  EXPECT_EQ(set.tgds.size(), 2u);
  EXPECT_EQ(set.egds.size(), 1u);
  EXPECT_EQ(set.size(), 3u);
}

TEST(QueryTest, VariablesAndExistentials) {
  ConjunctiveQuery q = MustParseQuery("q(x) :- R(x,y), S(y,z)");
  EXPECT_EQ(q.Variables().size(), 3u);
  EXPECT_EQ(q.FreeVariables().size(), 1u);
  EXPECT_EQ(q.ExistentialVariables().size(), 2u);
}

TEST(QueryTest, ConnectedComponents) {
  ConjunctiveQuery q = MustParseQuery("R(x,y), S(y,z), T(u,v)");
  auto comps = q.ConnectedComponents();
  EXPECT_EQ(comps.size(), 2u);
  EXPECT_FALSE(q.IsConnected());
  EXPECT_TRUE(MustParseQuery("R(x,y), S(y,z)").IsConnected());
}

TEST(QueryTest, ConstantsDoNotConnect) {
  ConjunctiveQuery q = MustParseQuery("R(x,'c'), S('c',y)");
  EXPECT_FALSE(q.IsConnected());
}

TEST(QueryTest, SubstituteAndRenameApart) {
  ConjunctiveQuery q = MustParseQuery("q(x) :- R(x,y)");
  Substitution sub = {{Term::Variable("y"), Term::Variable("fresh")}};
  ConjunctiveQuery q2 = q.Substitute(sub);
  EXPECT_TRUE(q2.body()[0].Mentions(Term::Variable("fresh")));
  ConjunctiveQuery q3 = q.RenameApart();
  for (Term v : q3.Variables()) {
    EXPECT_EQ(v.name().rfind("v$", 0), 0u) << v.ToString();
  }
}

TEST(QueryTest, FreezeToConstantsAndBack) {
  ConjunctiveQuery q = MustParseQuery("q(x) :- R(x,y), S(y,'k')");
  FrozenQuery frozen = Freeze(q);
  EXPECT_EQ(frozen.instance.size(), 2u);
  EXPECT_EQ(frozen.frozen_head.size(), 1u);
  EXPECT_TRUE(frozen.frozen_head[0].IsConstant());
  // Genuine constants survive freezing.
  bool found_k = false;
  for (const Atom& a : frozen.instance.atoms()) {
    if (a.Mentions(Term::Constant("k"))) found_k = true;
  }
  EXPECT_TRUE(found_k);

  ConjunctiveQuery back =
      QueryFromInstance(frozen.instance, frozen.frozen_head);
  EXPECT_EQ(back.size(), q.size());
  EXPECT_EQ(back.arity(), q.arity());
  // The genuine constant is still a constant after unfreezing.
  bool constant_kept = false;
  for (const Atom& a : back.body()) {
    if (a.Mentions(Term::Constant("k"))) constant_kept = true;
  }
  EXPECT_TRUE(constant_kept);
}

TEST(QueryTest, FreezeToNulls) {
  ConjunctiveQuery q = MustParseQuery("R(x,y)");
  FrozenQuery frozen = Freeze(q, TermKind::kNull);
  for (const Atom& a : frozen.instance.atoms()) {
    for (Term t : a.args()) EXPECT_TRUE(t.IsNull());
  }
}

TEST(QueryTest, TwoFreezesUseDistinctConstants) {
  ConjunctiveQuery q = MustParseQuery("R(x,y)");
  FrozenQuery f1 = Freeze(q);
  FrozenQuery f2 = Freeze(q);
  EXPECT_FALSE(f1.instance == f2.instance);
}

TEST(UnionQueryTest, HeightAndToString) {
  UnionQuery Q({MustParseQuery("R(x,y)"), MustParseQuery("R(x,y), S(y,z)")});
  EXPECT_EQ(Q.size(), 2u);
  EXPECT_EQ(Q.Height(), 2u);
  EXPECT_NE(Q.ToString().find("UNION"), std::string::npos);
}

TEST(QueryTest, ToStringRoundTripsThroughParser) {
  ConjunctiveQuery q = MustParseQuery("q(x,y) :- R(x,z), S(z,y), T(x,y)");
  auto reparsed = ParseQuery(q.ToString());
  ASSERT_TRUE(reparsed.ok()) << reparsed.error;
  EXPECT_EQ(reparsed->size(), q.size());
  EXPECT_EQ(reparsed->arity(), q.arity());
}

}  // namespace
}  // namespace semacyc
