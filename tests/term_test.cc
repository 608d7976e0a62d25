#include "core/term.h"

#include <gtest/gtest.h>

#include <set>
#include <unordered_set>

namespace semacyc {
namespace {

TEST(TermTest, DefaultConstructedIsInvalid) {
  Term t;
  EXPECT_FALSE(t.IsValid());
  EXPECT_FALSE(t.IsConstant());
  EXPECT_FALSE(t.IsNull());
  EXPECT_FALSE(t.IsVariable());
  EXPECT_EQ(t.ToString(), "<invalid>");
}

TEST(TermTest, ConstantsInternByName) {
  Term a1 = Term::Constant("alpha");
  Term a2 = Term::Constant("alpha");
  Term b = Term::Constant("beta");
  EXPECT_EQ(a1, a2);
  EXPECT_NE(a1, b);
  EXPECT_TRUE(a1.IsConstant());
  EXPECT_EQ(a1.name(), "alpha");
  EXPECT_EQ(a1.ToString(), "alpha");
}

TEST(TermTest, VariablesInternByName) {
  Term x1 = Term::Variable("x");
  Term x2 = Term::Variable("x");
  Term y = Term::Variable("y");
  EXPECT_EQ(x1, x2);
  EXPECT_NE(x1, y);
  EXPECT_TRUE(x1.IsVariable());
}

TEST(TermTest, ConstantAndVariableWithSameNameDiffer) {
  Term c = Term::Constant("n");
  Term v = Term::Variable("n");
  EXPECT_NE(c, v);
  EXPECT_EQ(c.kind(), TermKind::kConstant);
  EXPECT_EQ(v.kind(), TermKind::kVariable);
}

TEST(TermTest, NullIndicesRunToTheLastOne) {
  const uint32_t saved =
      internal::ExchangeNextNullIndexForTesting((1u << 30) - 1);
  Term last = Term::FreshNull();
  internal::ExchangeNextNullIndexForTesting(saved);
  EXPECT_TRUE(last.IsNull());
  EXPECT_EQ(last.index(), (1u << 30) - 1);
  EXPECT_NE(last, Term::NullAt(0));
}

TEST(TermTest, FreshNullFailsLoudlyOnceTheIndicesAreUsedUp) {
  // Past the last index a null would alias null 0 (and past 2^31 it would
  // not be a null at all), so FreshNull aborts with a message instead.
  EXPECT_DEATH(
      {
        internal::ExchangeNextNullIndexForTesting(1u << 30);
        Term::FreshNull();
      },
      "labeled nulls exhausted");
}

TEST(TermTest, FreshNullsAreDistinct) {
  std::set<Term> nulls;
  for (int i = 0; i < 1000; ++i) {
    Term n = Term::FreshNull();
    EXPECT_TRUE(n.IsNull());
    EXPECT_TRUE(nulls.insert(n).second) << "null minted twice";
  }
}

TEST(TermTest, NullToStringMentionsIndex) {
  Term n = Term::NullAt(42);
  EXPECT_EQ(n.ToString(), "_:42");
  EXPECT_EQ(n.index(), 42u);
}

TEST(TermTest, OrderingIsTotal) {
  Term a = Term::Constant("a");
  Term b = Term::Constant("b");
  EXPECT_TRUE((a < b) || (b < a));
  EXPECT_FALSE(a < a);
}

TEST(TermTest, HashingSupportsUnorderedContainers) {
  std::unordered_set<Term> set;
  set.insert(Term::Constant("c1"));
  set.insert(Term::Constant("c1"));
  set.insert(Term::Variable("c1"));
  set.insert(Term::FreshNull());
  EXPECT_EQ(set.size(), 3u);
}

TEST(TermTest, KindAndIndexRoundTrip) {
  Term c = Term::Constant("kind_round_trip");
  EXPECT_EQ(c.kind(), TermKind::kConstant);
  Term v = Term::Variable("kind_round_trip");
  EXPECT_EQ(v.kind(), TermKind::kVariable);
  EXPECT_NE(c.raw_bits(), v.raw_bits());
}

}  // namespace
}  // namespace semacyc
