#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/atom.h"
#include "core/instance.h"
#include "core/parser.h"

namespace semacyc {
namespace {

Term C(const std::string& s) { return Term::Constant(s); }
Term V(const std::string& s) { return Term::Variable(s); }

TEST(PredicateTest, InternsByNameAndArity) {
  Predicate r2 = Predicate::Get("R", 2);
  Predicate r2b = Predicate::Get("R", 2);
  Predicate r3 = Predicate::Get("R", 3);
  EXPECT_EQ(r2, r2b);
  EXPECT_NE(r2, r3);
  EXPECT_EQ(r2.arity(), 2);
  EXPECT_EQ(r3.ToString(), "R/3");
}

TEST(AtomTest, BasicAccessors) {
  Atom a(Predicate::Get("Edge", 2), {C("u"), C("v")});
  EXPECT_EQ(a.arity(), 2u);
  EXPECT_EQ(a.arg(0), C("u"));
  EXPECT_TRUE(a.Mentions(C("v")));
  EXPECT_FALSE(a.Mentions(C("w")));
  // Constants print quoted, so the atom parses back as the same atom.
  EXPECT_EQ(a.ToString(), "Edge('u','v')");
}

TEST(AtomTest, DistinctTermsDeduplicates) {
  Atom a(Predicate::Get("T", 3), {C("u"), C("u"), C("v")});
  EXPECT_EQ(a.DistinctTerms().size(), 2u);
}

TEST(AtomTest, MentionsKind) {
  Atom a(Predicate::Get("Mix", 2), {C("u"), V("x")});
  EXPECT_TRUE(a.MentionsKind(TermKind::kConstant));
  EXPECT_TRUE(a.MentionsKind(TermKind::kVariable));
  EXPECT_FALSE(a.MentionsKind(TermKind::kNull));
}

TEST(AtomTest, EqualityAndHash) {
  Atom a1(Predicate::Get("R", 2), {C("a"), C("b")});
  Atom a2(Predicate::Get("R", 2), {C("a"), C("b")});
  Atom a3(Predicate::Get("R", 2), {C("b"), C("a")});
  EXPECT_EQ(a1, a2);
  EXPECT_NE(a1, a3);
  EXPECT_EQ(AtomHash{}(a1), AtomHash{}(a2));
}

TEST(InstanceTest, InsertDeduplicates) {
  Instance inst;
  EXPECT_TRUE(inst.Insert(Atom(Predicate::Get("R", 2), {C("a"), C("b")})));
  EXPECT_FALSE(inst.Insert(Atom(Predicate::Get("R", 2), {C("a"), C("b")})));
  EXPECT_EQ(inst.size(), 1u);
}

TEST(InstanceTest, PerPredicateIndex) {
  Instance inst;
  inst.InsertAll(MustParseAtoms("R('a','b'), R('b','c'), S('a')"));
  EXPECT_EQ(inst.AtomsOf(Predicate::Get("R", 2)).size(), 2u);
  EXPECT_EQ(inst.AtomsOf(Predicate::Get("S", 1)).size(), 1u);
  EXPECT_TRUE(inst.AtomsOf(Predicate::Get("T", 1)).empty());
}

TEST(InstanceTest, PositionIndexFindsCandidates) {
  Instance inst;
  inst.InsertAll(MustParseAtoms("R('a','b'), R('a','c'), R('b','c')"));
  const auto* hits = inst.FindCandidates(Predicate::Get("R", 2), 0, C("a"));
  ASSERT_NE(hits, nullptr);
  EXPECT_EQ(hits->size(), 2u);
  EXPECT_EQ(inst.FindCandidates(Predicate::Get("R", 2), 0, C("z")), nullptr);
}

TEST(InstanceTest, ActiveDomain) {
  Instance inst;
  inst.InsertAll(MustParseAtoms("R('a','b'), S('b')"));
  EXPECT_EQ(inst.ActiveDomain().size(), 2u);
}

TEST(InstanceTest, ReplaceTermMergesAtoms) {
  Instance inst;
  inst.InsertAll(MustParseAtoms("R('a','b'), R('a','c'), S('b'), S('c')"));
  size_t changed = inst.ReplaceTerm(C("c"), C("b"));
  EXPECT_EQ(changed, 2u);
  EXPECT_EQ(inst.size(), 2u);  // R(a,b) and S(b) remain
  EXPECT_TRUE(inst.Contains(Atom(Predicate::Get("R", 2), {C("a"), C("b")})));
  EXPECT_FALSE(inst.Contains(Atom(Predicate::Get("R", 2), {C("a"), C("c")})));
}

TEST(InstanceTest, ReplaceTermRebuildsIndexes) {
  Instance inst;
  inst.InsertAll(MustParseAtoms("R('a','b')"));
  inst.ReplaceTerm(C("b"), C("z"));
  EXPECT_NE(inst.FindCandidates(Predicate::Get("R", 2), 1, C("z")), nullptr);
  EXPECT_EQ(inst.FindCandidates(Predicate::Get("R", 2), 1, C("b")), nullptr);
}

TEST(InstanceTest, RestrictKeepsSelectedAtoms) {
  Instance inst;
  inst.InsertAll(MustParseAtoms("R('a','b'), R('b','c'), R('c','d')"));
  Instance sub = inst.Restrict({0, 2});
  EXPECT_EQ(sub.size(), 2u);
  EXPECT_TRUE(sub.Contains(inst.atom(0)));
  EXPECT_FALSE(sub.Contains(inst.atom(1)));
}

TEST(InstanceTest, AtomsMentioning) {
  Instance inst;
  inst.InsertAll(MustParseAtoms("R('a','b'), R('b','c'), S('d')"));
  EXPECT_EQ(inst.AtomsMentioning(C("b")).size(), 2u);
  EXPECT_EQ(inst.AtomsMentioning(C("d")).size(), 1u);
  EXPECT_TRUE(inst.AtomsMentioning(C("q")).empty());
}

/// Every lookup of `got` equals the same lookup of `want`: atoms and
/// their order, each predicate's list and each (predicate, position,
/// term) bucket of `want`'s atoms, and `absent`'s terms and predicates.
void ExpectSameIndex(const Instance& got, const Instance& want,
                     const std::vector<Atom>& absent) {
  ASSERT_EQ(got.atoms(), want.atoms());
  std::vector<Atom> probes = want.atoms();
  probes.insert(probes.end(), absent.begin(), absent.end());
  for (const Atom& a : probes) {
    EXPECT_EQ(got.AtomsOf(a.predicate()), want.AtomsOf(a.predicate()));
    for (size_t pos = 0; pos < a.arity(); ++pos) {
      const std::vector<uint32_t>* g =
          got.FindCandidates(a.predicate(), pos, a.arg(pos));
      const std::vector<uint32_t>* w =
          want.FindCandidates(a.predicate(), pos, a.arg(pos));
      ASSERT_EQ(g == nullptr, w == nullptr) << a.ToString() << " @" << pos;
      if (w != nullptr) EXPECT_EQ(*g, *w) << a.ToString() << " @" << pos;
      EXPECT_EQ(got.AtomsMentioning(a.arg(pos)),
                want.AtomsMentioning(a.arg(pos)));
    }
  }
}

TEST(InstanceTest, ClearedInstanceIndexesLikeAFreshOne) {
  const std::vector<Atom> first = MustParseAtoms(
      "R('a','b'), R('b','c'), S('c'), T('a','b','c'), R('c','a')");
  const std::vector<Atom> second =
      MustParseAtoms("S('d'), R('d','e'), R('e','d'), S('e'), R('d','d')");
  Instance fresh;
  fresh.InsertAll(second);
  Instance pooled;
  pooled.InsertAll(first);
  pooled.Clear();
  EXPECT_TRUE(pooled.empty());
  pooled.InsertAll(second);
  ExpectSameIndex(pooled, fresh, first);
  // After a merge has rebuilt the index (and left emptied buckets behind),
  // a cleared instance still indexes a refill like a fresh one.
  pooled.ReplaceTerm(C("e"), C("d"));
  pooled.Clear();
  pooled.InsertAll(second);
  ExpectSameIndex(pooled, fresh, first);
  pooled.Clear();
  pooled.InsertAll(first);
  Instance fresh_first;
  fresh_first.InsertAll(first);
  ExpectSameIndex(pooled, fresh_first, second);
}

TEST(InstanceTest, ClearKeepsSmallBuffersAndReleasesLargeOnes) {
  Predicate r = Predicate::Get("R", 2);
  auto fill = [&](Instance* inst, size_t n) {
    for (size_t i = 0; i < n; ++i) {
      inst->Insert(Atom(r, {C("k" + std::to_string(i)), C("k0")}));
    }
  };
  Instance small;
  fill(&small, 8);
  small.Clear();
  EXPECT_GE(small.atoms().capacity(), 8u);
  Instance large;
  fill(&large, Instance::kKeepAtoms + 1);
  large.Clear();
  EXPECT_EQ(large.atoms().capacity(), 0u);
  // Either way the instance refills like a fresh one.
  Instance fresh;
  fill(&fresh, 8);
  fill(&large, 8);
  ExpectSameIndex(large, fresh, {});
}

TEST(InstanceTest, EqualityIsSetEquality) {
  Instance a, b;
  a.InsertAll(MustParseAtoms("R('a','b'), S('c')"));
  b.InsertAll(MustParseAtoms("S('c'), R('a','b')"));
  EXPECT_TRUE(a == b);
  b.Insert(Atom(Predicate::Get("S", 1), {C("d")}));
  EXPECT_FALSE(a == b);
}

}  // namespace
}  // namespace semacyc
