#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "chase/egd_chase.h"
#include "chase/query_chase.h"
#include "chase/tgd_chase.h"
#include "core/gaifman.h"
#include "core/hypergraph.h"
#include "core/parser.h"
#include "gen/generators.h"

namespace semacyc {
namespace {

Term C(const std::string& s) { return Term::Constant(s); }

Instance Db(const std::string& atoms) {
  Instance inst;
  inst.InsertAll(MustParseAtoms(atoms));
  return inst;
}

TEST(TgdChaseTest, FullTgdsTerminate) {
  DependencySet sigma = MustParseDependencySet("E(x,y), E(y,z) -> E(x,z)");
  Instance db = Db("E('a','b'), E('b','c'), E('c','d')");
  ChaseResult result = ChaseTgds(db, sigma.tgds);
  EXPECT_TRUE(result.saturated);
  // Transitive closure of a 3-path: 3+2+1 edges.
  EXPECT_EQ(result.instance.size(), 6u);
  EXPECT_TRUE(Satisfies(result.instance, sigma));
}

TEST(TgdChaseTest, ExistentialsCreateNulls) {
  DependencySet sigma = MustParseDependencySet("P(x) -> E(x,y)");
  Instance db = Db("P('a')");
  ChaseResult result = ChaseTgds(db, sigma.tgds);
  EXPECT_TRUE(result.saturated);
  EXPECT_EQ(result.instance.size(), 2u);
  bool has_null = false;
  for (const Atom& a : result.instance.atoms()) {
    if (a.MentionsKind(TermKind::kNull)) has_null = true;
  }
  EXPECT_TRUE(has_null);
}

TEST(TgdChaseTest, RestrictedChaseSkipsSatisfiedTriggers) {
  DependencySet sigma = MustParseDependencySet("P(x) -> E(x,y)");
  Instance db = Db("P('a'), E('a','b')");
  ChaseResult result = ChaseTgds(db, sigma.tgds);
  EXPECT_TRUE(result.saturated);
  EXPECT_EQ(result.instance.size(), 2u);  // nothing added
}

TEST(TgdChaseTest, ObliviousChaseFiresAnyway) {
  DependencySet sigma = MustParseDependencySet("P(x) -> E(x,y)");
  Instance db = Db("P('a'), E('a','b')");
  ChaseOptions options;
  options.variant = ChaseOptions::Variant::kOblivious;
  ChaseResult result = ChaseTgds(db, sigma.tgds, options);
  EXPECT_EQ(result.instance.size(), 3u);  // fresh null edge added
}

TEST(TgdChaseTest, NonTerminatingChaseHitsBudget) {
  DependencySet sigma = MustParseDependencySet("E(x,y) -> E(y,z)");
  Instance db = Db("E('a','b')");
  ChaseOptions options;
  options.max_rounds = 10;
  ChaseResult result = ChaseTgds(db, sigma.tgds, options);
  EXPECT_FALSE(result.saturated);
  EXPECT_GE(result.instance.size(), 10u);
}

TEST(TgdChaseTest, FairnessAcrossTgds) {
  DependencySet sigma =
      MustParseDependencySet("A(x) -> B(x). B(x) -> Cc(x). Cc(x) -> D(x).");
  ChaseResult result = ChaseTgds(Db("A('a')"), sigma.tgds);
  EXPECT_TRUE(result.saturated);
  EXPECT_EQ(result.instance.size(), 4u);
}

TEST(TgdChaseTest, ExampleTwoCliqueEmerges) {
  // Example 2: chase of P(x1)..P(xn) under P(x),P(y) -> R(x,y) yields an
  // n-clique on the Gaifman graph (and destroys acyclicity).
  for (int n : {3, 5, 7}) {
    CliqueChaseWorkload w = MakeCliqueChaseWorkload(n);
    QueryChaseResult chase = ChaseQuery(w.q, w.sigma);
    EXPECT_TRUE(chase.saturated);
    // n unary atoms + n^2 binary atoms (including loops).
    EXPECT_EQ(chase.instance.size(),
              static_cast<size_t>(n) + static_cast<size_t>(n) * n);
    GaifmanGraph g =
        GaifmanGraph::Of(chase.instance, ConnectingTerms::kAllTerms);
    EXPECT_GE(g.GreedyCliqueLowerBound(), static_cast<size_t>(n));
    if (n >= 3) {
      EXPECT_FALSE(IsAcyclicChase(chase.instance));
    }
    EXPECT_TRUE(IsAcyclic(w.q));  // the input was acyclic
  }
}

TEST(EgdChaseTest, FunctionalDependencyMergesNulls) {
  Term n1 = Term::FreshNull(), n2 = Term::FreshNull();
  Predicate r = Predicate::Get("R", 2);
  Instance db;
  db.Insert(Atom(r, {C("a"), n1}));
  db.Insert(Atom(r, {C("a"), n2}));
  std::vector<Egd> egds = {MustParseEgd("R(x,y), R(x,z) -> y = z")};
  Substitution term_map;
  EgdChaseResult result = ChaseEgds(db, egds, &term_map);
  EXPECT_FALSE(result.failed);
  EXPECT_TRUE(result.changed);
  EXPECT_EQ(result.instance.size(), 1u);
}

TEST(EgdChaseTest, ConstantBeatsNull) {
  Term n1 = Term::FreshNull();
  Predicate r = Predicate::Get("R", 2);
  Instance db;
  db.Insert(Atom(r, {C("a"), n1}));
  db.Insert(Atom(r, {C("a"), C("b")}));
  std::vector<Egd> egds = {MustParseEgd("R(x,y), R(x,z) -> y = z")};
  EgdChaseResult result = ChaseEgds(db, egds);
  EXPECT_FALSE(result.failed);
  EXPECT_EQ(result.instance.size(), 1u);
  EXPECT_TRUE(result.instance.Contains(Atom(r, {C("a"), C("b")})));
}

TEST(EgdChaseTest, ConstantClashFails) {
  Instance db = Db("R('a','b'), R('a','c')");
  std::vector<Egd> egds = {MustParseEgd("R(x,y), R(x,z) -> y = z")};
  EgdChaseResult result = ChaseEgds(db, egds);
  EXPECT_TRUE(result.failed);
}

TEST(EgdChaseTest, CascadingMerges) {
  // Merging at one level triggers merges at the next.
  Term n1 = Term::FreshNull(), n2 = Term::FreshNull(), n3 = Term::FreshNull(),
       n4 = Term::FreshNull();
  Predicate r = Predicate::Get("R", 2);
  Instance db;
  db.Insert(Atom(r, {C("a"), n1}));
  db.Insert(Atom(r, {C("a"), n2}));
  db.Insert(Atom(r, {n1, n3}));
  db.Insert(Atom(r, {n2, n4}));
  std::vector<Egd> egds = {MustParseEgd("R(x,y), R(x,z) -> y = z")};
  EgdChaseResult result = ChaseEgds(db, egds);
  EXPECT_FALSE(result.failed);
  EXPECT_EQ(result.instance.size(), 2u);  // chain collapses
  EXPECT_GE(result.merges, 2u);
}

TEST(EgdChaseTest, ExampleFourDestroysAcyclicity) {
  KeySquareWorkload w = MakeKeySquareWorkload();
  EXPECT_TRUE(IsAcyclic(w.q));
  QueryChaseResult chase = ChaseQuery(w.q, w.sigma);
  EXPECT_TRUE(chase.saturated);
  EXPECT_FALSE(chase.failed);
  // R(x,y) and R(x,v) merge y = v; the S-chain closes into a cycle.
  EXPECT_EQ(chase.instance.size(), 4u);
  EXPECT_FALSE(IsAcyclicChase(chase.instance));
}

TEST(QueryChaseTest, FrozenHeadTracksMerges) {
  ConjunctiveQuery q = MustParseQuery("q(y,z) :- R(x,y), R(x,z)");
  DependencySet sigma = MustParseDependencySet("R(x,y), R(x,z) -> y = z");
  QueryChaseResult chase = ChaseQuery(q, sigma);
  EXPECT_TRUE(chase.saturated);
  EXPECT_EQ(chase.frozen_head[0], chase.frozen_head[1]);
}

TEST(QueryChaseTest, MixedTgdsAndEgds) {
  ConjunctiveQuery q = MustParseQuery("A(x)");
  DependencySet sigma = MustParseDependencySet(
      "A(x) -> R(x,y).\n"
      "A(x) -> R(x,z).\n"
      "R(x,y), R(x,z) -> y = z.");
  QueryChaseResult chase = ChaseQuery(q, sigma);
  EXPECT_TRUE(chase.saturated);
  EXPECT_FALSE(chase.failed);
  EXPECT_EQ(chase.instance.size(), 2u);  // A(x) + one merged R-atom
  EXPECT_TRUE(Satisfies(chase.instance, sigma));
}

TEST(ContainmentUnderTest, ExampleOneEquivalence) {
  // Example 1: q ≡Σ q' where q drops the Owns atom.
  ConjunctiveQuery q =
      MustParseQuery("q(x,y) :- Interest(x,z), Class(y,z), Owns(x,y)");
  ConjunctiveQuery q_prime =
      MustParseQuery("q(x,y) :- Interest(x,z), Class(y,z)");
  DependencySet sigma =
      MustParseDependencySet("Interest(x,z), Class(y,z) -> Owns(x,y)");
  EXPECT_EQ(EquivalentUnder(q, q_prime, sigma), Tri::kYes);
  // Without the tgd they are not equivalent.
  DependencySet empty;
  EXPECT_EQ(EquivalentUnder(q, q_prime, empty), Tri::kNo);
}

TEST(ContainmentUnderTest, DirectionalityUnderTgds) {
  DependencySet sigma = MustParseDependencySet("A(x) -> B(x)");
  ConjunctiveQuery qa = MustParseQuery("A(x)");
  ConjunctiveQuery qb = MustParseQuery("B(x)");
  EXPECT_EQ(ContainedUnder(qa, qb, sigma), Tri::kYes);
  EXPECT_EQ(ContainedUnder(qb, qa, sigma), Tri::kNo);
}

TEST(ContainmentUnderTest, TruncatedChaseGivesUnknown) {
  DependencySet sigma = MustParseDependencySet("E(x,y) -> E(y,z)");
  ConjunctiveQuery q1 = MustParseQuery("E(x,y)");
  ConjunctiveQuery q2 = MustParseQuery("Zz(x)");  // never derivable
  ChaseOptions options;
  options.max_rounds = 4;
  EXPECT_EQ(ContainedUnder(q1, q2, sigma, options), Tri::kUnknown);
}

TEST(ContainmentUnderTest, SoundYesOnTruncatedChase) {
  DependencySet sigma = MustParseDependencySet("E(x,y) -> E(y,z)");
  ConjunctiveQuery q1 = MustParseQuery("E(x,y)");
  ConjunctiveQuery q2 = MustParseQuery("E(x,y), E(y,z)");
  ChaseOptions options;
  options.max_rounds = 4;
  EXPECT_EQ(ContainedUnder(q1, q2, sigma, options), Tri::kYes);
}

TEST(ContainmentUnderTest, UcqVariant) {
  DependencySet sigma = MustParseDependencySet("A(x) -> B(x)");
  ConjunctiveQuery q = MustParseQuery("A(x)");
  UnionQuery Q({MustParseQuery("Cq(x)"), MustParseQuery("B(x)")});
  EXPECT_EQ(ContainedUnder(q, Q, sigma), Tri::kYes);
  UnionQuery Q2({MustParseQuery("Cq(x)")});
  EXPECT_EQ(ContainedUnder(q, Q2, sigma), Tri::kNo);
}

TEST(SatisfiesTest, DetectsViolations) {
  DependencySet sigma = MustParseDependencySet("E(x,y), E(y,z) -> E(x,z)");
  EXPECT_FALSE(Satisfies(Db("E('a','b'), E('b','c')"), sigma));
  EXPECT_TRUE(Satisfies(Db("E('a','b'), E('b','c'), E('a','c')"), sigma));
  DependencySet key = MustParseDependencySet("R(x,y), R(x,z) -> y = z");
  EXPECT_TRUE(Satisfies(Db("R('a','b')"), key));
  EXPECT_FALSE(Satisfies(Db("R('a','b'), R('a','c')"), key));
}

// Golden chase order. Every chase below is pinned atom by atom, so a change
// to trigger discovery, trigger dedup, firing, egd repair or the instance's
// storage that moves the insertion order, the null order, `steps`,
// `saturated` or an egd merge fails here.
/// One golden chase: a query, its Σ and the chase options.
struct GoldenCase {
  std::string name;
  ConjunctiveQuery q;
  DependencySet sigma;
  ChaseOptions options;
};

/// chase(q, Σ) as the golden tests pin it: the atoms in insertion order
/// with nulls renumbered by first appearance (the global null counter
/// depends on what ran before), then steps, saturated, failed, the frozen
/// head and each query variable's representative.
std::string Golden(const GoldenCase& c) {
  QueryChaseResult chase = ChaseQuery(c.q, c.sigma, c.options);
  std::unordered_map<Term, size_t, TermHash> null_ids;
  auto name = [&](Term t) {
    if (!t.IsNull()) return t.ToString();
    return "_" + std::to_string(
                     null_ids.emplace(t, null_ids.size()).first->second);
  };
  std::string out;
  for (const Atom& a : chase.instance.atoms()) {
    out += a.predicate().name() + "(";
    for (size_t i = 0; i < a.arity(); ++i) {
      out += (i > 0 ? "," : "") + name(a.arg(i));
    }
    out += ") ";
  }
  out += "| steps=" + std::to_string(chase.steps) +
         " saturated=" + std::to_string(chase.saturated) +
         " failed=" + std::to_string(chase.failed) + " head=(";
  for (size_t i = 0; i < chase.frozen_head.size(); ++i) {
    out += (i > 0 ? "," : "") + name(chase.frozen_head[i]);
  }
  out += ") vars:";
  for (Term v : c.q.Variables()) {
    out += " " + v.ToString() + ":" + name(chase.var_to_frozen.at(v));
  }
  return out;
}

std::vector<GoldenCase> GoldenCases() {
  // The four decide-hard schemas, each on its 3- and 4-atom pool queries.
  const char* kGuarded = "T(x,y) -> E(y,z), E(z,x).";
  const char* kNr = "B1(x,y), B2(y,z) -> B3(z,x).";
  const char* kSticky = "R(x,y), P(y,z) -> P(y,x).";
  const char* kEgd = "R(a,b), R(a,c) -> b = c.";
  const std::pair<const char*, const char*> kPool[] = {
      {kGuarded, "T(x0,x2), E(x2,x1), E(x0,x1)"},
      {kGuarded, "T(x2,x1), T(x0,x1), E(x0,x2)"},
      {kGuarded, "E(x0,x3), T(x3,x2), T(x1,x3), E(x0,x2)"},
      {kGuarded, "E(x1,x3), T(x2,x1), E(x2,x3), T(x0,x1)"},
      {kGuarded, "E(x3,x1), E(x1,x0), E(x0,x2), T(x2,x1)"},
      {kGuarded, "E(x2,x0), T(x3,x1), E(x1,x2), E(x2,x3)"},
      {kNr, "B1(x0,x2), B3(x2,x1), B2(x0,x1)"},
      {kNr, "B1(x0,x1), B2(x2,x0), B3(x1,x2)"},
      {kNr, "B3(x2,x1), B1(x3,x2), B2(x1,x3), B2(x3,x0)"},
      {kNr, "B3(x0,x1), B2(x2,x1), B2(x3,x2), B1(x1,x3)"},
      {kNr, "B3(x0,x3), B2(x0,x2), B3(x2,x3), B1(x3,x0)"},
      {kNr, "B3(x2,x0), B1(x1,x2), B1(x0,x3), B2(x3,x2)"},
      {kSticky, "R(x0,x2), P(x1,x2), P(x0,x1)"},
      {kSticky, "P(x0,x2), P(x1,x0), P(x2,x1)"},
      {kSticky, "R(x3,x2), P(x1,x3), P(x2,x0), R(x3,x0)"},
      {kSticky, "R(x2,x2), P(x3,x0), P(x1,x0), P(x3,x1)"},
      {kEgd, "E(x2,x1), R(x2,x0), E(x1,x0)"},
      {kEgd, "E(x0,x2), E(x2,x1), R(x1,x0)"},
      {kEgd, "E(x0,x3), R(x2,x0), E(x2,x3), R(x0,x3)"},
      {kEgd, "R(x2,x3), E(x1,x3), R(x0,x3), E(x1,x0)"},
  };
  std::vector<GoldenCase> out;
  for (size_t i = 0; i < std::size(kPool); ++i) {
    out.push_back({"pool" + std::to_string(i), MustParseQuery(kPool[i].second),
                   MustParseDependencySet(kPool[i].first), {}});
  }
  CliqueChaseWorkload clique = MakeCliqueChaseWorkload(4);
  out.push_back({"clique4", clique.q, clique.sigma, {}});
  // The recursive guarded probe, whose chase never ends, cut at 50 steps.
  ChaseOptions fifty;
  fifty.max_steps = 50;
  out.push_back({"probe50", MustParseQuery("G(x,y), G(y,z), G(z,x), P(x)"),
                 MustParseDependencySet("G(x,y), P(x) -> G(y,w), P(y)."),
                 fifty});
  // Tgds and egds interleaved: the tgds invent nulls the egds then merge,
  // over several phases, with a non-Boolean head.
  out.push_back({"mix",
                 MustParseQuery(
                     "q(x,u) :- A(x,y), A(x,z), B(y,u), B(z,t), A(x,'k')"),
                 MustParseDependencySet("A(x,y) -> B(y,w), C(w).\n"
                                        "B(y,w), B(y,v) -> w = v.\n"
                                        "A(x,y), A(x,z) -> y = z.\n"
                                        "C(w) -> D(w,v)."),
                 {}});
  return out;
}

TEST(ChaseGoldenTest, ChaseOrderIsPinned) {
  const std::map<std::string, std::string> kGolden = {
      {"pool0",
       "T(_0,_1) E(_1,_2) E(_0,_2) E(_1,_3) E(_3,_0) | steps=1 "
       "saturated=1 failed=0 head=() vars: x0:_0 x2:_1 x1:_2"},
      {"pool1",
       "T(_0,_1) T(_2,_1) E(_2,_0) E(_1,_3) E(_3,_0) E(_1,_4) E(_4,_2) | "
       "steps=2 saturated=1 failed=0 head=() vars: x2:_0 x1:_1 x0:_2"},
      {"pool2",
       "E(_0,_1) T(_1,_2) T(_3,_1) E(_0,_2) E(_2,_4) E(_4,_1) E(_1,_5) "
       "E(_5,_3) | steps=2 saturated=1 failed=0 head=() vars: x0:_0 "
       "x3:_1 x2:_2 x1:_3"},
      {"pool3",
       "E(_0,_1) T(_2,_0) E(_2,_1) T(_3,_0) E(_0,_4) E(_4,_2) E(_0,_5) "
       "E(_5,_3) | steps=2 saturated=1 failed=0 head=() vars: x1:_0 "
       "x3:_1 x2:_2 x0:_3"},
      {"pool4",
       "E(_0,_1) E(_1,_2) E(_2,_3) T(_3,_1) | steps=0 saturated=1 "
       "failed=0 head=() vars: x3:_0 x1:_1 x0:_2 x2:_3"},
      {"pool5",
       "E(_0,_1) T(_2,_3) E(_3,_0) E(_0,_2) | steps=0 saturated=1 "
       "failed=0 head=() vars: x2:_0 x0:_1 x3:_2 x1:_3"},
      {"pool6",
       "B1(_0,_1) B3(_1,_2) B2(_0,_2) | steps=0 saturated=1 failed=0 "
       "head=() vars: x0:_0 x2:_1 x1:_2"},
      {"pool7",
       "B1(_0,_1) B2(_2,_0) B3(_1,_2) | steps=0 saturated=1 failed=0 "
       "head=() vars: x0:_0 x1:_1 x2:_2"},
      {"pool8",
       "B3(_0,_1) B1(_2,_0) B2(_1,_2) B2(_2,_3) | steps=0 saturated=1 "
       "failed=0 head=() vars: x2:_0 x1:_1 x3:_2 x0:_3"},
      {"pool9",
       "B3(_0,_1) B2(_2,_1) B2(_3,_2) B1(_1,_3) B3(_2,_1) | steps=1 "
       "saturated=1 failed=0 head=() vars: x0:_0 x1:_1 x2:_2 x3:_3"},
      {"pool10",
       "B3(_0,_1) B2(_0,_2) B3(_2,_1) B1(_1,_0) | steps=0 saturated=1 "
       "failed=0 head=() vars: x0:_0 x3:_1 x2:_2"},
      {"pool11",
       "B3(_0,_1) B1(_2,_0) B1(_1,_3) B2(_3,_0) | steps=0 saturated=1 "
       "failed=0 head=() vars: x2:_0 x0:_1 x1:_2 x3:_3"},
      {"pool12",
       "R(_0,_1) P(_2,_1) P(_0,_2) | steps=0 saturated=1 failed=0 "
       "head=() vars: x0:_0 x2:_1 x1:_2"},
      {"pool13",
       "P(_0,_1) P(_2,_0) P(_1,_2) | steps=0 saturated=1 failed=0 "
       "head=() vars: x0:_0 x2:_1 x1:_2"},
      {"pool14",
       "R(_0,_1) P(_2,_0) P(_1,_3) R(_0,_3) P(_1,_0) | steps=1 "
       "saturated=1 failed=0 head=() vars: x3:_0 x2:_1 x1:_2 x0:_3"},
      {"pool15",
       "R(_0,_0) P(_1,_2) P(_3,_2) P(_1,_3) | steps=0 saturated=1 "
       "failed=0 head=() vars: x2:_0 x3:_1 x0:_2 x1:_3"},
      {"pool16",
       "E(_0,_1) R(_0,_2) E(_1,_2) | steps=0 saturated=1 failed=0 "
       "head=() vars: x2:_0 x1:_1 x0:_2"},
      {"pool17",
       "E(_0,_1) E(_1,_2) R(_2,_0) | steps=0 saturated=1 failed=0 "
       "head=() vars: x0:_0 x2:_1 x1:_2"},
      {"pool18",
       "E(_0,_1) R(_2,_0) E(_2,_1) R(_0,_1) | steps=0 saturated=1 "
       "failed=0 head=() vars: x0:_0 x3:_1 x2:_2"},
      {"pool19",
       "R(_0,_1) E(_2,_1) R(_3,_1) E(_2,_3) | steps=0 saturated=1 "
       "failed=0 head=() vars: x2:_0 x3:_1 x1:_2 x0:_3"},
      {"clique4",
       "P(_0) P(_1) P(_2) P(_3) Rclq(_0,_0) Rclq(_0,_1) Rclq(_0,_2) "
       "Rclq(_0,_3) Rclq(_1,_0) Rclq(_1,_1) Rclq(_1,_2) Rclq(_1,_3) "
       "Rclq(_2,_0) Rclq(_2,_1) Rclq(_2,_2) Rclq(_2,_3) Rclq(_3,_0) "
       "Rclq(_3,_1) Rclq(_3,_2) Rclq(_3,_3) | steps=16 saturated=1 "
       "failed=0 head=() vars: x0:_0 x1:_1 x2:_2 x3:_3"},
      {"probe50",
       "G(_0,_1) G(_1,_2) G(_2,_0) P(_0) G(_1,_3) P(_1) G(_2,_4) P(_2) "
       "G(_3,_5) P(_3) G(_4,_6) P(_4) G(_5,_7) P(_5) G(_6,_8) P(_6) "
       "G(_7,_9) P(_7) G(_8,_10) P(_8) G(_9,_11) P(_9) G(_10,_12) P(_10) "
       "G(_11,_13) P(_11) G(_12,_14) P(_12) G(_13,_15) P(_13) G(_14,_16) "
       "P(_14) G(_15,_17) P(_15) G(_16,_18) P(_16) G(_17,_19) P(_17) "
       "G(_18,_20) P(_18) G(_19,_21) P(_19) G(_20,_22) P(_20) G(_21,_23) "
       "P(_21) G(_22,_24) P(_22) G(_23,_25) P(_23) G(_24,_26) P(_24) "
       "G(_25,_27) P(_25) G(_26,_28) P(_26) G(_27,_29) P(_27) G(_28,_30) "
       "P(_28) G(_29,_31) P(_29) G(_30,_32) P(_30) G(_31,_33) P(_31) "
       "G(_32,_34) P(_32) G(_33,_35) P(_33) G(_34,_36) P(_34) G(_35,_37) "
       "P(_35) G(_36,_38) P(_36) G(_37,_39) P(_37) G(_38,_40) P(_38) "
       "G(_39,_41) P(_39) G(_40,_42) P(_40) G(_41,_43) P(_41) G(_42,_44) "
       "P(_42) G(_43,_45) P(_43) G(_44,_46) P(_44) G(_45,_47) P(_45) "
       "G(_46,_48) P(_46) G(_47,_49) P(_47) G(_48,_50) P(_48) G(_49,_51) "
       "P(_49) G(_50,_52) P(_50) | steps=50 saturated=0 failed=0 head=() "
       "vars: x:_0 y:_1 z:_2"},
      {"mix",
       "A(_0,k) B(k,_1) C(_1) D(_1,_2) | steps=2 saturated=1 failed=0 "
       "head=(_0,_1) vars: x:_0 u:_1 y:k z:k t:_1"},

  };
  std::vector<GoldenCase> cases = GoldenCases();
  ASSERT_EQ(cases.size(), kGolden.size());
  for (const GoldenCase& c : cases) {
    EXPECT_EQ(Golden(c), kGolden.at(c.name)) << c.name;
  }
}

/// Prop 12 property sweep: guarded chases preserve acyclicity (any finite
/// prefix of the chase of an acyclic query stays acyclic).
class GuardedApcSweep : public ::testing::TestWithParam<int> {};

TEST_P(GuardedApcSweep, GuardedChasePreservesAcyclicity) {
  Generator gen(static_cast<uint64_t>(GetParam()));
  ConjunctiveQuery q = gen.RandomAcyclicQuery(6, 3, 2, "G");
  std::vector<Predicate> preds = {Predicate::Get("G0", 3),
                                  Predicate::Get("G1", 3)};
  DependencySet sigma;
  sigma.tgds = gen.RandomGuardedTgds(preds, 3, 2);
  ChaseOptions options;
  options.max_rounds = 3;  // prefix of a possibly infinite chase
  options.max_atoms = 4000;
  QueryChaseResult chase = ChaseQuery(q, sigma, options);
  EXPECT_TRUE(IsAcyclicChase(chase.instance))
      << "guarded chase prefix became cyclic (Prop 12 violated)";
}

INSTANTIATE_TEST_SUITE_P(Seeds, GuardedApcSweep, ::testing::Range(0, 15));

/// Prop 22 property sweep: keys over unary/binary predicates (K2)
/// preserve acyclicity.
class K2ApcSweep : public ::testing::TestWithParam<int> {};

TEST_P(K2ApcSweep, BinaryKeysPreserveAcyclicity) {
  Generator gen(static_cast<uint64_t>(GetParam()) + 500);
  ConjunctiveQuery q = gen.RandomAcyclicQuery(8, 2, 3, "K");
  DependencySet sigma;
  for (int p = 0; p < 3; ++p) {
    std::string name = "K" + std::to_string(p);
    sigma.egds.push_back(
        MustParseEgd(name + "(x,y), " + name + "(x,z) -> y = z"));
  }
  QueryChaseResult chase = ChaseQuery(q, sigma);
  EXPECT_TRUE(chase.saturated);
  EXPECT_FALSE(chase.failed);
  EXPECT_TRUE(IsAcyclicChase(chase.instance))
      << "K2 chase became cyclic (Prop 22 violated)";
}

INSTANTIATE_TEST_SUITE_P(Seeds, K2ApcSweep, ::testing::Range(0, 15));

}  // namespace
}  // namespace semacyc
