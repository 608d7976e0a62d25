#include <gtest/gtest.h>

#include "core/gaifman.h"
#include "core/hypergraph.h"
#include "core/parser.h"
#include "gen/generators.h"

namespace semacyc {
namespace {

TEST(GyoTest, EmptyAndSingleAtomAreAcyclic) {
  EXPECT_TRUE(IsAcyclic(MustParseQuery("R(x,y)")));
  EXPECT_TRUE(IsAcyclic(std::vector<Atom>{}, ConnectingTerms::kVariables));
}

TEST(GyoTest, PathsAndTreesAreAcyclic) {
  EXPECT_TRUE(IsAcyclic(MustParseQuery("R(x,y), R(y,z), R(z,w)")));
  EXPECT_TRUE(IsAcyclic(MustParseQuery("R(x,y), R(x,z), R(x,w), S(w,u)")));
}

TEST(GyoTest, TriangleIsCyclic) {
  EXPECT_FALSE(IsAcyclic(MustParseQuery("R(x,y), R(y,z), R(z,x)")));
}

TEST(GyoTest, TriangleWithGuardIsAlphaAcyclic) {
  // Alpha-acyclicity: a covering hyperedge makes the triangle acyclic.
  EXPECT_TRUE(
      IsAcyclic(MustParseQuery("R(x,y), R(y,z), R(z,x), G(x,y,z)")));
}

TEST(GyoTest, CyclesOfVariousLengths) {
  Generator gen(1);
  for (int len = 3; len <= 8; ++len) {
    EXPECT_FALSE(IsAcyclic(gen.CycleQuery(len))) << "cycle " << len;
  }
}

TEST(GyoTest, TwoAtomCycleIsAcyclic) {
  // E(x,y), E(y,x) has edges {x,y}, {x,y}: one contains the other.
  EXPECT_TRUE(IsAcyclic(MustParseQuery("E(x,y), E(y,x)")));
}

TEST(GyoTest, CliquesAreCyclic) {
  Generator gen(2);
  for (int n = 3; n <= 6; ++n) {
    EXPECT_FALSE(IsAcyclic(gen.CliqueQuery(n))) << "clique " << n;
  }
}

TEST(GyoTest, DisconnectedAcyclicQuery) {
  EXPECT_TRUE(IsAcyclic(MustParseQuery("R(x,y), S(u,v)")));
}

TEST(GyoTest, ConstantsDoNotCreateCycles) {
  // The "cycle" runs through constants, which do not connect.
  EXPECT_TRUE(IsAcyclic(MustParseQuery("R(x,'c'), R('c',y), S(y,x)")));
}

TEST(GyoTest, ExampleOneQueryIsCyclic) {
  EXPECT_FALSE(
      IsAcyclic(MustParseQuery("Interest(x,z), Class(y,z), Owns(x,y)")));
}

TEST(GyoTest, InstanceAcyclicityUsesNullsOnly) {
  // As an instance over constants only, everything is acyclic (§2: the
  // join-tree connectedness condition ranges over nulls).
  Instance inst;
  inst.InsertAll(MustParseAtoms("R('a','b'), R('b','c'), R('c','a')"));
  EXPECT_TRUE(IsAcyclicInstance(inst));
  EXPECT_FALSE(IsAcyclicChase(inst));  // over all terms it is a cycle
}

TEST(JoinTreeTest, BuildsForAcyclicAndRefusesCyclic) {
  ConjunctiveQuery acyclic = MustParseQuery("R(x,y), S(y,z), T(z,w)");
  EXPECT_TRUE(BuildJoinTreeView(acyclic.body(), ConnectingTerms::kVariables)
                  .has_value());
  ConjunctiveQuery cyclic = MustParseQuery("R(x,y), R(y,z), R(z,x)");
  EXPECT_FALSE(BuildJoinTreeView(cyclic.body(), ConnectingTerms::kVariables)
                   .has_value());
}

TEST(JoinTreeTest, ValidatesRunningIntersection) {
  ConjunctiveQuery q = MustParseQuery("R(x,y), S(y,z), T(z,w), U(y,u)");
  auto tree = BuildJoinTreeView(q.body(), ConnectingTerms::kVariables);
  ASSERT_TRUE(tree.has_value());
  EXPECT_TRUE(tree->Validate(q.Variables()));
  EXPECT_EQ(tree->size(), 4u);
  EXPECT_EQ(tree->TopDownOrder().size(), 4u);
  EXPECT_EQ(tree->BottomUpOrder().size(), 4u);
}

TEST(JoinTreeTest, SingleRootEvenWhenDisconnected) {
  ConjunctiveQuery q = MustParseQuery("R(x,y), S(u,v), T(p,q)");
  auto tree = BuildJoinTreeView(q.body(), ConnectingTerms::kVariables);
  ASSERT_TRUE(tree.has_value());
  EXPECT_GE(tree->root(), 0);
  EXPECT_TRUE(tree->Validate(q.Variables()));
}

/// Property sweep: random acyclic queries must pass GYO and produce valid
/// join trees; their cyclic "closures" (adding a long chord cycle) fail.
class RandomAcyclicSweep : public ::testing::TestWithParam<int> {};

TEST_P(RandomAcyclicSweep, RandomJoinTreesAreDetectedAcyclic) {
  Generator gen(static_cast<uint64_t>(GetParam()));
  ConjunctiveQuery q = gen.RandomAcyclicQuery(
      5 + GetParam() % 10, 2 + GetParam() % 3, 3);
  EXPECT_TRUE(IsAcyclic(q));
  auto tree = BuildJoinTreeView(q.body(), ConnectingTerms::kVariables);
  ASSERT_TRUE(tree.has_value());
  EXPECT_TRUE(tree->Validate(q.Variables()));
}

TEST_P(RandomAcyclicSweep, AddingCycleChordsBreaksAcyclicity) {
  Generator gen(static_cast<uint64_t>(GetParam()) + 1000);
  ConjunctiveQuery cyc = gen.CycleQuery(3 + GetParam() % 5);
  ConjunctiveQuery tree = gen.RandomAcyclicQuery(4, 2, 2);
  std::vector<Atom> body = tree.body();
  for (const Atom& a : cyc.body()) body.push_back(a);
  EXPECT_FALSE(IsAcyclic(ConjunctiveQuery({}, body)));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomAcyclicSweep, ::testing::Range(0, 20));

TEST(GaifmanTest, CliqueDetection) {
  Generator gen(7);
  ConjunctiveQuery k4 = gen.CliqueQuery(4);
  GaifmanGraph g = GaifmanGraph::Of(k4.body(), ConnectingTerms::kVariables);
  EXPECT_EQ(g.VertexCount(), 4u);
  EXPECT_EQ(g.EdgeCount(), 6u);
  EXPECT_TRUE(g.IsClique(k4.Variables()));
  EXPECT_GE(g.GreedyCliqueLowerBound(), 4u);
  EXPECT_TRUE(g.IsConnected());
}

TEST(GaifmanTest, PathGraph) {
  ConjunctiveQuery p = MustParseQuery("R(x,y), R(y,z)");
  GaifmanGraph g = GaifmanGraph::Of(p.body(), ConnectingTerms::kVariables);
  EXPECT_TRUE(g.HasEdge(Term::Variable("x"), Term::Variable("y")));
  EXPECT_FALSE(g.HasEdge(Term::Variable("x"), Term::Variable("z")));
}

TEST(GaifmanTest, DisconnectedGraph) {
  ConjunctiveQuery p = MustParseQuery("R(x,y), R(u,v)");
  GaifmanGraph g = GaifmanGraph::Of(p.body(), ConnectingTerms::kVariables);
  EXPECT_FALSE(g.IsConnected());
}

}  // namespace
}  // namespace semacyc
