#include <gtest/gtest.h>

#include <functional>
#include <random>

#include "acyclic/beta.h"
#include "acyclic/classify.h"
#include "acyclic/gyo.h"
#include "acyclic/oracle.h"
#include "core/hypergraph.h"
#include "core/parser.h"
#include "gen/generators.h"
#include "semacyc/decider.h"

namespace semacyc {
namespace {

using acyclic::AcyclicityClass;

acyclic::Hypergraph MakeHg(std::vector<std::vector<int>> edges) {
  acyclic::Hypergraph hg;
  for (auto& e : edges) hg.AddEdge(std::move(e));
  return hg;
}

AcyclicityClass ClassOf(const acyclic::Hypergraph& hg) {
  return acyclic::Classify(hg).cls;
}

// ------------------------------------------------------------- fixtures --

TEST(ClassifyTest, HierarchyFixtures) {
  EXPECT_EQ(ClassOf(MakeHg({})), AcyclicityClass::kBerge);
  EXPECT_EQ(ClassOf(MakeHg({{0, 1}})), AcyclicityClass::kBerge);
  EXPECT_EQ(ClassOf(MakeHg({{0, 1}, {1, 2}, {2, 3}})),
            AcyclicityClass::kBerge);  // path
  EXPECT_EQ(ClassOf(MakeHg({{0, 1}, {0, 2}, {0, 3}})),
            AcyclicityClass::kBerge);  // star
  EXPECT_EQ(ClassOf(MakeHg({{0, 1}, {1, 2}, {2, 0}})),
            AcyclicityClass::kCyclic);  // triangle
  EXPECT_EQ(ClassOf(MakeHg({{0, 1}, {1, 2}, {2, 0}, {0, 1, 2}})),
            AcyclicityClass::kAlpha);  // guarded triangle: alpha, not beta
  EXPECT_EQ(ClassOf(MakeHg({{0, 1}, {1, 2}, {0, 1, 2}})),
            AcyclicityClass::kBeta);  // Fagin's beta-not-gamma witness
  EXPECT_EQ(ClassOf(MakeHg({{0, 1, 2}, {0, 1, 3}})),
            AcyclicityClass::kGamma);  // Berge cycle through {0,1}
  EXPECT_EQ(ClassOf(MakeHg({{0, 1}, {0, 1}})),
            AcyclicityClass::kGamma);  // duplicate edge = Berge cycle
  EXPECT_EQ(ClassOf(MakeHg({{0, 1}, {0, 1, 2}, {0, 1, 2, 3}})),
            AcyclicityClass::kGamma);  // nested chain
}

TEST(ClassifyTest, TriangleQueryIsCyclicAndGuardMakesItAlpha) {
  EXPECT_EQ(ClassifyQuery(MustParseQuery("R(x,y), R(y,z), R(z,x)")).cls,
            AcyclicityClass::kCyclic);
  EXPECT_EQ(
      ClassifyQuery(MustParseQuery("R(x,y), R(y,z), R(z,x), G(x,y,z)")).cls,
      AcyclicityClass::kAlpha);
}

TEST(ClassifyTest, GeneratorFamiliesClassifyExactly) {
  Generator gen(3);
  for (int n : {1, 2, 5}) {
    EXPECT_EQ(ClassifyQuery(gen.AlphaNotBetaQuery(n)).cls,
              AcyclicityClass::kAlpha)
        << "AlphaNotBeta n=" << n;
    EXPECT_EQ(ClassifyQuery(gen.BetaNotGammaQuery(n)).cls,
              AcyclicityClass::kBeta)
        << "BetaNotGamma n=" << n;
    EXPECT_EQ(ClassifyQuery(gen.GammaNotBergeQuery(n)).cls,
              AcyclicityClass::kGamma)
        << "GammaNotBerge n=" << n;
  }
  for (int n : {1, 8, 40}) {
    EXPECT_EQ(ClassifyQuery(gen.BergeTreeQuery(n)).cls,
              AcyclicityClass::kBerge)
        << "BergeTree n=" << n;
  }
}

// --------------------------------------------------------- certificates --

TEST(CertificateTest, JoinTreeFromGyoForestValidates) {
  Generator gen(17);
  for (int iter = 0; iter < 50; ++iter) {
    ConjunctiveQuery q = gen.RandomAcyclicQuery(3 + iter, 3, 4);
    std::optional<JoinTreeView> tree =
        BuildJoinTreeView(q.body(), ConnectingTerms::kVariables);
    ASSERT_TRUE(tree.has_value()) << q.ToString();
    EXPECT_TRUE(tree->Validate(q.Variables())) << q.ToString();
  }
}

TEST(CertificateTest, BetaEliminationOrderReplays) {
  Generator gen(19);
  for (int n : {1, 3, 10}) {
    ConjunctiveQuery q = gen.BetaNotGammaQuery(n);
    acyclic::Hypergraph hg = ToAcyclicHypergraph(
        Hypergraph::FromAtoms(q.body(), ConnectingTerms::kVariables));
    acyclic::BetaResult beta = acyclic::DecideBeta(hg);
    ASSERT_TRUE(beta.beta_acyclic);
    EXPECT_TRUE(acyclic::ValidateBetaOrder(hg, beta.elimination_order));
    // A truncated order must not validate (unless trivially empty).
    if (beta.elimination_order.size() > 1) {
      std::vector<int> truncated(beta.elimination_order.begin(),
                                 beta.elimination_order.end() - 1);
      EXPECT_FALSE(acyclic::ValidateBetaOrder(hg, truncated));
    }
  }
}

TEST(CertificateTest, GammaTraceCoversEverything) {
  Generator gen(23);
  ConjunctiveQuery q = gen.GammaNotBergeQuery(4);
  acyclic::Hypergraph hg = ToAcyclicHypergraph(
      Hypergraph::FromAtoms(q.body(), ConnectingTerms::kVariables));
  acyclic::GammaResult gamma = acyclic::DecideGamma(hg);
  ASSERT_TRUE(gamma.gamma_acyclic);
  size_t vertex_steps = 0;
  size_t edge_steps = 0;
  for (const auto& step : gamma.trace) {
    if (step.vertex >= 0) ++vertex_steps;
    if (step.edge >= 0) ++edge_steps;
  }
  EXPECT_EQ(vertex_steps, static_cast<size_t>(hg.num_vertices));
  EXPECT_EQ(edge_steps, hg.edges.size());
}

TEST(CertificateTest, GammaWorklistAgreesWithOracle) {
  // The worklist γ decider against Fagin's no-γ-cycle definition
  // (acyclic::OracleGamma) on random hypergraphs. On γ-acyclic inputs the
  // trace must erase every present vertex and every edge exactly once.
  std::mt19937_64 rng(61);
  for (int iter = 0; iter < 2000; ++iter) {
    int n = 2 + static_cast<int>(rng() % 7);
    int m = 1 + static_cast<int>(rng() % 8);
    acyclic::Hypergraph hg;
    hg.num_vertices = n;
    std::vector<int> present(static_cast<size_t>(n), 0);
    for (int e = 0; e < m; ++e) {
      std::vector<int> verts;
      for (int v = 0; v < n; ++v) {
        if (rng() % 3 == 0) verts.push_back(v);
      }
      if (verts.empty()) verts.push_back(static_cast<int>(rng() % n));
      for (int v : verts) present[static_cast<size_t>(v)] = 1;
      hg.edges.push_back(std::move(verts));
    }
    acyclic::GammaResult worklist = acyclic::DecideGamma(hg);
    ASSERT_EQ(worklist.gamma_acyclic, acyclic::OracleGamma(hg))
        << "iteration " << iter;
    if (!worklist.gamma_acyclic) continue;
    std::vector<int> vertex_erased(static_cast<size_t>(n), 0);
    std::vector<int> edge_erased(static_cast<size_t>(m), 0);
    for (const auto& step : worklist.trace) {
      if (step.vertex >= 0) ++vertex_erased[static_cast<size_t>(step.vertex)];
      if (step.edge >= 0) ++edge_erased[static_cast<size_t>(step.edge)];
    }
    for (int v = 0; v < n; ++v) {
      ASSERT_EQ(vertex_erased[static_cast<size_t>(v)],
                present[static_cast<size_t>(v)])
          << "iteration " << iter << " vertex " << v;
    }
    for (int e = 0; e < m; ++e) {
      ASSERT_EQ(edge_erased[static_cast<size_t>(e)], 1)
          << "iteration " << iter << " edge " << e;
    }
  }
}

// -------------------------------------------- engine vs naive agreement --

TEST(GyoEngineTest, AgreesWithNaiveOnRandomHypergraphs) {
  std::mt19937_64 rng(5);
  for (int iter = 0; iter < 500; ++iter) {
    int n = 2 + static_cast<int>(rng() % 8);
    int m = 1 + static_cast<int>(rng() % 10);
    acyclic::Hypergraph hg;
    hg.num_vertices = n;
    for (int e = 0; e < m; ++e) {
      std::vector<int> verts;
      for (int v = 0; v < n; ++v) {
        if (rng() % 3 == 0) verts.push_back(v);
      }
      if (verts.empty()) verts.push_back(static_cast<int>(rng() % n));
      hg.edges.push_back(std::move(verts));
    }
    acyclic::GyoResult fast = acyclic::GyoReduce(hg);
    acyclic::GyoResult naive = acyclic::GyoReduceNaive(hg);
    ASSERT_EQ(fast.acyclic, naive.acyclic) << "iteration " << iter;
  }
}

TEST(GyoEngineTest, ProducesValidJoinForestsOnGeneratedQueries) {
  Generator gen(29);
  for (int iter = 0; iter < 20; ++iter) {
    ConjunctiveQuery q = gen.RandomAcyclicQuery(50, 3, 5);
    GyoResult gyo =
        RunGyo(Hypergraph::FromAtoms(q.body(), ConnectingTerms::kVariables));
    ASSERT_TRUE(gyo.acyclic);
    ASSERT_EQ(gyo.elimination_order.size(), q.body().size());
    JoinTreeView tree(q.body(), gyo.parent);
    EXPECT_TRUE(tree.Validate(q.Variables()));
  }
}

// ------------------------------------- exhaustive brute-force agreement --

TEST(OracleCrossCheckTest, AllHypergraphsWithAtMostFourEdges) {
  // Every hypergraph with <= 4 (distinct, non-empty) edges over a 4-vertex
  // universe: 1940 hypergraphs, each checked against the brute-force
  // definition-level oracles for all four classes.
  std::vector<std::vector<int>> all_edges;
  for (int mask = 1; mask < 16; ++mask) {
    std::vector<int> e;
    for (int v = 0; v < 4; ++v) {
      if (mask & (1 << v)) e.push_back(v);
    }
    all_edges.push_back(std::move(e));
  }
  long checked = 0;
  std::vector<int> chosen;
  std::function<void(size_t)> sweep = [&](size_t start) {
    if (!chosen.empty()) {
      acyclic::Hypergraph hg;
      hg.num_vertices = 4;
      for (int i : chosen) hg.edges.push_back(all_edges[static_cast<size_t>(i)]);
      ++checked;
      acyclic::Classification fast = acyclic::Classify(hg);
      AcyclicityClass slow = acyclic::OracleClassify(hg);
      ASSERT_EQ(fast.cls, slow)
          << "fast=" << ToString(fast.cls) << " oracle=" << ToString(slow)
          << " on hypergraph #" << checked;
      // Per-class spot checks of the certificates.
      if (AtLeast(fast.cls, AcyclicityClass::kAlpha)) {
        EXPECT_EQ(fast.gyo.elimination_order.size(), hg.edges.size());
      }
      if (AtLeast(fast.cls, AcyclicityClass::kBeta)) {
        EXPECT_TRUE(
            acyclic::ValidateBetaOrder(hg, fast.beta.elimination_order));
      }
    }
    if (chosen.size() == 4) return;
    for (size_t i = start; i < all_edges.size(); ++i) {
      chosen.push_back(static_cast<int>(i));
      sweep(i + 1);
      chosen.pop_back();
    }
  };
  sweep(0);
  EXPECT_EQ(checked, 1940);
}

TEST(OracleCrossCheckTest, RandomHypergraphsUpToSixEdges) {
  std::mt19937_64 rng(42);
  for (int iter = 0; iter < 3000; ++iter) {
    int n = 3 + static_cast<int>(rng() % 4);
    int m = 2 + static_cast<int>(rng() % 5);
    acyclic::Hypergraph hg;
    hg.num_vertices = n;
    for (int e = 0; e < m; ++e) {
      std::vector<int> verts;
      for (int v = 0; v < n; ++v) {
        if (rng() % 2) verts.push_back(v);
      }
      if (verts.empty()) verts.push_back(static_cast<int>(rng() % n));
      hg.edges.push_back(std::move(verts));
    }
    ASSERT_EQ(acyclic::Classify(hg).cls, acyclic::OracleClassify(hg))
        << "iteration " << iter;
  }
}

// ------------------------------------------------- semacyc integration --

TEST(TargetClassTest, BetaTargetAcceptsBetaAcyclicQueryDirectly) {
  Generator gen(31);
  ConjunctiveQuery q = gen.BetaNotGammaQuery(1);
  DependencySet sigma;
  SemAcOptions options;
  options.target_class = AcyclicityClass::kBeta;
  SemAcResult result = DecideSemanticAcyclicity(q, sigma, options);
  EXPECT_EQ(result.answer, SemAcAnswer::kYes);
  EXPECT_EQ(result.strategy, Strategy::kAlreadyAcyclic);
  EXPECT_TRUE(AtLeast(result.witness_class, AcyclicityClass::kBeta));
}

TEST(TargetClassTest, GammaTargetRejectsBetaOnlyCore) {
  // The beta-not-gamma gadget is its own core (the ternary guard pins all
  // three variables), so under empty Σ there is no γ-acyclic equivalent.
  Generator gen(37);
  ConjunctiveQuery q = gen.BetaNotGammaQuery(1);
  DependencySet sigma;
  SemAcOptions options;
  options.target_class = AcyclicityClass::kGamma;
  SemAcResult result = DecideSemanticAcyclicity(q, sigma, options);
  EXPECT_EQ(result.answer, SemAcAnswer::kNo);
  EXPECT_TRUE(result.exact);
}

TEST(TargetClassTest, FoldingCoreReachesBergeTarget) {
  // The diamond folds onto a 2-path, which is Berge-acyclic.
  ConjunctiveQuery diamond = MustParseQuery("E(a,b), E(b,c), E(a,d), E(d,c)");
  DependencySet sigma;
  SemAcOptions options;
  options.target_class = AcyclicityClass::kBerge;
  SemAcResult result = DecideSemanticAcyclicity(diamond, sigma, options);
  EXPECT_EQ(result.answer, SemAcAnswer::kYes);
  EXPECT_EQ(result.strategy, Strategy::kCore);
  EXPECT_EQ(result.witness_class, AcyclicityClass::kBerge);
}

TEST(TargetClassTest, MusicStoreFindsGammaWitnessUnderTgd) {
  // Example 1 of the paper: the cyclic collector query becomes acyclic
  // under the compulsive-collector tgd; the known witness
  // q'(x,y) :- Interest(x,z), Class(y,z), Owns(x,y) drops to a 2-atom
  // image whose hypergraph is even Berge-acyclic, so the stricter γ
  // target succeeds too.
  MusicStoreWorkload w = MakeMusicStoreWorkload(7, 3, 3, 2, 0.5);
  SemAcOptions options;
  options.target_class = AcyclicityClass::kGamma;
  SemAcResult result = DecideSemanticAcyclicity(w.q, w.sigma, options);
  ASSERT_EQ(result.answer, SemAcAnswer::kYes);
  ASSERT_TRUE(result.witness.has_value());
  EXPECT_TRUE(AtLeast(result.witness_class, AcyclicityClass::kGamma))
      << "witness " << result.witness->ToString() << " classifies as "
      << ToString(result.witness_class);
  EXPECT_TRUE(MeetsAcyclicityClass(result.witness->body(),
                                   ConnectingTerms::kVariables,
                                   AcyclicityClass::kGamma));
}

TEST(TargetClassTest, AlphaDefaultMatchesLegacyBehaviour) {
  Generator gen(41);
  ConjunctiveQuery q = gen.CycleQuery(4);
  DependencySet sigma;
  SemAcResult result = DecideSemanticAcyclicity(q, sigma);
  EXPECT_EQ(result.answer, SemAcAnswer::kNo);
  EXPECT_TRUE(result.exact);
}

}  // namespace
}  // namespace semacyc
