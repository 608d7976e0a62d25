// Tests for the incremental candidate pipeline: the push/pop classifier
// against batch classification, the containment oracle against
// the plain chase-based containment check, and fingerprint canonicality.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <random>

#include "acyclic/incremental.h"
#include "core/canonical.h"
#include "core/parser.h"
#include "gen/generators.h"
#include "semacyc/witness_search.h"

namespace semacyc {
namespace {

using acyclic::AcyclicityClass;
using acyclic::IncrementalClassifier;

const AcyclicityClass kAllTargets[] = {
    AcyclicityClass::kAlpha, AcyclicityClass::kBeta, AcyclicityClass::kGamma,
    AcyclicityClass::kBerge};

// ------------------------------- incremental vs batch classification --

/// Pushes hg's edges one at a time, checking Meets() against the batch
/// decider on each prefix; then pops them all, re-checking each prefix on
/// the way back down. Exercises exactly the DFS access pattern.
void CheckPushPopAgainstBatch(const acyclic::Hypergraph& hg,
                              AcyclicityClass target) {
  IncrementalClassifier inc(target);
  std::vector<acyclic::Hypergraph> prefixes;
  acyclic::Hypergraph prefix;
  prefix.num_vertices = hg.num_vertices;
  prefixes.push_back(prefix);
  for (size_t e = 0; e < hg.edges.size(); ++e) {
    prefix.edges.push_back(hg.edges[e]);
    prefixes.push_back(prefix);
    inc.PushEdge(hg.edges[e]);
    bool batch = acyclic::Meets(prefix, target);
    ASSERT_EQ(inc.Meets(), batch)
        << "push prefix of " << e + 1 << " edges, target "
        << acyclic::ToString(target);
    if (inc.CannotRecover()) {
      // CannotRecover is only claimed for hereditary targets on violated
      // sets — both facts must hold.
      ASSERT_FALSE(batch);
      ASSERT_NE(target, AcyclicityClass::kAlpha);
    }
  }
  for (size_t e = hg.edges.size(); e-- > 0;) {
    inc.PopEdge();
    ASSERT_EQ(inc.Meets(), acyclic::Meets(prefixes[e], target))
        << "pop back to prefix of " << e << " edges, target "
        << acyclic::ToString(target);
  }
  ASSERT_EQ(inc.depth(), 0u);
}

TEST(IncrementalClassifierTest, MatchesBatchOnAllFourEdgeHypergraphs) {
  // Every hypergraph with <= 4 (distinct, non-empty) edges over a
  // 4-vertex universe, as in the acyclic_test oracle sweep.
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
      for (int i : chosen) {
        hg.edges.push_back(all_edges[static_cast<size_t>(i)]);
      }
      ++checked;
      for (AcyclicityClass target : kAllTargets) {
        CheckPushPopAgainstBatch(hg, target);
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

TEST(IncrementalClassifierTest, RandomDfsInterleavingMatchesBatch) {
  // Random push/pop interleavings (not just push-all-pop-all): at every
  // step the classifier must agree with the batch decider on the current
  // stack of edges.
  std::mt19937_64 rng(17);
  for (AcyclicityClass target : kAllTargets) {
    for (int iter = 0; iter < 200; ++iter) {
      int n = 3 + static_cast<int>(rng() % 5);
      IncrementalClassifier inc(target);
      std::vector<std::vector<int>> stack;
      for (int step = 0; step < 30; ++step) {
        bool push = stack.empty() || rng() % 3 != 0;
        if (push) {
          std::vector<int> e;
          for (int v = 0; v < n; ++v) {
            if (rng() % 2) e.push_back(v);
          }
          if (e.empty()) e.push_back(static_cast<int>(rng() % n));
          stack.push_back(e);
          inc.PushEdge(e);
        } else {
          stack.pop_back();
          inc.PopEdge();
        }
        acyclic::Hypergraph hg;
        hg.num_vertices = n;
        hg.edges = stack;
        ASSERT_EQ(inc.Meets(), acyclic::Meets(hg, target))
            << "target " << acyclic::ToString(target) << " iter " << iter
            << " step " << step;
      }
    }
  }
}

// ----------------------------------------------- canonical fingerprint --

TEST(CanonicalFingerprintTest, InvariantUnderRenamingAndReordering) {
  Generator gen(23);
  std::mt19937_64 rng(29);
  for (int iter = 0; iter < 200; ++iter) {
    ConjunctiveQuery q = gen.RandomAcyclicQuery(5, 3, 3, "F");
    // Renamed-apart copy with shuffled body order: isomorphic, and the
    // fingerprint must not notice.
    ConjunctiveQuery renamed = q.RenameApart();
    std::vector<Atom> body = renamed.body();
    std::shuffle(body.begin(), body.end(), rng);
    ConjunctiveQuery shuffled(renamed.head(), body);
    EXPECT_EQ(CanonicalFingerprint(q), CanonicalFingerprint(shuffled));
    EXPECT_EQ(CanonicalFingerprint128(q), CanonicalFingerprint128(shuffled));
    EXPECT_EQ(CanonicalFingerprint128(q).first, CanonicalFingerprint(q));
    EXPECT_TRUE(AreIsomorphic(q, shuffled));
  }
}

TEST(CanonicalFingerprintTest, SeparatesKnownNonIsomorphicPairs) {
  ConjunctiveQuery path = MustParseQuery("E(x,y), E(y,z)");
  ConjunctiveQuery fork = MustParseQuery("E(x,y), E(x,z)");
  ConjunctiveQuery loop = MustParseQuery("E(x,x)");
  ConjunctiveQuery cycle = MustParseQuery("E(x,y), E(y,x)");
  EXPECT_NE(CanonicalFingerprint(path), CanonicalFingerprint(fork));
  EXPECT_NE(CanonicalFingerprint(path), CanonicalFingerprint(cycle));
  EXPECT_NE(CanonicalFingerprint(loop), CanonicalFingerprint(cycle));
}

// ---------------------------------------------------- containment oracle --

TEST(ContainmentOracleTest, AgreesWithChaseOnRandomCandidates) {
  // q and a weakly acyclic Σ (saturating chase => exact oracle); the
  // reference is the plain chase-based ContainedUnder.
  ConjunctiveQuery q = MustParseQuery("E(x,y), E(y,z), E(z,x), A(x)");
  DependencySet sigma = MustParseDependencySet("A(x) -> E(x,x)");
  ChaseOptions chase_options;
  RewriteOptions rewrite_options;
  obs::MetricsRegistry metrics({}, {});
  ContainmentOracle oracle(q, sigma, chase_options, rewrite_options,
                           SchemaFacts::Compute(sigma), &metrics);

  // Random small candidates over q's signature (q uses the tgd head
  // predicate E, so every candidate the prefilter passes is chased).
  std::mt19937_64 rng(31);
  Predicate e = Predicate::Get("E", 2);
  Predicate a = Predicate::Get("A", 1);
  std::vector<Term> vars;
  for (int i = 0; i < 4; ++i) {
    vars.push_back(Term::Variable("m$" + std::to_string(i)));
  }
  auto random_candidate = [&]() {
    std::vector<Atom> body;
    int num_atoms = 1 + static_cast<int>(rng() % 3);
    for (int i = 0; i < num_atoms; ++i) {
      if (rng() % 4 == 0) {
        body.push_back(Atom(a, {vars[rng() % vars.size()]}));
      } else {
        body.push_back(
            Atom(e, {vars[rng() % vars.size()], vars[rng() % vars.size()]}));
      }
    }
    return ConjunctiveQuery({}, std::move(body));
  };

  const int kRounds = 600;
  for (int round = 0; round < kRounds; ++round) {
    ConjunctiveQuery candidate = random_candidate();
    EXPECT_EQ(oracle.ContainedInQ(candidate),
              ContainedUnder(candidate, q, sigma, chase_options))
        << candidate.ToString();
  }
  // Both paths ran: A-free candidates are rejected by the prefilter, the
  // rest are chased.
  const uint64_t prefiltered = metrics.Count(obs::Counter::kOraclePrefiltered);
  EXPECT_GT(prefiltered, 0u);
  EXPECT_LT(prefiltered, static_cast<uint64_t>(kRounds));
}

TEST(ContainmentOracleTest, ChaseFreeAgreesWithChasedOnConstantsAndHeads) {
  // Σ's tgd head predicate (B) does not occur in q, so the oracle takes
  // the compiled chase-free Chandra–Merlin path; the reference
  // ContainedUnder chases. Constants in q and non-Boolean heads exercise
  // the compiled path's constant positions and head pre-binding.
  ConjunctiveQuery q =
      MustParseQuery("q(x,x,'m') :- E(x,y), E(y,'m'), A(x)");
  DependencySet sigma = MustParseDependencySet("A(x) -> B(x)");
  ChaseOptions chase_options;
  RewriteOptions rewrite_options;
  obs::MetricsRegistry metrics({}, {});
  ContainmentOracle chase_free(q, sigma, chase_options, rewrite_options,
                               SchemaFacts::Compute(sigma), &metrics);

  std::mt19937_64 rng(37);
  Predicate e = Predicate::Get("E", 2);
  Predicate a = Predicate::Get("A", 1);
  std::vector<Term> terms;
  for (int i = 0; i < 3; ++i) {
    terms.push_back(Term::Variable("cf$" + std::to_string(i)));
  }
  terms.push_back(Term::Constant("m"));
  terms.push_back(Term::Constant("other"));
  size_t agreements = 0;
  for (int round = 0; round < 400; ++round) {
    std::vector<Atom> body;
    int num_atoms = 1 + static_cast<int>(rng() % 3);
    for (int i = 0; i < num_atoms; ++i) {
      if (rng() % 3 == 0) {
        body.push_back(Atom(a, {terms[rng() % terms.size()]}));
      } else {
        body.push_back(Atom(
            e, {terms[rng() % terms.size()], terms[rng() % terms.size()]}));
      }
    }
    // A 3-ary head over the candidate's terms, matching q's arity; skip
    // shapes whose head terms miss the body (the query ctor requires
    // head variables to occur in the body).
    std::vector<Term> head(3);
    bool ok = true;
    for (int i = 0; i < 3; ++i) {
      head[static_cast<size_t>(i)] = terms[rng() % terms.size()];
      if (!head[static_cast<size_t>(i)].IsVariable()) continue;
      bool occurs = false;
      for (const Atom& at : body) {
        if (at.Mentions(head[static_cast<size_t>(i)])) occurs = true;
      }
      ok = ok && occurs;
    }
    if (!ok) continue;
    ConjunctiveQuery candidate(head, body);
    EXPECT_EQ(chase_free.ContainedInQ(candidate),
              ContainedUnder(candidate, q, sigma, chase_options))
        << candidate.ToString();
    ++agreements;
  }
  EXPECT_GT(agreements, 100u);
}

}  // namespace
}  // namespace semacyc
