// Tests for the incremental candidate pipeline: the push/pop classifier
// against batch classification, the containment oracle against
// the plain chase-based containment check, and fingerprint canonicality
// and bitwise parity with the map-based reference implementation.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "acyclic/incremental.h"
#include "core/canonical.h"
#include "core/hypergraph.h"
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

/// β-, γ- and Berge-acyclicity are hereditary; α is not.
bool Hereditary(AcyclicityClass target) {
  return target != AcyclicityClass::kAlpha;
}

// ------------------------------- incremental vs batch classification --

/// Pushes hg's edges one at a time, checking Meets() against the batch
/// decider on each prefix; then pops them all, re-checking each prefix on
/// the way back down. Exercises exactly the DFS access pattern. After
/// every push and pop, CannotRecover() must hold exactly when the target
/// is hereditary and the stack violates it.
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
    ASSERT_EQ(inc.CannotRecover(), Hereditary(target) && !batch)
        << "push prefix of " << e + 1 << " edges, target "
        << acyclic::ToString(target);
  }
  for (size_t e = hg.edges.size(); e-- > 0;) {
    inc.PopEdge();
    const bool batch = acyclic::Meets(prefixes[e], target);
    ASSERT_EQ(inc.Meets(), batch)
        << "pop back to prefix of " << e << " edges, target "
        << acyclic::ToString(target);
    ASSERT_EQ(inc.CannotRecover(), Hereditary(target) && !batch)
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
  // stack of edges, and CannotRecover() must report exactly a violated
  // hereditary target — also after a pop below the violating push.
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
        const bool batch = acyclic::Meets(hg, target);
        ASSERT_EQ(inc.Meets(), batch)
            << "target " << acyclic::ToString(target) << " iter " << iter
            << " step " << step;
        ASSERT_EQ(inc.CannotRecover(), Hereditary(target) && !batch)
            << "target " << acyclic::ToString(target) << " iter " << iter
            << " step " << step;
      }
    }
  }
}

TEST(IncrementalClassifierTest, LazyAlphaMatchesBatchOnWidePaths) {
  // The lazy α path builds one vertex bitmask per edge with as many 64-bit
  // words as the path needs. Random push/pop stacks over a 300-vertex
  // universe whose live paths span more than 64 (and 128) distinct
  // vertices, so multi-word masks run; edges repeat vertices, and some are
  // empty (an atom whose arguments are all constants). Half the pushes
  // grow a join tree (a new edge shares part of a live edge, plus fresh
  // vertices), so acyclic paths stay common; the rest are random and may
  // close or cover cycles (α is not hereditary). Every verdict, including
  // those of depth 0–2 stacks, is checked against acyclic::Meets.
  std::mt19937_64 rng(41);
  const int kUniverse = 300;
  size_t max_live = 0;
  long acyclic = 0;
  long cyclic = 0;
  long wide_acyclic = 0;
  long wide_cyclic = 0;
  for (int iter = 0; iter < 150; ++iter) {
    IncrementalClassifier inc(AcyclicityClass::kAlpha);
    std::vector<std::vector<int>> stack;
    for (int step = 0; step < 80; ++step) {
      bool push = stack.size() < 2 || rng() % 4 != 0;
      if (push) {
        std::vector<int> e;
        const int kind = static_cast<int>(rng() % 10);
        if (kind == 0) {
          // Empty edge.
        } else if (kind < 6 && !stack.empty()) {
          const std::vector<int>& parent = stack[rng() % stack.size()];
          for (int v : parent) {
            if (rng() % 2) e.push_back(v);
          }
          const int fresh = 1 + static_cast<int>(rng() % 6);
          for (int k = 0; k < fresh; ++k) {
            e.push_back(static_cast<int>(rng() % kUniverse));
          }
        } else {
          const int size = 1 + static_cast<int>(rng() % 8);
          for (int k = 0; k < size; ++k) {
            e.push_back(static_cast<int>(rng() % kUniverse));
          }
        }
        // Repeated vertices within the edge.
        if (!e.empty() && rng() % 3 == 0) e.push_back(e[rng() % e.size()]);
        std::shuffle(e.begin(), e.end(), rng);
        stack.push_back(e);
        inc.PushEdge(e);
      } else {
        stack.pop_back();
        inc.PopEdge();
      }
      acyclic::Hypergraph hg;
      std::vector<char> live(kUniverse, 0);
      size_t distinct = 0;
      for (const std::vector<int>& e : stack) {
        hg.AddEdge(e);
        for (int v : e) {
          if (!live[static_cast<size_t>(v)]) {
            live[static_cast<size_t>(v)] = 1;
            ++distinct;
          }
        }
      }
      max_live = std::max(max_live, distinct);
      const bool batch = acyclic::Meets(hg, AcyclicityClass::kAlpha);
      ASSERT_EQ(inc.Meets(), batch)
          << "iter " << iter << " step " << step << " depth "
          << stack.size() << " live vertices " << distinct;
      ++(batch ? acyclic : cyclic);
      if (distinct > 64) ++(batch ? wide_acyclic : wide_cyclic);
    }
  }
  EXPECT_GT(max_live, 128u);
  EXPECT_GT(acyclic, 500);
  EXPECT_GT(cyclic, 500);
  EXPECT_GT(wide_acyclic, 200);
  EXPECT_GT(wide_cyclic, 50);
}

TEST(IncrementalClassifierTest, SparseMeetsQueriesMatchBatch) {
  // The lazy α path caches one verdict per depth and inherits the verdict
  // of the stack below an ear push. Random push/pop walks ask Meets() at
  // random steps only, so a depth is often pushed again after its verdict
  // was cached (the cache must go) and the verdict below is often unknown
  // (nothing to inherit). Edges have 1–4 vertices over a 5-vertex
  // universe, with repeats; some are disconnected (fresh vertices), and
  // some cover the vertices of the top three edges, which repairs a
  // cyclic stack though the cover is no ear.
  std::mt19937_64 rng(61);
  int fresh = 100;
  long checked = 0;
  long repaired = 0;
  size_t gyo_runs = 0;
  size_t inherited = 0;
  auto cyclic = [](const std::vector<std::vector<int>>& stack) {
    acyclic::Hypergraph hg;
    for (const std::vector<int>& e : stack) hg.AddEdge(e);
    return !acyclic::Meets(hg, AcyclicityClass::kAlpha);
  };
  for (int iter = 0; iter < 400; ++iter) {
    IncrementalClassifier inc(AcyclicityClass::kAlpha);
    std::vector<std::vector<int>> stack;
    for (int step = 0; step < 40; ++step) {
      bool repairs = false;
      if (stack.size() < 2 || rng() % 3 != 0) {
        std::vector<int> e;
        const int kind = static_cast<int>(rng() % 8);
        if (kind == 0) {
          const int size = 1 + static_cast<int>(rng() % 3);
          for (int k = 0; k < size; ++k) e.push_back(fresh++);
        } else if (kind <= 2 && stack.size() >= 3) {
          for (size_t f = stack.size() - 3; f < stack.size(); ++f) {
            for (int v : stack[f]) {
              if (e.size() < 4 && std::find(e.begin(), e.end(), v) == e.end()) {
                e.push_back(v);
              }
            }
          }
          repairs = cyclic(stack);
        } else {
          const int size = 1 + static_cast<int>(rng() % 4);
          for (int k = 0; k < size; ++k) e.push_back(static_cast<int>(rng() % 5));
        }
        if (rng() % 4 == 0) e.push_back(e[rng() % e.size()]);
        std::shuffle(e.begin(), e.end(), rng);
        stack.push_back(e);
        inc.PushEdge(e);
      } else {
        stack.pop_back();
        inc.PopEdge();
      }
      if (rng() % 3 != 0) continue;
      const bool batch = !cyclic(stack);
      ASSERT_EQ(inc.Meets(), batch)
          << "iter " << iter << " step " << step << " depth " << stack.size();
      ++checked;
      if (repairs && batch) ++repaired;
    }
    gyo_runs += inc.alpha_gyo_runs();
    inherited += inc.alpha_inherited();
  }
  EXPECT_GT(checked, 4000);
  EXPECT_GT(repaired, 20);
  EXPECT_GT(gyo_runs, 1500u);
  EXPECT_GT(inherited, 800u);
}

TEST(IncrementalClassifierTest, ShallowStacksWithEmptyAndRepeatedEdges) {
  // Every stack of depth <= 3 over edges drawn from a small pool that
  // includes empty edges, repeated vertices and duplicate edges, pushed
  // and popped in DFS order, for every target.
  const std::vector<std::vector<int>> pool = {
      {}, {0}, {0, 0}, {0, 1}, {1, 0, 1}, {1, 2}, {2, 0}, {0, 1, 2}, {3, 3}};
  for (AcyclicityClass target : kAllTargets) {
    IncrementalClassifier inc(target);
    std::vector<std::vector<int>> stack;
    std::function<void()> dfs = [&]() {
      acyclic::Hypergraph hg;
      for (const std::vector<int>& e : stack) hg.AddEdge(e);
      ASSERT_EQ(inc.Meets(), acyclic::Meets(hg, target))
          << "target " << acyclic::ToString(target) << " depth "
          << stack.size();
      if (stack.size() == 3) return;
      for (const std::vector<int>& e : pool) {
        stack.push_back(e);
        inc.PushEdge(e);
        dfs();
        inc.PopEdge();
        stack.pop_back();
      }
    };
    dfs();
    ASSERT_EQ(inc.depth(), 0u);
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

/// An independent reference for the canonical key's equality relation:
/// a map-based fold of the same invariant (sorted per-variable occurrence
/// lists, sorted atom keys) with its own hash values. The key feeds
/// candidate dedup, candidates_tested and the decision-cache key, so it
/// must separate queries exactly as this reference does.
uint64_t ReferenceMix(uint64_t h, uint64_t x) {
  x += 0x9e3779b97f4a7c15ull + h;
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

/// The salt of the reference's second chain.
constexpr uint64_t kReferenceSecondSalt = 0x9e3779b97f4a7c15ull;

template <size_t N>
std::array<uint64_t, N> ReferenceChains(const std::vector<Term>& head,
                                        const std::vector<Atom>& body,
                                        const std::array<uint64_t, N>& salts) {
  std::unordered_map<Term, int> head_pos;
  for (size_t i = 0; i < head.size(); ++i) {
    head_pos.emplace(head[i], static_cast<int>(i));
  }
  std::unordered_map<Term, std::vector<std::pair<uint32_t, int>>> occ;
  for (const Atom& a : body) {
    for (size_t pos = 0; pos < a.arity(); ++pos) {
      Term t = a.arg(pos);
      if (t.IsVariable()) {
        occ[t].push_back({a.predicate().id(), static_cast<int>(pos)});
      }
    }
  }
  std::unordered_map<Term, std::array<uint64_t, N>> var_sig;
  for (auto& [v, list] : occ) {
    std::sort(list.begin(), list.end());
    std::array<uint64_t, N> s;
    for (size_t n = 0; n < N; ++n) {
      s[n] = ReferenceMix(0x53454d4143594331ull, salts[n]);
    }
    for (auto& [p, i] : list) {
      for (size_t n = 0; n < N; ++n) {
        s[n] = ReferenceMix(s[n], p);
        s[n] = ReferenceMix(s[n], static_cast<uint64_t>(i));
      }
    }
    auto it = head_pos.find(v);
    uint64_t hp =
        it == head_pos.end() ? ~0ull : static_cast<uint64_t>(it->second);
    for (size_t n = 0; n < N; ++n) s[n] = ReferenceMix(s[n], hp);
    var_sig[v] = s;
  }
  std::vector<std::array<uint64_t, N>> atom_keys;
  for (const Atom& a : body) {
    std::array<uint64_t, N> s;
    for (size_t n = 0; n < N; ++n) {
      s[n] = ReferenceMix(salts[n], a.predicate().id());
    }
    for (size_t pos = 0; pos < a.arity(); ++pos) {
      Term t = a.arg(pos);
      if (t.IsConstant()) {
        for (size_t n = 0; n < N; ++n) {
          s[n] = ReferenceMix(s[n], 0xc0ull);
          s[n] = ReferenceMix(s[n], t.raw_bits());
        }
      } else {
        size_t first = pos;
        for (size_t k = 0; k < pos; ++k) {
          if (a.arg(k) == t) {
            first = k;
            break;
          }
        }
        const std::array<uint64_t, N>& sig = var_sig[t];
        for (size_t n = 0; n < N; ++n) {
          s[n] = ReferenceMix(s[n], static_cast<uint64_t>(first));
          s[n] = ReferenceMix(s[n], sig[n]);
        }
      }
    }
    atom_keys.push_back(s);
  }
  std::sort(atom_keys.begin(), atom_keys.end());
  std::array<uint64_t, N> key;
  for (size_t n = 0; n < N; ++n) key[n] = ReferenceMix(salts[n], head.size());
  for (const auto& s : atom_keys) {
    for (size_t n = 0; n < N; ++n) key[n] = ReferenceMix(key[n], s[n]);
  }
  return key;
}

std::array<uint64_t, 2> ReferenceKey(const std::vector<Term>& head,
                                     const std::vector<Atom>& body) {
  return ReferenceChains<2>(head, body, {0, kReferenceSecondSalt});
}

/// One query of the random fingerprint corpus.
struct CorpusQuery {
  std::vector<Term> head;
  std::vector<Atom> body;
  bool has_const;
  bool repeat_in_atom;
};

/// 3,000 random queries: predicates of arity 0–4 (two per arity), bodies
/// of 0–8 atoms over a small variable pool (so variables repeat inside an
/// atom and across atoms) and three constants; heads of 0–4 positions
/// that repeat variables and sometimes carry a constant.
std::vector<CorpusQuery> FingerprintCorpus() {
  std::mt19937_64 rng(43);
  std::vector<Predicate> preds;
  for (int arity = 0; arity <= 4; ++arity) {
    for (int k = 0; k < 2; ++k) {
      preds.push_back(Predicate::Get(
          "FP" + std::to_string(arity) + "_" + std::to_string(k), arity));
    }
  }
  std::vector<Term> vars;
  for (int i = 0; i < 6; ++i) {
    vars.push_back(Term::Variable("fp$" + std::to_string(i)));
  }
  const std::vector<Term> consts = {Term::Constant("fa"), Term::Constant("fb"),
                                    Term::Constant("fc")};
  std::vector<CorpusQuery> corpus;
  for (int iter = 0; iter < 3000; ++iter) {
    CorpusQuery c;
    c.has_const = false;
    c.repeat_in_atom = false;
    const int num_atoms = static_cast<int>(rng() % 9);
    for (int i = 0; i < num_atoms; ++i) {
      Predicate p = preds[rng() % preds.size()];
      std::vector<Term> args;
      for (int pos = 0; pos < p.arity(); ++pos) {
        if (rng() % 5 == 0) {
          args.push_back(consts[rng() % consts.size()]);
          c.has_const = true;
        } else {
          Term v = vars[rng() % vars.size()];
          c.repeat_in_atom = c.repeat_in_atom ||
                             std::find(args.begin(), args.end(), v) !=
                                 args.end();
          args.push_back(v);
        }
      }
      c.body.push_back(Atom(p, std::move(args)));
    }
    std::vector<Term> body_vars;
    for (const Atom& a : c.body) {
      for (Term t : a.args()) {
        if (t.IsVariable()) body_vars.push_back(t);
      }
    }
    const int arity = body_vars.empty() ? 0 : static_cast<int>(rng() % 5);
    for (int i = 0; i < arity; ++i) {
      c.head.push_back(rng() % 6 == 0 ? consts[rng() % consts.size()]
                                      : body_vars[rng() % body_vars.size()]);
    }
    corpus.push_back(std::move(c));
  }
  return corpus;
}

/// Pushes (head, body) into `key` atom by atom, numbering variables by
/// first occurrence from `first_vertex` on (so each query gets its own
/// numbering), then pops it back to empty, checking after every pop that
/// the key equals the one recorded at that depth on the way down and
/// that every vertex's count is its occurrences in the remaining atoms.
/// Returns the full query's key.
std::pair<uint64_t, uint64_t> PushPopKey(IncrementalCandidateKey* key,
                                         const std::vector<Term>& head,
                                         const std::vector<Atom>& body,
                                         int first_vertex) {
  std::vector<Term> named;
  auto vertex = [&](Term t) {
    if (!t.IsVariable()) return -1;
    auto it = std::find(named.begin(), named.end(), t);
    if (it == named.end()) it = named.insert(named.end(), t);
    return first_vertex + static_cast<int>(it - named.begin());
  };
  std::vector<int> head_verts;
  for (Term t : head) head_verts.push_back(vertex(t));
  key->Reset(head_verts);
  std::vector<std::pair<uint64_t, uint64_t>> down = {key->Key()};
  for (const Atom& a : body) {
    std::vector<int> verts;
    for (Term t : a.args()) verts.push_back(vertex(t));
    key->Push(AtomView::Of(a), verts.data());
    down.push_back(key->Key());
  }
  for (size_t depth = body.size(); depth-- > 0;) {
    key->Pop();
    EXPECT_EQ(key->depth(), depth);
    EXPECT_EQ(key->Key(), down[depth]) << "after the pop to depth " << depth;
    for (Term t : named) {
      uint32_t occurrences = 0;
      for (size_t i = 0; i < depth; ++i) {
        for (Term arg : body[i].args()) occurrences += arg == t ? 1 : 0;
      }
      EXPECT_EQ(key->Count(vertex(t)), occurrences) << t.ToString();
    }
  }
  return down.back();
}

/// Records (reference key, key) pairs of a stream of queries and checks
/// that the two keyings define one equality relation: a reference key
/// always meets the same key, and a key the same reference key.
struct KeyRelation {
  std::map<std::array<uint64_t, 2>, std::pair<uint64_t, uint64_t>> by_ref;
  std::map<std::pair<uint64_t, uint64_t>, std::array<uint64_t, 2>> by_key;
  int equal_pairs = 0;

  /// True iff the pair agrees with every pair recorded before it.
  bool Add(const std::array<uint64_t, 2>& ref,
           const std::pair<uint64_t, uint64_t>& key) {
    auto r = by_ref.emplace(ref, key);
    auto k = by_key.emplace(key, ref);
    equal_pairs += r.second ? 0 : 1;
    return r.first->second == key && k.first->second == ref;
  }
};

TEST(CanonicalFingerprintTest, BatchKeyIsThePushPopKey) {
  // On every corpus query the batch key equals the key pushed atom by
  // atom bit for bit, the 64-bit fingerprint is its first half, and the
  // batch keys separate the corpus exactly as the reference does.
  int boolean_heads = 0;
  int with_constants = 0;
  int repeated_in_atom = 0;
  int repeated_head = 0;
  IncrementalCandidateKey key;
  KeyRelation relation;
  for (const CorpusQuery& c : FingerprintCorpus()) {
    const std::vector<Term>& head = c.head;
    bool head_repeats = false;
    for (size_t i = 0; i < head.size(); ++i) {
      for (size_t j = 0; j < i; ++j) {
        if (head[i].IsVariable() && head[i] == head[j]) head_repeats = true;
      }
    }
    repeated_head += head_repeats ? 1 : 0;
    boolean_heads += head.empty() ? 1 : 0;
    with_constants += c.has_const ? 1 : 0;
    repeated_in_atom += c.repeat_in_atom ? 1 : 0;
    const ConjunctiveQuery q(head, c.body);
    const std::pair<uint64_t, uint64_t> batch = CanonicalFingerprint128(q);
    ASSERT_EQ(batch, PushPopKey(&key, head, c.body, 0)) << q.ToString();
    ASSERT_EQ(CanonicalFingerprint(q), batch.first) << q.ToString();
    ASSERT_TRUE(relation.Add(ReferenceKey(head, c.body), batch))
        << q.ToString();
  }
  EXPECT_GT(boolean_heads, 300);
  EXPECT_GT(with_constants, 300);
  EXPECT_GT(repeated_in_atom, 300);
  EXPECT_GT(repeated_head, 100);
  EXPECT_GT(relation.by_ref.size(), 2000u);
}

TEST(CanonicalFingerprintTest, ConflatesTwoNonIsomorphicAcyclicBodies) {
  // The key encodes each variable's occurrence multiset and each atom's
  // equality pattern, not how the atoms link: a 2-cycle plus a 2-path and
  // a 4-path give every variable and atom the same local view. Both are
  // α-acyclic, so the witness searches' dedup tests only the first one it
  // meets and never the other (witness_search.h, "not complete").
  ConjunctiveQuery cycle_path =
      MustParseQuery("T(a,b), T(b,a), T(c,d), T(d,e)");
  ConjunctiveQuery path = MustParseQuery("T(a,b), T(b,c), T(c,d), T(d,e)");
  EXPECT_TRUE(IsAcyclic(cycle_path));
  EXPECT_TRUE(IsAcyclic(path));
  EXPECT_FALSE(AreIsomorphic(cycle_path, path));
  EXPECT_EQ(CanonicalFingerprint128(cycle_path),
            CanonicalFingerprint128(path));
  IncrementalCandidateKey key;
  EXPECT_EQ(PushPopKey(&key, {}, cycle_path.body(), 0),
            PushPopKey(&key, {}, path.body(), 0));
}

TEST(CanonicalFingerprintTest, IncrementalKeySeparatesLikeTheReference) {
  // Every corpus query plus a renamed, body-shuffled copy of each (so
  // many pairs are equal), then systematically the shapes the exhaustive
  // search enumerates: every body of 1–3 distinct atoms over a binary and
  // a unary predicate and four variables, under five heads. Two queries
  // get equal incremental keys iff their reference keys are equal. One
  // key object serves every query, so Reset and the pops must leave
  // nothing behind.
  std::mt19937_64 rng(47);
  std::vector<Term> renamed_vars;
  for (int i = 0; i < 6; ++i) {
    renamed_vars.push_back(Term::Variable("fq$" + std::to_string(i)));
  }
  IncrementalCandidateKey key;
  KeyRelation relation;
  int vertex_offset = 0;
  auto check = [&](const std::vector<Term>& head,
                   const std::vector<Atom>& body) {
    vertex_offset = (vertex_offset + 5) % 17;
    ASSERT_TRUE(relation.Add(ReferenceKey(head, body),
                             PushPopKey(&key, head, body, vertex_offset)))
        << ConjunctiveQuery(head, body).ToString();
  };
  for (const CorpusQuery& c : FingerprintCorpus()) {
    check(c.head, c.body);
    // The copy: a random permutation of the variable names, applied to
    // head and body, and a shuffled body.
    std::vector<size_t> perm = {0, 1, 2, 3, 4, 5};
    std::shuffle(perm.begin(), perm.end(), rng);
    auto rename = [&](Term t) {
      if (!t.IsVariable()) return t;
      const std::string& name = t.name();
      return renamed_vars[perm[static_cast<size_t>(name.back() - '0')]];
    };
    std::vector<Term> head;
    for (Term t : c.head) head.push_back(rename(t));
    std::vector<Atom> body;
    for (const Atom& a : c.body) {
      std::vector<Term> args;
      for (Term t : a.args()) args.push_back(rename(t));
      body.push_back(Atom(a.predicate(), std::move(args)));
    }
    std::shuffle(body.begin(), body.end(), rng);
    check(head, body);
  }
  EXPECT_GT(relation.equal_pairs, 3000);
  EXPECT_GT(relation.by_ref.size(), 2000u);

  Predicate e = Predicate::Get("SK2", 2);
  Predicate u = Predicate::Get("SK1", 1);
  std::vector<Term> v;
  for (int i = 0; i < 4; ++i) {
    v.push_back(Term::Variable("sk$" + std::to_string(i)));
  }
  std::vector<Atom> atoms;
  for (Term a : v) {
    atoms.push_back(Atom(u, {a}));
    for (Term b : v) atoms.push_back(Atom(e, {a, b}));
  }
  const std::vector<std::vector<Term>> heads = {
      {}, {v[0]}, {v[0], v[1]}, {v[1], v[0]}, {v[0], v[0]}};
  const size_t n = atoms.size();
  const size_t keys_before = relation.by_ref.size();
  int small_queries = 0;
  auto check_heads = [&](const std::vector<Atom>& body) {
    for (const std::vector<Term>& head : heads) {
      check(head, body);
      ++small_queries;
    }
  };
  for (size_t i = 0; i < n; ++i) {
    check_heads({atoms[i]});
    for (size_t j = i + 1; j < n; ++j) {
      check_heads({atoms[i], atoms[j]});
      for (size_t k = j + 1; k < n; ++k) {
        check_heads({atoms[i], atoms[j], atoms[k]});
      }
    }
  }
  EXPECT_EQ(small_queries, 6750);
  // Renamings make most of them equal to an earlier one.
  EXPECT_LT((relation.by_ref.size() - keys_before) * 2, 6750u);
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

/// One schema of the pooled-oracle agreement test: Σ, q, and the
/// candidates' predicates and constants.
struct PooledCase {
  const char* sigma;
  const char* q;
  const char* unary;   // a unary predicate of the case, or nullptr
  const char* binary;  // the binary predicates, space-separated
};

TEST(ContainmentOracleTest, PooledChecksAgreeWithContainedUnderOnAnyThread) {
  // The pooled Lemma 1 check against the plain ContainedUnder on random
  // candidates over each schema's predicates: the decide-hard classes, a
  // key whose merges collapse atoms and whose constant clashes fail the
  // chase, tgds and egds together, a recursive Σ whose chase is cut by
  // its step budget (kUnknown on both sides), and a generated guarded
  // family. Every candidate is checked on 1 thread and again by 4
  // threads at once on the same oracle, each thread with its own pooled
  // state.
  const PooledCase kCases[] = {
      {"T(x,y) -> E(y,z), E(z,x).", "E(x0,x3), T(x3,x2), T(x1,x3), E(x0,x2)",
       nullptr, "E T"},
      {"B1(x,y), B2(y,z) -> B3(z,x).",
       "q(x0) :- B3(x0,x1), B2(x2,x1), B2(x3,x2), B1(x1,x3)", nullptr,
       "B1 B2 B3"},
      {"R(x,y), P(y,z) -> P(y,x).", "R(x3,x2), P(x1,x3), P(x2,x0), R(x3,x0)",
       nullptr, "R P"},
      {"R(a,b), R(a,c) -> b = c.",
       "q(x0) :- E(x0,x3), R(x2,x0), E(x2,x3), R(x0,x3)", nullptr, "R E"},
      {"R(a,b), R(a,c) -> b = c. A(x) -> R(x,y).",
       "q(x) :- R(x,y), E(y,z), A(z)", "A", "R E"},
      {"E(x,y), E(y,z) -> E(z,w).", "E(x,y), E(y,z), E(z,x)", nullptr, "E"},
      {nullptr, "G0(x,y), G1(y,z), G0(z,x)", nullptr, "G0 G1"},
  };
  ChaseOptions chase_options;
  chase_options.max_steps = 300;
  std::mt19937_64 rng(53);
  size_t failed_chases = 0, merged_chases = 0, cut_chases = 0, yes = 0;
  for (const PooledCase& c : kCases) {
    std::vector<Predicate> binary;
    std::string names = c.binary;
    for (size_t at = 0; at < names.size();) {
      size_t end = names.find(' ', at);
      if (end == std::string::npos) end = names.size();
      binary.push_back(Predicate::Get(names.substr(at, end - at), 2));
      at = end + 1;
    }
    DependencySet sigma;
    if (c.sigma != nullptr) {
      sigma = MustParseDependencySet(c.sigma);
    } else {
      Generator gen(59);
      sigma.tgds = gen.RandomGuardedTgds(binary, 3, 2);
    }
    const ConjunctiveQuery q = MustParseQuery(c.q);
    obs::MetricsRegistry metrics({}, {});
    ContainmentOracle oracle(q, sigma, chase_options, RewriteOptions(),
                             SchemaFacts::Compute(sigma), &metrics);
    ASSERT_EQ(oracle.rewriting(), nullptr) << c.q;

    std::vector<Term> terms;
    for (int i = 0; i < 5; ++i) {
      terms.push_back(Term::Variable("po$" + std::to_string(i)));
    }
    terms.push_back(Term::Constant("a"));
    terms.push_back(Term::Constant("b"));
    std::vector<ConjunctiveQuery> candidates;
    while (candidates.size() < 150) {
      std::vector<Atom> body;
      const int num_atoms = 1 + static_cast<int>(rng() % 4);
      for (int i = 0; i < num_atoms; ++i) {
        auto term = [&] { return terms[rng() % terms.size()]; };
        if (c.unary != nullptr && rng() % 4 == 0) {
          body.push_back(Atom(Predicate::Get(c.unary, 1), {term()}));
        } else {
          body.push_back(Atom(binary[rng() % binary.size()], {term(), term()}));
        }
      }
      std::vector<Term> head;
      if (q.arity() == 1) {
        Term h = body[rng() % body.size()].arg(0);
        if (!h.IsVariable()) continue;
        head.push_back(h);
      }
      candidates.emplace_back(std::move(head), std::move(body));
    }
    std::vector<Tri> want;
    for (const ConjunctiveQuery& cand : candidates) {
      want.push_back(ContainedUnder(cand, q, sigma, chase_options));
      ASSERT_EQ(oracle.ContainedInQ(cand), want.back()) << cand.ToString();
      QueryChaseResult chased = ChaseQuery(cand, sigma, chase_options);
      failed_chases += chased.failed ? 1 : 0;
      std::unordered_set<Term> images;
      for (const auto& [var, image] : chased.var_to_frozen) {
        images.insert(image);
      }
      merged_chases += images.size() < chased.var_to_frozen.size() ? 1 : 0;
      cut_chases += chased.saturated ? 0 : 1;
      yes += want.back() == Tri::kYes ? 1 : 0;
    }
    std::vector<std::vector<Tri>> got(4);
    std::vector<std::thread> threads;
    for (size_t t = 0; t < got.size(); ++t) {
      threads.emplace_back([&, t] {
        // Each thread walks the candidates from its own offset, so the
        // threads' checks interleave differently.
        got[t].resize(candidates.size());
        for (size_t k = 0; k < candidates.size(); ++k) {
          const size_t i = (k + t * 37) % candidates.size();
          got[t][i] = oracle.ContainedInQ(candidates[i]);
        }
      });
    }
    for (std::thread& th : threads) th.join();
    for (const std::vector<Tri>& answers : got) EXPECT_EQ(answers, want);
  }
  EXPECT_GT(failed_chases, 0u);
  EXPECT_GT(merged_chases, 0u);
  EXPECT_GT(cut_chases, 0u);
  EXPECT_GT(yes, 0u);
}

// ------------------------------------------------- exhaustive search pins --

/// One exhaustive search and its committed outcome: the work counts, the
/// answer and the witness text ("" when there is none).
struct ExhaustivePin {
  const char* q;
  const char* sigma;
  size_t max_atoms;
  size_t budget;
  size_t visits, candidates, hom_pushes, classifier_pushes;
  const char* answer;
  const char* witness;
};

TEST(ExhaustiveSearchTest, TernaryConstantHeadOutcomesArePinned) {
  // The canonical-growth order compares predicate ids, then argument
  // handles by raw bits, so it interleaves head variables ("h$<j>"), pool
  // variables ("w$<i>") and constants by interning order. The rows of
  // bench_witness_pipeline use binary predicates and the decide-hard
  // queries are Boolean; these use a ternary predicate, a constant and a
  // non-Boolean head. The predicates and variable names are interned here
  // first, in a fixed order (Ep below Tp, though the queries mention Tp
  // first; head and pool variables alternating), so the enumeration does
  // not depend on which tests ran before; the assertions check that it
  // took. The pinned values were recorded before the argument walk was
  // bounded by the order, and hold after it.
  const uint32_t ep = Predicate::Get("Ep", 2).id();
  ASSERT_LT(ep, Predicate::Get("Tp", 3).id());
  const char* kOrder[] = {"w$0", "h$0", "w$1", "h$1", "w$2", "w$3", "h$2"};
  std::vector<uint32_t> bits;
  for (const char* name : kOrder) {
    bits.push_back(Term::Variable(name).raw_bits());
  }
  for (size_t i = 1; i < bits.size(); ++i) {
    ASSERT_LT(bits[i - 1], bits[i])
        << kOrder[i - 1] << " was interned after " << kOrder[i];
  }
  const ExhaustivePin kPins[] = {
      {"q(x,z) :- Tp(x,y,'pin'), Tp(y,z,x), Ep(z,x), Ep(x,y)",
       "Tp(x,y,w), Tp(y,z,x) -> Ep(z,x), Ep(x,y).", 3, 5000, 72, 11, 193,
       193, "yes",
       "q(h$0,h$1) :- Tp(h$0,w$0,w$1), Tp(h$0,w$2,'pin'), Tp(w$2,h$1,h$0)"},
      {"q(x,x,y) :- Tp(x,y,z), Ep(y,z), Ep(z,x), Ep(z,'pin')",
       "Tp(x,y,z) -> Ep(y,z), Ep(z,x).", 3, 5000, 968, 243, 2295, 2295,
       "yes",
       "q(h$0,h$0,h$1) :- Ep(w$0,h$0), Ep(w$1,'pin'), Tp(h$0,h$1,w$1)"},
      {"q(y,x) :- Tp(x,y,z), Tp(z,y,x), Ep(z,'pin'), Ep(x,z)",
       "Tp(x,y,z) -> Tp(z,y,x).", 4, 3000, 3001, 929, 5171, 5171, "unknown",
       ""},
  };
  for (const ExhaustivePin& pin : kPins) {
    const ConjunctiveQuery q = MustParseQuery(pin.q);
    const DependencySet sigma = MustParseDependencySet(pin.sigma);
    ChaseOptions chase_options;
    obs::MetricsRegistry metrics({}, {});
    const QueryChaseResult chase = ChaseQuery(q, sigma, chase_options);
    const ContainmentOracle oracle(q, sigma, chase_options, RewriteOptions(),
                                   SchemaFacts::Compute(sigma), &metrics);
    const WitnessSearchOutcome o = ExhaustiveWitnessSearch(
        q, sigma, chase, oracle, pin.max_atoms, pin.budget, 1,
        AcyclicityClass::kAlpha);
    EXPECT_EQ(o.visits, pin.visits) << pin.q;
    EXPECT_EQ(o.candidates_tested, pin.candidates) << pin.q;
    EXPECT_EQ(o.hom.pushes, pin.hom_pushes) << pin.q;
    EXPECT_EQ(o.classifier_pushes, pin.classifier_pushes) << pin.q;
    EXPECT_STREQ(ToString(o.answer), pin.answer) << pin.q;
    EXPECT_EQ(o.witness.has_value() ? o.witness->ToString() : "",
              pin.witness)
        << pin.q;
  }
}

}  // namespace
}  // namespace semacyc
